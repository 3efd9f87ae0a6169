"""Neural network building blocks on height-width-channel tensors.

Functional tape ops (``conv2d``, ``maxpool2``, ``upsample_nearest2``,
``relu``, ``sigmoid``, ``batch_norm``, ``dropout``) over value-semantic
tensors, with the parameters of the stateful ops carried in small layer
records (``Conv2dLayer``, ``BatchNormLayer``, ``DropoutLayer``). Spatial
ops take a single tile laid out ``[h, w, c]`` in row-major order; batch
normalization takes ``[n, h, w, c]``.

Convolution is cross-correlation with zero same-padding and stride 1,
restricted to odd kernel sizes so the padding is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _apply, mul

# unused here; perfbench/tracer.py patches these names in this module,
# so they stay importable from it
from .autodiff import add, div, sqrt, square, sub, tmean  # noqa: F401

MODES = ("standard", "literal")
PHASES = ("train", "infer")


def _check_phase(phase: str) -> bool:
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    return phase == "train"


@dataclass
class Conv2dLayer:
    """Same-padded stride-1 convolution parameters.

    ``kernel`` is laid out [kh, kw, c_in, c_out] with odd spatial
    extents so zero padding is symmetric; ``bias`` is [c_out].
    """

    kernel: Tensor
    bias: Tensor
    padding: str = "same"
    stride: int = 1

    def __post_init__(self) -> None:
        if self.kernel.data.ndim != 4:
            raise ValueError(
                f"kernel must be [kh, kw, cin, cout], got {self.kernel.shape}"
            )
        kh, kw, _, cout = self.kernel.shape
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"kernel extents must be odd, got {kh}x{kw}")
        if self.bias.shape != (cout,):
            raise ValueError(f"bias must be [{cout}], got {self.bias.shape}")
        if self.kernel.data.dtype != self.bias.data.dtype:
            raise ValueError("kernel and bias must share one dtype")
        if self.padding != "same" or self.stride != 1:
            raise ValueError("only same padding with stride 1 is supported")


@dataclass
class BatchNormLayer:
    """Per-channel normalization state.

    ``standard`` mode divides the centred input by sqrt(var + epsilon)
    and applies the learned gamma/beta; ``literal`` mode divides by
    (var + epsilon) directly and ignores gamma and beta. Running
    buffers fold in batch statistics with the given momentum during
    training and drive normalization at inference.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor
    epsilon: float = 1e-5
    momentum: float = 0.9
    mode: str = "standard"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        c = self.gamma.shape
        if not (self.beta.shape == self.running_mean.shape == self.running_var.shape == c):
            raise ValueError("gamma, beta and running buffers must share shape [c]")
        if (self.running_var.data < 0).any():
            raise ValueError("running_var must be non-negative")

    @classmethod
    def create(
        cls,
        channels: int,
        mode: str = "standard",
        epsilon: float = 1e-5,
        momentum: float = 0.9,
        dtype=np.float32,
    ) -> "BatchNormLayer":
        if channels <= 0:
            raise ValueError(f"channels must be positive, got {channels}")
        return cls(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=Tensor(np.zeros(channels, dtype=dtype)),
            running_var=Tensor(np.ones(channels, dtype=dtype)),
            epsilon=epsilon,
            momentum=momentum,
            mode=mode,
        )


@dataclass
class DropoutLayer:
    """Inverted-dropout configuration with a private seeded generator."""

    rate: float
    seed: int
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {self.rate}")
        self.rng = np.random.default_rng(self.seed)

    def reseed(self) -> None:
        """Rewind the mask stream to its start."""
        self.rng = np.random.default_rng(self.seed)


def _correlate(xd: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation on [n, h, w, cin]."""
    n, h, w, cin = xd.shape
    kh, kw, _, cout = kd.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    # windows arrive as [n, h, w, cin, kh, kw]; reorder so the flattened
    # column axis matches the kernel's (kh, kw, cin) layout
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        n, h, w, kh * kw * cin
    )
    out = cols @ kd.reshape(kh * kw * cin, cout)
    return out, cols


def conv2d(x: Tensor, layer: Conv2dLayer) -> Tensor:
    """2-d convolution: [h, w, cin] or [n, h, w, cin], channels last."""
    if x.data.ndim not in (3, 4):
        raise ValueError(f"conv2d input must be [h, w, c] or [n, h, w, c], got {x.shape}")
    kernel, bias = layer.kernel, layer.bias
    kh, kw, cin, cout = kernel.shape
    if x.shape[-1] != cin:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[-1]}, kernel expects {cin}"
        )
    if not (x.data.dtype == kernel.data.dtype == bias.data.dtype):
        raise ValueError("conv2d operands must share one dtype")

    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    kd = kernel.data
    out, cols = _correlate(xd, kd)
    out = out + bias.data
    n, h, w, _ = xd.shape
    if single:
        out = out[0]

    def bwd(g):
        gb4 = g[None] if single else g
        gk = cols.reshape(n * h * w, -1).T @ gb4.reshape(n * h * w, cout)
        gb = gb4.sum(axis=(0, 1, 2))
        # adjoint of same-padded correlation: correlate the output
        # gradient with the spatially flipped kernel, roles swapped
        k_adj = np.ascontiguousarray(kd[::-1, ::-1].transpose(0, 1, 3, 2))
        gx, _ = _correlate(gb4, k_adj)
        return gx[0] if single else gx, gk.reshape(kh, kw, cin, cout), gb

    return _apply("conv2d", (x, kernel, bias), out, bwd)


def maxpool2(x: Tensor) -> tuple[Tensor, np.ndarray]:
    """2x2 non-overlapping max pool; also returns the winner index map.

    Accepts [h, w, c] or [n, h, w, c]. The map holds the flat within-
    sample position ``y * w + x`` of each selected maximum; ties go to
    the lowest flat position in the window.
    """
    if x.data.ndim not in (3, 4):
        raise ValueError(f"maxpool2 input must be [h, w, c] or [n, h, w, c], got {x.shape}")
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    n, h, w, c = xd.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even extents, got {h}x{w}")
    h2, w2 = h // 2, w // 2

    win = xd.reshape(n, h2, 2, w2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h2, w2, 4, c)
    k = win.argmax(axis=3)
    out = np.take_along_axis(win, k[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    ys = 2 * np.arange(h2, dtype=np.int64)[None, :, None, None] + k // 2
    xs = 2 * np.arange(w2, dtype=np.int64)[None, None, :, None] + k % 2
    idx = ys * w + xs
    if single:
        out, idx = out[0], idx[0]

    def bwd(g):
        g4 = g[None] if single else g
        flat = idx.reshape(n, h2 * w2, c) if not single else idx[None].reshape(n, h2 * w2, c)
        # pool windows are disjoint, so plain assignment scatters correctly
        gx = np.zeros((n, h * w, c), dtype=g4.dtype)
        gx[np.arange(n)[:, None, None], flat, np.arange(c)] = g4.reshape(n, h2 * w2, c)
        gx = gx.reshape(n, h, w, c)
        return (gx[0] if single else gx,)

    return _apply("maxpool2", (x,), out, bwd), idx


def upsample_nearest2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsample of the two spatial axes."""
    if x.data.ndim not in (3, 4):
        raise ValueError(
            f"upsample_nearest2 input must be [h, w, c] or [n, h, w, c], got {x.shape}"
        )
    lead = x.shape[:-3]
    h, w, c = x.shape[-3:]
    out = x.data.repeat(2, axis=-3).repeat(2, axis=-2)

    def bwd(g):
        return (g.reshape(*lead, h, 2, w, 2, c).sum(axis=(-4, -2)),)

    return _apply("upsample_nearest2", (x,), out, bwd)


def relu(x: Tensor) -> Tensor:
    xd = x.data
    out = np.maximum(xd, 0)

    def bwd(g):
        return (g * (xd > 0),)

    return _apply("relu", (x,), out, bwd)


def _stable_logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow at large |z|."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor, form: str = "standard") -> Tensor:
    """Logistic squashing to (0, 1).

    ``standard`` is the increasing form 1/(1+exp(-x)); ``literal`` is the
    decreasing mirror 1/(1+exp(x)).
    """
    if form not in MODES:
        raise ValueError(f"sigmoid form must be one of {MODES}, got {form!r}")
    sign = 1.0 if form == "standard" else -1.0
    out = _stable_logistic(sign * x.data)

    def bwd(g):
        return (sign * g * out * (1.0 - out),)

    return _apply("sigmoid", (x,), out, bwd)


def batch_norm(batch: Tensor, layer: BatchNormLayer, phase: str) -> Tensor:
    """Per-channel batch normalization over [n, h, w, c] activations.

    Training normalizes by batch statistics (population variance) and
    folds them into the running buffers; inference normalizes by the
    buffers and leaves them untouched. The whole layer is one tape op
    whose backward is the closed form of Ioffe & Szegedy (2015): with
    ``xc = x - mean`` and ``inv`` the reciprocal of the divisor, the
    centred gradient is ``gy * inv + xc * 2 * gvar / N`` and the input
    gradient is that minus its per-channel mean (training only, since
    inference statistics are constants).
    """
    training = _check_phase(phase)
    if batch.data.ndim != 4:
        raise ValueError(f"batch norm input must be [n, h, w, c], got {batch.shape}")
    channels = layer.gamma.shape[0]
    if batch.shape[3] != channels:
        raise ValueError(f"batch norm expects {channels} channels, got {batch.shape[3]}")
    if (layer.running_var.data < 0).any():
        raise ValueError("running_var must be non-negative")
    x = batch.data
    dtype = x.dtype
    axes = (0, 1, 2)
    if training:
        mu = x.mean(axis=axes, dtype=dtype)
        xc = x - mu
        var = (xc * xc).mean(axis=axes, dtype=dtype)
        m = layer.momentum
        rdtype = layer.running_mean.data.dtype
        layer.running_mean = Tensor._wrap(
            (m * layer.running_mean.data + (1.0 - m) * mu).astype(rdtype)
        )
        layer.running_var = Tensor._wrap(
            (m * layer.running_var.data + (1.0 - m) * var).astype(rdtype)
        )
    else:
        var = layer.running_var.data.astype(dtype)
        xc = x - layer.running_mean.data.astype(dtype)
    literal = layer.mode == "literal"
    shifted = var + np.asarray(layer.epsilon, dtype=dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        # literal mode divides by the variance itself, standard by its root
        divisor = shifted if literal else np.sqrt(shifted)
        out = xc / divisor
        inv = 1.0 / divisor
    gamma = layer.gamma.data
    if not literal:
        out *= gamma
        out += layer.beta.data
    count = x.size // channels

    # the gradient reaching the normalized values is gy * gamma (standard)
    # or gy (literal); ``scale`` folds that factor into ``inv``
    scale = inv if literal else gamma * inv

    def bwd(g):
        gy_xc = (g * xc).sum(axis=axes, dtype=dtype)
        gx = g * scale
        if training:
            # d inv / d var: -inv^2 for 1/(var+eps), -inv^3/2 for its root
            dinv = -inv * inv if literal else -0.5 * inv * inv * inv
            gvar = (gy_xc if literal else gy_xc * gamma) * dinv
            gx += xc * (2.0 * gvar / count)
            gx -= gx.mean(axis=axes, dtype=dtype)
        if literal:
            return gx, None, None
        return gx, gy_xc * inv, g.sum(axis=axes, dtype=dtype)

    return _apply("batch_norm", (batch, layer.gamma, layer.beta), out, bwd)


def dropout(x: Tensor, layer: DropoutLayer, phase: str) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Surviving activations are scaled by 1/(1-rate) during training so
    the expected value is preserved; inference and rate 0 return the
    input tensor unchanged. Mask draws advance the layer's private
    generator, so a fixed seed replays the same mask sequence.
    """
    training = _check_phase(phase)
    if not training or layer.rate == 0.0:
        return x
    keep = 1.0 - layer.rate
    mask = (layer.rng.random(x.shape) < keep).astype(x.data.dtype) / np.asarray(
        keep, dtype=x.data.dtype
    )
    return mul(x, Tensor._wrap(mask))
