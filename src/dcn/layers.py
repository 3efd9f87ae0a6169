"""Neural network building blocks on batch-height-width-channel tensors.

Functional tape ops (``conv2d``, ``maxpool2``, ``upsample_nearest2``,
``relu``, ``batch_norm``, ``dropout``) over value-semantic tensors, with
the parameters of the stateful ops carried in small layer records
(``Conv2dLayer``, ``BatchNormLayer``, ``DropoutLayer``). Spatial ops and
batch normalization take batches laid out ``[n, h, w, c]`` in row-major
order; a single tile is a batch of one.

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

PHASES = ("train", "infer")

BN_EPSILON = 1e-5
"""Added to the variance before its square root in ``batch_norm``."""

BN_MOMENTUM = 0.9
"""Share of the old running statistics kept at each training step."""


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


@dataclass
class BatchNormLayer:
    """Per-channel normalization state.

    The centred input is divided by sqrt(var + BN_EPSILON) and scaled and
    shifted by the learned gamma/beta. Running buffers fold in batch
    statistics with momentum BN_MOMENTUM during training and drive
    normalization at inference.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor

    def __post_init__(self) -> None:
        c = self.gamma.shape
        if not (self.beta.shape == self.running_mean.shape == self.running_var.shape == c):
            raise ValueError("gamma, beta and running buffers must share shape [c]")
        if (self.running_var.data < 0).any():
            raise ValueError("running_var must be non-negative")

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "BatchNormLayer":
        if channels <= 0:
            raise ValueError(f"channels must be positive, got {channels}")
        return cls(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=Tensor(np.zeros(channels, dtype=dtype)),
            running_var=Tensor(np.ones(channels, dtype=dtype)),
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


def _correlate(xd: np.ndarray, kd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded stride-1 cross-correlation on [n, h, w, cin].

    The im2col columns ``[n*h*w, kh*kw*cin]`` go through one 2-D GEMM
    with the kernel viewed as ``[kh*kw*cin, cout]``. Returns the output
    reshaped to [n, h, w, cout] and the columns.
    """
    n, h, w, cin = xd.shape
    kh, kw, _, cout = kd.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    # windows arrive as [n, h, w, cin, kh, kw]; reorder so the flattened
    # column axis matches the kernel's (kh, kw, cin) layout
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        n * h * w, kh * kw * cin
    )
    out = (cols @ kd.reshape(kh * kw * cin, cout)).reshape(n, h, w, cout)
    return out, cols


def _check_batch(op: str, x: Tensor) -> None:
    if x.data.ndim != 4:
        raise ValueError(f"{op} input must be [n, h, w, c], got {x.shape}")


def conv2d(x: Tensor, layer: Conv2dLayer) -> Tensor:
    """2-d convolution of an [n, h, w, cin] batch, channels last.

    The backward rule skips the input gradient (returns ``None``) when
    ``x`` does not require grad, as for the data batch.
    """
    _check_batch("conv2d", x)
    kernel, bias = layer.kernel, layer.bias
    kh, kw, cin, cout = kernel.shape
    if x.shape[-1] != cin:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[-1]}, kernel expects {cin}"
        )
    if not (x.data.dtype == kernel.data.dtype == bias.data.dtype):
        raise ValueError("conv2d operands must share one dtype")

    kd = kernel.data
    out, cols = _correlate(x.data, kd)
    out = out + bias.data
    needs_gx = x.requires_grad

    def bwd(g):
        gk = cols.T @ g.reshape(cols.shape[0], cout)
        gb = g.sum(axis=(0, 1, 2))
        gx = None
        if needs_gx:
            # adjoint of same-padded correlation: correlate the output
            # gradient with the spatially flipped kernel, roles swapped
            k_adj = np.ascontiguousarray(kd[::-1, ::-1].transpose(0, 1, 3, 2))
            gx, _ = _correlate(g, k_adj)
        return gx, gk.reshape(kh, kw, cin, cout), gb

    return _apply("conv2d", (x, kernel, bias), out, bwd)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping max pool of an [n, h, w, c] batch.

    The gradient of each output goes to the position of its window's
    maximum; ties go to the lowest flat position ``y * w + x``.
    """
    _check_batch("maxpool2", x)
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even extents, got {h}x{w}")
    h2, w2 = h // 2, w // 2

    # each window's four values in flat order on axis 3: [n, h2, w2, 4, c]
    win = x.data.reshape(n, h2, 2, w2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h2, w2, 4, c)
    k = win.argmax(axis=3)[:, :, :, None, :]
    out = np.take_along_axis(win, k, axis=3)[:, :, :, 0, :]

    def bwd(g):
        gwin = np.zeros((n, h2, w2, 4, c), dtype=g.dtype)
        np.put_along_axis(gwin, k, g[:, :, :, None, :], axis=3)
        return (gwin.reshape(n, h2, w2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h, w, c),)

    return _apply("maxpool2", (x,), out, bwd)


def upsample_nearest2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsample of the spatial axes of an [n, h, w, c] batch."""
    _check_batch("upsample_nearest2", x)
    n, h, w, c = x.shape
    out = x.data.repeat(2, axis=1).repeat(2, axis=2)

    def bwd(g):
        return (g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4)),)

    return _apply("upsample_nearest2", (x,), out, bwd)


def relu(x: Tensor) -> Tensor:
    xd = x.data
    out = np.maximum(xd, 0)

    def bwd(g):
        return (g * (xd > 0),)

    return _apply("relu", (x,), out, bwd)


def batch_norm(batch: Tensor, layer: BatchNormLayer, phase: str) -> Tensor:
    """Per-channel batch normalization over [n, h, w, c] activations.

    Training normalizes by batch statistics (population variance) and
    folds them into the running buffers; inference normalizes by the
    buffers and leaves them untouched. The whole layer is one tape op
    whose backward is the closed form of Ioffe & Szegedy (2015): with
    ``xc = x - mean`` and ``inv = 1 / sqrt(var + BN_EPSILON)``, the
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
        m = BN_MOMENTUM
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
    shifted = var + np.asarray(BN_EPSILON, dtype=dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        divisor = np.sqrt(shifted)
        out = xc / divisor
        inv = 1.0 / divisor
    gamma = layer.gamma.data
    out *= gamma
    out += layer.beta.data
    count = x.size // channels

    # the gradient reaching the normalized values is gy * gamma; ``scale``
    # folds that factor into ``inv``
    scale = gamma * inv

    def bwd(g):
        gy_xc = (g * xc).sum(axis=axes, dtype=dtype)
        gx = g * scale
        if training:
            # d inv / d var for inv = (var + eps)^(-1/2)
            dinv = -0.5 * inv * inv * inv
            gvar = gy_xc * gamma * dinv
            gx += xc * (2.0 * gvar / count)
            gx -= gx.mean(axis=axes, dtype=dtype)
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
