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


# Channels-last ops take per-channel sums with ``_channel_sum`` and run
# their elementwise work on the [n * h, w * c] row view, with each channel
# vector tiled along a row by ``np.tile(v, w)``: broadcasting a [c] vector
# over [n, h, w, c] gives the same bits but runs numpy's inner loop only c
# wide.
def _channel_sum(a: np.ndarray, channels: int) -> np.ndarray:
    """Per-channel sums of a channels-last array as one GEMV, ``ones[N] @ a.reshape(N, c)``."""
    flat = a.reshape(-1, channels)
    return np.ones(flat.shape[0], dtype=a.dtype) @ flat


def _check_batch(op: str, x: Tensor) -> None:
    if x.data.ndim != 4:
        raise ValueError(f"{op} input must be [n, h, w, c], got {x.shape}")


def conv2d(x: Tensor, layer: Conv2dLayer) -> Tensor:
    """2-d convolution of an [n, h, w, cin] batch, channels last.

    The bias is added on the ``[n * h, w * cout]`` row view of the output,
    and its gradient is one GEMV over the ``[N, cout]`` view of the output
    gradient, as batch norm takes its sums. The backward rule skips the
    input gradient (returns ``None``) when ``x`` does not require grad, as
    for the data batch.
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
    n, h, w, _ = out.shape
    rows = out.reshape(n * h, w * cout)
    rows += np.tile(bias.data, w)
    needs_gx = x.requires_grad

    def bwd(g):
        gk = cols.T @ g.reshape(cols.shape[0], cout)
        gb = _channel_sum(g, cout)
        gx = None
        if needs_gx:
            # adjoint of same-padded correlation: correlate the output
            # gradient with the spatially flipped kernel, roles swapped
            k_adj = np.ascontiguousarray(kd[::-1, ::-1].transpose(0, 1, 3, 2))
            gx, _ = _correlate(g, k_adj)
        return gx, gk.reshape(kh, kw, cin, cout), gb

    return _apply("conv2d", (x, kernel, bias), out, bwd)


def _quads(a: np.ndarray) -> list[np.ndarray]:
    """The four strided views of the 2x2 windows of [n, h, w, c].

    Listed in flat order within a window: (0,0), (0,1), (1,0), (1,1).
    """
    return [a[:, dy::2, dx::2, :] for dy in (0, 1) for dx in (0, 1)]


def maxpool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping max pool of an [n, h, w, c] batch.

    The output is the maximum of the four strided views ``x[:, dy::2,
    dx::2, :]``, folded from the last view (1,1) down to the first (0,0)
    so that a tie keeps the earlier view's value, as ``argmax`` would.
    The gradient of each output goes to the first view, in the order
    (0,0), (0,1), (1,0), (1,1), that equals it: ties go to the lowest
    flat position ``y * w + x``. The other inputs get ``+0.0``. The
    backward keeps only the input and output, no index array.
    """
    _check_batch("maxpool2", x)
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even extents, got {h}x{w}")

    views = _quads(x.data)
    # np.maximum returns its second operand when the two compare equal
    out = np.maximum(np.maximum(np.maximum(views[3], views[2]), views[1]), views[0])

    def bwd(g):
        # multiplying g's bit pattern by a 0/1 mask writes g where the mask
        # is set and all-zero bits, +0.0, elsewhere, with no float rounding
        bits = np.dtype(f"u{g.itemsize}")
        gbits = g.view(bits)
        gx = np.empty((n, h, w, c), dtype=bits)
        gviews = _quads(gx)
        taken = np.zeros(out.shape, dtype=bool)
        for view, gview in zip(views[:3], gviews):
            hit = view == out
            hit &= ~taken
            np.multiply(gbits, hit, out=gview)
            taken |= hit
        np.multiply(gbits, ~taken, out=gviews[3])
        return (gx.view(g.dtype),)

    return _apply("maxpool2", (x,), out, bwd)


def upsample_nearest2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsample of the spatial axes of an [n, h, w, c] batch.

    The input gradient sums the output gradient's four strided views as
    ``((g00 + g01) + g10) + g11``, the order of
    ``g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))`` bit for bit.
    """
    _check_batch("upsample_nearest2", x)
    out = x.data.repeat(2, axis=1).repeat(2, axis=2)

    def bwd(g):
        g00, g01, g10, g11 = _quads(g)
        return (((g00 + g01) + g10) + g11,)

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
    buffers and leaves them untouched. Every per-channel sum is one GEMV,
    ``ones[N] @ x.reshape(N, c)`` over the contiguous ``[N, c]`` view of
    the batch (``N = n * h * w``). The output is ``xc * (gamma * inv) +
    beta`` with ``xc = x - mean`` and ``inv = 1 / sqrt(var + BN_EPSILON)``.

    The whole layer is one tape op whose backward is the closed form of
    Ioffe & Szegedy (2015). With ``scale = gamma * inv``, the input
    gradient is ``g * scale`` in inference, whose statistics are
    constants, and in training ``g * scale - xc * scale * inv**2 *
    sum(g * xc) / N - scale * sum(g) / N``.
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
    n, h, w, _ = x.shape
    count = n * h * w
    rows = x.reshape(n * h, w * channels)
    if training:
        mu = _channel_sum(x, channels) / count
        xc = rows - np.tile(mu, w)
        var = _channel_sum(xc * xc, channels) / count
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
        xc = rows - np.tile(layer.running_mean.data.astype(dtype), w)
    shifted = var + np.asarray(BN_EPSILON, dtype=dtype)
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(shifted)
    gamma = layer.gamma.data
    scale = gamma * inv
    out = xc * np.tile(scale, w)
    out += np.tile(layer.beta.data, w)
    out = out.reshape(x.shape)

    def bwd(g):
        g = g.reshape(xc.shape)
        gy_xc = _channel_sum(g * xc, channels)
        g_sum = _channel_sum(g, channels)
        gx = g * np.tile(scale, w)
        if training:
            gx -= xc * np.tile(scale * inv * inv * gy_xc / count, w)
            gx -= np.tile(scale * g_sum / count, w)
        return gx.reshape(x.shape), gy_xc * inv, g_sum

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
