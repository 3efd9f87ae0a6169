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

from .autodiff import Tensor, _apply

# unused here; perfbench/tracer.py patches these names in this module,
# so they stay importable from it
from .autodiff import add, div, mul, sqrt, square, sub, tmean  # noqa: F401

PHASES = ("train", "infer")

COLUMN_BYTES = 2 << 20
"""Byte budget for the im2col columns a convolution builds at once; see ``conv2d``.

2 MiB keeps a training step's largest temporaries near cache size, so
its peak memory is set by live activations rather than by the
allocator's high-water mark from column blocks of 7 to 12 MiB. At
``--batch 8 --window 64`` the 64 px convs of the narrow
``8,16,32,64,128`` model and the 32 and 64 px convs of the default
widths split: their correlations (the forward pass and the input
gradient) run a few tiles or one tile at a time, their kernel gradients
a kernel row or one tap at a time. A smaller budget would cut the split
products below about 10^6 M*N*K, where OpenBLAS picks kernels whose
bits differ from the full-batch GEMM's. Inference chunks
(``model.INFER_CHUNK_BYTES``, 5 MiB) also split, between whole tiles.
"""

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


def _windows(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The im2col columns ``[n*h*w, kh*kw*cin]`` of a padded [n, h+kh-1, w+kw-1, cin].

    Each row holds one output pixel's window in the kernel's
    ``(kh, kw, cin)`` order. A 1x1 window's columns are the ``[n*h*w,
    cin]`` reshape of the input: a view of a contiguous input, one
    strided copy of a sliced one.
    """
    n, hp, wp, cin = xp.shape
    if kh == kw == 1:
        return xp.reshape(n * hp * wp, cin)
    # windows arrive as [n, h, w, cin, kh, kw]; reorder so the flattened
    # column axis matches the kernel's (kh, kw, cin) layout
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * cin)


def _pad(xd: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """[n, h, w, cin] zero same-padded for a kh x kw kernel; a 1x1 kernel's is ``xd`` itself."""
    if kh == kw == 1:
        return xd
    n, h, w, cin = xd.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=xd.dtype)
    xp[:, ph : ph + h, pw : pw + w] = xd
    return xp


def _columns(xd: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The im2col columns ``[n*h*w, kh*kw*cin]`` of [n, h, w, cin], zero same-padded."""
    return _windows(_pad(xd, kh, kw), kh, kw)


def _correlate(xd: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation on [n, h, w, cin].

    The kernel is viewed as ``[kh*kw*cin, cout]``. The tiles go through
    it in runs whose im2col columns fit ``COLUMN_BYTES``, at least one
    tile a run, one GEMM each into the rows of a preallocated output;
    a batch within the budget is one GEMM. The runs are near-equal in
    size, so no run is a small remainder whose product takes another
    BLAS kernel.
    """
    n, h, w, _ = xd.shape
    kh, kw, cin, cout = kd.shape
    k2 = kd.reshape(kh * kw * cin, cout)
    per_run = max(1, COLUMN_BYTES // (h * w * kh * kw * cin * xd.itemsize))
    runs = -(-n // per_run)
    out = np.empty((n * h * w, cout), dtype=xd.dtype)
    for i in range(runs):
        a, b = n * i // runs, n * (i + 1) // runs
        np.matmul(_columns(xd[a:b], kh, kw), k2, out=out[a * h * w : b * h * w])
    return out.reshape(n, h, w, cout)


def _kernel_gradient(xd: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """``_columns(xd, kh, kw).T @ g`` as [kh*kw*cin, cout], built within ``COLUMN_BYTES``.

    While a kernel row ``dy`` fits the budget, the rows go in groups of
    as many as fit, each group's columns one strided copy of the padded
    input. A row above the budget goes one tap ``(dy, dx)`` at a time,
    its columns the ``[n*h*w, cin]`` copy of the input shifted by that
    tap. One GEMM writes each group's or tap's rows of the result.
    """
    n, h, w, cin = xd.shape
    cout = g.shape[-1]
    g2 = g.reshape(n * h * w, cout)
    xp = _pad(xd, kh, kw)
    gk = np.empty((kh * kw * cin, cout), dtype=xd.dtype)
    step = COLUMN_BYTES // (n * h * w * kw * cin * xd.itemsize)
    if step:
        parts = [(dy, 0, min(step, kh - dy), kw) for dy in range(0, kh, step)]
    else:
        parts = [(dy, dx, 1, 1) for dy in range(kh) for dx in range(kw)]
    for dy, dx, rows, cols in parts:
        window = xp[:, dy : dy + h + rows - 1, dx : dx + w + cols - 1]
        lo = (dy * kw + dx) * cin
        # unnamed, so a part's columns are freed before the next part's are built
        np.matmul(_windows(window, rows, cols).T, g2, out=gk[lo : lo + rows * cols * cin])
    return gk


# Channels-last ops run their per-channel work on the [n * h, w * c] row
# view, with each channel vector tiled along a row by ``np.tile(v, w)``:
# broadcasting a [c] vector over [n, h, w, c] gives the same bits but runs
# numpy's inner loop only c wide.
def _channel_sum(a: np.ndarray, w: int, c: int) -> np.ndarray:
    """Per-channel sums in one fixed order: the row view's rows, then its ``w`` groups."""
    return np.add.reduce(a.reshape(-1, w * c), axis=0).reshape(w, c).sum(axis=0)


def _check_batch(op: str, x: Tensor) -> None:
    if x.data.ndim != 4:
        raise ValueError(f"{op} input must be [n, h, w, c], got {x.shape}")


def conv2d(x: Tensor, layer: Conv2dLayer) -> Tensor:
    """2-d convolution of an [n, h, w, cin] batch, channels last.

    The bias is added on the ``[n * h, w * cout]`` row view of the output,
    and its gradient is the output gradient's per-channel sum on the same
    view, as batch norm takes its sums. The backward rule skips the
    input gradient (returns ``None``) when ``x`` does not require grad, as
    for the data batch. The backward keeps the input, not its im2col
    columns, and rebuilds them for the kernel gradient. Every column
    matrix, forward and backward, fits ``COLUMN_BYTES`` (2 MiB) unless it
    holds a single tile or tap: the correlations take a run of tiles at a
    time, the kernel gradient a group of kernel rows at a time, or one
    tap at a time where a row is above the budget. Each split result has
    the bits of the one full-batch GEMM.
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

    xd, kd = x.data, kernel.data
    out = _correlate(xd, kd)
    n, h, w, _ = out.shape
    rows = out.reshape(n * h, w * cout)
    rows += np.tile(bias.data, w)
    needs_gx = x.requires_grad

    def bwd(g):
        gk = _kernel_gradient(xd, g, kh, kw)
        gb = _channel_sum(g, w, cout)
        gx = None
        if needs_gx:
            # adjoint of same-padded correlation: correlate the output
            # gradient with the spatially flipped kernel, roles swapped
            k_adj = np.ascontiguousarray(kd[::-1, ::-1].transpose(0, 1, 3, 2))
            gx = _correlate(g, k_adj)
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
    """Elementwise ``max(x, 0)``; the backward masks by ``out > 0``, as ``x > 0`` would."""
    out = np.maximum(x.data, 0)

    def bwd(g):
        return (g * (out > 0),)

    return _apply("relu", (x,), out, bwd)


def batch_norm(batch: Tensor, layer: BatchNormLayer, phase: str) -> Tensor:
    """Per-channel batch normalization over [n, h, w, c] activations.

    Training normalizes by batch statistics (population variance) and
    folds them into the running buffers; inference normalizes by the
    buffers and leaves them untouched. Every per-channel sum is taken on
    the ``[n * h, w * c]`` row view in one fixed order (``_channel_sum``).
    The output is ``xc * (gamma * inv) + beta`` with ``xc = x - mean`` and
    ``inv = 1 / sqrt(var + BN_EPSILON)``.

    The whole layer is one tape op whose backward is the closed form of
    Ioffe & Szegedy (2015). With ``scale = gamma * inv``, the input
    gradient is ``g * scale`` in inference, whose statistics are
    constants, and in training ``g * scale - xc * scale * inv**2 *
    sum(g * xc) / N - scale * sum(g) / N``.
    """
    training = _check_phase(phase)
    _check_batch("batch norm", batch)
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
        mu = _channel_sum(x, w, channels) / count
        xc = rows - np.tile(mu, w)
        var = _channel_sum(xc * xc, w, channels) / count
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
        # naming the input here would keep it alive until backward
        g = g.reshape(xc.shape)
        gy_xc = _channel_sum(g * xc, w, channels)
        g_sum = _channel_sum(g, w, channels)
        gx = g * np.tile(scale, w)
        if training:
            gx -= xc * np.tile(scale * inv * inv * gy_xc / count, w)
            gx -= np.tile(scale * g_sum / count, w)
        return gx.reshape(n, h, w, channels), gy_xc * inv, g_sum

    return _apply("batch_norm", (batch, layer.gamma, layer.beta), out, bwd)


def dropout(x: Tensor, layer: DropoutLayer, phase: str) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Surviving activations are scaled by 1/(1-rate) during training so
    the expected value is preserved; inference and rate 0 return the
    input tensor unchanged. Mask draws advance the layer's private
    generator, so a fixed seed replays the same mask sequence. The
    backward keeps only the mask, not the input.
    """
    training = _check_phase(phase)
    if not training or layer.rate == 0.0:
        return x
    keep = 1.0 - layer.rate
    mask = (layer.rng.random(x.shape) < keep).astype(x.data.dtype) / np.asarray(
        keep, dtype=x.data.dtype
    )

    def bwd(g):
        return (g * mask,)

    return _apply("dropout", (x,), x.data * mask, bwd)
