"""The full network: encoder-decoder, embedding head, competition output.

Five encoder blocks (conv-BN-ReLU twice, then 2x2 max pool) shrink a
tile by 2^5 while widening channels; five decoder blocks (nearest
upsample, conv-BN-ReLU) restore the tile size; a 1x1 convolution maps
to a D-dimensional per-pixel embedding. Embeddings are averaged over
superpixels and scored against a two-row codebook, and each superpixel
takes the class of its nearest prototype.

Checkpoints are self-describing: a small key=value config block rides
along with the named parameter payload, so loading needs no side input.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, reshape
from .competition import Codebook, class_distances, winner
from .data import BlobReader, write_atomic
from .errors import DataError
from .layers import (
    BatchNormLayer,
    Conv2dLayer,
    DropoutLayer,
    batch_norm,
    conv2d,
    dropout,
    maxpool2,
    relu,
    upsample_nearest2,
)
from .superpixel import SuperpixelMap, broadcast_labels, stack_maps, superpixel_mean

CHECKPOINT_MAGIC = b"DCNW"
CHECKPOINT_VERSION = 1

DEFAULT_BANDS = ("RED", "GREEN", "BLUE", "NIR", "NDVI", "DSM")

INFER_CHUNK_BYTES = 5 << 20
"""Byte budget for the largest temporary of one inference chunk; see
``infer_chunk``."""

# The one reading of the network this package implements: standard batch
# norm, the increasing logistic sigmoid, and the distance taken after the
# activation. Every DCNW config block names it, and loading refuses a file
# that names another.
READING = (
    ("sigmoid_form", "standard"),
    ("batchnorm_mode", "standard"),
    ("competition_form", "activated_difference"),
)


@dataclass(frozen=True)
class DcnConfig:
    """Architecture and initialization knobs.

    ``input_bands`` names the raster bands fed to the network, in
    order; the channel count follows from it. ``dropout_blocks`` lists
    the encoder blocks (0-based) whose outputs are dropped during
    training.
    """

    input_bands: tuple[str, ...] = DEFAULT_BANDS
    block_channels: tuple[int, ...] = (32, 64, 128, 256, 512)
    embedding_dim: int = 16
    dropout_rate: float = 0.5
    dropout_blocks: tuple[int, ...] = (3, 4)
    tile_size: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_bands", tuple(self.input_bands))
        object.__setattr__(self, "block_channels", tuple(int(c) for c in self.block_channels))
        object.__setattr__(self, "dropout_blocks", tuple(int(b) for b in self.dropout_blocks))
        if len(self.input_bands) < 1:
            raise ValueError("input_bands must name at least one band")
        if len(set(self.input_bands)) != len(self.input_bands):
            raise ValueError("input_bands must be unique")
        if len(self.block_channels) != 5:
            raise ValueError(
                f"block_channels must list exactly 5 widths, got {len(self.block_channels)}"
            )
        if any(c < 1 for c in self.block_channels):
            raise ValueError("block_channels must be positive")
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if any(not 0 <= b < 5 for b in self.dropout_blocks):
            raise ValueError("dropout_blocks must index encoder blocks 0..4")
        if self.tile_size < 32 or self.tile_size % 32 != 0:
            raise ValueError(
                f"tile_size must be a positive multiple of 32, got {self.tile_size}"
            )

    @property
    def input_channels(self) -> int:
        return len(self.input_bands)


@dataclass
class EncoderBlock:
    conv1: Conv2dLayer
    bn1: BatchNormLayer
    conv2: Conv2dLayer
    bn2: BatchNormLayer


@dataclass
class DecoderBlock:
    conv: Conv2dLayer
    bn: BatchNormLayer


@dataclass
class DcnModel:
    config: DcnConfig
    encoder: list[EncoderBlock]
    decoder: list[DecoderBlock]
    head: Conv2dLayer
    codebook: Codebook
    dropouts: dict[int, DropoutLayer]
    global_step: int = 0
    _param_slots: dict = field(default_factory=dict, repr=False)
    _buffer_slots: dict = field(default_factory=dict, repr=False)

    def _register(self) -> None:
        params, buffers = {}, {}
        for i, blk in enumerate(self.encoder):
            for tag, conv, bn in (("1", blk.conv1, blk.bn1), ("2", blk.conv2, blk.bn2)):
                params[f"enc{i}.conv{tag}.kernel"] = (conv, "kernel")
                params[f"enc{i}.conv{tag}.bias"] = (conv, "bias")
                params[f"enc{i}.bn{tag}.gamma"] = (bn, "gamma")
                params[f"enc{i}.bn{tag}.beta"] = (bn, "beta")
                buffers[f"enc{i}.bn{tag}.running_mean"] = (bn, "running_mean")
                buffers[f"enc{i}.bn{tag}.running_var"] = (bn, "running_var")
        for i, blk in enumerate(self.decoder):
            params[f"dec{i}.conv.kernel"] = (blk.conv, "kernel")
            params[f"dec{i}.conv.bias"] = (blk.conv, "bias")
            params[f"dec{i}.bn.gamma"] = (blk.bn, "gamma")
            params[f"dec{i}.bn.beta"] = (blk.bn, "beta")
            buffers[f"dec{i}.bn.running_mean"] = (blk.bn, "running_mean")
            buffers[f"dec{i}.bn.running_var"] = (blk.bn, "running_var")
        params["head.kernel"] = (self.head, "kernel")
        params["head.bias"] = (self.head, "bias")
        params["codebook.prototypes"] = (self.codebook, "prototypes")
        self._param_slots = params
        self._buffer_slots = buffers

    def parameters(self) -> dict[str, Tensor]:
        return {n: getattr(o, a) for n, (o, a) in self._param_slots.items()}

    def buffers(self) -> dict[str, Tensor]:
        return {n: getattr(o, a) for n, (o, a) in self._buffer_slots.items()}

    def set_parameter(self, name: str, value: Tensor) -> None:
        obj, attr = self._param_slots[name]
        if getattr(obj, attr).shape != value.shape:
            raise ValueError(f"shape mismatch for {name}")
        setattr(obj, attr, value)

    def set_buffer(self, name: str, value: Tensor) -> None:
        obj, attr = self._buffer_slots[name]
        if getattr(obj, attr).shape != value.shape:
            raise ValueError(f"shape mismatch for {name}")
        setattr(obj, attr, value)


def _he_kernel(rng: np.random.Generator, kh, kw, cin, cout, dtype) -> Tensor:
    std = np.sqrt(2.0 / (kh * kw * cin))
    data = (rng.standard_normal((kh, kw, cin, cout)) * std).astype(dtype)
    return Tensor(data, requires_grad=True)


def _conv_layer(rng, kh, kw, cin, cout, dtype) -> Conv2dLayer:
    return Conv2dLayer(
        kernel=_he_kernel(rng, kh, kw, cin, cout, dtype),
        bias=Tensor(np.zeros(cout, dtype=dtype), requires_grad=True),
    )


def _conv_kernels(config: DcnConfig) -> list[tuple[str, tuple[int, int, int, int]]]:
    """Name and [kh, kw, c_in, c_out] kernel shape of every conv, in build order."""
    bc = config.block_channels
    dec_out = (bc[3], bc[2], bc[1], bc[0], bc[0])
    kernels = []
    for i, (cin, c) in enumerate(zip((config.input_channels, *bc[:4]), bc)):
        kernels += [(f"enc{i}.conv1", (3, 3, cin, c)), (f"enc{i}.conv2", (3, 3, c, c))]
    for i, (cin, c) in enumerate(zip((bc[4], *dec_out[:4]), dec_out)):
        kernels.append((f"dec{i}.conv", (3, 3, cin, c)))
    kernels.append(("head", (1, 1, dec_out[-1], config.embedding_dim)))
    return kernels


def _tensor_shapes(config: DcnConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter and buffer of ``build(config)``, allocating none."""
    shapes = {}
    for name, kernel in _conv_kernels(config):
        shapes[f"{name}.kernel"] = kernel
        shapes[f"{name}.bias"] = kernel[3:]
        if name != "head":
            norm = name.replace("conv", "bn")  # enc0.conv1 -> enc0.bn1
            for slot in ("gamma", "beta", "running_mean", "running_var"):
                shapes[f"{norm}.{slot}"] = kernel[3:]
    shapes["codebook.prototypes"] = (2, config.embedding_dim)
    return shapes


def build(config: DcnConfig, dtype=np.float32) -> DcnModel:
    """Deterministically initialize a model from the config seed."""
    rng = np.random.default_rng(config.seed)
    convs = {name: _conv_layer(rng, *kernel, dtype) for name, kernel in _conv_kernels(config)}

    def norm(conv):
        return BatchNormLayer.create(convs[conv].bias.shape[0], dtype=dtype)

    encoder = [
        EncoderBlock(
            conv1=convs[f"enc{i}.conv1"],
            bn1=norm(f"enc{i}.conv1"),
            conv2=convs[f"enc{i}.conv2"],
            bn2=norm(f"enc{i}.conv2"),
        )
        for i in range(len(config.block_channels))
    ]
    decoder = [
        DecoderBlock(conv=convs[f"dec{i}.conv"], bn=norm(f"dec{i}.conv"))
        for i in range(len(config.block_channels))
    ]
    codebook = Codebook.create(config.embedding_dim, dtype=dtype)
    dropouts = {
        b: DropoutLayer(config.dropout_rate, seed=config.seed + 1000 + b)
        for b in config.dropout_blocks
    }

    model = DcnModel(
        config=config,
        encoder=encoder,
        decoder=decoder,
        head=convs["head"],
        codebook=codebook,
        dropouts=dropouts,
    )
    model._register()
    return model


def embed_batch(model: DcnModel, batch: Tensor, phase: str) -> Tensor:
    """Encoder-decoder-head pass: [n, t, t, c_in] -> [n, t, t, D].

    Batch statistics in every norm layer are shared across the whole
    batch, so tiles trained together see one normalization.
    """
    cfg = model.config
    ts = cfg.tile_size
    if batch.data.ndim != 4 or batch.shape[1:3] != (ts, ts):
        raise ValueError(f"tile batch must be [n, {ts}, {ts}, c], got {batch.shape}")
    if batch.shape[3] != cfg.input_channels:
        raise ValueError(
            f"tile batch has {batch.shape[3]} channels, config expects {cfg.input_channels}"
        )
    x = batch
    for i, blk in enumerate(model.encoder):
        x = relu(batch_norm(conv2d(x, blk.conv1), blk.bn1, phase))
        x = relu(batch_norm(conv2d(x, blk.conv2), blk.bn2, phase))
        x = maxpool2(x)
        if i in model.dropouts:
            x = dropout(x, model.dropouts[i], phase)
    for blk in model.decoder:
        x = upsample_nearest2(x)
        x = relu(batch_norm(conv2d(x, blk.conv), blk.bn, phase))
    return conv2d(x, model.head)


def embed(model: DcnModel, tile: Tensor, phase: str) -> Tensor:
    """Encoder-decoder-head pass for one tile: [t, t, c_in] -> [t, t, D]."""
    if tile.data.ndim != 3:
        raise ValueError(f"tile must be [t, t, c], got {tile.shape}")
    h, w, c = tile.shape
    out = embed_batch(model, reshape(tile, (1, h, w, c)), phase)
    return reshape(out, (h, w, model.config.embedding_dim))


def forward(
    model: DcnModel, tile: Tensor, spmap: SuperpixelMap, phase: str
) -> tuple[Tensor, np.ndarray]:
    """Full pass on one [t, t, c_in] tile: class distances and label raster.

    The one-tile case of ``forward_batch``.
    """
    if tile.data.ndim != 3:
        raise ValueError(f"tile must be [t, t, c], got {tile.shape}")
    h, w, c = tile.shape
    distances, rasters = forward_batch(model, reshape(tile, (1, h, w, c)), [spmap], phase)
    return distances, rasters[0]


def forward_batch(
    model: DcnModel, batch: Tensor, spmaps: list[SuperpixelMap], phase: str
) -> tuple[Tensor, np.ndarray]:
    """Full pass on an [n, t, t, c_in] batch with one superpixel map per tile.

    Returns the class distances of every superpixel, tile after tile in
    map order, and the [n, t, t] label rasters. In the infer phase every
    tile's outputs are those it gets in a batch of its own: the norms use
    their running statistics, and pooling, distances and winners work
    segment by segment.
    """
    ts = model.config.tile_size
    if len(spmaps) != batch.shape[0]:
        raise ValueError(f"{len(spmaps)} superpixel maps for {batch.shape[0]} tiles")
    for spmap in spmaps:
        if spmap.shape != (ts, ts):
            raise ValueError(f"superpixel map covers {spmap.shape}, tile is {(ts, ts)}")
    n = len(spmaps)
    emb = embed_batch(model, batch, phase)
    tall = stack_maps(spmaps)
    pooled = superpixel_mean(tall, reshape(emb, (n * ts, ts, model.config.embedding_dim)))
    distances = class_distances(pooled, model.codebook)
    rasters = broadcast_labels(tall, winner(distances)).reshape(n, ts, ts)
    return distances, rasters


def infer_chunk(config: DcnConfig) -> int:
    """Tiles per inference chunk under ``INFER_CHUNK_BYTES``.

    The largest per-tile temporary of an infer pass is the im2col
    columns of the widest 3x3 conv: ``9 * c_in * side**2`` float32
    values, where the first conv takes the input bands at full side and
    the encoder's second conv and the decoder conv of block i both take
    ``block_channels[i]`` at side ``t >> i``. The first conv alone,
    ``36 * c * t * t`` bytes, outweighs SLIC's float64 padded planes of
    the same tile, at most ``8 * c * (2t - 1)**2`` bytes, so the columns
    set the chunk. A model too wide for the budget runs one tile at a time.
    """
    t = config.tile_size
    widest = max(
        [config.input_channels * t * t]
        + [c * (t >> i) ** 2 for i, c in enumerate(config.block_channels)]
    )
    return max(1, INFER_CHUNK_BYTES // (9 * widest * 4))


def infer_rasters(
    model: DcnModel, tiles: list[np.ndarray], spmaps: list[SuperpixelMap]
) -> list[np.ndarray]:
    """Infer-phase label rasters of [t, t, c_in] tiles, chunk by chunk.

    Tiles go through ``forward_batch`` in chunks of ``infer_chunk``;
    each raster equals ``forward`` on its tile alone.
    """
    chunk = infer_chunk(model.config)
    rasters = []
    for lo in range(0, len(tiles), chunk):
        batch = Tensor(np.stack(tiles[lo : lo + chunk]), dtype=model.head.kernel.data.dtype)
        rasters.extend(forward_batch(model, batch, spmaps[lo : lo + chunk], "infer")[1])
    return rasters


def _config_to_text(config: DcnConfig) -> str:
    pairs = [
        ("input_bands", ",".join(config.input_bands)),
        ("block_channels", ",".join(str(c) for c in config.block_channels)),
        ("embedding_dim", str(config.embedding_dim)),
        ("dropout_rate", repr(config.dropout_rate)),
        ("dropout_blocks", ",".join(str(b) for b in config.dropout_blocks)),
        *READING,
        ("tile_size", str(config.tile_size)),
        ("seed", str(config.seed)),
    ]
    return "\n".join(f"{k}={v}" for k, v in pairs)


def _config_from_text(text: str, path: str) -> DcnConfig:
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise DataError(f"malformed config line in checkpoint: {line!r}")
        key, value = line.split("=", 1)
        fields[key] = value
    for key, supported in READING:
        value = fields.get(key)
        if value != supported:
            raise DataError(
                f"checkpoint {path}: unsupported {key} {value!r} (expected {supported!r})"
            )
    try:
        return DcnConfig(
            input_bands=tuple(fields["input_bands"].split(",")),
            block_channels=tuple(int(c) for c in fields["block_channels"].split(",")),
            embedding_dim=int(fields["embedding_dim"]),
            dropout_rate=float(fields["dropout_rate"]),
            dropout_blocks=tuple(
                int(b) for b in fields["dropout_blocks"].split(",") if b
            ),
            tile_size=int(fields["tile_size"]),
            seed=int(fields["seed"]),
        )
    except (KeyError, ValueError) as err:
        raise DataError(f"invalid checkpoint config: {err}") from err


def save_checkpoint(model: DcnModel, path: str, step: int | None = None) -> None:
    """Write the model to ``path`` atomically in the DCNW layout."""
    if step is None:
        step = model.global_step
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    cfg = _config_to_text(model.config).encode("utf-8")
    chunks.append(struct.pack("<I", len(cfg)))
    chunks.append(cfg)
    chunks.append(struct.pack("<Q", step))
    records = list(model.parameters().items()) + list(model.buffers().items())
    for name, tensor in records:
        nb = name.encode("utf-8")
        data = np.ascontiguousarray(tensor.data, dtype="<f4")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path: str) -> DcnModel:
    """Rebuild a model from a DCNW file, bit-exact in every parameter."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise DataError(f"cannot read checkpoint {path}: {err}") from err
    r = BlobReader(blob, f"checkpoint {path}")
    if r.take(4) != CHECKPOINT_MAGIC:
        raise DataError(f"bad magic in checkpoint {path}: not a DCNW file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"unsupported checkpoint version {version} in {path} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    config = _config_from_text(r.text(r.u32(), "config"), path)
    (step,) = r.unpack("<Q")

    tensors: dict[str, np.ndarray] = {}
    while r.pos < len(blob):
        name = r.text(r.u32(), "tensor name")
        rank = r.u32()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        data = np.frombuffer(r.take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
        if name in tensors:
            raise DataError(f"duplicate tensor {name!r} in checkpoint {path}")
        tensors[name] = data.copy()

    shapes = _tensor_shapes(config)
    missing = set(shapes) - set(tensors)
    if missing:
        raise DataError(f"checkpoint {path} is missing tensors: {sorted(missing)}")
    for name, data in tensors.items():
        if name not in shapes:
            raise DataError(f"unexpected tensor {name!r} in checkpoint {path}")
        if shapes[name] != data.shape:
            raise DataError(
                f"checkpoint {path}: tensor {name!r} has shape {data.shape}, "
                f"config implies {shapes[name]}"
            )
    model = build(config)
    params = model.parameters()
    for name, data in tensors.items():
        if name in params:
            model.set_parameter(name, Tensor(data, requires_grad=params[name].requires_grad))
        else:
            model.set_buffer(name, Tensor(data))
    model.global_step = step
    return model
