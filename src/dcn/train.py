"""Adam optimization, the tile training loop, metrics, and cost reporting.

Training treats each tile as one sample: its superpixel cross-entropy
is backpropagated on a private tape, per-tile gradients are averaged
over the batch in a fixed order (so reruns are bit-identical), and one
Adam step updates every parameter. Validation scores pixels, not
superpixels: predicted segment labels are broadcast back to the raster
and compared against the MASK band.

The error map uses the conventional palette: true positives white,
false positives red, false negatives blue, true negatives black.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import GradTape, Tensor, backward
from .competition import competition_loss, softmin_probs
from .data import TileRecord, write_atomic
from .errors import DataError, NumericError
from .model import DcnModel, forward_batch, infer_rasters, save_checkpoint
from .superpixel import segment_means

# unused here; perfbench/tracer.py patches these names in this module, so
# they stay importable from it
from .autodiff import reshape  # noqa: F401
from .competition import class_distances  # noqa: F401
from .model import embed_batch, forward  # noqa: F401
from .superpixel import superpixel_mean  # noqa: F401

ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# parameters whose coordinates must stay inside the unit box
_CLAMPED = ("codebook.prototypes",)

_PALETTE = np.array(
    [
        (0, 0, 0),  # true negative
        (255, 0, 0),  # false positive
        (0, 0, 255),  # false negative
        (255, 255, 255),  # true positive
    ],
    dtype=np.uint8,
)


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter.

    The hyperparameters are the ``ADAM_*`` constants.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("step counter must be non-negative")
        if set(self.m) != set(self.v):
            raise ValueError("m and v must cover the same parameters")

    @classmethod
    def create(cls, params: dict[str, Tensor]) -> "AdamState":
        m = {n: np.zeros_like(p.data) for n, p in params.items()}
        v = {n: np.zeros_like(p.data) for n, p in params.items()}
        return cls(m=m, v=v)


def adam_step(
    params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update; returns fresh parameter tensors.

    The moments in ``state`` are updated in place, and each step is built
    in one scratch array; the input parameter arrays are left untouched.

    ``grads`` holds one array per parameter. A missing or misshapen
    gradient is a ValueError and a non-finite one a NumericError, each
    naming the parameter, raised before ``state`` changes.
    """
    if set(params) != set(state.m):
        raise ValueError("optimizer state does not cover these parameters")
    checked = {}
    for name, param in params.items():
        g = grads.get(name)
        if g is None:
            raise ValueError(f"no gradient for parameter {name}")
        if g.shape != param.data.shape:
            raise ValueError(
                f"gradient for {name} has shape {g.shape}, parameter is {param.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        checked[name] = g.astype(param.data.dtype, copy=False)
    state.t += 1
    correct1 = 1.0 - ADAM_BETA1**state.t
    correct2 = 1.0 - ADAM_BETA2**state.t
    updated = {}
    for name, param in params.items():
        g = checked[name]
        m, v = state.m[name], state.v[name]
        # in the order b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and
        # lr*(m/c1) / (sqrt(v/c2) + eps), so the bits equal those of the
        # same expressions evaluated into fresh arrays
        scratch = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += scratch
        np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
        scratch *= g
        v *= ADAM_BETA2
        v += scratch
        data = np.divide(v, correct2)
        np.sqrt(data, out=data)
        data += ADAM_EPS
        np.divide(m, correct1, out=scratch)
        scratch *= ADAM_LR
        scratch /= data
        np.subtract(param.data, scratch, out=data)
        if name in _CLAMPED:
            np.clip(data, 0.0, 1.0, out=data)
        updated[name] = Tensor._wrap(data, requires_grad=param.requires_grad)
    return updated, state


@dataclass(frozen=True)
class TrainConfig:
    """Batch size, epochs and shuffling seed of one run.

    With ``checkpoint_path`` set, the model is saved there after every
    epoch, and before a numeric failure aborts the run.
    """

    batch_size: int = 64
    epochs: int = 250
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")


@dataclass
class TrainHistory:
    epoch: list[int] = field(default_factory=list)
    loss: list[float] = field(default_factory=list)
    val_iou: list = field(default_factory=list)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


@dataclass(frozen=True)
class CostReport:
    ne: int
    tt_seconds: float

    @property
    def cc_minutes(self) -> float:
        return self.ne * self.tt_seconds / 60.0


def computational_cost(ne: int, tt_seconds: float) -> CostReport:
    """Total training cost in minutes from epochs and seconds per epoch."""
    if ne < 1:
        raise ValueError(f"epoch count must be at least 1, got {ne}")
    if tt_seconds < 0:
        raise ValueError(f"seconds per epoch must be non-negative, got {tt_seconds}")
    return CostReport(ne=ne, tt_seconds=float(tt_seconds))


def _binary(name: str, arr: np.ndarray) -> np.ndarray:
    data = np.asarray(arr)
    if not np.isin(data, (0, 1)).all():
        raise ValueError(f"{name} mask must be binary")
    return data.astype(np.int64)


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    """Pixelwise tally of a binary prediction against binary truth."""
    p = _binary("pred", pred)
    t = _binary("truth", truth)
    if p.shape != t.shape:
        raise ValueError(f"pred shape {p.shape} != truth shape {t.shape}")
    # the code error_map colours by: 0 tn, 1 fp, 2 fn, 3 tp
    tn, fp, fn, tp = np.bincount((2 * t + p).ravel(), minlength=4).tolist()
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def overall_accuracy(c: ConfusionCounts) -> float:
    if c.total == 0:
        raise ValueError("overall accuracy is undefined on zero pixels")
    return (c.tp + c.tn) / c.total


IOU_EPS = 1e-15


def iou(c: ConfusionCounts) -> float:
    return c.tp / (c.tp + c.fn + c.fp + IOU_EPS)


def error_map(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """RGB rendering of the confusion classes, uint8 [h, w, 3]."""
    p = _binary("pred", pred)
    t = _binary("truth", truth)
    if p.shape != t.shape or p.ndim != 2:
        raise ValueError(f"pred/truth must be matching 2-d masks, got {p.shape} and {t.shape}")
    return _PALETTE[2 * t + p]


def write_ppm(image: np.ndarray, path: str) -> None:
    """Write an RGB image as binary PPM (P6, maxval 255), atomically."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected a uint8 [h, w, 3] image, got {img.dtype} {img.shape}")
    h, w = img.shape[:2]
    write_atomic(path, [f"P6\n{w} {h}\n255\n".encode("ascii"), np.ascontiguousarray(img)])


def superpixel_truth(spmap, mask: np.ndarray) -> np.ndarray:
    """Majority-vote building label per superpixel."""
    means = segment_means(np.asarray(mask, dtype=np.float64), spmap.labels, spmap.n_segments)
    return (means >= 0.5).astype(np.int64)


def _tile_mask(record: TileRecord) -> np.ndarray:
    """The tile's float32 MASK band, after checking it has one and a superpixel map."""
    if record.spmap is None:
        raise DataError(f"tile at ({record.x}, {record.y}) has no superpixel map")
    if not record.stack.has("MASK"):
        raise DataError(f"tile at ({record.x}, {record.y}) has no MASK band")
    return record.stack.band("MASK")


def _training_tile(record: TileRecord):
    """A training tile as its stack, map, per-segment truth and segment pixel counts.

    The stack is the record's own: ``_batch_gradients`` stacks the input
    bands from it at each step, so no second copy of the tile's pixels,
    input or MASK, is held.
    """
    truth = superpixel_truth(record.spmap, _tile_mask(record))
    return record.stack, record.spmap, truth, record.spmap.counts.astype(np.float64)


def _validation_tile(model: DcnModel, record: TileRecord):
    """A validation tile as its [t, t, c_in] input, map and uint8 pixel MASK."""
    mask = _tile_mask(record).astype(np.uint8)
    return record.stack.select(model.config.input_bands), record.spmap, mask


def _batch_gradients(model, prepared, indexes):
    """Mean tile loss and its per-parameter gradients for one batch.

    The batch runs ``forward_batch`` in the train phase as one
    [n, t, t, c] pass, so every norm layer sees shared statistics, the
    same statistics its running buffers learn for inference. Its input is
    stacked from the tiles' bands here, at each step. Tile losses fold
    into one weighted objective: weighting each segment by pixels / (n *
    tile pixels) makes the total exactly the mean of the per-tile weighted
    losses. Gradient reduction order is the fixed topological order of
    this one graph, so reruns are bit-identical.
    """
    n = len(indexes)
    bands = model.config.input_bands
    xb = Tensor(
        np.stack([prepared[i][0].select(bands) for i in indexes]),
        dtype=model.head.kernel.data.dtype,
    )
    maps = [prepared[i][1] for i in indexes]
    truth_all = np.concatenate([prepared[i][2] for i in indexes])
    weights_all = np.concatenate(
        [prepared[i][3] / (n * prepared[i][3].sum()) for i in indexes]
    )

    params = model.parameters()
    with GradTape() as tape:
        distances, _ = forward_batch(model, xb, maps, "train")
        loss = competition_loss(softmin_probs(distances), truth_all, weights_all)
        grads = backward(tape, loss)
    per_param = {name: tape.gradient(grads, p).data for name, p in params.items()}
    return float(loss.data), per_param


def _step(model, prepared, indexes, state, checkpoint_path) -> float:
    """One Adam step on the batch ``indexes``; returns its mean tile loss.

    The step's gradients and updated tensors are locals here, so they are
    freed when it returns, not held under the next step's backward. On a
    NumericError the batch-norm buffers the forward pass replaced are
    restored and, with ``checkpoint_path`` set, the pre-step model is saved
    before the error propagates.
    """
    buffers = model.buffers()  # the train-phase forward replaces them
    try:
        loss, grads = _batch_gradients(model, prepared, indexes)
        updated, _ = adam_step(model.parameters(), grads, state)
    except NumericError:
        for name, tensor in buffers.items():
            model.set_buffer(name, tensor)
        if checkpoint_path:
            save_checkpoint(model, checkpoint_path)
        raise
    for name, tensor in updated.items():
        model.set_parameter(name, tensor)
    model.global_step = state.t
    return loss


def _validation_iou(model, prepared) -> float:
    rasters = infer_rasters(model, [p[0] for p in prepared], [p[1] for p in prepared])
    counts = ConfusionCounts(0, 0, 0, 0)
    for raster, (*_, mask) in zip(rasters, prepared):
        counts = counts + confusion(raster, mask)
    return iou(counts)


def train(
    model: DcnModel,
    train_tiles: list[TileRecord],
    val_tiles: list[TileRecord],
    config: TrainConfig,
) -> tuple[TrainHistory, CostReport]:
    """Optimize the model; returns per-epoch history and the cost report.

    Tiles must carry MASK bands and precomputed superpixel maps. When
    ``val_tiles`` is empty the history records None for that epoch's
    IoU instead of a score.

    Training tiles are held once, in the caller's records: besides them,
    training keeps only each tile's per-segment truth and counts, and a
    step stacks its batch input from the records' bands. A step's
    gradients are freed when it ends, so the next step's forward and
    backward hold only their own batch. Validation tiles keep their
    [t, t, c_in] input and a uint8 pixel MASK.
    """
    if not train_tiles:
        raise DataError("training set is empty")
    prepared = [_training_tile(r) for r in train_tiles]
    prepared_val = [_validation_tile(model, r) for r in val_tiles]

    state = AdamState.create(model.parameters())
    model.global_step = state.t  # saves record the steps of this run
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    started = time.perf_counter()

    for epoch in range(config.epochs):
        order = rng.permutation(len(prepared))
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss = _step(model, prepared, batch, state, config.checkpoint_path)
            batch_losses.append((loss, len(batch)))

        history.epoch.append(epoch)
        total = sum(count for _, count in batch_losses)
        history.loss.append(sum(loss * count for loss, count in batch_losses) / total)
        score = _validation_iou(model, prepared_val) if prepared_val else None
        history.val_iou.append(score)
        if config.checkpoint_path:
            save_checkpoint(model, config.checkpoint_path)

    elapsed = time.perf_counter() - started
    report = computational_cost(config.epochs, elapsed / config.epochs)
    return history, report


def report_json(history: TrainHistory) -> str:
    """The per-epoch history as a JSON document."""
    doc = {
        "epoch": list(history.epoch),
        "loss": list(history.loss),
        "val_iou": list(history.val_iou),
    }
    return json.dumps(doc, indent=2)
