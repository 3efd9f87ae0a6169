"""The dcn workloads: inputs made from a seed, timed CLI rounds, and their checks.

A round is the sequence of ``dcn`` subcommands a user runs, called in process
through ``dcn.cli.run`` one after another (closed loop, one client). A run
repeats rounds until ``--seconds`` have passed. Every output is checked and
its SHA-256 digest compared with earlier rounds (``run.py`` also compares it
with earlier runs of this code and seed); a failed call, check or digest
match counts in ``failed``.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import dcn
from dcn import cli

from tracer import Tracer

NARROW_FLAGS = ("--channels", "8,16,32,64,128", "--dim", "8", "--dropout", "0.0")
WINDOW = 64
BATCH = 8
SETUP_REPEATS = 2  # setup-only train calls, on top of the one in each round
PROCESS_SETUP_REPEATS = 5  # fresh processes timed for predict-scenes set-up
MIN_TRACE_COVERAGE = 0.9  # share of the traced round that spans must attribute

_LOAD_SNIPPET = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import dcn\n"
    "dcn.load_checkpoint(sys.argv[1])\n"
    "print(time.perf_counter() - start)\n"
)


@dataclasses.dataclass(frozen=True)
class TrainWorkload:
    scenes: int
    size: int
    epochs: int
    flags: tuple = ()
    min_iou: float | None = None  # quality gate on the pooled training-set IoU
    loss_must_fall: bool = False


@dataclasses.dataclass(frozen=True)
class PredictWorkload:
    scenes: int
    size: int


WORKLOADS = {
    "train-narrow": TrainWorkload(scenes=8, size=128, epochs=45, flags=NARROW_FLAGS, min_iou=0.95),
    # 12 epochs keep one train-wide round above 20 s, so a run makes one round
    "train-wide": TrainWorkload(scenes=4, size=128, epochs=12, loss_must_fall=True),
    "predict-scenes": PredictWorkload(scenes=1, size=512),
}

# the same code paths at the smallest sizes, for the self-test
TINY = {
    "train-narrow": TrainWorkload(scenes=2, size=64, epochs=2, flags=NARROW_FLAGS),
    "train-wide": TrainWorkload(scenes=1, size=64, epochs=1),
    "predict-scenes": PredictWorkload(scenes=1, size=128),
}


class SetupDone(Exception):
    """Raised at the entry of ``train.train`` to end a setup-only call."""


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@contextlib.contextmanager
def probe_train(marks, abort=False):
    """Time ``train.train`` and each optimizer step while ``dcn train`` runs.

    ``dcn.train`` is the function, so the module comes from ``sys.modules``;
    ``cmd_train`` imports ``train`` when called, so the probe is seen.
    ``marks["steps"]`` collects the entry time, then the end time of each step;
    ``marks["exit"]`` is the time ``train.train`` returned.
    """
    module = sys.modules["dcn.train"]
    inner_train, inner_step = module.train, module.adam_step
    steps = marks.setdefault("steps", [])

    def train(model, records, *rest, **kwargs):
        marks["entry"] = time.perf_counter()
        marks["tiles"] = len(records)
        if abort:
            raise SetupDone
        steps.append(marks["entry"])
        result = inner_train(model, records, *rest, **kwargs)
        marks["exit"] = time.perf_counter()
        return result

    def adam_step(*args, **kwargs):
        result = inner_step(*args, **kwargs)
        steps.append(time.perf_counter())
        return result

    module.train, module.adam_step = train, adam_step
    try:
        yield
    finally:
        module.train, module.adam_step = inner_train, inner_step


class Run:
    """One workload run: counts operations and failures, times CLI calls."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.tracer = None  # the Tracer of a traced run, kept for its spans
        self.attempted = 0
        self.failed = 0

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def fail(self, message):
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def cli(self, *argv):
        """Call ``dcn <argv>`` in process; returns (exit code is 0, start, end)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
        end = time.perf_counter()
        if code != 0:
            self.fail(f"dcn {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return code == 0, start, end

    def check_mask(self, path, shape):
        """A predicted scene must be one binary MASK band of the scene's shape."""
        stack = dcn.read_bmsr(path)
        mask = stack.band("MASK") if stack.roles == ("MASK",) else None
        if mask is None or mask.shape != shape or not np.isin(mask, (0.0, 1.0)).all():
            self.fail(f"{path}: expected one binary MASK band of shape {shape}, got {stack.roles}")
            return False
        return True

    def check_counts(self, path, pixels):
        with open(path) as fh:
            doc = json.load(fh)
        counts = [doc[k] for k in ("tp", "fp", "fn", "tn")]
        if sum(counts) != pixels:
            self.fail(f"{path}: confusion counts {counts} do not sum to {pixels} pixels")
            return None
        return counts


class Samples:
    """Timings gathered over the rounds of one run."""

    def __init__(self):
        self.setup = []
        self.epochs = []  # (tiles, seconds) per training epoch
        self.steps = []  # seconds per optimizer step
        self.train_calls = []  # (tiles x epochs, seconds) per train.train call
        self.predict = []  # (seconds, pixels) per dcn predict call

    def metrics(self):
        """End-to-end metrics as name -> (value, unit, note).

        Train workloads report training throughput per epoch and time per
        optimizer step; predict-scenes reports both per ``dcn predict`` call.
        """
        if self.epochs:
            rates = [tiles / seconds for tiles, seconds in self.epochs]
            steps, units, what = self.steps, "epochs", "optimizer steps"
        else:
            rates = [pixels / (WINDOW * WINDOW) / seconds for seconds, pixels in self.predict]
            steps = [seconds for seconds, _ in self.predict]
            units = what = "dcn predict calls"
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": (statistics.median(self.setup), "s", f"median of {len(self.setup)}"),
            "tiles_per_s": (statistics.median(rates), "tiles/s", f"median of {len(rates)} {units}"),
            "step_s_p50": (statistics.median(steps), "s", f"median of {len(steps)} {what}"),
            "peak_rss_mib": (peak, "MiB", ""),
        }

    def figures(self):
        """Figures printed beside the tracked metrics, as name -> (value, unit, note).

        ``train_tiles_per_s`` is tile-samples over the wall time of the
        ``train.train`` calls; the predict figures cover every ``dcn predict``
        call; ``step_s_p90`` is printed once at least ten steps lie beyond it.
        """
        out = {}
        if self.train_calls:
            samples, seconds = (sum(x) for x in zip(*self.train_calls))
            out["train_tiles_per_s"] = (samples / seconds, "tiles/s",
                                        f"{len(self.train_calls)} train.train calls")
        if len(self.steps) >= 100:
            p90 = statistics.quantiles(self.steps, n=10)[-1]
            out["step_s_p90"] = (p90, "s", f"of {len(self.steps)} optimizer steps")
        walls = [seconds for seconds, _ in self.predict]
        out["predict_mpx_per_s"] = (sum(p for _, p in self.predict) / sum(walls) / 1e6, "Mpx/s",
                                    f"{len(walls)} dcn predict calls")
        out["predict_scene_s_p50"] = (statistics.median(walls), "s",
                                      f"median of {len(walls)} dcn predict calls")
        return out


def _predict_and_eval(run, model, scene, truth, tag, samples, shape):
    """``dcn predict`` then ``dcn eval`` on one scene; returns the output paths."""
    pred, report = run.path(f"pred_{tag}.bmsr"), run.path(f"eval_{tag}.json")
    ok, start, end = run.cli("predict", "--model", model, "--input", scene, "--out", pred)
    if not ok:
        return None
    samples.predict.append((end - start, shape[0] * shape[1]))
    ok, _, _ = run.cli("eval", "--pred", pred, "--truth", truth, "--json", report)
    return (pred, report) if ok else (pred, None)


def _round_record(run, outputs, shape):
    """Check one round's predictions; returns (digests, pooled confusion counts)."""
    digests, pooled = {}, [0, 0, 0, 0]
    for i, paths in outputs.items():
        if paths is None:
            continue
        pred, report = paths
        if run.check_mask(pred, shape):
            digests[f"pred_{i:03d}"] = sha256(pred)
        counts = run.check_counts(report, shape[0] * shape[1]) if report else None
        if counts:
            pooled = [a + b for a, b in zip(pooled, counts)]
    return digests, pooled


def _scene_paths(run, i):
    return run.path("scenes", f"scene_{i:03d}.bmsr"), run.path("scenes", f"mask_{i:03d}.bmsr")


def _train_argv(run, spec, out):
    # the weights and shuffling seed stays 0, as in the README and acceptance
    # test: with other seeds train-narrow can sit at IoU 0 for 70 epochs
    return [
        "train", "--data", run.path("scenes"), "--epochs", str(spec.epochs), "--batch", str(BATCH),
        "--window", str(WINDOW), "--stride", str(WINDOW), *spec.flags, "--seed", "0",
        "--out", out,
    ]


def train_round(run, spec, samples):
    """``dcn train`` on the scenes, then predict and eval every training scene."""
    model, history = run.path("model.dcnw"), run.path("history.json")
    marks = {}
    with probe_train(marks):
        ok, start, end = run.cli(*_train_argv(run, spec, model), "--history", history)
    if not ok:
        return None
    samples.setup.append(marks["entry"] - start)
    stamps, tiles = marks["steps"], marks["tiles"]
    samples.train_calls.append((tiles * spec.epochs, marks["exit"] - marks["entry"]))
    samples.steps += [b - a for a, b in zip(stamps, stamps[1:])]
    per_epoch = math.ceil(tiles / BATCH)
    samples.epochs += [(tiles, stamps[(k + 1) * per_epoch] - stamps[k * per_epoch])
                       for k in range(spec.epochs)]
    return model, history, predict_round(run, spec, model, samples, range(spec.scenes))


def check_train_round(run, spec, result):
    """Correctness of one training round; returns (digests, quality extras)."""
    model, history, outputs = result
    digests, pooled = _round_record(run, outputs, (spec.size, spec.size))
    digests["checkpoint"] = sha256(model)
    digests["history"] = sha256(history)
    with open(history) as fh:
        losses = json.load(fh)["loss"]
    extras = {"final_loss": (losses[-1], "nats", f"epoch {len(losses)} of history")}
    if not all(math.isfinite(x) for x in losses):
        run.fail(f"non-finite loss in history: {losses}")
    elif spec.loss_must_fall and not losses[-1] < losses[0]:
        run.fail(f"loss did not fall: first {losses[0]}, last {losses[-1]}")
    tp, fp, fn, _ = pooled
    train_iou = tp / (tp + fp + fn) if tp + fp + fn else 0.0
    extras["train_iou"] = (train_iou, "ratio", f"pooled over {spec.scenes} training scenes")
    if spec.min_iou is not None and train_iou < spec.min_iou:
        run.fail(f"training-set IoU {train_iou:.4f} is below {spec.min_iou}")
    return digests, extras


def train_setup_only(run, spec):
    """Time one ``dcn train`` set-up, ending the call when training would start."""
    marks = {}
    run.attempted += 1
    start = time.perf_counter()
    try:
        with probe_train(marks, abort=True), contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(_train_argv(run, spec, run.path("unused.dcnw")))
    except SetupDone:
        return marks["entry"] - start
    run.fail(f"setup-only dcn train exited {code} before training started")
    return None


def make_scenes(run, seed, count, size):
    ok, _, _ = run.cli("synth", "--seed", str(seed), "--count", str(count),
                       "--size", str(size), "--out", run.path("scenes"))
    if not ok:
        raise RuntimeError("dcn synth failed; no inputs to run on")


def predict_fixture(path):
    """A narrow 64-px checkpoint from a fixed seed; inference cost ignores the weights."""
    config = dcn.DcnConfig(
        block_channels=(8, 16, 32, 64, 128), embedding_dim=8, dropout_rate=0.0,
        tile_size=WINDOW, seed=0,
    )
    dcn.save_checkpoint(dcn.build(config), path)


def process_setup_s(run, model):
    """Seconds a fresh process takes to import dcn and load the checkpoint."""
    run.attempted += 1
    done = subprocess.run(
        [sys.executable, "-c", _LOAD_SNIPPET, model],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        run.fail(f"fresh-process checkpoint load exited {done.returncode}: {done.stderr}")
        return None
    return float(done.stdout.strip().splitlines()[-1])


def reference_mask(model_path, scene_path):
    """Per-tile reference built from library calls only, then stitched."""
    model = dcn.load_checkpoint(model_path)
    bands = model.config.input_bands
    window = model.config.tile_size
    scene = dcn.normalize(dcn.compute_ndvi(dcn.read_bmsr(scene_path)))[0]
    tiles = dcn.tile(scene, window=window, stride=window)
    params = dcn.SlicParams(k_desired=window * window // 64, m=2.0)
    out = []
    for record in tiles.tiles:
        data = record.stack.select(bands)
        spmap = dcn.slic_segment(dcn.zscore_features(data), params)
        _, raster = dcn.forward(model, dcn.Tensor(data.astype(np.float32)), spmap, "infer")
        band = dcn.Band("MASK", raster.astype(np.float32))
        stack = dcn.RasterStack(width=window, height=window, gsd=scene.gsd, bands=(band,))
        out.append(dataclasses.replace(record, stack=stack))
    stitched = dcn.stitch(dataclasses.replace(tiles, tiles=tuple(out)))
    return stitched.band("MASK")


def predict_round(run, spec, model, samples, scenes):
    """``dcn predict`` then ``dcn eval`` on each scene index; returns index -> outputs."""
    shape = (spec.size, spec.size)
    outputs = {}
    for i in scenes:
        scene, truth = _scene_paths(run, i)
        outputs[i] = _predict_and_eval(run, model, scene, truth, f"{i:03d}", samples, shape)
    return outputs


def check_predict_round(run, spec, model, outputs, references):
    digests, _ = _round_record(run, outputs, (spec.size, spec.size))
    digests["checkpoint"] = sha256(model)
    for i, paths in outputs.items():
        if f"pred_{i:03d}" not in digests:
            continue
        if i not in references:
            references[i] = reference_mask(model, _scene_paths(run, i)[0])
        predicted = dcn.read_bmsr(paths[0]).band("MASK")
        if not np.array_equal(predicted, references[i]):
            run.fail(f"scene {i}: dcn predict disagrees with the per-tile reference "
                     f"on {int((predicted != references[i]).sum())} pixels")
    return digests, {}


def run_workload(spec, seed, seconds, trace, workdir):
    """Run one workload in ``workdir``.

    Train workloads repeat one round: ``dcn train``, then predict and eval on
    every training scene. predict-scenes predicts one held-out scene per
    round, cycling through them. Rounds repeat until their CLI calls add up to
    ``seconds``; with ``trace`` one round runs traced, then the same round
    untraced. Returns (run, metrics, extras, digests): ``metrics`` maps each
    end-to-end metric, or with ``trace`` each per-layer metric, to
    (value, unit, note); ``extras`` holds, in the same form, the quality
    figures that gate correctness and the untracked figures printed beside the
    metrics; ``digests`` maps each output to its SHA-256.
    """
    run = Run(workdir)
    samples = Samples()
    is_train = isinstance(spec, TrainWorkload)
    make_scenes(run, seed, spec.scenes, spec.size)
    if not is_train:
        model, references = run.path("fixture.dcnw"), {}
        predict_fixture(model)
    digests, extras = {}, {}

    def play(index):
        """One round of CLI calls; returns (their wall time, outputs or None)."""
        start = time.perf_counter()
        if is_train:
            result = train_round(run, spec, samples)
        else:
            result = predict_round(run, spec, model, samples, [index % spec.scenes])
        return time.perf_counter() - start, result

    def check(result):
        """Check a round's outputs and compare their digests with earlier rounds."""
        if result is None:
            return
        if is_train:
            record, quality = check_train_round(run, spec, result)
        else:
            record, quality = check_predict_round(run, spec, model, result, references)
        extras.update(quality)
        for name, digest in record.items():
            if digests.setdefault(name, digest) != digest:
                run.fail(f"{name} differs from an earlier round of this run")

    # set-up samples come first in both modes, so rounds start alike
    for _ in range(SETUP_REPEATS if is_train else PROCESS_SETUP_REPEATS):
        value = train_setup_only(run, spec) if is_train else process_setup_s(run, model)
        if value is not None:
            samples.setup.append(value)
    if trace:
        # traced first, like the first round of an untraced run; the untraced
        # repeat then starts warmer, so the overhead is an upper bound
        run.tracer = Tracer()
        run.tracer.install()
        try:
            traced_wall, result = play(0)
        finally:
            run.tracer.uninstall()
        check(result)
        untraced_wall, result = play(0)
        check(result)
        metrics = {k: (v, unit, "") for k, (v, unit) in
                   run.tracer.metrics(traced_wall, untraced_wall).items()}
        coverage = metrics["trace_coverage"][0]
        if coverage < MIN_TRACE_COVERAGE:
            run.fail(f"spans cover {coverage:.3f} of the traced round, "
                     f"below {MIN_TRACE_COVERAGE}")
    else:
        elapsed, rounds = 0.0, 0
        while rounds == 0 or elapsed < seconds:
            wall, result = play(rounds)
            check(result)
            elapsed += wall
            rounds += 1
        metrics = samples.metrics()
        extras.update(samples.figures())
    return run, metrics, extras, digests
