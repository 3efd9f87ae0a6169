"""Span tracer that wraps dcn's public entry points from outside the package.

Each wrapped call records a span ``[name, parent, start, end]`` in memory.
Functions are patched in the namespace that calls them (``dcn.model.conv2d``,
``dcn.train.superpixel_mean``, ...), because the package imports most names
directly. Backward rules are timed by wrapping every recorded tape entry when
``backward`` is entered. ``Tracer.metrics`` turns the spans into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

import dataclasses
import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "data", "superpixel", "layers", "autodiff", "competition", "model", "train")

# (layer, function, namespaces whose attribute the callers look up)
TARGETS = (
    ("cli", "run", ("dcn.cli",)),
    ("data", "read_bmsr", ("dcn.data",)),
    ("data", "write_bmsr", ("dcn.data",)),
    ("data", "compute_ndvi", ("dcn.data",)),
    ("data", "normalize", ("dcn.data",)),
    ("data", "tile", ("dcn.data",)),
    ("data", "stitch", ("dcn.data",)),
    ("superpixel", "zscore_features", ("dcn.superpixel",)),
    ("superpixel", "slic_segment", ("dcn.superpixel",)),
    ("superpixel", "seed_centers", ("dcn.superpixel",)),
    ("superpixel", "assign_pixels", ("dcn.superpixel",)),
    ("superpixel", "segment_means", ("dcn.superpixel", "dcn.train")),
    ("superpixel", "superpixel_mean", ("dcn.model", "dcn.train")),
    ("superpixel", "broadcast_labels", ("dcn.model",)),
    ("layers", "conv2d", ("dcn.model",)),
    ("layers", "batch_norm", ("dcn.model",)),
    ("layers", "relu", ("dcn.model",)),
    ("layers", "maxpool2", ("dcn.model",)),
    ("layers", "upsample_nearest2", ("dcn.model",)),
    ("layers", "dropout", ("dcn.model",)),
    # the tape ops batch_norm and dropout are built from
    ("autodiff", "add", ("dcn.layers",)),
    ("autodiff", "sub", ("dcn.layers",)),
    ("autodiff", "mul", ("dcn.layers",)),
    ("autodiff", "div", ("dcn.layers",)),
    ("autodiff", "sqrt", ("dcn.layers",)),
    ("autodiff", "square", ("dcn.layers",)),
    ("autodiff", "tmean", ("dcn.layers",)),
    ("autodiff", "reshape", ("dcn.model", "dcn.train")),
    ("autodiff", "backward", ("dcn.train",)),
    ("competition", "class_distances", ("dcn.model", "dcn.train")),
    ("competition", "winner", ("dcn.model",)),
    ("competition", "softmin_probs", ("dcn.train",)),
    ("competition", "competition_loss", ("dcn.train",)),
    ("model", "build", ("dcn.model",)),
    ("model", "save_checkpoint", ("dcn.model", "dcn.train")),
    ("model", "load_checkpoint", ("dcn.model",)),
    ("model", "forward", ("dcn.model", "dcn.train")),
    ("model", "embed", ("dcn.model",)),
    ("model", "embed_batch", ("dcn.model", "dcn.train")),
    ("train", "train", ("dcn.train",)),
    ("train", "adam_step", ("dcn.train",)),
    ("train", "confusion", ("dcn.train",)),
    ("train", "superpixel_truth", ("dcn.train",)),
    ("train", "report_json", ("dcn.train",)),
)

# op names the tape records during training, each reported as bwd.<op>_s
BACKWARD_OPS = (
    "conv2d", "div", "mul", "sub", "add", "square", "mean", "sqrt", "relu", "maxpool2",
    "upsample_nearest2", "superpixel_mean", "class_distances", "softmin_probs",
    "competition_loss", "reshape",
)

_MIB = 1024.0 * 1024.0

# metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "slic_segment_s": "s", "slic_calls": "count", "seed_centers_s": "s",
    "assign_pixels_s": "s", "assign_sweeps": "count", "merge_self_s": "s",
    "from_labels_s": "s", "segment_means_s": "s", "segment_means_calls": "count",
    "superpixel_mean_s": "s", "converged_share": "ratio",
    "conv2d_s": "s", "conv2d_calls": "count", "batch_norm_s": "s", "maxpool2_s": "s",
    "upsample_nearest2_s": "s", "relu_s": "s", "dropout_s": "s",
    "conv2d_gflop": "GFLOP", "conv2d_cols_mib": "MiB",
    "backward_s": "s", "tape_entries": "count",
    **{f"bwd.{op}_s": "s" for op in BACKWARD_OPS},
    "class_distances_s": "s", "softmin_probs_s": "s", "competition_loss_s": "s",
    "embed_batch_s": "s", "forward_s": "s", "forward_calls": "count", "build_s": "s",
    "load_checkpoint_s": "s", "save_checkpoint_s": "s",
    "train_s": "s", "adam_step_s": "s", "adam_calls": "count", "confusion_s": "s",
    "read_bmsr_s": "s", "write_bmsr_s": "s", "bmsr_bytes": "bytes", "compute_ndvi_s": "s",
    "normalize_s": "s", "tile_s": "s", "stitch_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace_coverage": "ratio", "trace_overhead_s": "s", "trace_overhead_share": "ratio",
    "trace_overhead_est_s": "s",
}


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` patch and restore."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.layer_of = {}
        self._open = []
        self._saved = []
        self.converged = 0
        self.bmsr_bytes = 0
        self.conv_flop = 0
        self.conv_cols_bytes = 0
        self.tape_entries = []

    def span(self, layer, name, fn, after=None):
        """``fn`` wrapped so that each call records a span named ``name``."""
        self.layer_of[name] = layer
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    # hooks that count work at the same boundaries as the spans

    def _on_conv2d(self, args, _result):
        x, layer = args[0], args[1]
        kh, kw, cin, cout = layer.kernel.shape
        pixels = x.data.size // x.shape[-1]
        self.conv_flop += 2 * pixels * kh * kw * cin * cout
        self.conv_cols_bytes += pixels * kh * kw * cin * x.data.itemsize

    def _on_slic(self, _args, spmap):
        self.converged += bool(spmap.converged)

    def _on_read(self, args, _result):
        self.bmsr_bytes += os.path.getsize(args[0])

    def _on_write(self, args, _result):
        self.bmsr_bytes += os.path.getsize(args[1])

    def _wrap_backward(self, backward):
        def entered(tape, loss):
            entries = tape._entries
            self.tape_entries.append(len(entries))
            for i, entry in enumerate(entries):
                rule = self.span("autodiff", f"bwd.{entry.op}", entry.backward)
                entries[i] = dataclasses.replace(entry, backward=rule)
            return backward(tape, loss)

        return entered

    def install(self):
        from dcn.superpixel import SuperpixelMap

        hooks = {
            "conv2d": self._on_conv2d,
            "slic_segment": self._on_slic,
            "read_bmsr": self._on_read,
            "write_bmsr": self._on_write,
        }
        for layer, name, namespaces in TARGETS:
            original = getattr(sys.modules[namespaces[0]], name)
            if name == "backward":
                original = self._wrap_backward(original)
            traced = self.span(layer, name, original, hooks.get(name))
            for namespace in namespaces:
                module = sys.modules[namespace]
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, traced)
        raw = SuperpixelMap.__dict__["from_labels"]
        self._saved.append((SuperpixelMap, "from_labels", raw))
        SuperpixelMap.from_labels = classmethod(
            self.span("superpixel", "from_labels", raw.__func__)
        )

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    @staticmethod
    def span_cost(calls=20000, repeats=5):
        """Seconds one span adds to a call: median over repeats of a timed no-op loop.

        The traced-minus-untraced wall difference of one round is within the
        run-to-run noise of a shared machine; this cost times the span count
        estimates the same overhead without that noise.
        """
        def noop():
            pass

        traced = Tracer().span("cli", "noop", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                noop()
            middle = clock()
            for _ in range(calls):
                traced()
            costs.append((clock() - middle - (middle - start)) / calls)
        return statistics.median(costs)

    def metrics(self, traced_wall, untraced_wall):
        """Per-layer metrics of the spans collected so far."""
        total = {}
        calls = {}
        self_time = dict.fromkeys(LAYERS, 0.0)
        child_time = [0.0] * len(self.spans)
        covered = 0.0
        for name, parent, start, end in self.spans:
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                covered += duration
            else:
                child_time[parent] += duration
        slic_self = 0.0
        for (name, _parent, start, end), children in zip(self.spans, child_time):
            own = end - start - children
            self_time[self.layer_of[name]] += own
            if name == "slic_segment":
                slic_self += own

        slic_calls = calls.get("slic_segment", 0)
        values = {
            "slic_calls": slic_calls,
            "assign_sweeps": calls.get("assign_pixels", 0),
            "merge_self_s": slic_self,
            "segment_means_calls": calls.get("segment_means", 0),
            "converged_share": self.converged / slic_calls if slic_calls else 0.0,
            "conv2d_calls": calls.get("conv2d", 0),
            "conv2d_gflop": self.conv_flop / 1e9,
            "conv2d_cols_mib": self.conv_cols_bytes / _MIB,
            "tape_entries": statistics.median(self.tape_entries) if self.tape_entries else 0,
            "forward_calls": calls.get("forward", 0),
            "adam_calls": calls.get("adam_step", 0),
            "bmsr_bytes": self.bmsr_bytes,
            **{f"self.{layer}_s": self_time[layer] for layer in LAYERS},
            "trace_coverage": covered / traced_wall,
            "trace_overhead_s": traced_wall - untraced_wall,
            "trace_overhead_share": (traced_wall - untraced_wall) / untraced_wall,
            "trace_overhead_est_s": len(self.spans) * self.span_cost(),
        }
        for metric in PER_LAYER:
            if metric not in values:
                values[metric] = total.get(metric[: -len("_s")], 0.0)
        return {m: (values[m], unit) for m, unit in PER_LAYER.items()}

    def dump(self, path):
        """Write the spans as JSON lines: name, layer, start, end, parent."""
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, self.layer_of[name], start, end, parent]) + "\n")
