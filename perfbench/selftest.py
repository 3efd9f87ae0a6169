"""Self-test of the benchmark at the smallest sizes; timings are not gated.

    python3 perfbench/selftest.py

Runs all three workloads tiny, untraced and then traced with the same seed,
and checks that every metric of BENCHMARK.json is printed by name with its
unit, that every check passes, that spans cover at least 90% of the traced
round, that the traced rerun reproduces the output digests, and that the
benchmark refuses to run without the dcn sources.
Exits 0 when all of that holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import NAMES  # noqa: E402

PREDICT = {"predict_mpx_per_s": "Mpx/s", "predict_scene_s_p50": "s"}
TRAIN = {"train_tiles_per_s": "tiles/s", "train_iou": "ratio", "final_loss": "nats", **PREDICT}
EXTRAS = {"train-narrow": TRAIN, "train-wide": TRAIN, "predict-scenes": PREDICT}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def sections(stdout):
    """Split ``--workload all`` output into workload -> its printed lines."""
    out, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = out.setdefault(line[3:], [])
        elif current is not None:
            current.append(line)
    return out


def check_run(trace, expected, problems):
    done = bench("--workload", "all", "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    if done.returncode != 0:
        problems.append(f"trace {trace}: exit {done.returncode}\n{done.stderr}")
        return
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        problems.append(f"trace {trace}: checks failed\n{done.stderr}")
    printed = sections(done.stdout)
    cores = len(os.sched_getaffinity(0))
    for workload in NAMES:
        lines = printed.get(workload, [])
        threads = re.search(r"blas_threads (\d+)", "\n".join(lines))
        if not threads or not 1 <= int(threads.group(1)) <= cores:
            problems.append(f"{workload}: BLAS threads not capped at {cores}")
        wanted = dict(expected)
        wanted["failed_share"] = "ratio"
        if not trace:
            wanted.update(EXTRAS[workload])
        for name, unit in wanted.items():
            pattern = rf"^{re.escape(name)} = \S+ {re.escape(unit)}( |$)"
            if not any(re.match(pattern, line) for line in lines):
                problems.append(f"{workload} trace {trace}: no line '{name} = <value> {unit}'")
        got = {k.split(".", 1)[1]: v for k, v in result["metrics"].items()
               if k.startswith(workload + ".")}
        if sorted(got) != sorted(expected):
            problems.append(f"{workload} trace {trace}: JSON metrics {sorted(got)}")
        for name, unit in expected.items():
            value = got.get(name, {})
            if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
                problems.append(f"{workload} trace {trace}: JSON metric {name} is {value}")
        coverage = got.get("trace_coverage", {}).get("value", 1.0)
        if trace and not 0.9 <= coverage <= 1.0:
            problems.append(f"{workload}: spans cover {coverage:.3f} of the traced round")
        if trace and not any(re.match(r"^output_digest = \w+ .*match", ln) for ln in lines):
            problems.append(f"{workload}: traced rerun did not reproduce the output digests")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if tuple(w["name"] for w in spec["workloads"]) != NAMES:
        problems.append("BENCHMARK.json workloads differ from run.NAMES")

    check_run(0, end_to_end, problems)
    check_run(1, per_layer, problems)

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = bench("--workload", "train-narrow", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("without the dcn sources the benchmark did not fail cleanly")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
