"""dcn benchmark: train-narrow, train-wide and predict-scenes, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train-narrow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it runs one round traced and the same round untraced and
prints every per-layer metric, writing the spans to ``perfbench/out``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--tiny`` runs the same code paths at the smallest sizes (self-test only).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("train-narrow", "train-wide", "predict-scenes")
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap BLAS pools at the usable cores; numpy must not be loaded yet.

    dcn's own DCN_THREADS cap is applied after numpy has loaded, so it has no
    effect; the cap here is set in the environment this process and its
    children start numpy with.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread cap was set")
    cores = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= cores
        os.environ[var] = current if keep else str(cores)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def code_digest():
    """SHA-256 over the dcn sources and this benchmark, keying determinism records."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "dcn"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_record(run, key, digests):
    """Compare output digests with earlier runs of this code and seed, then store them."""
    folder = os.path.join(OUT, "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, key + ".json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    changed = sorted(k for k in digests if stored.get(k, digests[k]) != digests[k])
    if changed:
        run.fail(f"outputs differ from an earlier run of this code and seed: {changed}")
        return "mismatch"
    if set(digests) <= set(stored):
        return "match"
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump({**stored, **digests}, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return "match, extended" if stored else "recorded"


def run_one(args):
    sys.path.insert(0, SRC)
    import workloads

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    spec = table[args.workload]
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-s{args.seed}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run, metrics, extras, digests = workloads.run_workload(
            spec, args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    status = check_record(run, f"{tag}-{code_digest()[:16]}", digests)
    if args.trace:
        spans = os.path.join(OUT, f"spans-{tag}.jsonl")
        run.tracer.dump(spans)
        print(f"spans -> {os.path.relpath(spans, ROOT)} ({len(run.tracer.spans)} spans)")

    for name, (value, unit, note) in {**metrics, **extras}.items():
        print(f"{name} = {value!r} {unit}" + (f" ({note})" if note else ""))
    print(f"failed_share = {run.failed / run.attempted!r} ratio ({run.failed} of {run.attempted})")
    print(f"output_digest = {combined} ({len(digests)} files, {status})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process, one after another; sums the results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dcn", "__init__.py")):
        print(f"error: no dcn sources under {SRC}; run from a dcn checkout", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    if args.workload == "all":
        return run_all(args)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} blas_threads {threads}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
