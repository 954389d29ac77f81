"""Benchmark of the xlma command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; xlma is imported from ``src/``.
Every BLAS and OpenMP pool is pinned to one thread. A run:

1. writes the workload's inputs (seeded) under ``.perfbench_out/``;
2. starts ``setup_probe.py`` SETUP_PROBES times and takes the median time
   from interpreter start to loaded, validated scenario documents;
3. runs the workload's ``xlma.cli.main`` command untraced, each pass in a
   fresh interpreter (``cli_pass.py``) as a user would run it, again and
   again until S seconds have passed (at least once), checking every pass;
4. with ``--trace 1``, runs one more pass with every layer's public entry
   points wrapped (see ``tracing.py``) and derives per-layer self times and
   work counts from its spans.

Each pass is one operation; it fails when the command exits non-zero or a
check fails, including byte-identity with the first pass's outputs. The
last line of standard output is the JSON result; ``run.json`` next to the
outputs keeps it with the environment (revision, versions, BLAS, CPUs,
thread settings) and the raw samples.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_xlma():
    """xlma from this checkout's src/, never from an installed copy."""
    if not (SRC / "xlma" / "__init__.py").is_file():
        sys.exit(f"perfbench: no xlma package at {SRC / 'xlma'}")
    sys.path.insert(0, str(SRC))
    import xlma

    if Path(xlma.__file__).resolve().parent != SRC / "xlma":
        sys.exit(f"perfbench: imported xlma from {xlma.__file__}, not {SRC}")


def measure_setup(workload):
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + workload.probe_args()
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def run_pass(argv, trace, untraced_wall_s, spans_path):
    """cli_pass.py's result for one CLI command in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "cli_pass.py"), str(SRC), str(trace),
           repr(untraced_wall_s), str(spans_path), "--"] + argv
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"code": None, "output": f"killed after {PASS_TIMEOUT_S} s"}
    if done.returncode != 0:
        return {"code": None, "output": done.stderr.strip()[-2000:]}
    return json.loads(done.stdout.splitlines()[-1])


def evaluate(workload, label, pass_dir, outcome, first):
    """Record of one pass: its outcome, whether the command ran, its problems."""
    record = {"pass": label, "wall_s": outcome.get("wall_s"),
              "peak_rss_mb": outcome.get("peak_rss_mb"), "ran": outcome["code"] == 0,
              "problems": [], "rate": None, "outputs": None}
    if not record["ran"]:
        record["problems"].append(f"exit code {outcome['code']}: {outcome['output'].strip()}")
        return record
    try:
        record["problems"], record["rate"] = workload.check(pass_dir)
        record["outputs"] = [path.read_bytes() for path in workload.outputs(pass_dir)]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        record["problems"].append(f"unreadable outputs: {exc!r}")
        return record
    if first is not None and record["outputs"] != first["outputs"]:
        record["problems"].append(f"outputs differ from {first['pass']}'s")
    return record


def git_revision():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def environment():
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None):
    for var in THREAD_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    import_xlma()

    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](run_dir, args.seed)

    setup_samples = measure_setup(workload)

    passes = []
    first = None  # the first pass that ran and passed its checks
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        pass_dir = run_dir / f"pass{len(passes)}"
        pass_dir.mkdir()
        outcome = run_pass(workload.argv(pass_dir), 0, 0.0, os.devnull)
        passes.append(evaluate(workload, pass_dir.name, pass_dir, outcome, first))
        if first is None and passes[-1]["ran"] and not passes[-1]["problems"]:
            first = passes[-1]
    ran = [p for p in passes if p["ran"]]
    wall_s = statistics.median(p["wall_s"] for p in ran) if ran else 0.0
    rated = [p["rate"] for p in ([first] if first else ran) if p["rate"] is not None]

    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(p["peak_rss_mb"] for p in ran) if ran else 0.0,
            "unit": "MB",
        },
        "weighted_rate_bits": {"value": rated[0] if rated else 0.0, "unit": "bits/s/Hz"},
    }
    if args.trace:
        pass_dir = run_dir / "traced"
        pass_dir.mkdir()
        outcome = run_pass(workload.argv(pass_dir), 1, wall_s, run_dir / "spans.jsonl")
        passes.append(evaluate(workload, pass_dir.name, pass_dir, outcome, first))
        metrics = outcome.get("layers") or {
            name: {"value": 0.0, "unit": unit} for name, unit, _ in PER_LAYER
        }

    failed = sum(1 for p in passes if p["problems"])
    correct = not any(p["ran"] and p["problems"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"perfbench: {args.workload} {p['pass']}: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup_samples,
                  passes=[{k: v for k, v in p.items() if k != "outputs"} for p in passes],
                  environment=environment())
    (run_dir / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
