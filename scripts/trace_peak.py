"""Tracemalloc and resident peaks of one benchmark workload's xlma command.

    python3 scripts/trace_peak.py --workload NAME [--seed N]

Run from anywhere inside a source checkout; xlma is imported from its
``src/``, and the workload's inputs are written by
``perfbench/workloads.py`` (imported, not edited) into a temporary
directory, with one BLAS/OpenMP thread. The command runs twice under
tracemalloc, and the second run's peak is reported: the first is a warm-up
that keeps one-time allocations (imports, caches) out of it. It then runs
once more in a fresh interpreter, as ``perfbench/cli_pass.py`` runs it,
which reads its own ``VmHWM`` from ``/proc/self/status`` as the command
ends. Prints one JSON line: the workload, the seed, the tracemalloc peak
(``peak_mb``) and the pass's resident peak (``vmhwm_mb``), in MB (1e6
bytes).

``peak_rss_mb`` also moves with the heap that compiling ``src/`` leaves
resident; a shift in it means a memory change only if the tracemalloc peak
moves too. It is also floored after the first pass: ``ru_maxrss`` carries
the launcher's peak over at exec, while ``VmHWM`` starts afresh with the
new process image.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def traced_peak(argv) -> int:
    """Bytes of the tracemalloc peak of ``xlma.cli.main(argv)``; a nonzero
    exit raises."""
    from xlma.cli import main

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if code:
        raise RuntimeError(f"xlma {' '.join(argv)} exited {code}")
    return peak


def pass_vmhwm(argv) -> int:
    """Bytes of the resident peak (``VmHWM``) of ``xlma.cli.main(argv)`` run
    in a fresh interpreter, read by that interpreter as the command ends; a
    nonzero exit raises."""
    child = ("import contextlib, io, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "from xlma.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[2:])\n"
             "status = open('/proc/self/status').read()\n"
             "print(code, status.split('VmHWM:')[1].split()[0])\n")
    done = subprocess.run([sys.executable, "-c", child, str(ROOT / "src"), *argv],
                          capture_output=True, text=True, check=True)
    code, kib = map(int, done.stdout.split())
    if code:
        raise RuntimeError(f"xlma {' '.join(argv)} exited {code}")
    return kib * 1024


def workload_peak(workload) -> int:
    """The traced peak of ``workload``'s command, run a second time: the
    first run is the warm-up."""
    peaks = []
    for label in ("warm_up", "traced"):
        pass_dir = workload.run_dir / label
        pass_dir.mkdir()
        peaks.append(traced_peak(workload.argv(pass_dir)))
    return peaks[-1]


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.WORKLOADS[args.workload](Path(tmp), args.seed)
        peak = workload_peak(workload)
        pass_dir = workload.run_dir / "vmhwm"
        pass_dir.mkdir()
        vmhwm = pass_vmhwm(workload.argv(pass_dir))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "peak_mb": peak / 1e6,
                      "vmhwm_mb": vmhwm / 1e6}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
