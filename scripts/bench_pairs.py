"""Order-alternated parent/change pairs of the benchmark, with the claim verdict.

    python3 scripts/bench_pairs.py --parent REV [--pairs 10] [--seed 7]
                                   [--workload NAME ...] [--base DIR]

Run from anywhere inside a source checkout. REV is extracted by
``git archive`` and this working tree is copied, each into a new directory
under DIR (default: the system's temporary directory), so that both sides
sit at paths of equal length (``checkout.py``: the peak RSS a pass reports
moves with the length of its checkout's path); both are removed at the end.
Each pair runs ``perfbench/run.py --trace 0`` for BENCHMARK.json's
``run_seconds`` once in each copy, the parent first in even pairs and the
change first in odd ones, so that a drift of the machine falls on both
sides alike. Nothing under ``perfbench/`` is edited.

For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
both sides' median [q1, q3], the relative change of the median, the median
[q1, q3] of the per-pair relative differences (change - parent) / parent,
the pairs the change won (strictly better in the metric's direction), and
the verdict of the claim rule: a claimed gain holds when the change wins at
least 9 of every 10 pairs and its median is better than the parent's by
more than the parent's interquartile range. The two sides of a pair run
back to back, so a drift of the machine over the pairs widens both sides'
quartiles but hardly the per-pair differences; those show the effect apart
from the drift. The verdict does not use them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT, revision_checkout, working_tree_copy

WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, by linear interpolation between the
    sorted values; a single value is all three."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def claim_verdict(parent, change, better: str) -> tuple[int, bool]:
    """(wins, met) for one metric over pairs ``parent[i]``, ``change[i]``.

    A pair is won when the change is strictly better: lower if ``better`` is
    "lower", higher if "higher". The claim is met when the wins are at least
    ``WIN_SHARE`` of the pairs and the medians differ in the better direction
    by more than the parent's interquartile range."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - quartiles(change)[1])
    return wins, wins >= WIN_SHARE * len(parent) and gap > q3 - q1


def pair_differences(parent, change) -> list[float] | None:
    """(change - parent) / parent of each pair, or None if a parent run is 0."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if not all(parent):
        return None
    return [(c - p) / p for p, c in zip(parent, change)]


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced ``perfbench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: {workload} ran incorrectly: {done.stderr.strip()}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def report(workload, metrics, parent_runs, change_runs) -> None:
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        wins, met = claim_verdict(parent, change, better)
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        shift = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        differences = pair_differences(parent, change)
        if differences is None:
            paired = "n/a"
        else:
            d1, dm, d3 = quartiles(differences)
            paired = f"{dm:+.1%} [{d1:+.1%}, {d3:+.1%}]"
        print(f"{workload} {name}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {shift}  per pair {paired}  "
              f"wins {wins}/{len(parent)}  claim {'met' if met else 'not met'}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: every one)")
    parser.add_argument("--base", type=Path, metavar="DIR",
                        help="directory to hold both checkouts (default: a temporary one)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    with (revision_checkout(args.parent, args.base) as parent_dir,
          working_tree_copy(args.base) as change_dir):
        for workload in workloads:
            runs = {parent_dir: [], change_dir: []}
            for i in range(args.pairs):
                for side in ((parent_dir, change_dir) if i % 2 == 0 else (change_dir, parent_dir)):
                    runs[side].append(run_benchmark(side, workload, args.seed,
                                                    benchmark["run_seconds"]))
            report(workload, benchmark["end_to_end"], runs[parent_dir], runs[change_dir])
    return 0


if __name__ == "__main__":
    sys.exit(main())
