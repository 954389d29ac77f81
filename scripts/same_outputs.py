"""Byte-compare the outputs of a parent revision with this working tree's.

    python3 scripts/same_outputs.py --parent REV [--float-rtol R]

Run from anywhere inside a source checkout. REV is checked out as a
temporary ``git worktree`` beside the repository (``worktree.py``) and
removed at the end. Both sides run the same ``xlma`` commands on the same
input documents, each command in a fresh interpreter that imports xlma from
its own checkout's ``src/``, with one BLAS/OpenMP thread:

- ``plan`` on every preset;
- ``plan`` on the ``dense_plan`` benchmark document at seeds 7, 11 and 23;
- ``plan`` at the paper's scale with every grid active:
  ``paper_full_scale_3d_type1`` with ``regular_ratio`` 0.2 (1890 active
  grids by 3030 candidates, several seconds and about 400 MB);
- ``sweep`` on the ``sweep_oracle`` benchmark documents at seeds 7 and 11,
  under ``--threads`` 1 and 4;
- ``sweep`` of ``expected_users`` over ``USERS_SWEEP``'s values on its
  preset, which has obstacles, with the closed-form evaluators only: each
  value's ``distribution`` is turned into activation probabilities at load;
- ``sweep`` of ``expected_users`` with the ``optimal`` scheme on
  ``ORACLE_SWEEP``'s preset at each of its subarray counts: N = 2 scores
  the exhaustive oracle's subsets with empty heads, N = 3 with heads of one
  column;
- ``sweep`` of ``ma_width`` over ``WIDTH_SWEEP``'s values, whole numbers of
  the preset's candidate step, with the closed-form and simulated MRC rates
  at ``WIDTH_TRIALS`` trials: each value rescales the placement region;
- ``validate``, ``benchmark`` and ``map`` (power and correlation) on the
  ``COMMAND_PRESETS``: three pure-LoS presets and a 20 dB Rician one with
  obstacles and a 2 x 2 element grid;
- ``map`` (power and correlation) of the baseline layouts ``MAP_SCHEMES``,
  whose element grids differ from the scenario's subarray;
- ``map`` (power and correlation) of the candidate support ``MAP_SUPPORT``,
  given in the map spec as a ``{"support": [...]}`` scheme.

The documents come from this working tree: the presets of ``xlma.presets``
and the benchmark documents of ``perfbench/workloads.py``. Each command runs
in a directory of its own, which afterwards holds its output files, its
standard output and its exit code. Every file that differs between the two
sides, or exists on one side only, is printed, and so is every command that
failed. A file on both sides is printed with how it differs: in float
literals only or in other text as well (integers such as a support index
are text, compared exactly), and the largest relative difference between
the floats at the same place. The exit status is 1 if any command failed or
any file differs, except that with ``--float-rtol R`` a file on both sides
that differs in float literals only, by at most R relative, is accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from worktree import ROOT, revision_checkout

DENSE_SEEDS = (7, 11, 23)
SWEEP_SEEDS = (7, 11)
ALL_ACTIVE_REGULAR_RATIO = 0.2
SWEEP_THREADS = ("1", "4")
USERS_SWEEP = ("desk_partial_los", [6.0, 11.0])
ORACLE_SWEEP = ("desk_partial_los_3d_type1", (2, 3), [6.0, 11.0])
WIDTH_SWEEP = ("desk_partial_los", [20.2, 40.4])
WIDTH_TRIALS = 20
COMMAND_PRESETS = ("desk_full_los_2d", "desk_partial_los", "paper_partial_los_1d",
                   "desk_partial_los_3d_type1")
MAP_RESOLUTION = 20
MAP_SCHEMES = (("desk_full_los_2d", "dense_upa"), ("desk_full_los_2d", "sparse_2x4"),
               ("paper_partial_los_1d", "dense_ula"))
MAP_SUPPORT = ("desk_partial_los", [58, 3, 96, 41])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_MAIN = "import sys; from xlma.cli import main; sys.exit(main(sys.argv[1:]))"


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)


def commands(inputs: Path) -> dict:
    """{name: xlma argv} of every compared command; their input documents
    are written under ``inputs``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from xlma.presets import PRESETS

    out = {}
    for preset in sorted(PRESETS):
        out[f"plan_{preset}"] = ["plan", "--preset", preset, "--out", "plan.json"]
    for seed in DENSE_SEEDS:
        config = _write_json(inputs / f"dense_{seed}.json", workloads.dense_scenario(seed))
        out[f"dense_plan_{seed}"] = ["plan", "--config", config, "--out", "plan.json"]
    all_active = PRESETS["paper_full_scale_3d_type1"]()
    all_active["distribution"]["regular_ratio"] = ALL_ACTIVE_REGULAR_RATIO
    config = _write_json(inputs / "full_scale_all_active.json", all_active)
    out["plan_full_scale_all_active"] = ["plan", "--config", config, "--out", "plan.json"]
    spec = _write_json(inputs / "sweep_spec.json", workloads.SWEEP_SPEC)
    for seed in SWEEP_SEEDS:
        config = _write_json(inputs / f"sweep_{seed}.json", workloads.sweep_scenario(seed))
        for threads in SWEEP_THREADS:
            out[f"sweep_oracle_{seed}_threads_{threads}"] = [
                "sweep", "--config", config, "--sweep", spec, "--out-dir", ".",
                "--threads", threads]
    users_preset, users_values = USERS_SWEEP
    users_spec = _write_json(inputs / "users_sweep_spec.json", {
        "parameter": "expected_users", "values": users_values,
        "schemes": ["proposed", "dense_ula"], "evaluators": ["approx_mrc", "upper_bound"]})
    out["sweep_expected_users"] = ["sweep", "--preset", users_preset, "--sweep", users_spec,
                                   "--out-dir", "."]
    oracle_preset, oracle_counts, oracle_values = ORACLE_SWEEP
    oracle_spec = _write_json(inputs / "oracle_sweep_spec.json", {
        "parameter": "expected_users", "values": oracle_values,
        "schemes": ["proposed", "optimal"], "evaluators": ["approx_mrc", "upper_bound"]})
    for n_select in oracle_counts:
        doc = PRESETS[oracle_preset]()
        doc["n_subarrays"] = n_select
        config = _write_json(inputs / f"oracle_{n_select}.json", doc)
        out[f"sweep_optimal_n{n_select}"] = ["sweep", "--config", config, "--sweep",
                                              oracle_spec, "--out-dir", "."]
    width_preset, width_values = WIDTH_SWEEP
    width_spec = _write_json(inputs / "width_sweep_spec.json", {
        "parameter": "ma_width", "values": width_values, "schemes": ["proposed", "dense_ula"],
        "evaluators": ["approx_mrc", "sim_mrc"], "trials": WIDTH_TRIALS})
    out["sweep_ma_width"] = ["sweep", "--preset", width_preset, "--sweep", width_spec,
                             "--out-dir", "."]
    for preset in COMMAND_PRESETS:
        out[f"validate_{preset}"] = ["validate", "--preset", preset]
        out[f"benchmark_{preset}"] = ["benchmark", "--preset", preset, "--out-dir", "."]
    layouts = [(preset, None, preset) for preset in COMMAND_PRESETS]
    layouts += [(preset, scheme, f"{preset}_{scheme}") for preset, scheme in MAP_SCHEMES]
    support_preset, support = MAP_SUPPORT
    layouts.append((support_preset, {"support": support}, f"{support_preset}_support"))
    for preset, scheme, name in layouts:
        cov = PRESETS[preset]()["coverage"]
        probe = [(cov["x_min"] + cov["x_max"]) / 2, (cov["y_min"] + cov["y_max"]) / 2]
        fields = {"resolution": MAP_RESOLUTION, **({} if scheme is None else {"scheme": scheme})}
        maps = {"power": {"kind": "power", **fields},
                "correlation": {"kind": "correlation", "probe_point": probe, **fields}}
        for kind, map_spec in maps.items():
            path = _write_json(inputs / f"map_{kind}_{name}.json", map_spec)
            out[f"map_{kind}_{name}"] = ["map", "--preset", preset, "--map-spec", path,
                                         "--out", "map.csv"]
    return out


def run_side(checkout: Path, argvs: dict, out_root: Path) -> list:
    """Run every command with ``checkout``'s xlma, each in ``out_root/name``;
    the names of the commands that exited nonzero."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{var: "1" for var in THREAD_VARS})
    failed = []
    for name, argv in argvs.items():
        cwd = out_root / name
        cwd.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        (cwd / "stdout.txt").write_text(done.stdout)
        (cwd / "exit_code.txt").write_text(f"{done.returncode}\n")
        if done.returncode:
            failed.append(name)
            print(f"{checkout}: {name} exited {done.returncode}: {done.stderr.strip()}",
                  file=sys.stderr)
    return failed


def differing_files(left: Path, right: Path) -> list:
    """Relative paths, sorted, of the files under ``left`` and ``right``
    that differ in bytes or exist under one of them only."""
    def files(root):
        return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}

    left_files, right_files = files(left), files(right)
    return sorted(name for name in left_files | right_files
                  if name not in left_files or name not in right_files
                  or (left / name).read_bytes() != (right / name).read_bytes())


# A decimal literal with a point or an exponent, not part of a longer word.
FLOAT = re.compile(r"(?<![\w.])([-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?"
                   r"|\d+[eE][-+]?\d+))(?![\w.])")


def float_difference(left: Path, right: Path):
    """(whether two text files differ in float literals only, the largest
    relative difference between the floats at the same place)."""
    left_parts, right_parts = FLOAT.split(left.read_text()), FLOAT.split(right.read_text())
    # re.split with one group alternates text and float literal, text first.
    only_floats = left_parts[::2] == right_parts[::2]
    largest = 0.0
    for a, b in zip(map(float, left_parts[1::2]), map(float, right_parts[1::2])):
        if a != b:
            largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
    return only_floats, largest


def how_files_differ(left: Path, right: Path) -> str:
    """How two differing text files differ: "only in parent", "only in
    change", or whether anything but float literals differs, with the
    largest relative difference between the floats at the same place."""
    if not left.is_file() or not right.is_file():
        return "only in change" if right.is_file() else "only in parent"
    only_floats, largest = float_difference(left, right)
    kind = "floats only" if only_floats else "not only floats"
    return f"{kind}, largest relative float difference {largest:.3g}"


def within_float_rtol(left: Path, right: Path, rtol) -> bool:
    """Whether two files on both sides differ in float literals only, by at
    most ``rtol`` relative; never when ``rtol`` is None."""
    if rtol is None or not left.is_file() or not right.is_file():
        return False
    only_floats, largest = float_difference(left, right)
    return only_floats and largest <= rtol


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--float-rtol", type=float, metavar="R",
                        help="accept files that differ in float literals only, by at most "
                             "R relative (default: accept no difference)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        argvs = commands(tmp / "inputs")
        with revision_checkout(args.parent) as parent_dir:
            failed = run_side(parent_dir, argvs, tmp / "parent")
        failed += run_side(ROOT, argvs, tmp / "change")
        differ = differing_files(tmp / "parent", tmp / "change")
        notes = {name: how_files_differ(tmp / "parent" / name, tmp / "change" / name)
                 for name in differ}
        refused = [name for name in differ if not within_float_rtol(
            tmp / "parent" / name, tmp / "change" / name, args.float_rtol)]
    for name in differ:
        print(f"differs: {name} ({notes[name]})")
    for name in sorted(set(failed)):
        print(f"failed: {name}")
    print(f"{len(argvs)} commands, {len(differ)} differing files "
          f"({len(refused)} not accepted), {len(set(failed))} failed commands")
    return 1 if refused or failed else 0


if __name__ == "__main__":
    sys.exit(main())
