"""The three workloads: their inputs, their xlma command and their checks.

Each workload writes its inputs (scenario and sweep documents, with the
workload seed as ``rng_seed``) into the run directory, names one
``xlma.cli.main`` command that writes into a pass directory, and checks that
pass's outputs against properties the method must have and against the
independent evaluation in ``reference.py``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import reference

FULL_SCALE_PRESET = "paper_full_scale_3d_type1"

# Relative tolerance of the plan objective against reference.weighted_rate;
# the two sum the same terms in another order (seen: at most 4e-16).
REFERENCE_RTOL = 1e-12
# Rounding slack for inequalities that hold exactly in exact arithmetic:
# optimal >= proposed (both closed form, summed in different column orders)
# and sim_mmse >= sim_mrc (same draws; MMSE >= MRC on every realization).
ORDER_RTOL = 1e-9
# sim_* may exceed upper_bound only by Monte Carlo noise.
UPPER_BOUND_STDERRS = 4.0

_PAPER_OBSTACLES = [
    {"center": [5.0, -20.0, 9.0], "dims": [5.0, 10.0, 18.0]},
    {"center": [5.0, 20.0, 9.0], "dims": [5.0, 10.0, 18.0]},
]


def dense_scenario(seed: int) -> dict:
    """paper_partial_los_1d coverage and obstacles with every grid active,
    a 101 x 10 planar candidate region (N0 = 1010) and Rician 20 dB."""
    return {
        "carrier_freq": 30e9,
        "m_h": 8,
        "m_v": 1,
        "n_subarrays": 8,
        "tx_power_dbm": 5.0,
        "noise_power_dbm": -80.0,
        "rician_kappa_db": 20.0,
        "rng_seed": seed,
        "visibility_samples": 20,
        "ma_region": {"y_min": -50.5, "y_max": 50.5, "z_min": 20.0, "z_max": 45.0,
                      "n_y": 101, "n_z": 10},
        "coverage": {"x_min": 7.5, "x_max": 52.5, "y_min": -52.5, "y_max": 52.5,
                     "z_min": 0.0, "z_max": 0.0, "k_x": 9, "k_y": 21, "k_z": 1},
        "obstacles": _PAPER_OBSTACLES,
        "distribution": {
            "expected_users": 10.0,
            "regular_ratio": 0.2,
            "hotspot_k1": [92, 98, 153, 162, 171, 184],
            "hotspot_k2": [0, 8, 9, 24, 27, 39],
        },
    }


def sweep_scenario(seed: int) -> dict:
    """desk_partial_los with Rician 20 dB and 40 candidates on the line.

    200 visibility samples per grid instead of 20: with 20, which cells count
    as visible depends so much on the seed that the proposed rate's quartile
    spread over 20 seeds was 9.7% of its median. With 100, 6 of 30 seeds
    still gave rates 2-10% above the rest; with 200, all 30 lay within 0.05%.
    """
    return {
        "carrier_freq": 30e9,
        "m_h": 4,
        "m_v": 1,
        "n_subarrays": 4,
        "tx_power_dbm": 5.0,
        "noise_power_dbm": -80.0,
        "rician_kappa_db": 20.0,
        "rng_seed": seed,
        "visibility_samples": 200,
        "ma_region": {"y_min": -50.5, "y_max": 50.5, "z_min": 20.5, "z_max": 20.5,
                      "n_y": 40, "n_z": 1},
        "coverage": {"x_min": 7.5, "x_max": 52.5, "y_min": -52.5, "y_max": 52.5,
                     "z_min": 0.0, "z_max": 0.0, "k_x": 5, "k_y": 10, "k_z": 1},
        "obstacles": _PAPER_OBSTACLES,
        "distribution": {
            "expected_users": 10.5,
            "regular_ratio": 0.02,
            "hotspot_k1": [35, 40, 41, 45, 46, 47],
            "hotspot_k2": [0, 1, 2, 5, 6, 10],
        },
    }


SWEEP_SPEC = {
    "parameter": "m_h",
    "values": [2, 4],
    "schemes": ["proposed", "optimal", "horizontal_sparse", "dense_ula"],
    "evaluators": ["approx_mrc", "upper_bound", "sim_mrc", "sim_mmse"],
    "trials": 300,
}


class Workload:
    """Inputs written under ``run_dir``; one CLI command per pass directory."""

    name = ""

    def __init__(self, run_dir: Path, seed: int):
        self.run_dir = run_dir
        self.seed = seed

    def probe_args(self) -> list:
        """Arguments of setup_probe.py that load this workload's documents."""
        raise NotImplementedError

    def argv(self, pass_dir: Path) -> list:
        raise NotImplementedError

    def outputs(self, pass_dir: Path) -> list:
        raise NotImplementedError

    def check(self, pass_dir: Path) -> tuple[list, float]:
        """(problems, weighted_rate_bits) of one pass."""
        raise NotImplementedError


class _Plan(Workload):
    def outputs(self, pass_dir):
        return [pass_dir / "plan.json"]

    def check(self, pass_dir):
        doc = self.document()
        plan = json.loads((pass_dir / "plan.json").read_text())
        problems = []
        n0 = doc["ma_region"]["n_y"] * doc["ma_region"]["n_z"]
        n_mu = plan["n_mu"]
        if (len(n_mu) != doc["n_subarrays"] or len(set(n_mu)) != len(n_mu)
                or not all(0 <= i < n0 for i in n_mu)):
            problems.append(f"support {n_mu} is not {doc['n_subarrays']} distinct indices < {n0}")
        chosen = set(n_mu)
        if plan["chi"] != [int(i in chosen) for i in range(n0)]:
            problems.append("chi does not mark exactly the support")
        accepted = [r["objective"] for r in plan["trace"] if r["accepted"]]
        if any(b < a for a, b in zip(accepted, accepted[1:])):
            problems.append(f"accepted trace objectives decrease: {accepted}")
        if plan["objective"] != accepted[-1] or plan["objective"] < plan["trace"][0]["objective"]:
            problems.append("final objective is not the last accepted one or is below the LP seed's")
        if plan["rng_seed"] != doc["rng_seed"]:
            problems.append(f"rng_seed {plan['rng_seed']} != {doc['rng_seed']}")
        if not problems:
            expected = reference.weighted_rate(doc, n_mu)
            if abs(plan["objective"] - expected) > REFERENCE_RTOL * abs(expected):
                problems.append(f"objective {plan['objective']!r} != reference {expected!r}")
        return problems, plan["objective"]


class FullScalePlan(_Plan):
    name = "full_scale_plan"

    def document(self):
        from xlma.presets import PRESETS

        return PRESETS[FULL_SCALE_PRESET]()

    def probe_args(self):
        return ["--preset", FULL_SCALE_PRESET]

    def argv(self, pass_dir):
        return ["plan", "--preset", FULL_SCALE_PRESET, "--out", str(pass_dir / "plan.json")]


class DensePlan(_Plan):
    name = "dense_plan"

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.config = run_dir / "scenario.json"
        self.config.write_text(json.dumps(self.document(), indent=2, sort_keys=True))

    def document(self):
        return dense_scenario(self.seed)

    def probe_args(self):
        return ["--config", str(self.config)]

    def argv(self, pass_dir):
        return ["plan", "--config", str(self.config), "--out", str(pass_dir / "plan.json")]


class SweepOracle(Workload):
    name = "sweep_oracle"

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.config = run_dir / "scenario.json"
        self.spec = run_dir / "sweep.json"
        self.config.write_text(json.dumps(sweep_scenario(seed), indent=2, sort_keys=True))
        self.spec.write_text(json.dumps(SWEEP_SPEC, indent=2, sort_keys=True))

    def probe_args(self):
        return ["--config", str(self.config), "--sweep", str(self.spec)]

    def argv(self, pass_dir):
        return ["sweep", "--config", str(self.config), "--sweep", str(self.spec),
                "--out-dir", str(pass_dir), "--threads", "1"]

    def outputs(self, pass_dir):
        return [pass_dir / f"sweep_{ev}.csv" for ev in SWEEP_SPEC["evaluators"]]

    def check(self, pass_dir):
        cells = {}
        problems = []
        for path in self.outputs(pass_dir):
            with path.open(newline="") as fh:
                for row in csv.DictReader(fh):
                    key = (row["value"], row["scheme"], row["evaluator"])
                    if row["note"] or not math.isfinite(float(row["rate"] or "nan")):
                        problems.append(f"cell {key} has no rate: {row['note']!r}")
                        continue
                    cells[key] = (float(row["rate"]), float(row["stderr"] or 0.0))
        expected = {(str(v), s, e) for v in SWEEP_SPEC["values"]
                    for s in SWEEP_SPEC["schemes"] for e in SWEEP_SPEC["evaluators"]}
        if problems or set(cells) != expected:
            return problems or [f"cells {sorted(set(cells) ^ expected)} missing or extra"], 0.0
        for v in SWEEP_SPEC["values"]:
            v = str(v)
            proposed = cells[(v, "proposed", "approx_mrc")][0]
            optimal = cells[(v, "optimal", "approx_mrc")][0]
            if optimal < proposed * (1.0 - ORDER_RTOL):
                problems.append(f"m_h={v}: optimal {optimal!r} < proposed {proposed!r}")
            for s in SWEEP_SPEC["schemes"]:
                mrc, mrc_err = cells[(v, s, "sim_mrc")]
                mmse, mmse_err = cells[(v, s, "sim_mmse")]
                bound = cells[(v, s, "upper_bound")][0]
                if mmse < mrc * (1.0 - ORDER_RTOL):
                    problems.append(f"m_h={v} {s}: sim_mmse {mmse!r} < sim_mrc {mrc!r}")
                for label, est, err in (("sim_mrc", mrc, mrc_err), ("sim_mmse", mmse, mmse_err)):
                    if bound < est - UPPER_BOUND_STDERRS * err:
                        problems.append(f"m_h={v} {s}: upper_bound {bound!r} < {label} {est!r}"
                                        f" - {UPPER_BOUND_STDERRS} x {err!r}")
        rate = sum(cells[(str(v), "proposed", "approx_mrc")][0] for v in SWEEP_SPEC["values"])
        return problems, rate


WORKLOADS = {w.name: w for w in (FullScalePlan, DensePlan, SweepOracle)}
