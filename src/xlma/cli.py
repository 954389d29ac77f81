"""Command-line front end: plan, sweep, map, validate, benchmark.

All computation is linear-unit internally; dB/dBm appear only in configs and
outputs. Every command is deterministic given (config, seed): outputs carry
no timestamps, and sweep/map CSVs are written in a fixed ordering.

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .benchmarks import BENCHMARK_KINDS
from .channel import support_layout
from .errors import ConfigurationError, DomainError
from .montecarlo import (SimOptions, correlation_map, draw_trials, power_gain_map,
                         simulate_weighted_sum_rate)
from .pipeline import ScenarioContext, context_from_document
from .presets import PRESETS
from .scenario import (CANDIDATE_LIMIT, DISTRIBUTION_FIELDS, MaRegionSpec, _integers, _region,
                       _require, as_bounded, as_integer, as_number, check_fields, dbm_to_mw,
                       load_scenario, mw_to_dbm, rician_kappa)

SWEEP_PARAMETERS = ("m_h", "ma_width", "expected_users", "rician_db")
SWEEP_SCHEMES = ("proposed", "optimal") + BENCHMARK_KINDS
SWEEP_EVALUATORS = ("approx_mrc", "sim_mrc", "sim_mmse", "upper_bound")
SIM_COMBINERS = {"sim_mrc": "mrc", "sim_mmse": "mmse"}
SWEEP_FIELDS = ("parameter", "values", "schemes", "evaluators", "trials")
MAP_FIELDS = ("kind", "scheme", "resolution", "probe_point", "blocked_placeholder_dbm",
              "z_plane")
# Largest sweep trial count and map resolution (points per map axis) a spec
# may ask for; a larger one is refused before anything is allocated.
TRIALS_LIMIT = 1_000_000
RESOLUTION_LIMIT = 2000
# Largest |blocked_placeholder_dbm|: its power in mW, summed over a map
# point's subarrays and elements, stays positive and finite.
PLACEHOLDER_DBM_LIMIT = 1000.0


def _load_document(args) -> dict:
    if args.config is not None and args.preset is not None:
        raise ConfigurationError("give either --config or --preset, not both")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        return PRESETS[args.preset]()
    if args.config:
        return _json_object(args.config, "scenario")
    raise ConfigurationError("either --config or --preset is required")


def _json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; any other JSON value raises
    naming ``what``."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _csv_cell(value):
    """A CSV cell, floats written by repr so that they read back exactly."""
    return repr(value) if isinstance(value, float) else value


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args) -> int:
    doc = _load_document(args)
    ctx = context_from_document(doc)
    result = ctx.plan()
    payload = {
        "n_mu": [int(i) for i in result.n_mu],
        "chi": np.bincount(result.n_mu, minlength=ctx.scenario.ma_region.n_candidates).tolist(),
        "phi_rows": {str(slot): int(cand) for slot, cand in enumerate(result.n_mu)},
        "objective": result.objective,
        "lp": {
            "objective": result.lp.objective,
            "iterations": result.lp.result.iterations,
        },
        "trace": result.trace,
        "rng_seed": ctx.scenario.rng_seed,
    }
    _write_json(args.out, payload)
    print(f"plan written to {args.out} (objective {result.objective:.6f} bits/s/Hz)")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _apply_parameter(doc: dict, parameter: str, value, field: str) -> dict:
    """A copy of ``doc`` with the sweep ``parameter``, one of
    ``SWEEP_PARAMETERS``, set to ``value``, which the sweep spec holds at
    ``field``.

    An ``ma_width`` keeps the region's y step and center: a width that is
    not a whole number of steps (to 1e-9 relative) raises
    ``ConfigurationError`` naming the nearest widths that are.
    """
    out = json.loads(json.dumps(doc))
    if parameter == "m_h":
        out["m_h"] = as_integer(value, field)
    elif parameter == "ma_width":
        width = as_number(value, field, finite=True)
        region = _region(doc, "ma_region", MaRegionSpec)  # checks the numbers of the step
        step = region.dy
        if step == 0:
            raise ConfigurationError(f"'{field}': ma_width needs an ma_region with "
                                     "y_max > y_min")
        steps = width / step
        if not steps <= CANDIDATE_LIMIT:  # inf too
            raise ConfigurationError(f"'{field}': ma_width {value} spans more than "
                                     f"{CANDIDATE_LIMIT} candidate steps of {step:.12g}")
        n_y = round(steps)
        if n_y < 1:
            raise ConfigurationError(f"'{field}': ma_width {value} too small for step {step}")
        if abs(steps - n_y) > 1e-9 * n_y:
            nearest = " and ".join(f"{n * step:.12g}" for n in (math.floor(steps),
                                                                math.ceil(steps)) if n >= 1)
            raise ConfigurationError(
                f"'{field}': ma_width {value} is not a whole number of candidate steps "
                f"{step:.12g}; the nearest widths that are: {nearest}")
        center = (region.y_min + region.y_max) / 2.0
        ma = out["ma_region"]
        ma["y_min"], ma["y_max"], ma["n_y"] = center - width / 2.0, center + width / 2.0, n_y
    elif parameter == "expected_users":
        dist = check_fields(_require(out, "distribution", ""), DISTRIBUTION_FIELDS,
                            "distribution.")
        dist["expected_users"] = as_number(value, field)
    elif parameter == "rician_db":
        try:
            rician_kappa(value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"'{field}': {exc}") from None
        out["rician_kappa_db"] = value
    return out


def _sweep_cell(ctx: ScenarioContext, scheme: str, evaluators):
    """(statistics, {evaluator: row}) of one scheme: its one ``LayoutStats``
    and the rows (scheme, evaluator, rate, stderr, note) of its closed forms.
    A scheme without a placement has no statistics and a skipped row for
    every evaluator."""
    try:
        layout = ctx.placement_for_scheme(scheme)
    except ConfigurationError as exc:
        return None, {ev: (scheme, ev, "", "", f"skipped: {exc}") for ev in evaluators}
    stats = ctx.layout_stats(layout)  # one set of statistics for every evaluator
    rows = {}
    if {"approx_mrc", "upper_bound"} & set(evaluators):
        closed = dict(zip(("approx_mrc", "upper_bound"), ctx.closed_forms(stats)))
        rows = {ev: (scheme, ev, closed[ev], "", "") for ev in evaluators if ev in closed}
    return stats, rows


def _simulated_rows(ctx: ScenarioContext, draws, evaluators, cell) -> dict:
    """{evaluator: row} of the simulated ``evaluators`` of ``cell``, a
    (scheme, statistics) pair, each scored on ``draws``."""
    scheme, stats = cell
    rows = {}
    for evaluator in evaluators:
        opts = SimOptions(trials=draws.trials, combiner=SIM_COMBINERS[evaluator])
        est, err = simulate_weighted_sum_rate(ctx.scenario, stats, opts, draws)
        rows[evaluator] = (scheme, evaluator, est, err, "")
    return rows


def _simulate_shape(ctx: ScenarioContext, cells, evaluators, trials: int, map_cells) -> list:
    """Simulated rows of ``cells``, (scheme, statistics) pairs of one array
    shape, all scored on one set of draws; the draws go when this returns,
    so a sweep holds one set at a time."""
    draws = draw_trials(ctx.scenario, cells[0][1], trials)
    return list(map_cells(functools.partial(_simulated_rows, ctx, draws, evaluators), cells))


def _sweep_value(doc: dict, schemes, evaluators, trials: int, map_cells) -> list:
    """Every scheme's rows at one sweep value, in scheme order. The value's
    context lives only in this call, so a sweep holds one at a time;
    ``map_cells`` is ``map`` or a thread pool's.

    Each scheme's statistics and closed forms come first. The schemes are
    then grouped by array shape (S, M_total), and each group's trials are
    drawn once for all its schemes and both combiners."""
    ctx = context_from_document(doc)
    cells = dict(zip(schemes, map_cells(
        functools.partial(_sweep_cell, ctx, evaluators=evaluators), schemes)))
    simulated = [ev for ev in evaluators if ev in SIM_COMBINERS]
    shapes = {}
    for scheme, (stats, _) in cells.items():
        if stats is not None and simulated:
            shape = (len(stats.layout.centers), stats.total_antennas)
            shapes.setdefault(shape, []).append((scheme, stats))
    for group in shapes.values():
        for (scheme, _), rows in zip(group, _simulate_shape(ctx, group, simulated, trials,
                                                              map_cells)):
            cells[scheme][1].update(rows)
    return [cells[scheme][1][ev] for scheme in schemes for ev in evaluators]


def _spec_names(spec: dict, key: str, allowed, default=None) -> list:
    """``spec[key]`` as a nonempty list of distinct names from ``allowed``."""
    names = spec.get(key, default)
    if not isinstance(names, list) or not names:
        raise ConfigurationError(f"'{key}' must be a nonempty list, got {names!r}")
    for i, name in enumerate(names):
        if name not in allowed:
            raise ConfigurationError(f"'{key}[{i}]': unknown name {name!r}; one of {allowed}")
        if name in names[:i]:
            raise ConfigurationError(f"'{key}[{i}]': {name!r} is listed twice")
    return names


def cmd_sweep(args) -> int:
    if args.threads < 0:
        raise ConfigurationError(f"'--threads' must be at least 0, got {args.threads}")
    doc = _load_document(args)
    spec = check_fields(_json_object(args.sweep, "sweep spec"), SWEEP_FIELDS)
    parameter = spec.get("parameter")
    values = spec.get("values", [])
    schemes = _spec_names(spec, "schemes", SWEEP_SCHEMES)
    evaluators = _spec_names(spec, "evaluators", SWEEP_EVALUATORS, default=["approx_mrc"])
    trials = as_integer(spec.get("trials", 500), "trials")
    if not 1 <= trials <= TRIALS_LIMIT:
        raise ConfigurationError(f"'trials' must lie in [1, {TRIALS_LIMIT}], got {trials}")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigurationError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    if not isinstance(values, list) or not values:
        raise ConfigurationError("sweep values must be a nonempty list")

    try:
        docs = [_apply_parameter(doc, parameter, v, f"values[{i}]")
                for i, v in enumerate(values)]
    except ConfigurationError:
        load_scenario(doc)  # a fault of the document is named before a value's
        raise
    for value_doc in docs:
        load_scenario(value_doc)  # every value is checked before the first cell runs
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = [_sweep_value(d, schemes, evaluators, trials, pool.map) for d in docs]
    else:
        results = [_sweep_value(d, schemes, evaluators, trials, map) for d in docs]

    tables = {ev: [] for ev in evaluators}
    for value, rows in zip(values, results):
        for scheme, evaluator, rate, err, note in rows:
            tables[evaluator].append((value, scheme, evaluator, rate, err, note))

    for evaluator, rows in tables.items():
        path = out_dir / f"sweep_{evaluator}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "scheme", "evaluator", "rate", "stderr", "note"])
            writer.writerows([_csv_cell(v) for v in row] for row in rows)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------


def _write_map_csv(path, x, y, values) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x\\y"] + [repr(float(v)) for v in y])
        for i, xv in enumerate(x):
            writer.writerow([repr(float(xv))] + [repr(float(v)) for v in values[i]])


def _map_fields(spec: dict) -> dict:
    """The numeric fields of a map spec by name, each checked and named in
    its error."""
    probe = spec.get("probe_point")
    if probe is not None and (not isinstance(probe, list) or len(probe) not in (2, 3)):
        raise ConfigurationError(f"'probe_point' must be a list of 2 or 3 numbers, got {probe!r}")
    placeholder = spec.get("blocked_placeholder_dbm")
    z_plane = spec.get("z_plane")
    resolution = as_integer(spec.get("resolution", 50), "resolution")
    if resolution > RESOLUTION_LIMIT:
        raise ConfigurationError(
            f"'resolution' must be at most {RESOLUTION_LIMIT}, got {resolution}")
    return {
        "resolution": resolution,
        "probe_point": None if probe is None else tuple(
            as_bounded(v, f"probe_point[{i}]") for i, v in enumerate(probe)),
        "blocked_placeholder_gain": None if placeholder is None else float(dbm_to_mw(
            as_bounded(placeholder, "blocked_placeholder_dbm", PLACEHOLDER_DBM_LIMIT, "dBm"))),
        "z_plane": None if z_plane is None else as_bounded(z_plane, "z_plane"),
    }


def cmd_map(args) -> int:
    doc = _load_document(args)
    spec = check_fields(_json_object(args.map_spec, "map spec"), MAP_FIELDS)
    kind = spec.get("kind")
    if kind not in ("power", "correlation"):
        raise ConfigurationError("map kind must be 'power' or 'correlation'")
    fields = _map_fields(spec)
    scheme = spec.get("scheme", "proposed")
    if isinstance(scheme, dict):
        if "support" not in check_fields(scheme, ("support",), "scheme."):
            raise ConfigurationError("missing required field 'scheme.support'")
        support = _integers(scheme["support"], "scheme.support")
    elif scheme not in SWEEP_SCHEMES:
        raise ConfigurationError(
            f"'scheme' must be one of {SWEEP_SCHEMES} or an object with 'support', "
            f"got {scheme!r}")
    ctx = context_from_document(doc)
    layout = (support_layout(ctx.scenario, support) if isinstance(scheme, dict)
              else ctx.placement_for_scheme(scheme))

    probe = fields["probe_point"]
    cov = ctx.scenario.coverage
    if probe is not None:
        if not (cov.x_min <= probe[0] <= cov.x_max and cov.y_min <= probe[1] <= cov.y_max):
            raise ConfigurationError("probe_point outside the coverage region")
    if kind == "power":
        x, y, values = power_gain_map(ctx.scenario, layout, fields["resolution"],
                                      fields["z_plane"], fields["blocked_placeholder_gain"])
        values = mw_to_dbm(np.maximum(values, 1e-300))
    else:
        x, y, values = correlation_map(ctx.scenario, layout, probe, fields["resolution"],
                                       fields["z_plane"])
    _write_map_csv(args.out, x, y, values)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    from .validation import validate_scenario

    if args.draws < 1:
        raise ConfigurationError(f"'--draws' must be at least 1, got {args.draws}")
    doc = _load_document(args)
    scenario = load_scenario(doc)
    checks = validate_scenario(scenario, draws=args.draws)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def cmd_benchmark(args) -> int:
    doc = _load_document(args)
    ctx = context_from_document(doc)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for scheme in ("proposed",) + BENCHMARK_KINDS:
        try:
            layout = ctx.placement_for_scheme(scheme)
        except ConfigurationError as exc:
            rows.append((scheme, "", "", f"skipped: {exc}"))
            continue
        _write_json(out_dir / f"layout_{scheme}.json", layout.to_json_dict())
        rows.append((scheme, *ctx.closed_forms(ctx.layout_stats(layout)), ""))

    path = out_dir / "benchmarks.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "approx_mrc", "upper_bound", "note"])
        writer.writerows([_csv_cell(v) for v in row] for row in rows)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlma",
        description="Movable-subarray placement: optimize, simulate, and map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="scenario JSON path")
        p.add_argument("--preset", help=f"preset name ({', '.join(sorted(PRESETS))})")

    p = sub.add_parser("plan", help="optimize a placement and write the plan JSON")
    add_config(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="evaluate schemes across a parameter sweep")
    add_config(p)
    p.add_argument("--sweep", required=True, help="sweep spec JSON path")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=0,
                   help="parallel sweep cells (results are identical regardless)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("map", help="export a power-gain or correlation map CSV")
    add_config(p)
    p.add_argument("--map-spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("validate", help="run the built-in identity suite")
    add_config(p)
    p.add_argument("--draws", type=int, default=20000)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("benchmark", help="emit baseline layouts and their rates")
    add_config(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
