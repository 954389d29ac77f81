"""Span and work-count tracing of one xlma command, from outside the package.

The tracer replaces public functions in the namespaces their callers look
them up in (``xlma.pipeline.compute_los_visibility``, not the defining
module), records a span around each call and a work count computed from the
call's arguments or result, and restores every original when the pass ends.
Spans stay in memory; ``write_spans`` stores them once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict

# Per-layer metrics the traced pass reports: (name, unit, better).
PER_LAYER = (
    ("scenario.visibility_s", "s", "lower"),
    ("scenario.visibility_rows", "count", "lower"),
    ("scenario.segment_tests", "count", "lower"),
    ("channel.gain_tables_s", "s", "lower"),
    ("channel.gain_entries", "count", "lower"),
    ("channel.table_mb", "MB", "lower"),
    ("channel.layout_stats_s", "s", "lower"),
    ("channel.draw_s", "s", "lower"),
    ("rate.assemble_s", "s", "lower"),
    ("rate.active_grids", "count", "lower"),
    ("rate.pair_columns", "count", "lower"),
    ("optimizer.lp_s", "s", "lower"),
    ("lp.iterations", "count", "lower"),
    ("optimizer.replacement_s", "s", "lower"),
    ("optimizer.replacement_evals", "count", "lower"),
    ("optimizer.exhaustive_s", "s", "lower"),
    ("optimizer.combinations", "count", "lower"),
    ("montecarlo.mrc_s", "s", "lower"),
    ("montecarlo.mmse_s", "s", "lower"),
    ("montecarlo.trials", "count", "lower"),
    ("montecarlo.active_users", "count", "lower"),
    ("montecarlo.trials_per_s", "1/s", "higher"),
    ("pipeline.context_s", "s", "lower"),
    ("cli.other_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Nested spans (name, parent, start, end) and exact work counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, owner, attr, name, count=None):
        """Trace ``owner.attr``; ``count(arguments, result, counts)`` adds work."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            span_name = name(arguments) if callable(name) else name
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(arguments, result, tracer.counts)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict:
        """Per-name duration minus the time covered by direct child spans."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
        return out

    def inclusive_times(self) -> dict:
        """Per-name duration of the outermost spans of that name."""
        by_id = {span["id"]: span for span in self.spans}
        out = defaultdict(float)
        for span in self.spans:
            parent = span["parent"]
            nested = False
            while parent is not None:
                if by_id[parent]["name"] == span["name"]:
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if not nested:
                out[span["name"]] += span["end"] - span["start"]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.record = {
            "id": len(tracer.spans),
            "parent": tracer._stack[-1] if tracer._stack else None,
            "name": self.name,
            "start": time.perf_counter(),
            "end": None,
        }
        tracer.spans.append(self.record)
        tracer._stack.append(self.record["id"])
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


# ---------------------------------------------------------------------------
# What is traced, and the work each call does
# ---------------------------------------------------------------------------


def _visibility_count(arguments, result, counts):
    # result is the (rows, points) 0/1 table; every row tests every point
    # against every sample of the grid and every obstacle.
    rows, points = result.shape
    tests = rows * points * arguments["samples_per_grid"] * len(arguments["obstacles"])
    counts["scenario.visibility_rows"] += rows
    counts["scenario.segment_tests"] += tests


def _gain_count(arguments, result, counts):
    counts["channel.gain_entries"] += result.beta_los.size
    arrays = (result.beta_los, result.beta_nlos, result.beta_total, result.xi, result.u)
    counts["channel.table_bytes"] += sum(a.nbytes for a in arrays if a is not None)


def _assemble_count(arguments, result, counts):
    k_rows = len(result.grid_rows)
    counts["rate.active_grids"] += k_rows
    counts["rate.pair_columns"] += k_rows * k_rows * result.n_cols


def _lp_count(arguments, result, counts):
    if hasattr(result, "result"):  # solve_lp, not build_init_lp
        counts["lp.iterations"] += result.result.iterations


def _victim_count(arguments, result, counts):
    state = arguments["state"]
    counts["optimizer.replacement_evals"] += len(state.n_mu) - len(state.replaced_slots)


def _replacement_count(arguments, result, counts):
    counts["optimizer.replacement_evals"] += arguments["model"].n_cols


def _exhaustive_count(arguments, result, counts):
    counts["optimizer.combinations"] += math.comb(
        arguments["model"].n_cols, arguments["n_select"]
    )


def _mc_name(arguments):
    return f"montecarlo.{arguments['opts'].combiner}"


def _mc_count(arguments, result, counts):
    counts["montecarlo.trials"] += arguments["opts"].trials


def _draw_count(arguments, result, counts):
    counts["montecarlo.active_users"] += len(result.columns)


def install(tracer):
    """Wrap each layer's public entry points where xlma's callers find them."""
    from xlma import channel, cli, montecarlo, optimizer, pipeline
    from xlma.rate import RateModel

    tracer.wrap(pipeline, "compute_los_visibility", "scenario.visibility", _visibility_count)
    tracer.wrap(channel, "visibility_from_points", "scenario.visibility", _visibility_count)
    tracer.wrap(pipeline, "build_gain_tables", "channel.gain_tables", _gain_count)
    tracer.wrap(pipeline, "compute_layout_stats", "channel.layout_stats")
    tracer.wrap(montecarlo, "compute_layout_stats", "channel.layout_stats")
    tracer.wrap(montecarlo, "draw_realization", "channel.draw", _draw_count)
    tracer.wrap(RateModel, "from_candidate_tables", "rate.assemble", _assemble_count)
    tracer.wrap(RateModel, "from_layout_stats", "rate.assemble", _assemble_count)
    tracer.wrap(optimizer, "build_init_lp", "optimizer.lp", _lp_count)
    tracer.wrap(optimizer, "solve_lp", "optimizer.lp", _lp_count)
    tracer.wrap(pipeline, "successive_replacement", "optimizer.replacement")
    tracer.wrap(optimizer, "select_victim", "optimizer.replacement", _victim_count)
    tracer.wrap(optimizer, "best_replacement", "optimizer.replacement", _replacement_count)
    tracer.wrap(pipeline, "exhaustive_search", "optimizer.exhaustive", _exhaustive_count)
    tracer.wrap(cli, "simulate_weighted_sum_rate", _mc_name, _mc_count)
    tracer.wrap(cli, "context_from_document", "pipeline.context")


def layer_metrics(tracer, traced_wall_s, untraced_wall_s) -> dict:
    """Every PER_LAYER metric from one traced pass (root span named "cli")."""
    own = tracer.self_times()
    incl = tracer.inclusive_times()
    counts = tracer.counts
    mc_incl = incl["montecarlo.mrc"] + incl["montecarlo.mmse"]
    values = {
        "scenario.visibility_s": own["scenario.visibility"],
        "scenario.visibility_rows": counts["scenario.visibility_rows"],
        "scenario.segment_tests": counts["scenario.segment_tests"],
        "channel.gain_tables_s": own["channel.gain_tables"],
        "channel.gain_entries": counts["channel.gain_entries"],
        "channel.table_mb": counts["channel.table_bytes"] / 1e6,
        "channel.layout_stats_s": own["channel.layout_stats"],
        "channel.draw_s": own["channel.draw"],
        "rate.assemble_s": own["rate.assemble"],
        "rate.active_grids": counts["rate.active_grids"],
        "rate.pair_columns": counts["rate.pair_columns"],
        "optimizer.lp_s": own["optimizer.lp"],
        "lp.iterations": counts["lp.iterations"],
        "optimizer.replacement_s": own["optimizer.replacement"],
        "optimizer.replacement_evals": counts["optimizer.replacement_evals"],
        "optimizer.exhaustive_s": own["optimizer.exhaustive"],
        "optimizer.combinations": counts["optimizer.combinations"],
        "montecarlo.mrc_s": own["montecarlo.mrc"],
        "montecarlo.mmse_s": own["montecarlo.mmse"],
        "montecarlo.trials": counts["montecarlo.trials"],
        "montecarlo.active_users": counts["montecarlo.active_users"],
        "montecarlo.trials_per_s": counts["montecarlo.trials"] / mc_incl if mc_incl else 0.0,
        "pipeline.context_s": incl["pipeline.context"],
        "cli.other_s": own["cli"],
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
