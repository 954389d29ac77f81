"""Convenience wiring from a scenario to tables, models, and placements."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .benchmarks import fpa_layout
from .channel import (ArrayLayout, LayoutStats, build_gain_tables, compute_layout_stats,
                      support_layout)
from .optimizer import PlacementResult, exhaustive_search, successive_replacement
from .rate import RateModel
from .scenario import ScenarioConfig, load_scenario
# Imported under this name because the benchmark tracer wraps it here.
from .scenario import visibility_from_points as compute_los_visibility


@dataclass
class ScenarioContext:
    """Scenario plus what evaluations share: the visibility table ``xi``
    (uint8) and the closed-form ``model`` over every candidate column.

    Both cover only the grids with positive activation probability, row r
    being grid ``model.grid_rows[r]``: the others add nothing to the
    expected rate. The gain tables the model is assembled from are dropped
    once it is built.
    """

    scenario: ScenarioConfig
    xi: np.ndarray
    model: RateModel

    @classmethod
    def build(cls, scenario: ScenarioConfig) -> "ScenarioContext":
        candidates = scenario.candidates()
        rows = np.flatnonzero(scenario.rho > 0.0)
        xi = compute_los_visibility(
            candidates,
            scenario.coverage,
            scenario.obstacles,
            scenario.visibility_samples,
            scenario.rng_seed,
            grid_indices=rows,
        )
        gains = build_gain_tables(scenario, candidates, xi, rows)
        return cls(scenario, gains.xi, RateModel.from_candidate_tables(scenario, gains))

    def plan(self) -> PlacementResult:
        return successive_replacement(self.scenario, self.model, self.xi)

    def placement_for_scheme(self, scheme: str) -> ArrayLayout:
        """The layout of a scheme, on the candidates: the plan's support
        (``proposed``), the exhaustive optimum (``optimal``) or a baseline."""
        if scheme == "proposed":
            return support_layout(self.scenario, self.plan().n_mu)
        if scheme == "optimal":
            support, _ = exhaustive_search(self.model, self.scenario.n_subarrays)
            return support_layout(self.scenario, support)
        return fpa_layout(scheme, self.scenario)

    def layout_stats(self, layout: ArrayLayout) -> LayoutStats:
        """Statistics of a layout over the active grids: the one placement
        form every evaluator takes.

        A layout whose every center is a candidate position has its centers
        put in candidate order, so that one placement has one antenna axis
        and one Monte Carlo value however its indices were listed, and takes
        its visibility rows from those candidates' columns of ``xi``; any
        other layout runs a visibility pass over its centers.
        """
        candidates = self.scenario.candidates()
        on_candidate = np.all(layout.centers[:, None] == candidates, axis=2)
        xi = None
        if on_candidate.any(axis=1).all():
            support = np.sort(on_candidate.argmax(axis=1))
            layout = replace(layout, centers=candidates[support])
            xi = self.xi[:, support]
        return compute_layout_stats(self.scenario, layout, self.model.grid_rows, xi)

    def closed_forms(self, stats: LayoutStats) -> tuple[float, float]:
        """(approx_mrc, upper_bound) of a placement's statistics, scored on a
        model of its own columns."""
        model = RateModel.from_layout_stats(self.scenario, stats)
        columns = np.arange(model.n_cols)
        return model.weighted_sum(columns), model.weighted_upper_bound(columns)


def context_from_document(doc) -> ScenarioContext:
    return ScenarioContext.build(load_scenario(doc))
