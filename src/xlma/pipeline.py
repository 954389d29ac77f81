"""Convenience wiring from a scenario to tables, models, and placements."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .benchmarks import fpa_layout
from .channel import (ArrayLayout, GainTables, LayoutStats, build_gain_tables,
                      check_support, compute_layout_stats, layout_stats_from_gains,
                      support_layout)
from .optimizer import PlacementResult, exhaustive_search, successive_replacement
from .rate import RateModel
from .scenario import ScenarioConfig, compute_los_visibility, load_scenario

@dataclass
class ScenarioContext:
    """Scenario plus everything derived from it that evaluations share.

    ``gains``, with the one visibility table ``gains.xi``, covers only the
    grids with positive activation probability, row r being grid
    ``gains.grid_rows[r]``: the others add nothing to the expected rate.
    """

    scenario: ScenarioConfig
    candidates: np.ndarray
    gains: GainTables
    model: RateModel

    @classmethod
    def build(cls, scenario: ScenarioConfig) -> "ScenarioContext":
        candidates = scenario.candidates()
        rows = np.flatnonzero(scenario.distribution.rho > 0.0)
        xi = compute_los_visibility(
            candidates,
            scenario.coverage,
            scenario.obstacles,
            scenario.visibility_samples,
            scenario.rng_seed,
            grid_indices=rows,
        )
        grids = scenario.grid_centers()[rows]
        gains = build_gain_tables(scenario, candidates, grids, xi, grid_rows=rows)
        model = RateModel.from_candidate_tables(scenario, gains)
        return cls(scenario, candidates, gains, model)

    def plan(self) -> PlacementResult:
        return successive_replacement(self.scenario, self.model, self.gains.xi)

    def exhaustive(self):
        return exhaustive_search(self.model, self.scenario.n_subarrays)

    def placement_for_scheme(self, scheme: str):
        """Support indices (proposed/optimal) or an ArrayLayout (baselines)."""
        if scheme == "proposed":
            return np.asarray(self.plan().n_mu, int)
        if scheme == "optimal":
            chi, _ = self.exhaustive()
            return np.flatnonzero(chi)
        return fpa_layout(scheme, self.scenario)

    def layout_stats(self, placement) -> LayoutStats:
        """Statistics of a support (index list) or a layout over the active
        grids: the one placement form every evaluator takes.

        A support's come from its columns of the candidate tables, with no
        visibility pass of their own; a layout's are computed.
        """
        if isinstance(placement, ArrayLayout):
            return compute_layout_stats(
                self.scenario, placement, grid_indices=self.model.grid_rows
            )
        support = check_support(placement, self.model.n_cols)
        gains = self.gains
        columns = replace(gains, beta_los=gains.beta_los[:, support],
                          xi=gains.xi[:, support], u=gains.u[:, support])
        return layout_stats_from_gains(
            self.scenario, support_layout(self.scenario, support), columns
        )

    def closed_forms(self, stats: LayoutStats) -> tuple[float, float]:
        """(approx_mrc, upper_bound) of a placement's statistics, scored on a
        model of its own columns."""
        model = RateModel.from_layout_stats(self.scenario, stats)
        columns = np.arange(model.n_cols)
        return model.weighted_sum(columns), model.weighted_upper_bound(columns)


def context_from_document(doc) -> ScenarioContext:
    return ScenarioContext.build(load_scenario(doc))
