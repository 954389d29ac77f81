"""ScenarioContext tabulates only the active grids; that must change nothing."""

import numpy as np
import pytest

from xlma.channel import GainTables, build_gain_tables
from xlma.optimizer import successive_replacement
from xlma.pipeline import context_from_document
from xlma.presets import paper_partial_los_1d
from xlma.rate import RateModel
from xlma.scenario import compute_los_visibility

TABLES = ("xi", "beta_los", "beta_nlos", "beta_total", "u")


def _context_and_full_tables():
    ctx = context_from_document(paper_partial_los_1d())
    sc = ctx.scenario
    xi = compute_los_visibility(ctx.candidates, sc.coverage, sc.obstacles,
                                sc.visibility_samples, sc.rng_seed)
    full = build_gain_tables(sc, ctx.candidates, sc.grid_centers(), xi)
    return ctx, full


def test_active_row_tables_equal_rows_of_full_tables():
    ctx, full = _context_and_full_tables()
    sc = ctx.scenario
    rows = np.flatnonzero(sc.distribution.rho > 0)
    assert (len(rows), sc.coverage.n_grids) == (12, 189) and sc.obstacles
    assert full.xi.min() == 0  # the obstacles block some pairs
    np.testing.assert_array_equal(ctx.gains.grid_rows, rows)
    np.testing.assert_array_equal(ctx.model.grid_rows, rows)
    assert np.array_equal(ctx.xi, full.xi[rows])
    for name in TABLES:
        assert np.array_equal(getattr(ctx.gains, name), getattr(full, name)[rows]), name


def test_plan_matches_model_from_pruned_full_tables():
    ctx, full = _context_and_full_tables()
    sc = ctx.scenario
    rows = np.flatnonzero(sc.distribution.rho > 0)
    pruned = GainTables(**{name: getattr(full, name)[rows] for name in TABLES},
                        grid_rows=rows)
    old = successive_replacement(sc, RateModel.from_candidate_tables(sc, pruned),
                                 full.xi[rows])
    new = ctx.plan()
    assert new.n_mu == old.n_mu
    assert np.array_equal(new.chi, old.chi)
    assert new.objective == old.objective
    # Full tables keep the zero-rho rows, so the LP seed reads xi by absolute
    # grid index; only the summation order of the rate differs.
    unpruned = successive_replacement(sc, RateModel.from_candidate_tables(sc, full),
                                      full.xi)
    assert unpruned.n_mu == new.n_mu
    assert np.array_equal(unpruned.lp.chi, new.lp.chi)
    assert unpruned.objective == pytest.approx(new.objective, rel=1e-12)
