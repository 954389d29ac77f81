"""ScenarioContext tabulates only the active grids; that must change nothing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import make_scenario
from xlma import pipeline, rate
from xlma.channel import build_gain_tables, compute_layout_stats, support_layout
from xlma.cli import _sweep_cell
from xlma.optimizer import build_init_lp, successive_replacement
from xlma.pipeline import context_from_document
from xlma.presets import paper_partial_los_1d
from xlma.rate import RateModel
from xlma.scenario import Obstacle, compute_los_visibility

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
    for name in TABLES:
        assert np.array_equal(getattr(ctx.gains, name), getattr(full, name)[rows]), name


def test_plan_matches_model_from_pruned_full_tables():
    ctx, full = _context_and_full_tables()
    sc = ctx.scenario
    rows = np.flatnonzero(sc.distribution.rho > 0)
    pruned = dataclasses.replace(full, beta_los=full.beta_los[rows], xi=full.xi[rows],
                                 u=full.u[rows], grid_rows=rows)
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


def test_layout_stats_of_a_support_are_its_candidate_columns():
    ctx = context_from_document(paper_partial_los_1d())
    support = ctx.plan().n_mu
    stats = compute_layout_stats(ctx.scenario, support_layout(ctx.scenario, support),
                                 grid_indices=ctx.gains.grid_rows)
    np.testing.assert_array_equal(stats.grid_rows, ctx.gains.grid_rows)
    for name in TABLES:
        assert np.array_equal(getattr(stats, name), getattr(ctx.gains, name)[:, support]), name


def test_baseline_sweep_cell_builds_one_layout_model(desk_context, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compute_layout_stats(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_layout_stats", counted)
    rows = _sweep_cell(desk_context, "horizontal_sparse", ["approx_mrc", "upper_bound"], 1)
    assert len(calls) == 1
    model, columns = desk_context.model_for(calls[0])
    assert [row[2] for row in rows] == [model.weighted_sum(columns),
                                        model.weighted_upper_bound(columns)]


def _traced_peak(fn):
    """``fn()`` and its tracemalloc peak in bytes, after one untraced call
    that keeps one-time allocations out of the peak."""
    fn()
    tracemalloc.start()
    try:
        value = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def _memory_scenario(monkeypatch, kappa):
    """60 active grids x 120 candidates, assembled and scored in blocks of 4
    columns, so per-block temporaries are small against a whole table and a
    peak counts whole (K' x C) float64 tables."""
    monkeypatch.setattr(rate, "ASSEMBLY_BLOCK_BYTES", 8 * 60 * 4)
    return make_scenario(n_y=40, n_z=3, k_x=6, k_y=10, kappa=kappa, rho=np.full(60, 0.1),
                         obstacles=[Obstacle(center=(20.0, 0.0, 3.0), dims=(4.0, 6.0, 6.0))])


@pytest.mark.parametrize("kappa", [np.inf, 10.0])
def test_context_build_peak_memory_in_whole_tables(monkeypatch, kappa):
    # The context holds beta_los (1 table), u (3), xi (1/8) and the model's
    # three outputs; the peak, in the assembly, is about 8.3 (K' x C)
    # float64 tables: one more held through the build breaks the bound.
    sc = _memory_scenario(monkeypatch, kappa)
    ctx, peak = _traced_peak(lambda: pipeline.ScenarioContext.build(sc))
    assert ctx.model.sig_mean.shape == (60, 120)
    assert ctx.gains.xi.min() == 0  # the obstacle blocks some pairs
    assert peak < 9 * ctx.model.sig_mean.nbytes


@pytest.mark.parametrize("kappa", [np.inf, 10.0])
def test_gain_tables_peak_memory_in_whole_tables(monkeypatch, kappa):
    # beta_los (1 table) and u (3) are returned; the distances and one
    # squared component are the only other whole tables, about 6.0 in all.
    # A (K', C, 3) temporary, as np.linalg.norm makes, reads about 8.2.
    sc = _memory_scenario(monkeypatch, kappa)
    ctx = pipeline.ScenarioContext.build(sc)
    rows = ctx.gains.grid_rows
    _, peak = _traced_peak(lambda: build_gain_tables(
        sc, ctx.candidates, sc.grid_centers()[rows], ctx.gains.xi, grid_rows=rows))
    assert peak < 6.5 * ctx.model.sig_mean.nbytes


@pytest.mark.parametrize("stage, bound", [("plan", 2.0), ("init_lp", 1.5)])
@pytest.mark.parametrize("kappa", [np.inf, 10.0])
def test_optimizer_peak_memory_in_whole_tables(monkeypatch, kappa, stage, bound):
    # The LP seed and every replacement step score all candidates into one
    # (K' x C) rate table, column block by column block. Above the tables
    # the context holds, the plan peaks at about 1.4 tables and the LP seed
    # at 1.1; whole-table sums and SINRs read 6.2 and 3.0.
    sc = _memory_scenario(monkeypatch, kappa)
    ctx = pipeline.ScenarioContext.build(sc)
    run = {"plan": ctx.plan,
           "init_lp": lambda: build_init_lp(sc, ctx.model, ctx.gains.xi)}[stage]
    result, peak = _traced_peak(run)
    if stage == "plan":
        assert len(result.trace) > 1  # at least one replacement step ran
    assert peak < bound * ctx.model.sig_mean.nbytes
