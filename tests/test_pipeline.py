"""ScenarioContext tabulates only the active grids; that must change nothing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import active_gain_tables, make_scenario
from xlma import pipeline, rate
from xlma.channel import build_gain_tables, compute_layout_stats, support_layout
from xlma.cli import SWEEP_SCHEMES, _sweep_cell
from xlma.errors import ConfigurationError
from xlma.montecarlo import SimOptions, simulate_weighted_sum_rate
from xlma.optimizer import build_init_lp, successive_replacement
from xlma.pipeline import context_from_document
from xlma.presets import PRESETS, paper_partial_los_1d
from xlma.rate import RateModel
from xlma.scenario import Obstacle, visibility_from_points

TABLES = ("xi", "beta_los", "beta_nlos", "beta_total", "u")


def _context_and_full_tables():
    ctx = context_from_document(paper_partial_los_1d())
    sc = ctx.scenario
    candidates = sc.candidates()
    xi = visibility_from_points(candidates, sc.coverage, sc.obstacles,
                                sc.visibility_samples, sc.rng_seed)
    full = build_gain_tables(sc, candidates, xi, np.arange(sc.coverage.n_grids))
    return ctx, full


def test_active_row_tables_equal_rows_of_full_tables():
    ctx, full = _context_and_full_tables()
    sc = ctx.scenario
    rows = np.flatnonzero(sc.rho > 0)
    assert (len(rows), sc.coverage.n_grids) == (12, 189) and sc.obstacles
    assert full.xi.min() == 0  # the obstacles block some pairs
    np.testing.assert_array_equal(ctx.model.grid_rows, rows)
    assert ctx.xi.dtype == np.uint8 and np.array_equal(ctx.xi, full.xi[rows])
    gains = active_gain_tables(sc)
    np.testing.assert_array_equal(gains.grid_rows, rows)
    for name in TABLES:
        assert np.array_equal(getattr(gains, name), getattr(full, name)[rows]), name


def test_plan_matches_model_from_pruned_full_tables():
    ctx, full = _context_and_full_tables()
    sc = ctx.scenario
    rows = np.flatnonzero(sc.rho > 0)
    pruned = dataclasses.replace(full, beta_los=full.beta_los[rows], xi=full.xi[rows],
                                 u=full.u[rows], grid_rows=rows)
    old = successive_replacement(sc, RateModel.from_candidate_tables(sc, pruned),
                                 full.xi[rows])
    new = ctx.plan()
    assert new.n_mu == old.n_mu
    assert new.objective == old.objective
    # Full tables keep the zero-rho rows, so the LP seed reads xi by absolute
    # grid index; only the summation order of the rate differs.
    unpruned = successive_replacement(sc, RateModel.from_candidate_tables(sc, full),
                                      full.xi)
    assert unpruned.n_mu == new.n_mu
    assert np.array_equal(unpruned.lp.chi, new.lp.chi)
    assert unpruned.objective == pytest.approx(new.objective, rel=1e-12)


STATS = ("xi", "beta_los", "u", "grid_rows", "los_blocks")


@pytest.fixture(scope="module", params=sorted(PRESETS))
def preset_context(request):
    # Module scope with one param per preset: pytest groups the cases of a
    # preset, so each context is freed before the next one is built.
    return context_from_document(PRESETS[request.param]())


@pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
def test_layout_stats_of_a_support_are_its_candidate_columns(preset_context, scheme):
    # Every scheme's layout sits on the candidates. Its statistics are those
    # of its centers in candidate order, and take those candidates' columns
    # of the context's xi instead of a visibility pass over its centers; the
    # pass gives the same bits. The plan's support is also checked sorted
    # and reversed.
    ctx = preset_context
    try:
        layouts = [ctx.placement_for_scheme(scheme)]
    except ConfigurationError as exc:
        pytest.skip(f"{scheme} does not apply: {exc}")
    in_order = layouts[0]
    if scheme == "proposed":
        support = np.asarray(ctx.plan().n_mu, int)
        in_order = support_layout(ctx.scenario, np.sort(support))
        layouts += [in_order, support_layout(ctx.scenario, support[::-1])]
    own = compute_layout_stats(ctx.scenario, in_order, grid_indices=ctx.model.grid_rows)
    for layout in layouts:
        stats = ctx.layout_stats(layout)
        assert np.array_equal(stats.layout.centers, in_order.centers)
        for name in STATS:
            got, want = getattr(stats, name), getattr(own, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("moved", [[0], [1], [0, 1]])
def test_layout_stats_runs_a_pass_for_centers_off_the_candidates(
        desk_context, monkeypatch, moved):
    # A layout with any center off the candidate positions has no columns of
    # xi to take, so its statistics come from a visibility pass of their own.
    handed = []
    original = pipeline.compute_layout_stats

    def spy(scenario, layout, grid_indices, xi):
        handed.append(xi)
        return original(scenario, layout, grid_indices, xi)

    monkeypatch.setattr(pipeline, "compute_layout_stats", spy)
    layout = support_layout(desk_context.scenario, [0, 3])
    centers = layout.centers.copy()
    centers[moved, 0] += 0.25 * desk_context.scenario.wavelength
    layout = dataclasses.replace(layout, centers=centers)
    stats = desk_context.layout_stats(layout)
    assert handed == [None]
    np.testing.assert_array_equal(stats.layout.centers, centers)


def test_baseline_sweep_cell_builds_one_layout_model(desk_context, monkeypatch):
    # One set of statistics per cell, returned for the simulated evaluators
    # and giving the closed forms, each layout handed its support's columns
    # of the context's xi.
    made = []
    original = pipeline.compute_layout_stats

    def counted(*args, **kwargs):
        made.append((args, original(*args, **kwargs)))
        return made[-1][1]

    monkeypatch.setattr(pipeline, "compute_layout_stats", counted)
    evaluators = ["approx_mrc", "upper_bound", "sim_mrc", "sim_mmse"]
    for scheme in ("proposed", "horizontal_sparse"):
        made.clear()
        stats, rows = _sweep_cell(desk_context, scheme, evaluators)
        assert len(made) == 1, scheme
        assert made[0][0][3] is not None, scheme
        assert stats is made[0][1], scheme
        assert [rows[ev][2] for ev in ("approx_mrc", "upper_bound")] == list(
            desk_context.closed_forms(made[0][1]))
        assert set(rows) == {"approx_mrc", "upper_bound"}, scheme


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_support_scored_on_its_own_columns_equals_candidate_model(preset):
    # A support's closed forms, on a model of its own columns, have the bits
    # of the candidate model's over the support in candidate order, in any
    # order of the support.
    ctx = context_from_document(PRESETS[preset]())
    support = np.asarray(ctx.plan().n_mu, int)
    in_order = np.sort(support)
    for order in (support, in_order, support[::-1]):
        assert ctx.closed_forms(ctx.layout_stats(support_layout(ctx.scenario, order))) == (
            ctx.model.weighted_sum(in_order), ctx.model.weighted_upper_bound(in_order))


@pytest.mark.parametrize("order", [[58, 3, 96, 41], [96, 58, 41, 3], [41, 96, 3, 58]])
def test_a_support_in_any_order_has_the_values_of_its_sorted_order(desk_context, order):
    # One placement, one value: listing a support's indices in another order
    # changes none of the bits of approx_mrc, upper_bound, sim_mrc and
    # sim_mmse.
    def values(support):
        stats = desk_context.layout_stats(support_layout(desk_context.scenario, support))
        sims = [simulate_weighted_sum_rate(desk_context.scenario, stats,
                                           SimOptions(trials=20, combiner=combiner))
                for combiner in ("mrc", "mmse")]
        return (*desk_context.closed_forms(stats), *sims)

    assert values(order) == values(sorted(order))


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
    # The build holds beta_los (1 table), u (3), xi (1/8) and the model's
    # terms (3); the peak, in the assembly, is about 8.0 (K' x C)
    # float64 tables: one more held through the build breaks the bound.
    sc = _memory_scenario(monkeypatch, kappa)
    ctx, peak = _traced_peak(lambda: pipeline.ScenarioContext.build(sc))
    assert ctx.model.terms.shape == (3, 120, 60)
    assert ctx.xi.min() == 0  # the obstacle blocks some pairs
    assert peak < 9 * ctx.model.terms.nbytes / 3


@pytest.mark.parametrize("kappa", [np.inf, 10.0])
def test_context_holds_xi_and_terms_in_whole_tables(monkeypatch, kappa):
    # Once built, the context holds the model's terms (3 (K' x C) float64
    # tables) and xi (1/8); keeping beta_los (1) and u (3) as well reads
    # about 7.3.
    sc = _memory_scenario(monkeypatch, kappa)
    pipeline.ScenarioContext.build(sc)
    tracemalloc.start()
    try:
        ctx = pipeline.ScenarioContext.build(sc)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.model.terms.shape == (3, 120, 60)
    assert held < 3.5 * ctx.model.terms.nbytes / 3


@pytest.mark.parametrize("kappa", [np.inf, 10.0])
def test_gain_tables_peak_memory_in_whole_tables(monkeypatch, kappa):
    # beta_los (1 table) and u (3) are returned; the distances and one
    # squared component are the only other whole tables, about 6.0 in all.
    # A (K', C, 3) temporary, as np.linalg.norm makes, reads about 8.2.
    sc = _memory_scenario(monkeypatch, kappa)
    ctx = pipeline.ScenarioContext.build(sc)
    rows = ctx.model.grid_rows
    _, peak = _traced_peak(lambda: build_gain_tables(sc, sc.candidates(), ctx.xi, rows))
    assert peak < 6.5 * ctx.model.terms.nbytes / 3


@pytest.mark.parametrize("stage, bound", [("plan", 1.0), ("init_lp", 0.6)])
@pytest.mark.parametrize("kappa", [np.inf, 10.0])
def test_optimizer_peak_memory_in_whole_tables(monkeypatch, kappa, stage, bound):
    # The LP seed and every replacement step score all candidates column
    # block by column block, into one value per candidate. Above the tables
    # the context holds, the plan peaks at about 0.55 (K' x C) tables and
    # the LP seed at 0.2; one more whole rate table breaks either bound.
    sc = _memory_scenario(monkeypatch, kappa)
    ctx = pipeline.ScenarioContext.build(sc)
    run = {"plan": ctx.plan,
           "init_lp": lambda: build_init_lp(sc, ctx.model, ctx.xi)}[stage]
    result, peak = _traced_peak(run)
    if stage == "plan":
        assert len(result.trace) > 1  # at least one replacement step ran
    assert peak < bound * ctx.model.terms.nbytes / 3
