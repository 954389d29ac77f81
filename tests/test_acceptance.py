"""Acceptance suite: one test per acceptance criterion.

Each test prints a single [criterion N] PASS/FAIL line (visible with -v or
on failure) and asserts the stated tolerance. Criterion 10 runs the
full-scale geometry; it takes seconds because only the active grids are
tabulated.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import make_scenario
from xlma.benchmarks import BENCHMARK_KINDS
from xlma.channel import build_gain_tables, compute_layout_stats, support_layout
from xlma.montecarlo import SimOptions, simulate_trials, simulate_weighted_sum_rate
from xlma.optimizer import exhaustive_search, successive_replacement
from xlma.pipeline import ScenarioContext, context_from_document
from xlma.presets import (
    desk_full_los,
    desk_full_los_2d,
    desk_single_grid,
    paper_full_scale_3d,
    paper_partial_los_1d,
)
from xlma.rate import RateModel
from xlma.scenario import (
    Obstacle,
    load_scenario,
    visibility_from_points,
)
from test_lp import random_placement_lp, scipy_reference
from test_rate import sample_stacked

COLLECTED_TRACES = []


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {name}: {detail} -> {status}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared plans (computed once, reused by criteria 2, 4, 6, 7)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_1d(request):
    out = {}
    for m_h in (2, 4, 8):
        ctx = context_from_document(desk_full_los(m_h=m_h))
        plan = ctx.plan()
        COLLECTED_TRACES.append((ctx.scenario.n_subarrays, plan.trace))
        out[m_h] = (ctx, plan)
    return out


@pytest.fixture(scope="module")
def desk_2d():
    ctx = context_from_document(desk_full_los_2d())
    plan = ctx.plan()
    COLLECTED_TRACES.append((ctx.scenario.n_subarrays, plan.trace))
    return ctx, plan


@pytest.fixture(scope="module")
def random_instances():
    """20 random desk instances with N0 = 20, N = 3, K <= 10."""
    rng = np.random.default_rng(2024)
    instances = []
    for i in range(20):
        k_x = int(rng.integers(1, 3))
        k_y = int(rng.integers(2, 6))
        while k_x * k_y > 10:
            k_y -= 1
        rho = rng.uniform(0.1, 0.9, k_x * k_y)
        kappa = np.inf if rng.random() < 0.5 else float(rng.uniform(3.0, 40.0))
        sc = make_scenario(
            n_y=20, y_half=30.0, k_x=k_x, k_y=k_y, m_h=int(rng.choice([2, 4])),
            kappa=kappa, rho=rho, n_subarrays=3, seed=100 + i,
        )
        cands = sc.candidates()
        xi = visibility_from_points(cands, sc.coverage, sc.obstacles, 20, sc.rng_seed)
        gains = build_gain_tables(sc, cands, xi, np.arange(sc.coverage.n_grids))
        model = RateModel.from_candidate_tables(sc, gains)
        plan = successive_replacement(sc, model, xi)
        COLLECTED_TRACES.append((sc.n_subarrays, plan.trace))
        _, best = exhaustive_search(model, 3)
        instances.append((plan.objective, best))
    return instances


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_moment_identities():
    """Appendix closed forms vs 1e5-draw Monte Carlo, 3 standard errors."""
    t0 = time.time()
    sc = make_scenario(n_y=8, k_x=2, k_y=2, m_h=4, m_v=1, kappa=10.0,
                       rho=[0.6, 0.4, 0.5, 0.3], seed=11)
    support = np.array([1, 4, 6])
    layout = support_layout(sc, support)
    stats = compute_layout_stats(sc, layout, grid_indices=np.arange(4))
    draws = 100_000
    h = sample_stacked(sc, stats, draws, seed=101)
    m = sc.antennas_per_subarray
    kap = stats.beta_los / stats.beta_nlos
    worst_sigma = 0.0
    from oracles import aux_g, aux_q
    from xlma.rate import fejer_correlation

    for s, (a, b) in enumerate(stats.slices):
        n2 = np.sum(np.abs(h[:, :, a:b]) ** 2, axis=2)
        bl, bn = stats.beta_los[:, s], stats.beta_nlos[:, s]
        xi = stats.xi[:, s].astype(float)
        bt = stats.beta_total[:, s]
        closed2 = m * bt
        closed4 = m * bn**2 + m * m * bt**2 + 2 * m * xi * bl * bn
        for g in range(4):
            se = n2[:, g].std(ddof=1) / np.sqrt(draws)
            worst_sigma = max(worst_sigma, abs(n2[:, g].mean() - closed2[g]) / se)
            sq = n2[:, g] ** 2
            se4 = sq.std(ddof=1) / np.sqrt(draws)
            worst_sigma = max(worst_sigma, abs(sq.mean() - closed4[g]) / se4)
        for k, i in ((0, 1), (2, 3), (1, 2)):
            cross = np.abs(np.sum(h[:, k, a:b].conj() * h[:, i, a:b], axis=1)) ** 2
            phi = fejer_correlation(stats.u[k, s], stats.u[i, s], sc.m_h, sc.m_v,
                                    sc.d_h, sc.d_v, sc.wavelength)
            g_ki = aux_g(xi[k], xi[i], kap[k, s], kap[i, s], False)
            q_ki = aux_q(m, xi[k], xi[i], kap[k, s], kap[i, s], False)
            closed = bt[k] * bt[i] * (phi * g_ki + q_ki)
            se = cross.std(ddof=1) / np.sqrt(draws)
            worst_sigma = max(worst_sigma, abs(cross.mean() - closed) / se)
    elapsed = time.time() - t0
    report(1, "moment-identity suite",
           worst_sigma <= 3.0 and elapsed < 30.0,
           f"worst deviation {worst_sigma:.2f} sigma (limit 3), {elapsed:.1f}s (limit 30)")


def test_criterion_2_theorem_tightness(desk_1d):
    """Closed form within 15% of 2000-trial simulated MRC, all schemes/M_H."""
    t0 = time.time()
    worst = 0.0
    details = []
    for m_h, (ctx, plan) in desk_1d.items():
        for scheme in ("proposed", "horizontal_sparse", "dense_ula"):
            stats = ctx.layout_stats(support_layout(ctx.scenario, plan.n_mu)
                                     if scheme == "proposed"
                                     else ctx.placement_for_scheme(scheme))
            closed, _ = ctx.closed_forms(stats)
            est, _ = simulate_weighted_sum_rate(
                ctx.scenario, stats, SimOptions(trials=2000, combiner="mrc")
            )
            rel = abs(closed - est) / est
            worst = max(worst, rel)
            details.append(f"M_H={m_h}/{scheme}:{rel:.3f}")
    elapsed = time.time() - t0
    report(2, "closed-form tightness",
           worst <= 0.15 and elapsed < 300.0,
           f"max rel dev {worst:.3f} (limit 0.15), {elapsed:.0f}s (limit 300)")


def test_criterion_3_near_optimality(random_instances):
    t0 = time.time()
    ratios = np.array([alg / best for alg, best in random_instances])
    ok95 = np.all(ratios >= 0.95)
    n99 = int(np.sum(ratios >= 0.99))
    elapsed = time.time() - t0
    report(3, "near-optimality vs exhaustive",
           ok95 and n99 >= 15 and elapsed < 120.0,
           f"min ratio {ratios.min():.4f} (limit 0.95), {n99}/20 at 0.99 (need 15), "
           f"{elapsed:.0f}s (limit 120)")


def test_criterion_4_benchmark_dominance(desk_2d):
    ctx, plan = desk_2d
    stats = ctx.layout_stats(support_layout(ctx.scenario, plan.n_mu))
    prop_closed, _ = ctx.closed_forms(stats)
    prop_mmse, prop_se = simulate_weighted_sum_rate(
        ctx.scenario, stats, SimOptions(trials=2000, combiner="mmse")
    )
    closed_ok, mmse_ok = True, True
    margin = np.inf
    for kind in BENCHMARK_KINDS:
        stats = ctx.layout_stats(ctx.placement_for_scheme(kind))
        closed, _ = ctx.closed_forms(stats)
        est, se = simulate_weighted_sum_rate(
            ctx.scenario, stats, SimOptions(trials=2000, combiner="mmse")
        )
        closed_ok &= prop_closed >= closed - 1e-12
        tol = 2.0 * float(np.hypot(prop_se, se))
        mmse_ok &= prop_mmse >= est - tol
        margin = min(margin, prop_mmse - est)
    report(4, "benchmark dominance",
           closed_ok and mmse_ok,
           f"closed-form dominance {closed_ok}, MMSE dominance {mmse_ok} "
           f"(worst MMSE margin {margin:+.3f})")


def test_criterion_5_pure_los_exactness():
    sc = load_scenario(desk_single_grid())
    ctx = ScenarioContext.build(sc)
    support = np.array([5, 25, 45])
    closed = ctx.model.weighted_sum(support)
    values = simulate_trials(sc, ctx.layout_stats(support_layout(sc, support)),
                             SimOptions(trials=200, combiner="mrc"))
    err = float(np.max(np.abs(values - closed)))
    spread = float(values.std())
    report(5, "pure-LoS single-grid exactness",
           err < 1e-9 and spread < 1e-12,
           f"max |trial - closed| {err:.2e} (limit 1e-9), std {spread:.2e}")


def test_criterion_6_monotone_traces(desk_1d, desk_2d, random_instances):
    checked = 0
    ok = True
    for n_select, trace in COLLECTED_TRACES:
        accepted = [r["objective"] for r in trace if r["accepted"]]
        ok &= all(b > a for a, b in zip(accepted, accepted[1:]))
        ok &= len([r for r in trace if r["iteration"] > 0]) <= n_select
        checked += 1
    report(6, "monotone optimizer traces", ok and checked >= 24,
           f"{checked} optimizer runs, strictly increasing, <= N iterations")


def test_criterion_7_mmse_dominance_and_upper_bound(desk_1d):
    ctx, plan = desk_1d[4]
    stats = ctx.layout_stats(support_layout(ctx.scenario, plan.n_mu))
    mrc = simulate_trials(ctx.scenario, stats, SimOptions(trials=1000, combiner="mrc"))
    mmse = simulate_trials(ctx.scenario, stats, SimOptions(trials=1000, combiner="mmse"))
    per_real = bool(np.all(mmse >= mrc - 1e-9))
    _, bound = ctx.closed_forms(stats)
    est = float(mmse.mean())
    se = float(mmse.std(ddof=1) / np.sqrt(len(mmse)))
    bounded = est <= bound + 3 * se
    report(7, "MMSE dominance and upper bound",
           per_real and bounded,
           f"per-realization MMSE >= MRC: {per_real}; "
           f"MMSE {est:.3f} <= bound {bound:.3f} + 3SE ({3 * se:.3f})")


def test_criterion_8_visibility_monotonicity():
    sc = load_scenario(paper_partial_los_1d())
    cands = sc.candidates()
    xi20 = visibility_from_points(cands, sc.coverage, sc.obstacles, 20, sc.rng_seed)
    one_box = [Obstacle(tuple(sc.obstacles[0].center), tuple(sc.obstacles[0].dims))]
    xi_one = visibility_from_points(cands, sc.coverage, one_box, 20, sc.rng_seed)
    monotone = bool(np.all(xi20 <= xi_one))
    blocked_share = 1.0 - float(xi20.mean())
    report(8, "visibility monotonicity",
           monotone and blocked_share > 0.0,
           f"adding an obstacle never unblocks (exact), {blocked_share:.1%} blocked")


@pytest.mark.xfail(
    strict=True,
    reason="20-sample vs independent 1000-sample all-clear visibility agreement "
    "is 98.7-98.9% on this geometry for every seed and at both the 1D and the "
    "full 3D table sizes; ~12% of entries are partially occluded and the "
    "20-sample test flips on low-blocked-fraction cells at rates that sum to "
    "~1.2% of the table, so the stated >= 99% bound cannot be met (see the "
    "decisions ledger).",
)
def test_criterion_8_visibility_against_dense_oracle():
    t0 = time.time()
    sc = load_scenario(paper_partial_los_1d())
    cands = sc.candidates()
    xi20 = visibility_from_points(cands, sc.coverage, sc.obstacles, 20, sc.rng_seed)
    xi_oracle = visibility_from_points(
        cands, sc.coverage, sc.obstacles, 1000, sc.rng_seed, purpose="visibility-oracle"
    )
    agreement = float(np.mean(xi20 == xi_oracle))
    elapsed = time.time() - t0
    report(8, "visibility vs dense oracle",
           agreement >= 0.99,
           f"agreement {agreement:.4f} (limit 0.99), {elapsed:.0f}s")


def test_criterion_9_lp_against_oracle():
    from xlma.optimizer import solve_lp

    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    deterministic = True
    while checked < 50:
        problem = random_placement_lp(rng, n_max=20)
        ref = scipy_reference(problem)
        if ref.status != 0:
            continue
        sol = solve_lp(problem)
        sol2 = solve_lp(problem)
        worst = max(worst, abs(sol.objective - (-ref.fun)))
        deterministic &= np.array_equal(sol.chi, sol2.chi)
        checked += 1
    report(9, "LP solver vs oracle",
           worst <= 1e-8 and deterministic,
           f"50 instances, max objective gap {worst:.2e} (limit 1e-8), "
           f"deterministic {deterministic}")


def test_criterion_10_full_scale_preset():
    """Full-scale geometry executes to completion (no numeric bound)."""
    t0 = time.time()
    ctx = context_from_document(paper_full_scale_3d(1))
    plan = ctx.plan()
    assert len(plan.n_mu) == 8 and len(set(plan.n_mu)) == 8
    assert np.isfinite(plan.objective) and plan.objective > 0
    stats = ctx.layout_stats(support_layout(ctx.scenario, plan.n_mu))
    mrc, mrc_se = simulate_weighted_sum_rate(
        ctx.scenario, stats, SimOptions(trials=1000, combiner="mrc")
    )
    mmse, mmse_se = simulate_weighted_sum_rate(
        ctx.scenario, stats, SimOptions(trials=1000, combiner="mmse")
    )
    elapsed = time.time() - t0
    report(10, "full-scale preset",
           np.isfinite(mrc) and np.isfinite(mmse) and mmse >= mrc - 1e-9,
           f"N0=3030 K=1890 plan obj {plan.objective:.2f}, "
           f"sim MRC {mrc:.2f}±{mrc_se:.2f}, MMSE {mmse:.2f}±{mmse_se:.2f}, "
           f"{elapsed:.0f}s")
