"""Built-in identity suite: fast self-checks a scenario must satisfy.

Run by ``xlma validate``. Each check is a closed-form identity or an
exactness case with a deterministic verdict; the Monte Carlo moment check
uses enough draws that a genuine formula error in its fourth-moment factor
f (``rician_weights``) fails decisively.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    compute_layout_stats,
    sample_channel,
    steering_vector,
    support_layout,
)
from .montecarlo import SimOptions, simulate_trials
from .pipeline import ScenarioContext
from .rate import fejer_correlation, rician_weights
from .rng import substream
from .scenario import (
    ScenarioConfig,
    candidate_linear_index,
    candidate_multi_index,
    distinct_sorted,
    grid_linear_index,
    grid_multi_index,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_index_roundtrip(scenario) -> CheckResult:
    ma, cov = scenario.ma_region, scenario.coverage
    ok = all(
        candidate_linear_index(*candidate_multi_index(i, ma.n_y), ma.n_y) == i
        for i in range(ma.n_candidates)
    ) and all(
        grid_linear_index(*grid_multi_index(k, cov.k_x, cov.k_y), cov.k_x, cov.k_y) == k
        for k in range(cov.n_grids)
    )
    return CheckResult("index-roundtrip", ok, "linear <-> multi index identity")


def _check_selection_diagonal(scenario, rng) -> CheckResult:
    n0 = scenario.ma_region.n_candidates
    n = scenario.n_subarrays
    support = rng.choice(n0, size=n, replace=False)
    phi = np.zeros((n, n0))
    phi[np.arange(n), support] = 1.0
    chi = np.zeros(n0)
    chi[support] = 1.0
    ok = np.array_equal(phi.T @ phi, np.diag(chi))
    return CheckResult("selection-diagonal", ok, "Phi^H Phi == diag(chi)")


def _check_steering_norm(scenario, rng) -> CheckResult:
    m = scenario.antennas_per_subarray
    worst = 0.0
    for _ in range(16):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        a = steering_vector(u, scenario.m_h, scenario.m_v, scenario.d_h,
                            scenario.d_v, scenario.wavelength)
        worst = max(worst, abs(np.vdot(a, a).real - m))
    return CheckResult("steering-norm", worst < 1e-9, f"max |<a,a> - M| = {worst:.2e}")


def _check_fejer(scenario, rng) -> CheckResult:
    m = scenario.antennas_per_subarray
    worst = 0.0
    for _ in range(16):
        u1, u2 = rng.normal(size=3), rng.normal(size=3)
        u1 /= np.linalg.norm(u1)
        u2 /= np.linalg.norm(u2)
        phi = fejer_correlation(u1, u2, scenario.m_h, scenario.m_v,
                                scenario.d_h, scenario.d_v, scenario.wavelength)
        a1 = steering_vector(u1, scenario.m_h, scenario.m_v, scenario.d_h,
                             scenario.d_v, scenario.wavelength)
        a2 = steering_vector(u2, scenario.m_h, scenario.m_v, scenario.d_h,
                             scenario.d_v, scenario.wavelength)
        worst = max(worst, abs(phi - abs(np.vdot(a1, a2)) ** 2))
        self_phi = fejer_correlation(u1, u1, scenario.m_h, scenario.m_v,
                                     scenario.d_h, scenario.d_v, scenario.wavelength)
        worst = max(worst, abs(self_phi - m * m))
    ok = worst < 1e-6 * m * m
    return CheckResult("fejer-kernel", ok, f"max deviation {worst:.2e}")


def _check_moments(scenario, draws, rng) -> CheckResult:
    """Second/fourth/cross moments of sampled channels vs closed forms."""
    rows = np.flatnonzero(scenario.rho > 0.0)[:3]
    if len(rows) == 0:
        return CheckResult("moment-identities", False, "no active grids")
    n0 = scenario.ma_region.n_candidates
    support = np.linspace(0, n0 - 1, min(3, n0)).astype(int)
    layout = support_layout(scenario, distinct_sorted(support))
    stats = compute_layout_stats(scenario, layout, grid_indices=rows)
    m = scenario.antennas_per_subarray
    f = np.where(stats.xi, rician_weights(scenario.rician_kappa, m)[1], m)
    mean2 = m * stats.beta_total          # E ||h_s||^2 per subarray
    var2 = stats.beta_total**2 * f        # Var ||h_s||^2 per subarray

    g = len(rows)
    n_sub = len(layout.centers)
    sums = np.zeros((3, g, n_sub))  # n2, n2^2, n2^4 running sums
    chunk = 2000
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        h = sample_channel(stats, np.tile(np.arange(g), b), rng)
        for s, (a, bnd) in enumerate(stats.slices):
            n2 = np.sum(np.abs(h[a:bnd, :]) ** 2, axis=0).reshape(b, g)
            sums[0, :, s] += n2.sum(axis=0)
            sums[1, :, s] += (n2**2).sum(axis=0)
            sums[2, :, s] += (n2**4).sum(axis=0)
        done += b
    m1 = sums[0] / draws
    m2 = sums[1] / draws
    closed2 = mean2
    closed4 = var2 + mean2**2
    se2 = np.sqrt(np.maximum(m2 - m1**2, 0.0) / draws)
    se4 = np.sqrt(np.maximum(sums[2] / draws - m2**2, 0.0) / draws)
    scale2 = np.maximum(closed2, 1e-300)
    scale4 = np.maximum(closed4, 1e-300)
    ok2 = np.all(np.abs(m1 - closed2) <= 5 * se2 + 1e-9 * scale2)
    ok4 = np.all(np.abs(m2 - closed4) <= 5 * se4 + 1e-9 * scale4)
    worst2 = float(np.max(np.abs(m1 - closed2) / scale2))
    worst4 = float(np.max(np.abs(m2 - closed4) / scale4))
    return CheckResult(
        "moment-identities",
        bool(ok2 and ok4),
        f"rel err ||h||^2: {worst2:.3g}, ||h||^4: {worst4:.3g}",
    )


def _check_pure_los_exactness(scenario) -> CheckResult:
    """Single always-active grid, pure LoS: simulation equals the closed form."""
    active = np.flatnonzero(scenario.rho > 0)
    rho = np.zeros(scenario.coverage.n_grids)
    rho[active[0] if len(active) else 0] = 1.0
    single = replace(scenario, rician_kappa=np.inf, rho=rho)
    ctx = ScenarioContext.build(single)
    n0 = single.ma_region.n_candidates
    support = np.linspace(0, n0 - 1, single.n_subarrays).astype(int)
    stats = ctx.layout_stats(support_layout(single, distinct_sorted(support)))
    closed, _ = ctx.closed_forms(stats)
    values = simulate_trials(single, stats, SimOptions(trials=16, combiner="mrc"))
    err = float(np.max(np.abs(values - closed)))
    return CheckResult("pure-los-exactness", err < 1e-9, f"max |trial - closed| = {err:.2e}")


def validate_scenario(scenario: ScenarioConfig, draws: int = 20000) -> list[CheckResult]:
    rng = substream(scenario.rng_seed, "validate")
    checks = [
        _check_index_roundtrip(scenario),
        _check_selection_diagonal(scenario, rng),
        _check_steering_norm(scenario, rng),
        _check_fejer(scenario, rng),
        _check_moments(scenario, draws, rng),
        _check_pure_los_exactness(scenario),
    ]
    return checks
