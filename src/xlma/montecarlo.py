"""Monte Carlo rate estimation under MRC/MMSE combining, plus map exports.

The weighted-sum estimator draws one full activation vector per trial and
sums the active users' instantaneous rates; its mean is unbiased for
sum_k rho_k * E[rate_k | grid k active] because each activation indicator is
independent of the channel and of the other indicators. Per-trial RNG
substreams make trial t's draw independent of execution order, and per-trial
values are aggregated through numpy's pairwise summation, so parallel or
chunked evaluation reproduces the sequential estimate bit for bit.

The trial loop only draws. Trials with the same number of active users J
are staged together, and each group's channels, SINRs and rates are
computed in one stacked call once the staged draws reach
``rate.ASSEMBLY_BLOCK_BYTES``. Every step after the draws is elementwise, a
per-matrix BLAS/LAPACK call or a sum over one trial's own users, so a trial
gets the same bits as it would alone (``tests/oracles.py`` keeps the
one-trial-at-a-time loop as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rate
from .channel import (
    ArrayLayout,
    LayoutStats,
    channel_from_draws,
    compute_layout_stats,  # unused here; the benchmark tracer wraps this name
    draw_realization,
    los_path_gain,
)
from .errors import ConfigurationError, DomainError
from .rng import substreams
from .scenario import ScenarioConfig, segments_blocked


@dataclass
class SimOptions:
    trials: int = 1000
    combiner: str = "mrc"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.combiner not in ("mrc", "mmse"):
            raise ConfigurationError("combiner must be 'mrc' or 'mmse'")


# ---------------------------------------------------------------------------
# Instantaneous SINRs
# ---------------------------------------------------------------------------


def _sinr_all_active(h: np.ndarray, pbar: np.ndarray, combiner: str) -> np.ndarray:
    """Per-user SINRs for active-column channel matrices h (..., M, J).

    ``pbar`` is (..., J). A stack of matrices gives the same bits as one
    call per matrix: the stacked matmul and ``inv`` make one BLAS/LAPACK
    call per matrix with the same shapes and strides, and the rest is
    elementwise.
    """
    gram = np.swapaxes(h.conj(), -1, -2) @ h
    if combiner == "mrc":
        norms = np.real(np.diagonal(gram, axis1=-2, axis2=-1))
        cross = ((np.abs(gram) ** 2) @ pbar[..., None])[..., 0]
        interf = cross - pbar * norms**2
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = pbar * norms**2 / (interf + norms)
        return np.where(norms > 0.0, gamma, 0.0)

    # MMSE: gamma_j = 1 / [(I + P^1/2 G P^1/2)^-1]_jj - 1 for every user at once
    # (Tse & Viswanath, Fundamentals of Wireless Communication, ch. 8). A zero
    # column's row of ``core`` is an identity row, so its SINR is exactly 0;
    # the clamp removes rounding below 0 for tiny columns.
    scaled = np.sqrt(pbar)
    core = np.eye(pbar.shape[-1]) + scaled[..., :, None] * gram * scaled[..., None, :]
    inverse_diag = np.real(np.diagonal(np.linalg.inv(core), axis1=-2, axis2=-1))
    return np.maximum(1.0 / inverse_diag - 1.0, 0.0)


# ---------------------------------------------------------------------------
# Weighted-sum-rate estimation
# ---------------------------------------------------------------------------


def simulate_trials(
    scenario: ScenarioConfig, stats: LayoutStats, opts: SimOptions
) -> np.ndarray:
    """Per-trial weighted-sum samples.

    ``stats`` are a placement's statistics over the grids with positive
    activation probability, in grid order (``ScenarioContext.layout_stats``).
    Trial t draws from its own ``substream(seed, "mc", t)``, all seeded in
    one pass by ``substreams``. The draws are staged by their number of
    active users J, all groups together under ``rate.ASSEMBLY_BLOCK_BYTES``;
    then each group's channels and SINRs are computed in one stacked call.
    Trial t's value is the sum of its own J rates, as one trial at a time
    would give.
    """
    rho_all = scenario.distribution.rho
    rows = np.flatnonzero(rho_all > 0.0)
    values = np.zeros(opts.trials)
    if len(rows) == 0:
        return values
    if not np.array_equal(stats.grid_rows, rows):
        raise ConfigurationError("layout statistics must cover exactly the grids with rho > 0")
    rho_rows = rho_all[rows]
    pbar_rows = scenario.snr_scale[rows]

    def flush(groups):
        for group in groups.values():
            trials, active, psi, re, im = (np.array(field) for field in zip(*group))
            h = channel_from_draws(stats, active, psi, re, im)
            gammas = _sinr_all_active(h, pbar_rows[active], opts.combiner)
            values[trials] = np.log2(1.0 + gammas).sum(axis=-1)

    groups = {}
    staged_bytes = 0
    streams = substreams(scenario.rng_seed, "mc", indices=np.arange(opts.trials))
    for t, rng in enumerate(streams):
        draw = draw_realization(stats, rho_rows, rng)
        if len(draw.columns) == 0:
            continue
        size = draw.psi.nbytes + draw.re.nbytes + draw.im.nbytes
        if staged_bytes + size > rate.ASSEMBLY_BLOCK_BYTES:
            flush(groups)
            groups, staged_bytes = {}, 0
        groups.setdefault(len(draw.columns), []).append(
            (t, draw.columns, draw.psi, draw.re, draw.im))
        staged_bytes += size
    flush(groups)
    return values


def simulate_weighted_sum_rate(
    scenario: ScenarioConfig, stats: LayoutStats, opts: SimOptions
) -> tuple[float, float]:
    """(estimate, standard error) of the expected weighted sum rate."""
    values = simulate_trials(scenario, stats, opts)
    estimate = float(np.mean(values))
    if len(values) > 1:
        stderr = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    else:
        stderr = 0.0
    return estimate, stderr


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


def _map_points(scenario: ScenarioConfig, resolution: int, z_plane: float | None):
    """Axes and (resolution^2, 3) points of a map lattice at height
    ``z_plane`` (default: mid-height of the coverage region)."""
    if resolution < 2:
        raise ConfigurationError("map resolution must be >= 2")
    cov = scenario.coverage
    x = np.linspace(cov.x_min, cov.x_max, resolution)
    y = np.linspace(cov.y_min, cov.y_max, resolution)
    z = 0.5 * (cov.z_min + cov.z_max) if z_plane is None else z_plane
    xx, yy = np.meshgrid(x, y, indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)], axis=1)
    return x, y, points


def _subarray_visibility(scenario, centers, points) -> np.ndarray:
    """(P, S) LoS indicator from each subarray center to each map point."""
    if not scenario.obstacles:
        return np.ones((len(points), len(centers)), dtype=bool)
    blocked = segments_blocked(
        points[:, None, :], centers[None, :, :], scenario.obstacles
    )
    return ~blocked


def power_gain_map(scenario: ScenarioConfig, layout: ArrayLayout, resolution: int,
                   z_plane: float | None, blocked_placeholder_gain: float | None):
    """Expected channel power gain sum_s M * beta_total over a z-slice.

    Blocked LoS contributions are replaced by ``blocked_placeholder_gain``
    (map rendering convention; None: 0); the placeholder never enters rate
    computations. Returns (x_axis, y_axis, values[len(x), len(y)]) in
    linear power units.
    """
    x, y, points = _map_points(scenario, resolution, z_plane)
    centers = layout.centers
    dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=-1)
    if np.any(dist == 0.0):
        raise DomainError("map point coincides with a subarray center")
    beta_los = los_path_gain(dist, scenario.wavelength)
    beta_nlos = beta_los / scenario.rician_kappa  # 0.0 in pure LoS
    visible = _subarray_visibility(scenario, centers, points)
    placeholder = 0.0 if blocked_placeholder_gain is None else blocked_placeholder_gain
    los_term = np.where(visible, beta_los, placeholder)
    values = (layout.n_antennas * (los_term + beta_nlos)).sum(axis=1)
    return x, y, values.reshape(len(x), len(y))


def _los_channel_matrix(scenario, layout, points, visible):
    """Deterministic near-field pure-LoS channel rows (one per map point)."""
    lam = scenario.wavelength
    blocks = []
    # One subarray's (P, M, 3) differences at a time: the whole element grid
    # at once would hold S times as much.
    for elems, seen in zip(layout.element_positions(), visible.T):
        dist = np.linalg.norm(points[:, None, :] - elems[None, :, :], axis=-1)
        if np.any(dist == 0.0):
            raise DomainError("map point coincides with an antenna element")
        phase = np.exp(-2j * np.pi * dist / lam)
        blocks.append(seen[:, None] * np.sqrt(los_path_gain(dist, lam)) * phase)
    return np.concatenate(blocks, axis=1)


def correlation_map(scenario: ScenarioConfig, layout: ArrayLayout, probe_point,
                    resolution: int, z_plane: float | None):
    """|h_hat(p)^H h_hat(p0)|^2 between unit-normalized pure-LoS channels.

    ``probe_point`` is (x, y, z), or (x, y) on the map's plane. The probe
    snaps to the nearest map lattice point, so the probe cell's value is
    exactly 1. Returns (x_axis, y_axis, values[len(x), len(y)]).
    """
    x, y, points = _map_points(scenario, resolution, z_plane)
    if probe_point is None:
        raise ConfigurationError("correlation map requires a probe_point")
    probe = np.asarray(probe_point, float)
    if probe.size == 2:
        probe = np.array([probe[0], probe[1], points[0, 2]])
    probe_idx = int(np.argmin(np.linalg.norm(points - probe[None, :], axis=1)))

    visible = _subarray_visibility(scenario, layout.centers, points)
    h = _los_channel_matrix(scenario, layout, points, visible)
    norms = np.linalg.norm(h, axis=1)
    h_probe = h[probe_idx]
    probe_norm = norms[probe_idx]
    if probe_norm == 0.0:
        raise DomainError("probe point has zero pure-LoS channel (fully blocked)")
    inner = np.abs(h @ h_probe.conj()) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        values = inner / (norms**2 * probe_norm**2)
    values = np.where(norms > 0.0, values, 0.0)
    return x, y, values.reshape(len(x), len(y))
