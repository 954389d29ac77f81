"""Direct, slow references for what ``xlma`` computes in factored form, and
test-only helpers over its public API.

``assemble_row_loop`` is the interference assembly written pair by pair:
one pass over the interfering grids, each adding its Fejer-kernel, g and q
terms for every other grid, at O(K'^2 * C) cost. ``assemble_angle_addition``
is the lag-domain assembly that forms every lag's cos and sin by angle
addition, axis lag 0 included, from the axis harmonics of
``axis_harmonics`` (lag 1 from libm, each later lag by angle addition), with
``others_reference``: the leave-one-out sums over float columns, one add
chain per column. ``model_with_assembly`` builds a ``RateModel`` through its
public constructors with either in place of the library's one. ``build_kernel_tables`` materializes every pair's kernels.
``slab_hits_reference`` is the segment-box slab test written one obstacle at
a time, with every temporary at the segments' full shape;
``visibility_reference`` tests every segment of every (grid, point) pair
with it, drawing each cell's samples alone (``grid_sample_points``).
``mrc_sinr`` and ``mmse_sinr`` give one user's SINR from a full channel
matrix and an activation vector; ``wave_vector`` is one pair's unit
direction, and ``element_positions`` lists every antenna element of a
layout.
``simulate_trials_reference`` is the Monte Carlo loop one trial at a time:
each trial's channel, SINRs and rate sum computed alone, with no staging,
each seeded by numpy's own ``SeedSequence``. ``exhaustive_search_reference``
scores every N-subset in lexicographic order, gathering and summing its N
columns block by block. ``grid_sinr`` writes out the closed-form SINR of one
grid, and ``grid_rate``, ``marginal_rate`` and ``upper_bound_rate`` the rates
made of it, from the model's per-column terms and never through
``RateModel.log_rates``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from xlma.channel import channel_from_draws, draw_realization
from xlma.errors import ConfigurationError, DomainError
from xlma.montecarlo import _sinr_all_active
from xlma.rate import ASSEMBLY_BLOCK_BYTES, RateModel, _fejer_axis, fejer_correlation
from xlma.rng import _key, substream
from xlma.scenario import segments_blocked


def aux_f(m, xi, kappa_bar, pure_los: bool):
    """Signal fourth-moment excess factor; beta^2 * f is the variance of |h|^2."""
    if pure_los:
        return np.zeros(np.broadcast_shapes(np.shape(xi), np.shape(m)))
    kx = np.asarray(kappa_bar) * np.asarray(xi)
    return np.asarray(m) * (2.0 * kx + 1.0) / (kx + 1.0) ** 2


def aux_g(xi_k, xi_i, kap_k, kap_i, pure_los: bool):
    """LoS-on-LoS weight of the steering correlation term."""
    xi_k = np.asarray(xi_k, float)
    xi_i = np.asarray(xi_i, float)
    if pure_los:
        return xi_k * xi_i
    a = np.asarray(kap_k) * xi_k
    b = np.asarray(kap_i) * xi_i
    return a * b / ((a + 1.0) * (b + 1.0))


def aux_q(m, xi_k, xi_i, kap_k, kap_i, pure_los: bool):
    """Incoherent (NLoS-involved) cross-moment term."""
    if pure_los:
        return np.zeros(np.broadcast_shapes(np.shape(xi_k), np.shape(xi_i), np.shape(m)))
    a = np.asarray(kap_k) * np.asarray(xi_k, float)
    b = np.asarray(kap_i) * np.asarray(xi_i, float)
    return np.asarray(m) * (1.0 + a + b) / ((a + 1.0) * (b + 1.0))


def aux_kernels(beta_los_k, beta_nlos_k, xi_k, beta_los_i, beta_nlos_i, xi_i, m,
                pure_los: bool):
    """(f_k, g_ki, q_ki) for a pair of grids at common columns."""
    if pure_los:
        kap_k = kap_i = None
    else:
        kap_k = np.asarray(beta_los_k) / np.asarray(beta_nlos_k)
        kap_i = np.asarray(beta_los_i) / np.asarray(beta_nlos_i)
    f = aux_f(m, xi_k, kap_k, pure_los)
    g = aux_g(xi_k, xi_i, kap_k, kap_i, pure_los)
    q = aux_q(m, xi_k, xi_i, kap_k, kap_i, pure_los)
    return f, g, q


@dataclass
class KernelTables:
    """Per (k, i, column) correlation kernel and auxiliary moments.

    Memory is O(K^2 * C); construction refuses above ``budget`` entries.
    """

    phi: np.ndarray  # (K, K, C)
    f: np.ndarray    # (K, C)
    g: np.ndarray    # (K, K, C)
    q: np.ndarray    # (K, K, C)

    def validate(self, m: int, atol: float = 1e-9):
        if np.any(self.phi > m * m + atol) or np.any(self.phi < -atol):
            raise ConfigurationError("phi out of [0, M^2]")
        diag = np.einsum("kkc->kc", self.phi)
        if not np.allclose(diag, float(m * m)):
            raise ConfigurationError("phi diagonal must equal M^2")
        if np.any(self.g < -atol) or np.any(self.g > 1 + atol):
            raise ConfigurationError("g out of [0, 1]")
        if np.any(self.f < -atol) or np.any(self.f > m + atol):
            raise ConfigurationError("f out of [0, M]")
        if np.any(self.q < -atol) or np.any(self.q > 2 * m + atol):
            raise ConfigurationError("q out of [0, 2M]")
        if not (np.allclose(self.phi, self.phi.transpose(1, 0, 2))
                and np.allclose(self.g, self.g.transpose(1, 0, 2))):
            raise ConfigurationError("phi and g must be symmetric in (k, i)")


DEFAULT_KERNEL_BUDGET = int(2e8)


def build_kernel_tables(scenario, beta_los, beta_nlos, xi, u,
                        budget: int = DEFAULT_KERNEL_BUDGET) -> KernelTables:
    """Materialize phi/f/g/q for all grid pairs over candidate columns."""
    n_grids, n_cols = beta_los.shape
    if n_grids * n_grids * n_cols > budget:
        raise ConfigurationError(
            f"kernel tables need {n_grids * n_grids * n_cols} entries > budget {budget}; "
            "use the streaming rate model instead"
        )
    m = scenario.antennas_per_subarray
    pure = np.isinf(scenario.rician_kappa)
    kap = None if pure else beta_los / beta_nlos
    phi = np.empty((n_grids, n_grids, n_cols))
    g = np.empty_like(phi)
    q = np.empty_like(phi)
    f = aux_f(m, xi, kap, pure)
    for i in range(n_grids):
        phi[:, i, :] = fejer_correlation(
            u, u[i][None, ...], scenario.m_h, scenario.m_v,
            scenario.d_h, scenario.d_v, scenario.wavelength,
        )
        g[:, i, :] = aux_g(xi, xi[i][None, :], kap, None if pure else kap[i][None, :], pure)
        q[:, i, :] = aux_q(m, xi, xi[i][None, :], kap,
                           None if pure else kap[i][None, :], pure)
    return KernelTables(phi=phi, f=np.asarray(f, float), g=g, q=q)


def assemble_row_loop(cls, scenario, tables, m_h, m_v, d_h, d_v):
    """``RateModel._assemble`` summed pair by pair over interfering grids."""
    m = m_h * m_v
    grid_rows = tables.grid_rows
    beta, beta_los, beta_nlos = tables.beta_total, tables.beta_los, tables.beta_nlos
    xi, u = tables.xi.astype(float), tables.u
    rho = scenario.rho[grid_rows]
    pbar = scenario.snr_scale[grid_rows]
    pure = np.isinf(scenario.rician_kappa)
    kap = None if pure else beta_los / beta_nlos
    f = aux_f(m, xi, kap, pure)
    sig_mean = m * beta
    sig_var = beta * beta * f

    interf = np.zeros(beta.shape)
    lam = scenario.wavelength
    for i in range(beta.shape[0]):
        phi = (_fejer_axis(u[:, :, 1] - u[i, None, :, 1], m_h, d_h / lam)
               * _fejer_axis(u[:, :, 2] - u[i, None, :, 2], m_v, d_v / lam))
        kap_i = None if pure else kap[i][None, :]
        g = aux_g(xi, xi[i][None, :], kap, kap_i, pure)
        q = aux_q(m, xi, xi[i][None, :], kap, kap_i, pure)
        contrib = (pbar[i] * rho[i]) * beta[i][None, :] * (phi * g + q)
        contrib[i, :] = 0.0
        interf += contrib
    denom = beta * interf + sig_mean
    return cls(grid_rows, rho, pbar, np.stack([sig_mean.T, sig_var.T, denom.T]))


def others_reference(x):
    """out[k] = sum_{i != k} x[i] per column: exclusive prefix plus exclusive
    suffix sums over float64 columns."""
    out = np.zeros_like(x)
    np.cumsum(x[:-1], axis=0, out=out[1:])
    out[:-1] += np.cumsum(x[:0:-1], axis=0)[::-1]
    return out


def axis_harmonics(phase, m):
    """([cos(l*phase)], [sin(l*phase)]) for the axis lags l = 0 .. m - 1:
    lags 0 and 1 from ``np.cos`` and ``np.sin``, each later lag from the one
    before it plus lag 1 by angle addition."""
    cos = [np.cos(lag * phase) for lag in range(min(m, 2))]
    sin = [np.sin(lag * phase) for lag in range(min(m, 2))]
    for _ in range(2, m):
        c, s = cos[-1], sin[-1]
        cos.append(c * cos[1] - s * sin[1])
        sin.append(s * cos[1] + c * sin[1])
    return cos, sin


def assemble_angle_addition(cls, scenario, tables, m_h, m_v, d_h, d_v):
    """``RateModel._assemble`` with cos and sin of every axis lag, 0
    included, from ``axis_harmonics``, and every lag pair joined by angle
    addition."""
    m = m_h * m_v
    grid_rows = tables.grid_rows
    rho = scenario.rho[grid_rows]
    pbar = scenario.snr_scale[grid_rows]
    kappa = tables.kappa
    pure = np.isinf(kappa)
    n_rows, n_cols = tables.beta_los.shape

    terms = np.empty((3, n_rows, n_cols))
    sig_mean, sig_var, denom = terms
    power = (pbar * rho)[:, None]
    theta_h = 2.0 * np.pi * d_h / scenario.wavelength
    theta_v = 2.0 * np.pi * d_v / scenario.wavelength
    width = max(1, ASSEMBLY_BLOCK_BYTES // (8 * n_rows))
    for start in range(0, n_cols, width):
        c = slice(start, start + width)
        xi, beta_los, u = tables.xi[:, c], tables.beta_los[:, c], tables.u[:, c]
        beta = xi * beta_los + beta_los / kappa
        sig_mean[:, c] = m * beta
        sig_var[:, c] = beta * beta * aux_f(m, xi, kappa, pure)
        w = power * beta
        a = xi if pure else kappa * xi / (kappa * xi + 1.0)
        wa = w * a
        lag_sum = m * others_reference(wa)
        phase_h = theta_h * u[:, :, 1]
        phase_v = theta_v * u[:, :, 2]
        cos_h, sin_h = axis_harmonics(phase_h, m_h)
        cos_v, sin_v = axis_harmonics(phase_v, m_v)
        for lh in range(m_h):
            for lv in range(1 - m_v if lh else 1, m_v):
                weight = 2.0 * (m_h - lh) * (m_v - abs(lv))
                cv = cos_v[abs(lv)]
                sv = sin_v[lv] if lv >= 0 else -sin_v[-lv]
                cos = cos_h[lh] * cv - sin_h[lh] * sv
                sin = sin_h[lh] * cv + cos_h[lh] * sv
                lag_sum += weight * (cos * others_reference(wa * cos)
                                     + sin * others_reference(wa * sin))
        interf = a * lag_sum
        if not pure:
            interf += m * (others_reference(w) - a * others_reference(wa))
        denom[:, c] = beta * interf + sig_mean[:, c]
    return cls(grid_rows, rho, pbar, np.ascontiguousarray(terms.transpose(0, 2, 1)))


def model_with_assembly(assemble, constructor, scenario, data) -> RateModel:
    """``constructor(scenario, data)`` (a ``RateModel`` constructor) with
    ``assemble`` in place of ``RateModel._assemble``."""
    library = RateModel.__dict__["_assemble"]
    RateModel._assemble = classmethod(assemble)
    try:
        return constructor(scenario, data)
    finally:
        RateModel._assemble = library


def slab_hits_reference(starts, ends, lo, hi) -> np.ndarray:
    """Slab test, broadcast over leading dims; boundary contact counts as a hit."""
    starts = np.asarray(starts, float)
    ends = np.asarray(ends, float)
    d = ends - starts
    shape = d.shape[:-1]
    t_lo = np.zeros(shape)
    t_hi = np.ones(shape)
    inside_all = np.ones(shape, dtype=bool)
    for a in range(3):
        da = d[..., a]
        oa = np.broadcast_to(starts[..., a], shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t0 = (lo[a] - oa) / da
            t1 = (hi[a] - oa) / da
        parallel = da == 0.0
        inside = (oa >= lo[a]) & (oa <= hi[a])
        tmin = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t0, t1))
        tmax = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t0, t1))
        t_lo = np.maximum(t_lo, tmin)
        t_hi = np.minimum(t_hi, tmax)
        inside_all &= ~(parallel & ~inside)
    return (t_lo <= t_hi) & inside_all


def blocked_reference(starts, ends, obstacles) -> np.ndarray:
    """``segments_blocked`` as one ``slab_hits_reference`` per obstacle."""
    starts = np.asarray(starts, float)
    ends = np.asarray(ends, float)
    shape = np.broadcast_shapes(starts.shape[:-1], ends.shape[:-1])
    blocked = np.zeros(shape, dtype=bool)
    for box in obstacles:
        blocked |= slab_hits_reference(starts, ends, box.lo, box.hi)
    return blocked


def grid_sample_points(cov, k: int, samples: int, rng_seed: int, purpose: str = "visibility"):
    """Uniform sample points inside grid cell ``k``, from its own
    ``substream(rng_seed, purpose, k)``: one row of ``cell_samples``."""
    lo, hi = cov.cell_bounds(k)
    rng = substream(rng_seed, purpose, k)
    return lo + rng.random((samples, 3)) * (hi - lo)


def visibility_reference(points, cov, obstacles, samples_per_grid, rng_seed, grid_indices):
    """``visibility_from_points`` over ``blocked_reference``: every segment
    of every (grid, point) pair tested, with no prune."""
    points = np.asarray(points, float)
    xi = np.ones((len(grid_indices), len(points)), dtype=np.uint8)
    for row, k in enumerate(grid_indices):
        targets = grid_sample_points(cov, int(k), samples_per_grid, rng_seed)
        blocked = blocked_reference(points[:, None, :], targets[None, :, :], obstacles)
        xi[row] = ~blocked.any(axis=1)
    return xi


def segment_intersects_box(p, q, obstacle) -> bool:
    """Whether segment [p, q] touches ``obstacle`` (inclusive boundaries),
    by ``segments_blocked``.

    Endpoints are canonicalized (lexicographic order) so the test is exactly
    symmetric in p and q.
    """
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if tuple(q) < tuple(p):
        p, q = q, p
    return bool(segments_blocked(p[None, :], q[None, :], [obstacle])[0])


def validate_gain_tables(tables, atol: float = 1e-12):
    """Raise ``ConfigurationError`` unless ``tables`` (``GainTables``) has unit
    wave vectors, nonnegative gains and beta_total == xi*beta_los + beta_nlos."""
    norms = np.linalg.norm(tables.u, axis=-1)
    if not np.allclose(norms, 1.0, atol=atol):
        raise ConfigurationError("wave vectors must be unit norm")
    recon = tables.xi * tables.beta_los + tables.beta_nlos
    if not np.allclose(recon, tables.beta_total, rtol=0, atol=0):
        raise ConfigurationError("beta_total must equal xi*beta_los + beta_nlos")
    if np.any(tables.beta_los < 0) or np.any(tables.beta_nlos < 0):
        raise ConfigurationError("gains must be nonnegative")


def _grid_sums(model: RateModel, support, grid_index: int):
    """(row, (3,) sums of the model's terms over ``support``) of one grid."""
    (row,) = np.flatnonzero(model.grid_rows == grid_index)
    return row, model.terms[:, np.asarray(support), row].sum(axis=1)


def grid_sinr(model: RateModel, support, grid_index: int) -> float:
    """Ratio-of-means SINR of one grid over ``support``, written out from the
    formula of the ``xlma.rate`` docstring: Pbar_k * (S_mean^2 + S_var) /
    S_den over the support's column sums, and 0 unless S_den > 0."""
    row, (s_mean, s_var, s_den) = _grid_sums(model, support, grid_index)
    return float(model.pbar[row] * (s_mean**2 + s_var) / s_den) if s_den > 0.0 else 0.0


def grid_rate(model: RateModel, support, grid_index: int) -> float:
    """log2(1 + ``grid_sinr``) of one grid."""
    return float(np.log2(1.0 + grid_sinr(model, support, grid_index)))


def upper_bound_rate(model: RateModel, chi, grid_index: int) -> float:
    """Interference-free rate bound log2(1 + Pbar_k * sum_c m_c*beta_k,c) of one grid."""
    row, (s_mean, _, _) = _grid_sums(model, chi, grid_index)
    return float(np.log2(1.0 + model.pbar[row] * s_mean))


def marginal_rate(model: RateModel, column: int, grid_index: int) -> float:
    """Rate of one grid when the support is the single ``column``."""
    return grid_rate(model, [column], grid_index)


def wave_vector(t_k, r) -> np.ndarray:
    """Unit direction of arrival (t_k - r) / ||t_k - r||."""
    diff = np.asarray(t_k, float) - np.asarray(r, float)
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        raise DomainError("wave vector undefined for coincident points")
    return diff / norm


def mrc_sinr(h, alpha, k, tx_power_mw, noise_power_mw):
    """MRC SINR of grid k: Pbar_k ||h_k||^4 / (interference + ||h_k||^2)."""
    return _combiner_sinr(h, alpha, k, tx_power_mw, noise_power_mw, "mrc")


def mmse_sinr(h, alpha, k, tx_power_mw, noise_power_mw):
    """Output SINR of the interference-plus-noise-whitened matched filter."""
    return _combiner_sinr(h, alpha, k, tx_power_mw, noise_power_mw, "mmse")


def _combiner_sinr(h, alpha, k, tx_power_mw, noise_power_mw, combiner):
    """Grid k's entry of ``_sinr_all_active`` over the active columns of h."""
    alpha = np.asarray(alpha)
    if not alpha[k]:
        raise DomainError("SINR requested for an inactive grid")
    active = np.flatnonzero(alpha)
    pbar = np.broadcast_to(np.asarray(tx_power_mw, float), alpha.shape)[active] / float(
        noise_power_mw
    )
    gammas = _sinr_all_active(np.asarray(h)[:, active], pbar, combiner)
    return float(gammas[int(np.searchsorted(active, k))])


def element_positions(layout) -> np.ndarray:
    """Every element of an ``ArrayLayout``, subarray by subarray, shape (S * M, 3)."""
    return layout.element_positions().reshape(-1, 3)


def min_element_spacing(layout) -> float:
    """Smallest distance between two elements of ``layout``."""
    pos = element_positions(layout)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def simulate_trials_reference(scenario, stats, opts) -> np.ndarray:
    """``simulate_trials`` one trial at a time, in trial order, for a
    layout's statistics over the grids with rho > 0."""
    rho_rows = scenario.rho[stats.grid_rows]
    pbar_rows = scenario.snr_scale[stats.grid_rows]
    values = np.zeros(opts.trials)
    for t in range(opts.trials):
        rng = np.random.default_rng(np.random.SeedSequence([scenario.rng_seed, _key("mc"), t]))
        draw = draw_realization(stats, rho_rows, rng)
        if len(draw.columns) == 0:
            continue
        h = channel_from_draws(stats, draw.columns, draw.psi, draw.re, draw.im)
        gammas = _sinr_all_active(h, pbar_rows[draw.columns], opts.combiner)
        values[t] = np.log2(1.0 + gammas).sum()
    return values


def exhaustive_search_reference(model: RateModel, n_select: int, block_bytes: int = 120_000):
    """(support tuple, value) of the best N-subset, lexicographically first
    among ties: subsets in lexicographic order, in blocks of
    ``block_bytes // (8 * K' * N)``, each gathering its N columns and summing
    them along the gathered axis; the value is ``model.weighted_sum``."""
    n_cols = model.n_cols
    count = math.comb(n_cols, n_select)
    width = max(1, block_bytes // (8 * len(model.rho) * n_select))
    combos = itertools.combinations(range(n_cols), n_select)
    best_support = None
    best_value = -np.inf
    for _ in range(0, count, width):
        block = itertools.chain.from_iterable(itertools.islice(combos, width))
        idx = np.fromiter(block, dtype=np.intp).reshape(-1, n_select)
        s_mean, s_var, s_den = (table[idx].sum(axis=1).T for table in model.terms)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = model.pbar[:, None] * (s_mean**2 + s_var) / s_den
        gamma = np.where(s_den > 0.0, gamma, 0.0)
        values = (model.rho[:, None] * np.log2(1.0 + gamma)).sum(axis=0)
        j = int(np.argmax(values))  # first maximum = lexicographically first
        if values[j] > best_value:
            best_value = values[j]
            best_support = tuple(int(c) for c in idx[j])
    return best_support, model.weighted_sum(np.array(best_support))


def wave_vectors_broadcast(targets, sources):
    """``channel.wave_vectors`` in broadcast form: the (T, S, 3) difference
    in one subtraction, normalized by ``dist[..., None]``."""
    targets = np.atleast_2d(np.asarray(targets, float))
    sources = np.atleast_2d(np.asarray(sources, float))
    u = np.subtract(targets[:, None, :], sources[None, :, :])
    dist = np.square(u[..., 0])
    for axis in (1, 2):
        dist += np.square(u[..., axis])
    np.sqrt(dist, out=dist)
    u /= dist[..., None]
    return u, dist
