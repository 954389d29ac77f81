"""Closed-form expected SINR and weighted sum rate under MRC.

The expected rate of grid k for a placement support T is approximated by the
ratio-of-means SINR

    gamma_k = Pbar_k * ((sum_c m_c*beta_k,c)^2 + sum_c beta_k,c^2*f_k,c)
              / sum_c [ beta_k,c * sum_{i != k} Pbar_i*rho_i*beta_i,c*
                        (phi_ki,c*g_ki,c + q_ki,c) + m_c*beta_k,c ]

summed over the selected columns c (candidate positions or layout
subarrays), where beta is the total per-element gain, phi the squared
steering-vector correlation (Fejer product), and f, g, q Rician-mixture
moments of the per-position channels. The auxiliary factor f carries the
per-column antenna count m_c, so the signal term adds it bare; g and q are
defined per interfering pair. All rates are log2, all powers linear.

Grids with zero activation probability contribute nothing to either the
weighted sum or the interference sums (their terms carry rho_i = 0), so the
pipeline tabulates and models only the active grids. That is exact and makes
the optimizer's inner loop O(#active grids) per support update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LayoutStats, resolve_support
from .errors import ConfigurationError, DomainError
from .scenario import ScenarioConfig

FEJER_SIN_TOL = 1e-9
# Bytes per float64 temporary in the interference loop, which runs over
# column blocks of this size. Below glibc's default 128 KiB mmap threshold,
# freed temporaries are reused from the heap; whole (rows x columns) ones
# are mapped and page-faulted afresh in every iteration.
ASSEMBLY_BLOCK_BYTES = 120_000


def _fejer_axis(delta_u, m, d_over_lambda):
    """sin^2(m*x)/sin^2(x) with x = pi*d/lambda*delta_u; limit m^2 near x = n*pi."""
    x = np.pi * d_over_lambda * delta_u
    s = np.sin(x)
    singular = np.abs(s) < FEJER_SIN_TOL
    safe = np.where(singular, 1.0, s)
    ratio = (np.sin(np.asarray(m) * x) / safe) ** 2
    return np.where(singular, np.square(np.asarray(m, float)), ratio)


def fejer_correlation(u_k, u_i, m_h, m_v, d_h, d_v, wavelength) -> float:
    """Squared UPA steering correlation |a(u_k)^H a(u_i)|^2 in [0, M^2]."""
    u_k = np.asarray(u_k, float)
    u_i = np.asarray(u_i, float)
    horiz = _fejer_axis(u_k[..., 1] - u_i[..., 1], m_h, d_h / wavelength)
    vert = _fejer_axis(u_k[..., 2] - u_i[..., 2], m_v, d_v / wavelength)
    return horiz * vert


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


# ---------------------------------------------------------------------------
# Optional fully materialized kernel tables (tests, validation, debugging)
# ---------------------------------------------------------------------------


@dataclass
class KernelTables:
    """Per (k, i, column) correlation kernel and auxiliary moments.

    Memory is O(K^2 * C); construction refuses above ``budget`` entries (the
    rate evaluator itself streams over pairs and never needs these).
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


def build_kernel_tables(
    scenario: ScenarioConfig,
    beta_los: np.ndarray,
    beta_nlos: np.ndarray,
    xi: np.ndarray,
    u: np.ndarray,
    budget: int = DEFAULT_KERNEL_BUDGET,
) -> KernelTables:
    """Materialize phi/f/g/q for all grid pairs over candidate columns."""
    n_grids, n_cols = beta_los.shape
    if n_grids * n_grids * n_cols > budget:
        raise ConfigurationError(
            f"kernel tables need {n_grids * n_grids * n_cols} entries > budget {budget}; "
            "use the streaming rate model instead"
        )
    m = scenario.antennas_per_subarray
    pure = scenario.pure_los
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


# ---------------------------------------------------------------------------
# Rate model
# ---------------------------------------------------------------------------


class RateModel:
    """Closed-form rate evaluator over a fixed set of columns.

    Columns are candidate positions (optimizer use) or the subarrays of an
    arbitrary layout (benchmark evaluation); both reduce to the same per-
    column sums. Row r covers user grid ``grid_rows[r]``.
    """

    def __init__(self, grid_rows, rho, pbar, m_col, sig_mean, sig_var, denom):
        self.grid_rows = np.asarray(grid_rows, int)
        self.rho = np.asarray(rho, float)
        self.pbar = np.asarray(pbar, float)
        self.m_col = np.asarray(m_col)
        self.sig_mean = sig_mean  # (K', C): m_c * beta_k,c
        self.sig_var = sig_var    # (K', C): beta_k,c^2 * f_k,c
        self.denom = denom        # (K', C)
        self._row_of = {int(k): r for r, k in enumerate(self.grid_rows)}

    # -- construction ------------------------------------------------------

    @classmethod
    def _assemble(cls, scenario, grid_rows, beta, beta_los, beta_nlos, xi, u,
                  m_col, mh_col, mv_col, dh_col, dv_col):
        rho = scenario.distribution.rho[grid_rows]
        pbar = scenario.snr_scale[grid_rows]
        pure = scenario.pure_los
        kap = None if pure else beta_los / beta_nlos
        n_rows, n_cols = beta.shape

        f = aux_f(m_col[None, :], xi, kap, pure)
        sig_mean = m_col[None, :] * beta
        sig_var = beta * beta * f

        interf = np.zeros((n_rows, n_cols))
        lam = scenario.wavelength
        width = max(1, ASSEMBLY_BLOCK_BYTES // (8 * n_rows))
        for start in range(0, n_cols, width):
            c = slice(start, start + width)
            kap_c = None if pure else kap[:, c]
            for i in range(n_rows):
                du_h = u[:, c, 1] - u[i, None, c, 1]
                du_v = u[:, c, 2] - u[i, None, c, 2]
                phi = (_fejer_axis(du_h, mh_col[None, c], dh_col[None, c] / lam)
                       * _fejer_axis(du_v, mv_col[None, c], dv_col[None, c] / lam))
                kap_i = None if pure else kap[i][None, c]
                g = aux_g(xi[:, c], xi[i][None, c], kap_c, kap_i, pure)
                q = aux_q(m_col[None, c], xi[:, c], xi[i][None, c], kap_c, kap_i, pure)
                contrib = (pbar[i] * rho[i]) * beta[i][None, c] * (phi * g + q)
                contrib[i, :] = 0.0
                interf[:, c] += contrib
        denom = beta * interf + sig_mean
        return cls(grid_rows, rho, pbar, m_col, sig_mean, sig_var, denom)

    @classmethod
    def from_candidate_tables(cls, scenario: ScenarioConfig, gains) -> "RateModel":
        """Model over all candidate positions, one row per gain-table row.

        Rows of grids with zero activation probability, when the tables
        carry them, stay in the model and contribute nothing.
        """
        if not np.any(scenario.distribution.rho[gains.grid_rows] > 0.0):
            raise ConfigurationError("no grids with positive activation probability")
        n_cols = gains.beta_total.shape[1]
        m = scenario.antennas_per_subarray
        return cls._assemble(
            scenario,
            gains.grid_rows,
            gains.beta_total,
            gains.beta_los,
            gains.beta_nlos,
            gains.xi.astype(float),
            gains.u,
            m_col=np.full(n_cols, m),
            mh_col=np.full(n_cols, scenario.m_h),
            mv_col=np.full(n_cols, scenario.m_v),
            dh_col=np.full(n_cols, scenario.d_h),
            dv_col=np.full(n_cols, scenario.d_v),
        )

    @classmethod
    def from_layout_stats(cls, scenario: ScenarioConfig, stats: LayoutStats) -> "RateModel":
        """Model whose columns are the subarrays of one concrete layout."""
        mh = np.array([g[0] for g in stats.geometry])
        mv = np.array([g[1] for g in stats.geometry])
        dh = np.array([g[2] for g in stats.geometry], float)
        dv = np.array([g[3] for g in stats.geometry], float)
        return cls._assemble(
            scenario,
            stats.grid_indices,
            stats.beta_total.astype(float),
            stats.beta_los,
            stats.beta_nlos,
            stats.xi.astype(float),
            stats.u,
            m_col=stats.m_col,
            mh_col=mh,
            mv_col=mv,
            dh_col=dh,
            dv_col=dv,
        )

    # -- evaluation --------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return self.sig_mean.shape[1]

    def row_of(self, grid_index: int) -> int:
        try:
            return self._row_of[int(grid_index)]
        except KeyError:
            raise DomainError(
                f"grid {grid_index} is not modeled (zero activation probability)"
            ) from None

    def sums(self, support) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cols = resolve_support(support, self.n_cols)
        return (
            self.sig_mean[:, cols].sum(axis=1),
            self.sig_var[:, cols].sum(axis=1),
            self.denom[:, cols].sum(axis=1),
        )

    @staticmethod
    def _sinr_from_sums(pbar, s_mean, s_var, s_den):
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = pbar * (s_mean**2 + s_var) / s_den
        return np.where(s_den > 0.0, gamma, 0.0)

    def sinr(self, chi, grid_index: int) -> float:
        s_mean, s_var, s_den = self.sums(chi)
        r = self.row_of(grid_index)
        return float(self._sinr_from_sums(self.pbar[r], s_mean[r], s_var[r], s_den[r]))

    def rate(self, chi, grid_index: int) -> float:
        return float(np.log2(1.0 + self.sinr(chi, grid_index)))

    def all_rates(self, chi) -> np.ndarray:
        s_mean, s_var, s_den = self.sums(chi)
        gamma = self._sinr_from_sums(self.pbar, s_mean, s_var, s_den)
        return np.log2(1.0 + gamma)

    def weighted_sum(self, chi) -> float:
        return float(self.rho @ self.all_rates(chi))

    def upper_bound_rate(self, chi, grid_index: int) -> float:
        s_mean, _, _ = self.sums(chi)
        r = self.row_of(grid_index)
        return float(np.log2(1.0 + self.pbar[r] * s_mean[r]))

    def weighted_upper_bound(self, chi) -> float:
        s_mean, _, _ = self.sums(chi)
        return float(self.rho @ np.log2(1.0 + self.pbar * s_mean))

    def marginal_rate(self, column: int, grid_index: int) -> float:
        return self.rate([column], grid_index)

    def marginal_objective(self) -> np.ndarray:
        """c[n] = sum_k rho_k * rate_k(e_n) for every column, vectorized."""
        gamma = self._sinr_from_sums(
            self.pbar[:, None], self.sig_mean, self.sig_var, self.denom
        )
        return self.rho @ np.log2(1.0 + gamma)

    def support_state(self, support) -> "SupportState":
        return SupportState(self, resolve_support(support, self.n_cols))


class SupportState:
    """Running per-grid sums for one support; O(K') column swaps."""

    def __init__(self, model: RateModel, support):
        self.model = model
        self.support = list(int(c) for c in support)
        cols = np.asarray(self.support, int)
        self.s_mean = model.sig_mean[:, cols].sum(axis=1)
        self.s_var = model.sig_var[:, cols].sum(axis=1)
        self.s_den = model.denom[:, cols].sum(axis=1)

    def add(self, col: int):
        self.support.append(int(col))
        self.s_mean += self.model.sig_mean[:, col]
        self.s_var += self.model.sig_var[:, col]
        self.s_den += self.model.denom[:, col]

    def remove(self, col: int):
        self.support.remove(int(col))
        self.s_mean -= self.model.sig_mean[:, col]
        self.s_var -= self.model.sig_var[:, col]
        self.s_den -= self.model.denom[:, col]

    def weighted_sum(self) -> float:
        m = self.model
        gamma = m._sinr_from_sums(m.pbar, self.s_mean, self.s_var, self.s_den)
        return float(m.rho @ np.log2(1.0 + gamma))

    def weighted_sum_without(self, col: int) -> float:
        """Objective with one support column temporarily zeroed."""
        m = self.model
        gamma = m._sinr_from_sums(
            m.pbar,
            self.s_mean - m.sig_mean[:, col],
            self.s_var - m.sig_var[:, col],
            self.s_den - m.denom[:, col],
        )
        return float(m.rho @ np.log2(1.0 + gamma))
