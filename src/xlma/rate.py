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
per-column antenna count m_c, so the signal term adds it bare. All rates are
log2, all powers linear.

The pair moments factor over grids. With the scalar Rician factor kappa and
A = kappa*xi / (kappa*xi + 1) per (grid, column), g_ki = A_k*A_i and
q_ki = m_c*(1 - A_k*A_i); in pure LoS (kappa infinite), A = xi and q = 0.
beta = xi*beta_los + beta_los/kappa, A and f are formed per column block
from the stored gain tables, never as whole tables. The Fejer product is a
sum over antenna lags,

    phi_ki = sum_l (M_h - |l_h|)(M_v - |l_v|) * cos(theta . l * (u_k - u_i)),

with theta = 2*pi*(d_h, d_v)/lambda acting on the (y, z) wave-vector
components, and cos(a - b) = cos a cos b + sin a sin b splits each lag into
sums over grids. So with w_i = Pbar_i*rho_i*beta_i,c, the interference of
column c is, for every k at once,

    A_k * sum_l c_l*(cos_lk*C_lk + sin_lk*S_lk) + m_c*(W_k - A_k*WA_k),

where (cos, sin)_lk are taken of theta . l * u_k, c_l is the lag weight
above, (C_lk, S_lk) = sum_{i != k} w_i*A_i*(cos, sin)_li, W_k = sum_{i != k}
w_i and WA_k = sum_{i != k} w_i*A_i. Each leave-one-out sum is an exclusive
prefix plus an exclusive suffix sum, so no grid's own term is added and then
subtracted, which would cancel a weak interference sum away under a
dominant grid. The cost is O(K'*C*L) for K' grids, C columns and
L = (2*M_h - 1)(2*M_v - 1) lags, instead of O(K'^2*C) for the pairs. The
lag sums round to a few ulps of beta_k*M_c^2*sum_i w_i per column; relative
to the denominator that is ~1e-15 unless the per-element SNR is very high,
there is no NLoS term, and interferers sit near a kernel null.

Grids with zero activation probability contribute nothing to either the
weighted sum or the interference sums (their terms carry rho_i = 0), so the
pipeline tabulates and models only the active grids. That is exact and makes
the optimizer's inner loop O(#active grids) per support update.
"""

from __future__ import annotations

import numpy as np

from .channel import GainTables, LayoutStats, check_support
from .errors import ConfigurationError, DomainError
from .scenario import ScenarioConfig

FEJER_SIN_TOL = 1e-9
# Bytes per float64 temporary in the interference assembly, which runs over
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


def _others(x):
    """Sums over the other rows: out[k] = sum_{i != k} x[i], per column.

    Exclusive prefix plus exclusive suffix sums, so no row's own entry is
    added and then subtracted again: a dominant x[k] cannot swamp row k. The
    cumulative sums run row by row in a fixed order, whatever the width.
    """
    out = np.zeros_like(x)
    np.cumsum(x[:-1], axis=0, out=out[1:])
    out[:-1] += np.cumsum(x[:0:-1], axis=0)[::-1]
    return out


def aux_f(m, xi, kappa_bar, pure_los: bool):
    """Signal fourth-moment excess factor; beta^2 * f is the variance of |h|^2."""
    if pure_los:
        return np.zeros(np.broadcast_shapes(np.shape(xi), np.shape(m)))
    kx = np.asarray(kappa_bar) * np.asarray(xi)
    return np.asarray(m) * (2.0 * kx + 1.0) / (kx + 1.0) ** 2


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
    def _assemble(cls, scenario, tables: GainTables, geometry) -> "RateModel":
        """Model over the columns of ``tables``, with (m_h, m_v, d_h, d_v) per
        column, assembled block by block: only the three outputs are whole
        tables.

        An axis lag of 0 has cos 1 and sin +-0 exactly, so no cos or sin is
        taken of it: a lag on one axis only uses that axis's cos and sin as
        they are, where angle addition with 1 and +-0 would give the same
        values. (It could differ only in the sign of a zero sine, which no
        output can show: every term it reaches is added to a lag sum that
        starts at +0 or above.)
        """
        mh_col, mv_col, dh_col, dv_col = (np.array(axis) for axis in zip(*geometry))
        m_col = mh_col * mv_col
        grid_rows = tables.grid_rows
        rho = scenario.distribution.rho[grid_rows]
        pbar = scenario.snr_scale[grid_rows]
        kappa = tables.kappa
        pure = np.isinf(kappa)
        n_rows, n_cols = tables.beta_los.shape

        sig_mean, sig_var, denom = np.empty((3, n_rows, n_cols))
        power = (pbar * rho)[:, None]
        theta_h = 2.0 * np.pi * dh_col / scenario.wavelength
        theta_v = 2.0 * np.pi * dv_col / scenario.wavelength
        mh_max, mv_max = int(mh_col.max()), int(mv_col.max())
        width = max(1, ASSEMBLY_BLOCK_BYTES // (8 * n_rows))
        for start in range(0, n_cols, width):
            c = slice(start, start + width)
            xi, beta_los, u = tables.xi[:, c], tables.beta_los[:, c], tables.u[:, c]
            beta = xi * beta_los + beta_los / kappa
            sig_mean[:, c] = m_col[c] * beta
            sig_var[:, c] = beta * beta * aux_f(m_col[c], xi, kappa, pure)
            w = power * beta
            a = xi if pure else kappa * xi / (kappa * xi + 1.0)
            wa = w * a
            others_wa = _others(wa)
            lag_sum = m_col[c] * others_wa  # lag 0
            # Lag -l adds the same real term as lag l, so run the half plane
            # l_h > 0 or l_h = 0 < l_v at double weight. A column with fewer
            # antennas than the largest gives the lags beyond its span weight 0.
            # cos/sin per nonzero axis lag, joined by angle addition for each
            # lag pair: 2*(M_h + M_v - 2) transcendentals per entry instead of ~L.
            phase_h = theta_h[c] * u[:, :, 1]
            phase_v = theta_v[c] * u[:, :, 2]
            cos_v = {lv: np.cos(lv * phase_v) for lv in range(1, mv_max)}
            sin_v = {lv: np.sin(lv * phase_v) for lv in range(1, mv_max)}
            for lh in range(mh_max):
                if lh:
                    cos_h, sin_h = np.cos(lh * phase_h), np.sin(lh * phase_h)
                for lv in range(1 - mv_max if lh else 1, mv_max):
                    weight = 2.0 * (np.maximum(mh_col[c] - lh, 0)
                                    * np.maximum(mv_col[c] - abs(lv), 0))
                    if lv == 0:
                        cos, sin = cos_h, sin_h
                    elif lh == 0:
                        cos, sin = cos_v[lv], sin_v[lv]
                    else:
                        cv = cos_v[abs(lv)]
                        sv = sin_v[lv] if lv > 0 else -sin_v[-lv]
                        cos = cos_h * cv - sin_h * sv
                        sin = sin_h * cv + cos_h * sv
                    lag_sum += weight * (cos * _others(wa * cos) + sin * _others(wa * sin))
            interf = a * lag_sum
            if not pure:
                interf += m_col[c] * (_others(w) - a * others_wa)
            denom[:, c] = beta * interf + sig_mean[:, c]
        return cls(grid_rows, rho, pbar, m_col, sig_mean, sig_var, denom)

    @classmethod
    def from_candidate_tables(cls, scenario: ScenarioConfig, gains: GainTables) -> "RateModel":
        """Model over all candidate positions, one row per gain-table row.

        Rows of grids with zero activation probability, when the tables
        carry them, stay in the model and contribute nothing.
        """
        if not np.any(scenario.distribution.rho[gains.grid_rows] > 0.0):
            raise ConfigurationError("no grids with positive activation probability")
        n_cols = gains.beta_los.shape[1]
        geometry = ((scenario.m_h, scenario.m_v, scenario.d_h, scenario.d_v),) * n_cols
        return cls._assemble(scenario, gains, geometry)

    @classmethod
    def from_layout_stats(cls, scenario: ScenarioConfig, stats: LayoutStats) -> "RateModel":
        """Model whose columns are the subarrays of one concrete layout."""
        return cls._assemble(scenario, stats, stats.geometry)

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
        cols = check_support(support, self.n_cols)
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

    def objective(self, s_mean, s_var, s_den) -> float:
        """Weighted sum rate from per-grid sums, each of shape (K',).

        ``marginal_objective`` scores every column added to such sums, with
        temporaries no larger than a column block.
        """
        return self.rho @ np.log2(1.0 + self._sinr_from_sums(self.pbar, s_mean, s_var, s_den))

    def sinr(self, chi, grid_index: int) -> float:
        s_mean, s_var, s_den = self.sums(chi)
        r = self.row_of(grid_index)
        return float(self._sinr_from_sums(self.pbar[r], s_mean[r], s_var[r], s_den[r]))

    def rate(self, chi, grid_index: int) -> float:
        return float(np.log2(1.0 + self.sinr(chi, grid_index)))

    def weighted_sum(self, chi) -> float:
        return float(self.objective(*self.sums(chi)))

    def weighted_upper_bound(self, chi) -> float:
        s_mean, _, _ = self.sums(chi)
        return float(self.rho @ np.log2(1.0 + self.pbar * s_mean))

    def marginal_objective(self, kept=None) -> np.ndarray:
        """c[n]: the weighted sum rate of the per-grid sums ``kept`` plus
        column n, for every column n.

        ``kept`` is an (s_mean, s_var, s_den) triple of (K',) sums, such as
        ``SelectionState.without``; None scores each column alone. The rates
        are formed over column blocks of ``ASSEMBLY_BLOCK_BYTES`` into one
        (K', C) table, so the sums, the SINR and their temporaries are never
        whole tables. Each rate is elementwise and has the same bits whatever
        the blocking; the weighted sum over grids is one product with the
        whole table, because a matrix-vector product can round a column
        differently by its position in the call.
        """
        n_rows, n_cols = self.sig_mean.shape
        rates = np.empty((n_rows, n_cols))
        pbar = self.pbar[:, None]
        width = max(1, ASSEMBLY_BLOCK_BYTES // (8 * n_rows))
        for start in range(0, n_cols, width):
            c = slice(start, start + width)
            sums = [table[:, c] for table in (self.sig_mean, self.sig_var, self.denom)]
            if kept is not None:
                sums = [total[:, None] + block for total, block in zip(kept, sums)]
            rates[:, c] = np.log2(1.0 + self._sinr_from_sums(pbar, *sums))
        return self.rho @ rates
