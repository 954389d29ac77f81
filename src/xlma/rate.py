"""Closed-form expected SINR and weighted sum rate under MRC.

The expected rate of grid k for a placement support T is approximated by the
ratio-of-means SINR

    gamma_k = Pbar_k * ((sum_c M*beta_k,c)^2 + sum_c beta_k,c^2*f_k,c)
              / sum_c [ beta_k,c * sum_{i != k} Pbar_i*rho_i*beta_i,c*
                        (phi_ki,c*g_ki,c + q_ki,c) + M*beta_k,c ]

summed over the selected columns c (candidate positions or the subarray
centers of a layout), where beta is the total per-element gain, phi the
squared steering-vector correlation (Fejer product), and f, g, q
Rician-mixture moments of the per-position channels. Every column is one
M_h x M_v element grid at spacings (d_h, d_v), M = M_h*M_v elements: the
scenario's subarray, or a layout's one grid. The auxiliary factor f carries
M, so the signal term adds it bare. All rates are log2, all powers linear.

The pair moments factor over grids. Under the Rician factor kappa an entry
(grid, column) in LoS has A = kappa/(kappa + 1) and f = M*(2*kappa + 1)/
(kappa + 1)^2, a blocked one A = 0 and f = M; kappa infinite (pure LoS) gives
A = 1, f = 0 (``rician_weights``). g_ki = A_k*A_i and q_ki = M*(1 - A_k*A_i).
beta = xi*beta_los + beta_los/kappa, A and f are formed per column block
from the stored gain tables, never as whole tables. The Fejer product is a
sum over antenna lags,

    phi_ki = sum_l (M_h - |l_h|)(M_v - |l_v|) * cos(theta . l * (u_k - u_i)),

with theta = 2*pi*(d_h, d_v)/lambda acting on the (y, z) wave-vector
components, and cos(a - b) = cos a cos b + sin a sin b splits each lag into
sums over grids. So with w_i = Pbar_i*rho_i*beta_i,c, the interference of
column c is, for every k at once,

    A_k * sum_l c_l*(cos_lk*C_lk + sin_lk*S_lk) + M*(W_k - A_k*WA_k),

where (cos, sin)_lk are taken of theta . l * u_k, c_l is the lag weight
above, (C_lk, S_lk) = sum_{i != k} w_i*A_i*(cos, sin)_li, W_k = sum_{i != k}
w_i and WA_k = sum_{i != k} w_i*A_i. Each leave-one-out sum is an exclusive
prefix plus an exclusive suffix sum, so no grid's own term is added and then
subtracted, which would cancel a weak interference sum away under a
dominant grid. The cost is O(K'*C*L) for K' grids, C columns and
L = (2*M_h - 1)(2*M_v - 1) lags, instead of O(K'^2*C) for the pairs. The
lag sums round to a few ulps of beta_k*M^2*sum_i w_i per column; relative
to the denominator that is ~1e-15 unless the per-element SNR is very high,
there is no NLoS term, and interferers sit near a kernel null.

Only each axis's lag 1 takes a cos and a sin. Lag l >= 2 is lag l - 1 plus
lag 1 by angle addition,

    cos_l = cos_(l-1)*cos_1 - sin_(l-1)*sin_1,
    sin_l = sin_(l-1)*cos_1 + cos_(l-1)*sin_1,

and a lag pair joins its two axes' harmonics the same way. Against a
long-double reference of cos(l*x) and sin(l*x) over 20,000 float64 x in
[-pi, pi], this recurrence is off by at most 3.3*eps at l = 7 and 48*eps
at l = 127 (eps = 2**-52), growing about as 0.38*l*eps. ``np.cos(l*x)`` is
off by 8.0*eps and 128*eps there: it rounds the argument l*x first, an
error that grows about as l*eps (0.25*eps where l is a power of two, which
scales x exactly). So no lag is less accurate in the worst case than by a
libm call of its own, and no lag needs a cutoff.

The model holds the three per-column terms as one (3, C, K') array
``terms``: M*beta_k,c, beta_k,c^2*f_k,c and the bracketed denominator term,
row c of each term holding column c's K' grids. A selection's per-grid sums
are one (3, K') array, the rows of its columns added in order.
``RateModel.log_rates`` is the one place sums become log2(1 + gamma_k), and
``RateModel.objective`` the one weighted reduction: it weights the rates by
rho and sums each contiguous K'-row. Every scorer reduces through it, so one
support scores the same bits in each. ``RateModel.marginal_objective`` is
the one scorer of kept sums plus a column: of each column alone (the LP
seed), of a selection less one column plus each column (replacement) and of
a stack of head sums plus each later column (the exhaustive oracle's
float64 rescore; its float32 screen only bounds which subsets are scored).

Grids with zero activation probability contribute nothing to either the
weighted sum or the interference sums (their terms carry rho_i = 0), so the
pipeline tabulates and models only the active grids. That is exact and makes
the optimizer's inner loop O(#active grids) per support update.
"""

from __future__ import annotations

import numpy as np

from .channel import GainTables, LayoutStats, check_support
from .errors import ConfigurationError
from .scenario import ScenarioConfig

# Bytes per float64 temporary in the interference assembly, which runs over
# column blocks of this size. Below glibc's default 128 KiB mmap threshold,
# freed temporaries are reused from the heap; whole (rows x columns) ones
# are mapped and page-faulted afresh in every iteration.
ASSEMBLY_BLOCK_BYTES = 120_000


def _others(x):
    """Sums over the other rows: out[k] = sum_{i != k} x[i], per column of a
    (rows, columns) float64 array.

    Exclusive prefix plus exclusive suffix sums, so no row's own entry is
    added and then subtracted again: a dominant x[k] cannot swamp row k. The
    cumulative sums run row by row in a fixed order, whatever the width.
    Where the rows are C-contiguous and of even width, they run on a
    complex128 view, each number a pair of neighbouring columns: a complex
    add is the two IEEE adds of the same real operands in the same order, so
    every bit is kept, and each step advances two columns' chains. numpy
    forms that view only for an even, contiguous last axis; any other input
    keeps the float sums.
    """
    out = np.zeros_like(x)
    if x.shape[1] % 2 == 0 and x.flags.c_contiguous:
        x, out = x.view(np.complex128), out.view(np.complex128)
    np.cumsum(x[:-1], axis=0, out=out[1:])
    # The suffix sums are written back to front, so that the add reads them
    # in order: an operand of negative stride would be copied to a buffer.
    suffix = np.empty_like(out[1:])
    np.cumsum(x[:0:-1], axis=0, out=suffix[::-1])
    out[:-1] += suffix
    return out.view(np.float64)


def rician_weights(kappa, m) -> tuple[float, float]:
    """(A, f) of an entry in LoS at Rician factor ``kappa``, M = ``m``:
    kappa/(kappa + 1) and M*(2*kappa + 1)/(kappa + 1)^2, (1, 0) at kappa =
    inf. A blocked entry has (0, M); beta^2 * f is the variance of |h|^2."""
    if np.isinf(kappa):
        return 1.0, 0.0
    k1 = kappa + 1.0
    return kappa / k1, m * (2.0 * kappa + 1.0) / (k1 * k1)


# ---------------------------------------------------------------------------
# Rate model
# ---------------------------------------------------------------------------


class RateModel:
    """Closed-form rate evaluator over a fixed set of columns.

    Columns are candidate positions (optimizer use) or the subarrays of one
    layout (benchmark evaluation), each carrying one element grid; both
    reduce to the same per-column sums. Row r covers user grid
    ``grid_rows[r]``.
    """

    def __init__(self, grid_rows, rho, pbar, terms):
        self.grid_rows = np.asarray(grid_rows, int)
        self.rho = np.asarray(rho, float)
        self.pbar = np.asarray(pbar, float)
        # (3, C, K'): M*beta_k,c, beta_k,c^2*f_k,c and the SINR denominator
        # term, row c holding column c, so a selection's sums are one (3, K')
        # array.
        self.terms = terms

    # -- construction ------------------------------------------------------

    @classmethod
    def _assemble(cls, scenario, tables: GainTables, m_h, m_v, d_h, d_v) -> "RateModel":
        """Model over the columns of ``tables``, each an m_h x m_v element grid
        at spacings d_h, d_v, assembled block by block: only ``terms`` is a
        whole table. A block is computed over (K', w) grids by columns, where
        the sums over grids run down contiguous columns, and written
        transposed into its w rows of ``terms``.

        Each axis takes a cos and a sin of its lag-1 phase only, and forms
        every later lag from the one before by angle addition (module
        docstring). An axis lag of 0 has cos 1 and sin +-0 exactly, so it is
        neither taken nor formed: a lag on one axis only uses that axis's
        cos and sin as they are, where angle addition with 1 and +-0 would
        give the same values. (It could differ only in the sign of a zero
        sine, which no output can show: every term it reaches is added to a
        lag sum that starts at +0 or above. A phase of +-0 gives sin +-0 at
        every lag through the recurrence, as through libm.)
        """
        m = m_h * m_v
        grid_rows = tables.grid_rows
        rho = scenario.rho[grid_rows]
        pbar = scenario.snr_scale[grid_rows]
        kappa = tables.kappa
        a_seen, f_seen = rician_weights(kappa, m)
        n_rows, n_cols = tables.beta_los.shape

        terms = np.empty((3, n_cols, n_rows))
        sig_mean, sig_var, denom = terms
        power = (pbar * rho)[:, None]
        theta_h = 2.0 * np.pi * d_h / scenario.wavelength
        theta_v = 2.0 * np.pi * d_v / scenario.wavelength

        def assemble_block(c):
            """Fill the rows ``c`` of the three tables; its temporaries are
            freed on return, before the next block allocates its own."""
            xi, beta_los, u = tables.xi[:, c], tables.beta_los[:, c], tables.u[:, c]
            beta = xi * beta_los + beta_los / kappa
            m_beta = m * beta
            sig_mean[c] = m_beta.T
            sig_var[c] = (beta * beta * np.where(xi, f_seen, m)).T
            w = power * beta
            a = xi * a_seen
            wa = w * a
            others_wa = _others(wa)
            lag_sum = m * others_wa  # lag 0
            # Lag -l adds the same real term as lag l, so run the half plane
            # l_h > 0 or l_h = 0 < l_v at double weight.
            # cos/sin of each axis's lag 1 only: at most 4 transcendentals per
            # entry instead of 2*(M_h + M_v - 2). The vertical harmonics are
            # all held; each horizontal one is formed when its lag comes up.
            phase_h = theta_h * u[:, :, 1]
            phase_v = theta_v * u[:, :, 2]
            cos_v, sin_v = {}, {}
            if m_v > 1:
                cos_v[1], sin_v[1] = np.cos(phase_v), np.sin(phase_v)
            for lv in range(2, m_v):
                cv, sv = cos_v[lv - 1], sin_v[lv - 1]
                cos_v[lv] = cv * cos_v[1] - sv * sin_v[1]
                sin_v[lv] = sv * cos_v[1] + cv * sin_v[1]
            if m_h > 1:
                cos_h1, sin_h1 = np.cos(phase_h), np.sin(phase_h)
            del phase_h, phase_v
            for lh in range(m_h):
                if lh == 1:
                    cos_h, sin_h = cos_h1, sin_h1
                elif lh:
                    cos_h, sin_h = (cos_h * cos_h1 - sin_h * sin_h1,
                                    sin_h * cos_h1 + cos_h * sin_h1)
                for lv in range(1 - m_v if lh else 1, m_v):
                    weight = 2.0 * ((m_h - lh) * (m_v - abs(lv)))
                    if lv == 0:
                        cos, sin = cos_h, sin_h
                    elif lh == 0:
                        cos, sin = cos_v[lv], sin_v[lv]
                    elif lv > 0:
                        cv, sv = cos_v[lv], sin_v[lv]
                        cos = cos_h * cv - sin_h * sv
                        sin = sin_h * cv + cos_h * sv
                    else:  # a - b * -c is a + b * c bit for bit: no negated copy
                        cv, sv = cos_v[-lv], sin_v[-lv]
                        cos = cos_h * cv + sin_h * sv
                        sin = sin_h * cv - cos_h * sv
                    lag_sum += weight * (cos * _others(wa * cos) + sin * _others(wa * sin))
            interf = a * lag_sum
            interf += m * (_others(w) - a * others_wa)
            interf *= beta
            interf += m_beta
            denom[c] = interf.T

        # Blocks of even width, so that ``_others`` adds two columns a step.
        width = 2 * max(1, ASSEMBLY_BLOCK_BYTES // (16 * n_rows))
        for start in range(0, n_cols, width):
            assemble_block(slice(start, start + width))
        return cls(grid_rows, rho, pbar, terms)

    @classmethod
    def from_candidate_tables(cls, scenario: ScenarioConfig, gains: GainTables) -> "RateModel":
        """Model over all candidate positions, one row per gain-table row.

        Rows of grids with zero activation probability, when the tables
        carry them, stay in the model and contribute nothing.
        """
        if not np.any(scenario.rho[gains.grid_rows] > 0.0):
            raise ConfigurationError("no grids with positive activation probability")
        return cls._assemble(scenario, gains, scenario.m_h, scenario.m_v,
                             scenario.d_h, scenario.d_v)

    @classmethod
    def from_layout_stats(cls, scenario: ScenarioConfig, stats: LayoutStats) -> "RateModel":
        """Model whose columns are the subarrays of one concrete layout."""
        layout = stats.layout
        return cls._assemble(scenario, stats, layout.m_h, layout.m_v, layout.d_h, layout.d_v)

    # -- evaluation --------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return self.terms.shape[1]

    def sums(self, support) -> np.ndarray:
        """(3, K') sums of ``terms`` over the columns of ``support``, added
        in the support's order."""
        return self.terms[:, check_support(support, self.n_cols)].sum(axis=1)

    @staticmethod
    def log_rates(pbar, s_mean, s_var, s_den, out) -> np.ndarray:
        """log2(1 + SINR) of per-grid sums into ``out``, which it returns: the
        ratio-of-means SINR pbar * (s_mean^2 + s_var) / s_den, and rate 0
        wherever s_den is not > 0. The one closed-form SINR of every scorer."""
        np.multiply(s_mean, s_mean, out=out)
        out += s_var
        out *= pbar
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= s_den
        usable = np.greater(s_den, 0.0)
        np.copyto(out, 0.0, where=np.logical_not(usable, out=usable))
        out += 1.0
        return np.log2(out, out=out)

    def _weighted(self, rates):
        """The one weighted reduction: ``rates`` (..., K') times rho, summed
        over each contiguous K'-row, whatever rows lie beside it."""
        rates *= self.rho
        return rates.sum(axis=-1)

    def objective(self, sums):
        """Weighted sum rate of (3, ..., K') per-grid sums, one value per
        K'-row: a float for one selection's (3, K') sums."""
        return self._weighted(self.log_rates(self.pbar, *sums, out=np.empty(sums.shape[1:])))

    def weighted_sum(self, chi) -> float:
        return float(self.objective(self.sums(chi)))

    def weighted_upper_bound(self, chi) -> float:
        return float(self._weighted(np.log2(1.0 + self.pbar * self.sums(chi)[0])))

    def marginal_objective(self, kept=None, start=0) -> np.ndarray:
        """c[..., n]: the weighted sum rate of the per-grid sums ``kept``
        plus column ``start + n``, for every column from ``start`` on, with
        the bits of ``objective(kept + terms[:, start + n])``.

        ``kept`` is one (3, K') array of sums, such as
        ``SelectionState.without``, or a stack (3, H, K') of them, giving
        (H, C - start) values; None scores each column alone. The columns
        are scored in blocks of ``ASSEMBLY_BLOCK_BYTES`` per term over the
        stack, so no sums or rates are whole tables. Each block's sums are
        the kept sums copied, then the columns added.
        """
        if kept is not None and kept.ndim == 2:
            return self.marginal_objective(kept[:, None], start)[0]
        _, n_cols, n_rows = self.terms.shape
        heads = 1 if kept is None else kept.shape[1]
        values = np.empty((heads, n_cols - start))
        width = max(1, ASSEMBLY_BLOCK_BYTES // (8 * n_rows * heads))
        for first in range(start, n_cols, width):
            c = slice(first, first + width)
            sums = self.terms[:, None, c]
            if kept is not None:
                sums = np.empty(kept.shape[:2] + sums.shape[2:])
                sums[...] = kept[:, :, None]
                sums += self.terms[:, None, c]
            values[:, first - start : first - start + width] = self.objective(sums)
        return values if kept is not None else values[0]
