import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import active_gain_tables, make_scenario
from xlma.channel import (
    ArrayLayout,
    build_gain_tables,
    compute_layout_stats,
    sample_channel,
    steering_vector,
    support_layout,
)
from xlma.benchmarks import BENCHMARK_KINDS, fpa_layout
from xlma.errors import ConfigurationError, DomainError
from xlma.optimizer import SelectionState
from xlma.pipeline import context_from_document
from xlma.presets import PRESETS
from xlma.rate import RateModel, fejer_correlation, rician_weights
from xlma import rate as rate_module
from oracles import (assemble_angle_addition, assemble_row_loop, aux_f, aux_g, aux_kernels,
                     aux_q,
                     build_kernel_tables, grid_rate, grid_sinr, marginal_rate,
                     model_with_assembly, others_reference, upper_bound_rate)
from xlma.rng import substream

LAMBDA = 299792458.0 / 30e9


def build_model(sc, include_zero_rho=False):
    """Full-LoS model over the active grids, or over every grid."""
    rows = np.arange(sc.coverage.n_grids)
    if not include_zero_rho:
        rows = np.flatnonzero(sc.rho > 0)
    cands = sc.candidates()
    xi = np.ones((len(rows), len(cands)), dtype=np.uint8)
    gains = build_gain_tables(sc, cands, xi, rows)
    return RateModel.from_candidate_tables(sc, gains)


class TestFejer:
    def test_equal_directions_gives_m_squared(self):
        u = np.array([0.6, 0.48, 0.64]) / np.linalg.norm([0.6, 0.48, 0.64])
        val = fejer_correlation(u, u, 4, 2, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        assert val == pytest.approx(64.0)

    def test_single_antenna_is_one(self):
        assert fejer_correlation((1, 0, 0), (0, 1, 0), 1, 1, 0.01, 0.01, 0.02) == pytest.approx(1.0)

    def test_orthogonal_steering_zero(self):
        # m_h = 2, d = lambda/2, delta_u_y = 1 -> sin^2(pi)/sin^2(pi/2) = 0.
        val = fejer_correlation((0, 1, 0), (0, 0, 1), 2, 1, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        assert val == pytest.approx(0.0, abs=1e-18)

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
        st.integers(1, 5), st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_explicit_inner_product_and_symmetry(self, y1, z1, y2, z2, m_h, m_v):
        u1 = np.array([np.sqrt(max(0.0, 2 - y1 * y1 - z1 * z1)), y1, z1])
        u2 = np.array([np.sqrt(max(0.0, 2 - y2 * y2 - z2 * z2)), y2, z2])
        u1 /= np.linalg.norm(u1)
        u2 /= np.linalg.norm(u2)
        phi = fejer_correlation(u1, u2, m_h, m_v, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        phi_t = fejer_correlation(u2, u1, m_h, m_v, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        a1 = steering_vector(u1, m_h, m_v, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        a2 = steering_vector(u2, m_h, m_v, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        m = m_h * m_v
        assert phi == pytest.approx(phi_t, rel=1e-12, abs=1e-12)
        assert phi == pytest.approx(abs(np.vdot(a1, a2)) ** 2, rel=1e-9, abs=1e-9)
        assert -1e-9 <= phi <= m * m + 1e-9


class TestAuxKernels:
    def test_blocked_entry(self):
        m = 4
        assert aux_f(m, 0.0, 3.0, False) == pytest.approx(m)
        assert aux_g(0.0, 1.0, 3.0, 3.0, False) == pytest.approx(0.0)
        assert aux_q(m, 0.0, 0.0, 3.0, 3.0, False) == pytest.approx(m)

    def test_pure_los_limits(self):
        m = 4
        assert aux_f(m, 1.0, None, True) == pytest.approx(0.0)
        assert aux_g(1.0, 1.0, None, None, True) == pytest.approx(1.0)
        assert aux_g(1.0, 0.0, None, None, True) == pytest.approx(0.0)
        assert aux_q(m, 1.0, 1.0, None, None, True) == pytest.approx(0.0)

    def test_unit_rician_ratio(self):
        assert aux_f(4, 1.0, 1.0, False) == pytest.approx(3.0)  # 3M/4 with M = 4

    @pytest.mark.parametrize("kappa", [np.inf, 1e150, 100.0, 7.0, 1.0, 0.3, 1e-300])
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_one_rician_formula_has_the_bits_of_the_entrywise_one(self, kappa, m):
        """A = xi * A_seen and f = where(xi, f_seen, M) give the bits of
        kappa*xi/(kappa*xi + 1) and ``aux_f`` per entry, and kappa = inf
        gives pure LoS: A = xi, and f = 0 wherever beta can be nonzero."""
        xi = np.array([[1, 0], [0, 1]], np.uint8)
        a_seen, f_seen = rician_weights(kappa, m)
        f = np.where(xi, f_seen, m)
        if np.isinf(kappa):
            assert np.array_equal(xi * a_seen, xi)
            assert np.array_equal(f[xi == 1], np.zeros(2))
        else:
            assert np.array_equal(xi * a_seen, kappa * xi / (kappa * xi + 1.0))
            assert np.array_equal(f, aux_f(m, xi, kappa, False))

    def test_wrapper_shapes(self):
        b_los = np.array([1.0, 2.0])
        b_nlos = np.array([0.5, 0.5])
        xi = np.array([1.0, 0.0])
        f, g, q = aux_kernels(b_los, b_nlos, xi, b_los, b_nlos, xi, 4, False)
        assert f.shape == g.shape == q.shape == (2,)
        assert np.all(f >= 0) and np.all(f <= 4)
        assert np.all(g >= 0) and np.all(g <= 1)
        assert np.all(q >= 0) and np.all(q <= 8)


class TestKernelTables:
    def test_invariants_on_small_scenario(self):
        sc = make_scenario(n_y=6, k_x=2, k_y=2, kappa=10.0)
        cands = sc.candidates()
        xi = np.ones((4, 6), dtype=np.uint8)
        xi[1, ::2] = 0
        gains = build_gain_tables(sc, cands, xi, np.arange(4))
        tables = build_kernel_tables(sc, gains.beta_los, gains.beta_nlos,
                                     xi.astype(float), gains.u)
        tables.validate(sc.antennas_per_subarray)

    def test_budget_refusal(self):
        sc = make_scenario(n_y=6, k_x=2, k_y=2, kappa=10.0)
        cands = sc.candidates()
        xi = np.ones((4, 6), dtype=np.uint8)
        gains = build_gain_tables(sc, cands, xi, np.arange(4))
        with pytest.raises(ConfigurationError, match="budget"):
            build_kernel_tables(sc, gains.beta_los, gains.beta_nlos,
                                xi.astype(float), gains.u, budget=10)


def sample_stacked(sc, stats, draws, seed, chunk=20_000):
    """Draws of stacked channels for all modeled grids: (draws, G, M_total)."""
    g = len(stats.grid_rows)
    rng = substream(seed, "oracle")
    out = np.empty((draws, g, stats.total_antennas), complex)
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        rows = np.tile(np.arange(g), b)
        h = sample_channel(stats, rows, rng)  # (M, b*g)
        out[done : done + b] = h.T.reshape(b, g, stats.total_antennas)
        done += b
    return out


class TestMomentOracles:
    """Sampled channel moments against the closed forms they feed."""

    def setup_method(self):
        self.sc = make_scenario(n_y=8, k_x=2, k_y=2, m_h=4, m_v=1,
                                kappa=10.0, rho=[0.6, 0.4, 0.5, 0.3], seed=11)
        self.support = np.array([1, 4, 6])
        self.layout = support_layout(self.sc, self.support)
        self.stats = compute_layout_stats(self.sc, self.layout,
                                          grid_indices=np.arange(4))

    def test_second_and_fourth_moments(self):
        draws = 60_000
        h = sample_stacked(self.sc, self.stats, draws, seed=5)
        m = self.sc.antennas_per_subarray
        for s, (a, b) in enumerate(self.stats.slices):
            n2 = np.sum(np.abs(h[:, :, a:b]) ** 2, axis=2)  # (draws, G)
            bl = self.stats.beta_los[:, s]
            bn = self.stats.beta_nlos[:, s]
            xi = self.stats.xi[:, s].astype(float)
            bt = self.stats.beta_total[:, s]
            mean2 = m * bt
            mean4 = m * bn**2 + m * m * bt**2 + 2 * m * xi * bl * bn
            for g in range(4):
                se2 = n2[:, g].std(ddof=1) / np.sqrt(draws)
                assert abs(n2[:, g].mean() - mean2[g]) <= 3 * se2 + 1e-300
                sq = n2[:, g] ** 2
                se4 = sq.std(ddof=1) / np.sqrt(draws)
                assert abs(sq.mean() - mean4[g]) <= 3 * se4 + 1e-300

    def test_cross_moment_matches_kernel_assembly(self):
        # E|h_k^H h_i|^2 per subarray = beta_k beta_i (phi * g + q).
        draws = 60_000
        h = sample_stacked(self.sc, self.stats, draws, seed=6)
        st_ = self.stats
        m = self.sc.antennas_per_subarray
        kap = st_.beta_los / st_.beta_nlos
        for s, (a, b) in enumerate(st_.slices):
            for k, i in ((0, 1), (2, 3), (0, 3)):
                cross = np.abs(np.sum(h[:, k, a:b].conj() * h[:, i, a:b], axis=1)) ** 2
                phi = fejer_correlation(
                    st_.u[k, s], st_.u[i, s], self.sc.m_h, self.sc.m_v,
                    self.sc.d_h, self.sc.d_v, self.sc.wavelength,
                )
                g_ki = aux_g(st_.xi[k, s], st_.xi[i, s], kap[k, s], kap[i, s], False)
                q_ki = aux_q(m, st_.xi[k, s], st_.xi[i, s], kap[k, s], kap[i, s], False)
                closed = st_.beta_total[k, s] * st_.beta_total[i, s] * (phi * g_ki + q_ki)
                se = cross.std(ddof=1) / np.sqrt(draws)
                assert abs(cross.mean() - closed) <= 3 * se


class TestSinrRatioOfMeansOracle:
    def test_against_monte_carlo(self):
        """Closed-form SINR vs the sampled ratio of means, within 3%."""
        sc = make_scenario(n_y=16, k_x=3, k_y=2, m_h=4, m_v=1, kappa=10.0,
                           rho=[0.7, 0.5, 0.6, 0.4, 0.8, 0.3], seed=13)
        support = np.array([0, 7, 13])
        model = build_model(sc)
        layout = support_layout(sc, support)
        stats = compute_layout_stats(sc, layout, grid_indices=np.arange(6))
        draws = 100_000
        h = sample_stacked(sc, stats, draws, seed=21)
        pbar = sc.snr_scale
        rho = sc.rho
        for k in range(6):
            norm2 = np.sum(np.abs(h[:, k, :]) ** 2, axis=1)
            num = pbar[k] * np.mean(norm2**2)
            interf = 0.0
            for i in range(6):
                if i == k:
                    continue
                cross = np.abs(np.sum(h[:, k, :].conj() * h[:, i, :], axis=1)) ** 2
                interf += pbar[i] * rho[i] * cross.mean()
            gamma_mc = num / (interf + norm2.mean())
            gamma_closed = grid_sinr(model, support, k)
            assert abs(gamma_closed - gamma_mc) / gamma_mc < 0.03


def assert_matches_row_loop(constructor, sc, data):
    """``constructor(sc, data)`` against the same model from the row loop."""
    fast = constructor(sc, data)
    slow = model_with_assembly(assemble_row_loop, constructor, sc, data)
    for name, mine, theirs in zip(("sig_mean", "sig_var", "denom"), fast.terms, slow.terms):
        np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=0, err_msg=name)
    return fast, slow


def random_visibility_tables(sc, seed):
    """Gain tables over every grid and candidate, with random 0/1 visibility."""
    cands, rows = sc.candidates(), np.arange(sc.coverage.n_grids)
    xi = np.random.default_rng(seed).integers(0, 2, (len(rows), len(cands)), dtype=np.uint8)
    return build_gain_tables(sc, cands, xi, rows)


def with_visibility(stats, xi):
    """Layout statistics with ``xi`` as the visibility."""
    return dataclasses.replace(stats, xi=xi)


# Element grids (m_h, m_v, d_h / lambda, d_v / lambda), each checked as the
# one grid of a uniform layout.
ELEMENT_GRIDS = {
    "4x1": (4, 1, 0.5, 0.5),
    "2x3": (2, 3, 1.0, 0.5),
    "64x1": (64, 1, 0.5, 0.5),
    "1x1": (1, 1, 0.5, 0.5),
    "1x4": (1, 4, 0.5, 1.0),
    "16x1": (16, 1, 0.5, 0.5),
    "3x5": (3, 5, 0.7, 1.3),
    "128x1": (128, 1, 0.5, 0.5),  # the longest lag chain of any preset (dense_ula)
}
element_grids = pytest.mark.parametrize(
    "grid", ELEMENT_GRIDS.values(), ids=ELEMENT_GRIDS.keys())


def grid_layout(sc, centers, grid):
    """Layout of ``centers``, each carrying the element grid ``grid`` of
    ``ELEMENT_GRIDS``."""
    m_h, m_v, d_h, d_v = grid
    return ArrayLayout(centers, m_h, m_v, d_h * sc.wavelength, d_v * sc.wavelength)


def random_unit_vectors(rng, shape):
    u = rng.normal(size=shape + (3,))
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


class TestLagDomainAssembly:
    """The lag-domain interference assembly against the pair-by-pair row loop."""

    @pytest.mark.parametrize("kappa", [np.inf, 7.0])
    @pytest.mark.parametrize("m_h, m_v", [(4, 1), (3, 2), (8, 4)])
    def test_candidate_tables_match_row_loop(self, kappa, m_h, m_v):
        rho = np.random.default_rng(m_h).uniform(0.05, 1.0, 12)
        sc = make_scenario(n_y=9, n_z=3, k_x=3, k_y=4, m_h=m_h, m_v=m_v,
                           kappa=kappa, rho=rho, seed=m_v)
        assert_matches_row_loop(RateModel.from_candidate_tables, sc,
                                random_visibility_tables(sc, seed=m_h))

    @pytest.mark.parametrize("kappa", [np.inf, 7.0])
    @element_grids
    def test_layout_element_grid_matches_row_loop(self, kappa, grid):
        rho = np.random.default_rng(3).uniform(0.05, 1.0, 12)
        sc = make_scenario(k_x=3, k_y=4, kappa=kappa, rho=rho)
        centers = [(0.0, -15.0, 15.0), (0.0, -5.0, 15.0), (0.0, 5.0, 15.0),
                   (0.0, 15.0, 15.0), (0.0, 15.0, 25.0)]
        stats = compute_layout_stats(sc, grid_layout(sc, centers, grid),
                                     grid_indices=np.arange(12))
        xi = np.random.default_rng(4).integers(0, 2, stats.xi.shape).astype(np.uint8)
        xi[:, 2] = 1  # every grid sees subarray 2
        assert_matches_row_loop(RateModel.from_layout_stats, sc, with_visibility(stats, xi))

    @pytest.mark.parametrize("kappa", [np.inf, 7.0])
    @pytest.mark.parametrize("grid", [(4, 2, 0.5, 0.5), (5, 1, 1.0, 0.5), (3, 3, 1.0, 1.0)],
                             ids=["4x2", "5x1", "3x3"])
    def test_fejer_singular_points_match_row_loop(self, kappa, grid):
        # Grids 0 and 1 share every wave vector; grid 2 (horizontally) and
        # grid 3 (in both axes) sit lambda/d or 2*lambda/d away from grid 0
        # in some columns, where sin(x) in the kernel's closed form is 0 to
        # rounding: column 0 for d = lambda/2, every column for d = lambda.
        sc = make_scenario(k_x=3, k_y=2, kappa=kappa, rho=[0.5, 0.4, 0.7, 0.3, 0.6, 0.2])
        centers = [(0.0, -10.0, 15.0), (0.0, 0.0, 15.0), (0.0, 10.0, 15.0)]
        stats = compute_layout_stats(sc, grid_layout(sc, centers, grid),
                                     grid_indices=np.arange(6))
        u = random_unit_vectors(np.random.default_rng(8), (6, 3))
        r = np.sqrt(0.5)
        u[0] = [[0.0, 1.0, 0.0], [np.sqrt(0.75), 0.5, 0.0], [r, 0.5, 0.5]]
        u[1] = u[0]
        u[2] = [[0.0, -1.0, 0.0], [np.sqrt(0.75), -0.5, 0.0], [r, -0.5, 0.5]]
        u[3] = [[0.0, 1.0, 0.0], [np.sqrt(0.75), -0.5, 0.0], [r, -0.5, -0.5]]
        stats = dataclasses.replace(with_visibility(stats, np.ones((6, 3), np.uint8)), u=u)
        fast, slow = assert_matches_row_loop(RateModel.from_layout_stats, sc, stats)
        assert np.all(fast.terms[2] > fast.terms[0])

    def test_dominant_grid_matches_row_loop(self):
        # Grid 7 carries 1e6 times the weight of any other grid, at a per-
        # element SNR near 1e5: its own term is about 1e5 times the rest of
        # its interference, so a total-minus-self sum would lose ~5 digits.
        rho = np.full(20, 1e-6)
        rho[7] = 1.0
        sc = make_scenario(n_y=16, k_x=4, k_y=5, m_h=8, kappa=10.0, rho=rho,
                           tx_power_mw=3.1622776601683795e6)
        gains = build_gain_tables(sc, sc.candidates(), np.ones((20, 16), np.uint8),
                                  np.arange(20))
        assert_matches_row_loop(RateModel.from_candidate_tables, sc, gains)

    def test_pure_los_error_within_stated_bound(self):
        # Without the incoherent floor, a strong interferer near a kernel
        # null can leave the denominator smaller than the lag sums' absolute
        # rounding, a few ulps of beta_k * M^2 * sum_i w_i per column (seen:
        # 4.7e-12 relative here). Bound the error by 8 ulps of that plus the
        # denominator itself.
        rho = np.full(20, 1e-6)
        rho[7] = 1.0
        sc = make_scenario(n_y=16, k_x=4, k_y=5, m_h=8, kappa=np.inf, rho=rho,
                           tx_power_mw=3.1622776601683795e6)
        gains = build_gain_tables(sc, sc.candidates(), np.ones((20, 16), np.uint8),
                                  np.arange(20))
        fast = RateModel.from_candidate_tables(sc, gains)
        slow = model_with_assembly(assemble_row_loop, RateModel.from_candidate_tables,
                                   sc, gains)
        w_sum = (sc.snr_scale[:20] * rho) @ gains.beta_total
        bound = 8 * np.finfo(float).eps * (64 * gains.beta_total * w_sum + slow.terms[2].T)
        assert np.all(np.abs(fast.terms[2] - slow.terms[2]).T <= bound)

    def test_zero_gain_columns_give_exact_zero_denominators(self):
        # Pure LoS: a blocked entry has no gain at all (beta = 0), and columns
        # 1 and 6 are blocked for every grid.
        sc = make_scenario(n_y=10, k_x=3, k_y=3, kappa=np.inf, rho=np.linspace(0.2, 0.9, 9))
        xi = np.random.default_rng(2).integers(0, 2, (9, 10), dtype=np.uint8)
        xi[:, [1, 6]] = 0
        gains = build_gain_tables(sc, sc.candidates(), xi, np.arange(9))
        assert np.all(gains.beta_total[xi == 0] == 0.0)
        fast, slow = assert_matches_row_loop(RateModel.from_candidate_tables, sc, gains)
        assert np.all(fast.terms[2][xi.T == 0] == 0.0) and np.all(slow.terms[2][xi.T == 0] == 0.0)

    @pytest.mark.parametrize("kappa", [np.inf, 7.0])
    def test_any_block_width_matches_one_block_exactly(self, monkeypatch, kappa):
        sc = make_scenario(n_y=11, n_z=2, k_x=4, k_y=5, m_h=3, m_v=2, kappa=kappa,
                           rho=np.random.default_rng(6).uniform(0.1, 1.0, 20), seed=6)
        gains = random_visibility_tables(sc, seed=6)
        monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", 10**12)
        whole = RateModel.from_candidate_tables(sc, gains)
        for width in (1, 2, 3):
            monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", 8 * 20 * width)
            blocked = RateModel.from_candidate_tables(sc, gains)
            assert np.array_equal(blocked.terms, whole.terms), width


def assert_same_bits(constructor, sc, data):
    """``constructor(sc, data)`` equals, sign bits included, the same model
    assembled with angle addition at every axis lag."""
    fast = constructor(sc, data)
    slow = model_with_assembly(assemble_angle_addition, constructor, sc, data)
    for name, mine, theirs in zip(("sig_mean", "sig_var", "denom"), fast.terms, slow.terms):
        assert mine.dtype == theirs.dtype == np.float64, name
        assert np.array_equal(mine.view(np.int64), theirs.view(np.int64)), name


def with_zero_wave_components(data, seed):
    """``data`` with about a third of its wave vectors' y and z components
    set to +0 or -0 exactly, where a sine of the phase is a signed zero."""
    rng = np.random.default_rng(seed)
    u = data.u.copy()
    for axis in (1, 2):
        hit = rng.random(u.shape[:2]) < 1 / 3
        u[..., axis][hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return dataclasses.replace(data, u=u)


class TestAxisLagZero:
    """The assembly takes no cos or sin of an axis lag of 0 and joins no
    angles with it; the outputs keep every bit of full angle addition."""

    @pytest.mark.parametrize("kappa", [np.inf, 7.0])
    @pytest.mark.parametrize("m_h, m_v", [(1, 1), (4, 1), (1, 4), (4, 4), (3, 2)])
    def test_candidate_tables(self, kappa, m_h, m_v):
        rho = np.random.default_rng(m_h).uniform(0.05, 1.0, 12)
        sc = make_scenario(n_y=9, n_z=3, k_x=3, k_y=4, m_h=m_h, m_v=m_v,
                           kappa=kappa, rho=rho, seed=m_v)
        gains = random_visibility_tables(sc, seed=m_h)
        assert_same_bits(RateModel.from_candidate_tables, sc, gains)
        zeros = with_zero_wave_components(gains, seed=m_v)
        assert np.any(np.signbit(zeros.u[..., 1][zeros.u[..., 1] == 0.0]))
        assert_same_bits(RateModel.from_candidate_tables, sc, zeros)

    @pytest.mark.parametrize("kappa", [np.inf, 7.0])
    @element_grids
    def test_layout_element_grid(self, kappa, grid):
        rho = np.random.default_rng(3).uniform(0.05, 1.0, 12)
        sc = make_scenario(k_x=3, k_y=4, kappa=kappa, rho=rho)
        centers = [(0.0, -15.0, 15.0), (0.0, -5.0, 15.0), (0.0, 0.0, 15.0),
                   (0.0, 5.0, 15.0), (0.0, 15.0, 15.0), (0.0, 15.0, 25.0)]
        stats = compute_layout_stats(sc, grid_layout(sc, centers, grid),
                                     grid_indices=np.arange(12))
        xi = np.random.default_rng(4).integers(0, 2, stats.xi.shape).astype(np.uint8)
        stats = with_visibility(stats, xi)
        assert_same_bits(RateModel.from_layout_stats, sc, stats)
        assert_same_bits(RateModel.from_layout_stats, sc,
                         with_zero_wave_components(stats, seed=5))

    def test_grids_level_with_the_candidates(self):
        # Grid centers at y = 0 and z = 15 face candidates at y = 0 and z = 15
        # head on, so their wave vectors have y and z components of exactly 0.
        sc = make_scenario(n_y=5, n_z=1, k_x=3, k_y=3, m_h=3, m_v=3, kappa=7.0,
                           y_half=20.0)
        sc = dataclasses.replace(
            sc, coverage=dataclasses.replace(sc.coverage, z_min=15.0, z_max=15.0))
        gains = build_gain_tables(sc, sc.candidates(), np.ones((9, 5), np.uint8),
                                  np.arange(9))
        assert np.sum((gains.u[..., 1] == 0.0) & (gains.u[..., 2] == 0.0)) >= 3
        assert_same_bits(RateModel.from_candidate_tables, sc, gains)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets(self, preset):
        ctx = context_from_document(PRESETS[preset]())
        assert_same_bits(RateModel.from_candidate_tables, ctx.scenario,
                         active_gain_tables(ctx.scenario))
        for kind in BENCHMARK_KINDS:
            try:
                layout = fpa_layout(kind, ctx.scenario)
            except ConfigurationError:
                continue
            assert_same_bits(RateModel.from_layout_stats, ctx.scenario,
                             ctx.layout_stats(layout))


def _others_inputs(rows, width, seed):
    """(rows, width) entries spanning 1e-300 to 1e300, with +0 and -0, and
    in about half the columns one of NaN, -NaN, inf, -inf or an inf and a
    -inf pair. A column holds at most one NaN: where two NaNs meet, IEEE 754
    does not say whose sign survives."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    x[rng.random((rows, width)) < 0.15] = 0.0
    x[rng.random((rows, width)) < 0.15] = -0.0
    for column in x.T:
        at = rng.permutation(rows)
        kind = rng.integers(6)
        if kind < 4:
            column[at[0]] = (np.nan, -np.nan, np.inf, -np.inf)[kind]
        elif kind == 4 and rows > 1:
            column[at[:2]] = np.inf, -np.inf
    return x


class TestOthers:
    """``_others`` against the float prefix and suffix sums, every bit
    included: sign bits of zeros and NaN, infinities and overflow."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 12])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 1250])
    def test_bits_equal_float_sums(self, rows, width):
        for seed in range(4):
            x = _others_inputs(rows, width, seed)
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = rate_module._others(x), others_reference(x)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), seed

    @pytest.mark.parametrize("order", ["F", "strided"])
    def test_rows_not_c_contiguous(self, order):
        """Even-width input without C-contiguous rows, which numpy cannot
        view as complex, takes the float sums."""
        x = _others_inputs(12, 8, 0)
        x = np.asfortranarray(x) if order == "F" else x[:, ::2]
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = rate_module._others(x), others_reference(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("width", [1, 4, 5])
    def test_dominant_row(self, width):
        x = np.random.default_rng(width).uniform(1e-12, 1e-11, (12, width))
        x[5] = 1e12
        got, want = rate_module._others(x), others_reference(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.all(got[5] < 1e-9)

    @pytest.mark.parametrize("block_bytes", [8 * 20 * 2, 8 * 20 * 4, 8 * 20 * 7])
    def test_even_blocks_with_an_odd_column_count(self, monkeypatch, block_bytes):
        """21 columns in even blocks leave an odd last block, which keeps the
        float sums; every block equals one whole-table block."""
        sc = make_scenario(n_y=7, n_z=3, k_x=4, k_y=5, m_h=3, m_v=2, kappa=7.0,
                           rho=np.random.default_rng(2).uniform(0.1, 1.0, 20), seed=2)
        gains = random_visibility_tables(sc, seed=2)
        monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", 10**12)
        whole = RateModel.from_candidate_tables(sc, gains)
        monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", block_bytes)
        blocked = RateModel.from_candidate_tables(sc, gains)
        assert np.array_equal(blocked.terms.view(np.uint64), whole.terms.view(np.uint64))


class TestAssemblyMemory:
    def test_peak_memory_at_full_scale(self):
        """paper_full_scale_3d_type1's model (12 rows by 3030 columns, 4 x 4
        subarrays): the tracemalloc peak of the assembly stays under that of
        one float add chain per column, with each block's temporaries kept
        into the next: 4,014,412 bytes, the least of four runs with numpy
        2.4.6."""
        ctx = context_from_document(PRESETS["paper_full_scale_3d_type1"]())
        gains = active_gain_tables(ctx.scenario)
        RateModel.from_candidate_tables(ctx.scenario, gains)
        tracemalloc.start()
        try:
            model = RateModel.from_candidate_tables(ctx.scenario, gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(model.terms, ctx.model.terms)
        assert peak < 4_014_412


class TestRateModel:
    def test_single_active_grid_pure_los_collapse(self):
        sc = make_scenario(n_y=8, k_x=2, k_y=1, kappa=np.inf, rho=[0.9, 0.0])
        model = build_model(sc)
        support = np.array([0, 3, 5])
        m = sc.antennas_per_subarray
        gains_sum = model.terms[0, support, 0].sum()  # = M * sum(beta)
        expected = sc.snr_scale[0] * gains_sum
        assert grid_sinr(model, support, 0) == pytest.approx(expected, rel=1e-12)
        assert model.weighted_sum(support) == pytest.approx(0.9 * np.log2(1.0 + expected),
                                                            rel=1e-12)

    def test_zero_power_gives_zero_sinr(self):
        rates = RateModel.log_rates(np.array([0.0, 2.0]), np.ones(2), np.full(2, 0.5),
                                    np.full(2, 2.0), out=np.empty(2))
        assert rates[0] == 0.0 and rates[1] == np.log2(2.5)

    def test_log_rates_zero_unless_denominator_positive(self):
        s_den = np.array([0.0, -0.0, -1.0, np.nan, 4.0])
        rates = RateModel.log_rates(np.full(5, 3.0), np.ones(5), np.ones(5), s_den,
                                    out=np.empty(5))
        assert np.array_equal(rates, [0.0, 0.0, 0.0, 0.0, np.log2(2.5)])

    def test_empty_support_rejected(self):
        sc = make_scenario()
        model = build_model(sc)
        with pytest.raises(DomainError):
            model.weighted_sum(np.zeros(model.n_cols, dtype=int))

    def test_marginal_rate_equals_single_support(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=8.0,
                           rho=[0.4, 0.6, 0.2, 0.7], seed=5)
        model = build_model(sc)
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(0, model.n_cols))
            k = int(model.grid_rows[rng.integers(0, len(model.grid_rows))])
            # Weight 1 on grid k and 0 elsewhere: the weighted sum is grid k's rate.
            one_hot = RateModel(model.grid_rows, model.grid_rows == k, model.pbar,
                                model.terms)
            assert marginal_rate(model, n, k) == pytest.approx(
                one_hot.weighted_sum([n]), rel=1e-14
            )

    def test_marginal_objective_is_vectorized_sum(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=8.0,
                           rho=[0.4, 0.6, 0.2, 0.7], seed=5)
        model = build_model(sc)
        c = model.marginal_objective()
        for n in (0, 3, 9):
            manual = sum(
                sc.rho[k] * marginal_rate(model, n, int(k))
                for k in model.grid_rows
            )
            assert c[n] == pytest.approx(manual, rel=1e-12)

    def test_upper_bound_dominates_and_collapses(self):
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=10.0,
                           rho=[0.5, 0.5, 0.5, 0.5])
        model = build_model(sc)
        support = np.array([0, 4])
        for k in model.grid_rows:
            assert upper_bound_rate(model, support, int(k)) >= grid_rate(model, support, int(k))
        # Pure LoS, no interferers: bound is exact.
        sc2 = make_scenario(n_y=8, k_x=1, k_y=1, kappa=np.inf, rho=[1.0])
        model2 = build_model(sc2)
        assert upper_bound_rate(model2, support, 0) == pytest.approx(
            model2.weighted_sum(support), rel=1e-12
        )
        assert model2.weighted_upper_bound(support) == pytest.approx(
            model2.weighted_sum(support), rel=1e-12
        )

    def test_upper_bound_monotone_in_support(self):
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=10.0, rho=[0.5] * 4)
        model = build_model(sc)
        small = upper_bound_rate(model, np.array([1, 3]), int(model.grid_rows[0]))
        big = upper_bound_rate(model, np.array([1, 3, 6]), int(model.grid_rows[0]))
        assert big >= small

    def test_scale_consistency(self):
        base = make_scenario(n_y=8, k_x=2, k_y=2, kappa=6.0, rho=[0.5] * 4)
        scaled = make_scenario(n_y=8, k_x=2, k_y=2, kappa=6.0, rho=[0.5] * 4,
                               tx_power_mw=7.3 * 3.1622776601683795,
                               noise_mw=7.3 * 1e-8)
        m1, m2 = build_model(base), build_model(scaled)
        support = np.array([0, 2, 7])
        for k in m1.grid_rows:
            assert grid_sinr(m1, support, int(k)) == pytest.approx(
                grid_sinr(m2, support, int(k)), rel=1e-12
            )
        assert m1.weighted_sum(support) == pytest.approx(m2.weighted_sum(support), rel=1e-12)

    def test_rate_depends_on_support_only(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=9.0, rho=[0.5] * 4)
        model = build_model(sc)
        a = model.weighted_sum(np.array([2, 5, 8]))
        b = model.weighted_sum(np.array([8, 2, 5]))
        assert a == pytest.approx(b, rel=1e-15)

    def test_weighted_sum_permutation_invariance(self):
        # Uniform rho: permuting grid identities leaves the sum unchanged.
        rho = [0.5, 0.5, 0.5, 0.5]
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=7.0, rho=rho)
        model = build_model(sc)
        support = np.array([1, 6])
        total = model.weighted_sum(support)
        manual = sum(0.5 * grid_rate(model, support, int(k)) for k in model.grid_rows)
        assert total == pytest.approx(manual, rel=1e-12)

    def test_zero_rho_grids_pruned_exactly(self):
        rho_full = [0.5, 0.0, 0.25, 0.0]
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=7.0, rho=rho_full)
        pruned = build_model(sc)
        full = build_model(sc, include_zero_rho=True)
        support = np.array([0, 5])
        assert pruned.weighted_sum(support) == pytest.approx(
            full.weighted_sum(support), rel=1e-12
        )
        assert 1 not in pruned.grid_rows and 1 in full.grid_rows

    @pytest.mark.parametrize("support", [[-1], [2, 2, 2], [8], [0, 9], [5.7], [1.5, 3.0],
                                         [True, True]])
    def test_bad_support_indices_rejected(self, support):
        sc = make_scenario(n_y=8, n_subarrays=2)
        model = build_model(sc)
        with pytest.raises(DomainError):
            model.weighted_sum(support)
        with pytest.raises(DomainError):
            SelectionState(model, support)

    def test_support_is_an_index_list_never_a_mask(self):
        # With N0 = 2, [0, 1] is the two-column support, in either order; a
        # mask reading would score it as [1] (1.4398).
        sc = make_scenario(n_y=2, n_subarrays=2)
        model = build_model(sc)
        assert model.weighted_sum([0, 1]) == pytest.approx(2.3560, abs=1e-4)
        assert model.weighted_sum([1, 0]) == model.weighted_sum([0, 1])
        assert model.weighted_sum([1]) == pytest.approx(1.4398, abs=1e-4)

    def test_column_blocks_match_one_block_exactly(self, monkeypatch):
        sc = make_scenario(n_y=11, k_x=2, k_y=2, kappa=7.0,
                           rho=[0.6, 0.4, 0.3, 0.5], seed=5)
        xi = np.random.default_rng(5).integers(0, 2, (4, 11), dtype=np.uint8)
        gains = build_gain_tables(sc, sc.candidates(), xi, np.arange(4))
        monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", 10**12)
        whole = RateModel.from_candidate_tables(sc, gains)
        monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", 8 * 4 * 3)
        blocked = RateModel.from_candidate_tables(sc, gains)  # blocks 3, 3, 3, 2
        assert np.array_equal(blocked.terms, whole.terms)

    def test_support_state_incremental_matches_direct(self):
        sc = make_scenario(n_y=12, k_x=2, k_y=2, kappa=10.0,
                           rho=[0.6, 0.4, 0.3, 0.5], seed=2)
        model = build_model(sc)
        state = SelectionState(model, [0, 4, 8])
        direct = model.weighted_sum(np.array([0, 9, 8]))
        state.replace(1, 9, direct)
        assert state.n_mu == [0, 9, 8] and state.replaced_slots == {1}
        assert model.objective(state.sums) == pytest.approx(direct, rel=1e-12)
        assert model.objective(state.without(9)) == pytest.approx(
            model.weighted_sum(np.array([0, 8])), rel=1e-12
        )


class TestMarginalObjective:
    """Block-by-block column scores against the whole-table formula."""

    @pytest.fixture(scope="class", params=[np.inf, 7.0], ids=["los", "rician"])
    def model(self, request):
        # 60 grids x 120 candidates; random visibility leaves pure-LoS
        # columns that some grids do not see (zero sums, SINR 0).
        sc = make_scenario(n_y=40, n_z=3, k_x=6, k_y=10, kappa=request.param,
                           rho=np.linspace(0.05, 0.9, 60), seed=4)
        return RateModel.from_candidate_tables(sc, random_visibility_tables(sc, 4))

    @staticmethod
    def whole_table(model, kept):
        s_mean, s_var, s_den = model.terms if kept is None else kept[:, None] + model.terms
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = model.pbar * (s_mean**2 + s_var) / s_den
        return (model.rho * np.log2(1.0 + np.where(s_den > 0.0, gamma, 0.0))).sum(axis=1)

    @pytest.mark.parametrize("width", [1, 3, None], ids=["w1", "w3", "default"])
    @pytest.mark.parametrize("selection", [None, [3, 50, 119]], ids=["alone", "kept"])
    def test_equals_whole_table_formula_bit_for_bit(self, monkeypatch, model, width,
                                                    selection):
        if width is not None:
            monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", 8 * 60 * width)
        kept = None
        if selection is not None:
            kept = SelectionState(model, selection).without(50)
        expected = self.whole_table(model, kept)
        if model.terms[1].max() == 0.0 and kept is None:  # pure LoS
            assert (model.terms[2] == 0.0).any()
        assert np.array_equal(model.marginal_objective(kept), expected)

    @pytest.mark.parametrize("width", [1, 3, None], ids=["w1", "w3", "default"])
    def test_stacked_sums_from_every_start_bit_for_bit(self, monkeypatch, model, width):
        """Value (h, n) of a (3, H, K') stack from ``start`` has the bits of
        ``objective`` of sums h plus column start + n; one (3, K') set of sums
        scores as a stack of one."""
        if width is not None:
            monkeypatch.setattr(rate_module, "ASSEMBLY_BLOCK_BYTES", 8 * 60 * width)
        rng = np.random.default_rng(7)
        n_cols = model.n_cols
        stack = np.stack([model.sums(rng.choice(n_cols, 3, replace=False)) for _ in range(5)],
                         axis=1)
        expected = np.array([[model.objective(stack[:, h] + model.terms[:, n])
                              for n in range(n_cols)] for h in range(5)])
        for start in range(n_cols):
            scores = model.marginal_objective(stack, start)
            assert scores.shape == (5, n_cols - start)
            assert np.array_equal(scores, expected[:, start:])
            assert np.array_equal(model.marginal_objective(stack[:, 2], start), scores[2])

    def test_each_score_is_the_weighted_sum_of_its_selection(self, model):
        state = SelectionState(model, [3, 50, 119])
        scores = model.marginal_objective(state.without(50))
        for n in (0, 50, 77):
            assert scores[n] == pytest.approx(model.weighted_sum([3, 119, n]), rel=1e-12)
