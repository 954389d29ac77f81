import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import make_scenario
from xlma.channel import (
    ArrayLayout,
    build_gain_tables,
    channel_from_draws,
    check_support,
    compute_layout_stats,
    draw_realization,
    los_path_gain,
    sample_activation,
    sample_channel,
    steering_vector,
    support_layout,
    wave_vectors,
)
from xlma.errors import ConfigurationError, DomainError
from xlma.rng import substream
from oracles import validate_gain_tables, wave_vector, wave_vectors_broadcast

LAMBDA = 299792458.0 / 30e9


class TestWaveVector:
    def test_axis_aligned(self):
        np.testing.assert_allclose(wave_vector((1, 0, 0), (0, 0, 0)), [1, 0, 0])

    def test_normalization(self):
        np.testing.assert_allclose(
            wave_vector((1, 1, 0), (0, 0, 0)), [1 / np.sqrt(2), 1 / np.sqrt(2), 0]
        )

    def test_coincident_points(self):
        with pytest.raises(DomainError):
            wave_vector((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("case", ["scenario", "scattered", "one_target"])
    def test_planes_equal_broadcast_form(self, case):
        """``wave_vectors`` forms u plane by plane; every bit of u and the
        distance is that of the broadcast (T, S, 3) form."""
        if case == "scenario":
            sc = make_scenario(n_y=10)
            targets, sources = sc.grid_centers(), sc.candidates()
        else:
            rng = substream(3, "wave-vectors")
            targets = rng.normal(size=(7, 3)) * np.logspace(-3, 3, 7)[:, None]
            sources = rng.normal(size=(11, 3)) * 10.0
            if case == "one_target":
                targets = targets[2]
        for got, want in zip(wave_vectors(targets, sources),
                             wave_vectors_broadcast(targets, sources)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_coincident_pair_rejected(self):
        with pytest.raises(DomainError, match="coincident"):
            wave_vectors([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], [[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])


class TestSteeringVector:
    def test_single_element(self):
        np.testing.assert_allclose(steering_vector((1, 0, 0), 1, 1, 0.01, 0.01, 1.0), [1.0])

    def test_broadside_all_ones(self):
        a = steering_vector((1, 0, 0), 3, 2, 0.01, 0.01, 0.02)
        np.testing.assert_allclose(a, np.ones(6))

    def test_endfire_alternates(self):
        a = steering_vector((0, 1, 0), 2, 1, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    @given(st.floats(-1, 1), st.floats(-1, 1), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_unit_modulus_and_norm(self, uy, uz, m_h, m_v):
        ux = np.sqrt(max(0.0, 1 - uy * uy - uz * uz))
        a = steering_vector((ux, uy, uz), m_h, m_v, LAMBDA / 2, LAMBDA / 2, LAMBDA)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.vdot(a, a).real == pytest.approx(m_h * m_v, abs=1e-9)


class TestLosPathGain:
    def test_formula_fixed_point(self):
        lam = 0.02
        assert los_path_gain(lam / (4 * np.pi), lam) == pytest.approx(1.0)

    def test_frozen_value(self):
        # (0.01 / (400 pi))^2 evaluated independently.
        assert los_path_gain(100.0, 0.01) == pytest.approx(6.332573977646111e-11, rel=1e-12)

    def test_inverse_square(self):
        assert los_path_gain(10.0, 0.01) / los_path_gain(20.0, 0.01) == pytest.approx(4.0)

    def test_nonpositive_distance(self):
        with pytest.raises(DomainError):
            los_path_gain(0.0, 0.01)


class TestGainTables:
    def test_pure_los(self):
        sc = make_scenario(kappa=np.inf)
        cands, rows = sc.candidates(), np.arange(sc.coverage.n_grids)
        xi = np.ones((len(rows), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, xi, rows)
        validate_gain_tables(tables)
        assert np.all(tables.beta_nlos == 0)
        np.testing.assert_allclose(tables.beta_total, tables.beta_los)

    def test_blocked_with_finite_kappa(self):
        sc = make_scenario(kappa=10.0)
        cands, rows = sc.candidates(), np.arange(sc.coverage.n_grids)
        xi = np.zeros((len(rows), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, xi, rows)
        np.testing.assert_allclose(tables.beta_total, tables.beta_los / 10.0)

    def test_kappa_20db(self):
        sc = make_scenario(kappa=100.0)
        cands, rows = sc.candidates(), np.arange(sc.coverage.n_grids)
        xi = np.ones((len(rows), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, xi, rows)
        np.testing.assert_allclose(tables.beta_nlos, tables.beta_los / 100.0)

    def test_unit_wave_vectors(self):
        sc = make_scenario()
        cands, rows = sc.candidates(), np.arange(sc.coverage.n_grids)
        xi = np.ones((len(rows), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, xi, rows)
        np.testing.assert_allclose(np.linalg.norm(tables.u, axis=-1), 1.0, atol=1e-12)


class TestLayouts:
    def test_element_positions_centered(self):
        centers = [(0.0, 1.0, 2.0), (0.0, -3.0, 5.0)]
        pos = ArrayLayout(centers, m_h=2, m_v=2, d_h=0.4, d_v=0.6).element_positions()
        assert pos.shape == (2, 4, 3)
        np.testing.assert_allclose(pos.mean(axis=1), centers)
        np.testing.assert_allclose(pos[1] - pos[0], [(0.0, -4.0, 3.0)] * 4)

    def test_support_layout_matches_candidates(self):
        sc = make_scenario(n_y=10)
        layout = support_layout(sc, [0, 5])
        np.testing.assert_allclose(layout.centers, sc.candidates()[[0, 5]])
        assert (layout.m_h, layout.m_v, layout.d_h, layout.d_v) == (sc.m_h, sc.m_v,
                                                                    sc.d_h, sc.d_v)
        assert layout.n_antennas == sc.antennas_per_subarray

    @pytest.mark.parametrize("support", [[-1], [2, 2], [True, False], [], [10], [[0, 1]]])
    def test_support_layout_checks_indices(self, support):
        # Unchecked, -1 would wrap to the last candidate and [2, 2] would
        # stack two subarrays on one candidate.
        with pytest.raises(DomainError):
            support_layout(make_scenario(n_y=10), support)

    @pytest.mark.parametrize("centers", [np.empty((0, 3)), [0.0, 1.0, 2.0], [(0.0, 1.0)]])
    def test_malformed_centers_rejected(self, centers):
        with pytest.raises(ConfigurationError):
            ArrayLayout(centers, 1, 1, 0.5, 0.5)

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in ("m_h", "m_v")
          for value in (0, -1, 2.5, True, np.nan, "2", None)),
        *((name, value) for name in ("d_h", "d_v")
          for value in (0.0, -0.1, np.nan, np.inf, 1e300, 2e6, True, "0.5", None)),
    ])
    def test_bad_element_grid_named(self, name, value):
        # Left unread, a NaN d_h scores approx_mrc 0.0, m_h = 0 scores (0.0, 0.0)
        # and d_h = -0.1 lets two subarrays 5 cm apart pass the overlap check.
        grid = {"m_h": 2, "m_v": 2, "d_h": 0.1, "d_v": 0.1, name: value}
        with pytest.raises(ConfigurationError, match=rf"^'{name}' must (be|lie in)"):
            ArrayLayout([(0.0, 0.0, 0.0), (0.0, 0.05, 0.0)], **grid)

    def test_spacing_at_the_coordinate_bound_is_kept(self):
        layout = ArrayLayout([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], 2, 2, 1e6, 1e6)
        assert (layout.d_h, layout.d_v) == (1e6, 1e6)

    def test_element_grid_kept_as_int_and_float(self):
        layout = ArrayLayout([(0.0, 0.0, 0.0)], m_h=4.0, m_v=np.int64(2), d_h=1, d_v=0.5)
        assert [type(v) for v in (layout.m_h, layout.m_v, layout.d_h, layout.d_v)] == [
            int, int, float, float]
        assert layout.element_positions().shape == (1, 8, 3)


class TestImpossiblePlacements:
    """Subarrays that overlap, or sit inside an obstacle, have no channel."""

    @pytest.fixture(scope="class")
    def desk(self):
        from xlma.presets import desk_partial_los
        from xlma.scenario import load_scenario

        return load_scenario(desk_partial_los())

    @staticmethod
    def _layout(sc, centers):
        return ArrayLayout(centers, sc.m_h, sc.m_v, sc.d_h, sc.d_v)

    def test_two_subarrays_on_one_candidate_rejected(self, desk):
        with pytest.raises(DomainError, match="subarrays 0 and 1 overlap"):
            self._layout(desk, desk.candidates()[[3, 3, 10]])

    def test_subarray_a_millimeter_from_another_rejected(self, desk):
        centers = desk.candidates()[[10, 3, 3]]
        centers[2, 1] += 1e-3
        with pytest.raises(DomainError, match="subarrays 1 and 2 overlap"):
            self._layout(desk, centers)

    @pytest.mark.parametrize("gap, m_v, overlaps", [
        ((0.0, 1.5, 0.0), 1, True),      # the end elements coincide: faces meet
        ((0.0, 1.5000001, 0.0), 1, False),
        ((0.0, 1.0, 0.25), 1, False),    # one-row grids at different heights
        ((0.0, 1.0, 0.25), 2, True),
        ((0.25, 0.0, 0.0), 1, False),    # different planes
    ])
    def test_rectangles_meet_faces_included(self, gap, m_v, overlaps):
        # Four 0.5 m-spaced columns span 1.5 m in y, two rows 0.5 m in z.
        centers = [(0.0, 0.0, 0.0), gap]
        if overlaps:
            with pytest.raises(DomainError, match="subarrays 0 and 1 overlap"):
                ArrayLayout(centers, 4, m_v, 0.5, 0.5)
        else:
            assert len(ArrayLayout(centers, 4, m_v, 0.5, 0.5).centers) == 2

    def test_center_inside_an_obstacle_rejected(self, desk):
        centers = np.array([desk.candidates()[0], desk.obstacles[1].center])
        with pytest.raises(DomainError, match=r"obstacles\[1\] holds the center of subarray 1"):
            compute_layout_stats(desk, self._layout(desk, centers), [0])

    def test_center_on_an_obstacle_face_rejected(self, desk):
        box = desk.obstacles[0]
        with pytest.raises(DomainError, match=r"obstacles\[0\] holds the center of subarray 0"):
            compute_layout_stats(desk, self._layout(desk, [box.hi]), [0])


class TestCheckSupport:
    @pytest.mark.parametrize("support", [[5.7, 2.2], [5.9], [1.0, 2.5], [np.nan]])
    def test_non_integral_indices_rejected(self, support):
        with pytest.raises(DomainError, match="integers"):
            check_support(support, 10)

    @pytest.mark.parametrize("support", [[True, False], np.array([0, 1, 1], bool)])
    def test_boolean_array_rejected(self, support):
        with pytest.raises(DomainError, match="boolean"):
            check_support(support, 10)

    def test_integral_floats_pass(self):
        out = check_support([5.0, 2.0], 10)
        np.testing.assert_array_equal(out, [5, 2])
        assert out.dtype.kind == "i"

    @pytest.mark.parametrize("grids", [[4], [-1], [1.5], [2, 2]])
    def test_layout_stats_grid_indices_checked(self, grids):
        sc = make_scenario()  # K = 4 grids
        with pytest.raises(DomainError):
            compute_layout_stats(sc, support_layout(sc, [0, 3]), grid_indices=grids)


def _one_grid_stats(kappa, xi_override=None):
    sc = make_scenario(n_y=10, k_x=1, k_y=1, kappa=kappa, rho=[1.0])
    layout = support_layout(sc, [2, 7])
    stats = compute_layout_stats(sc, layout, grid_indices=[0])
    if xi_override is not None:
        stats.xi[:] = xi_override
        stats.los_blocks *= xi_override
    return sc, stats


class TestSampleChannel:
    def test_pure_los_norm_exact(self):
        sc, stats = _one_grid_stats(np.inf)
        rng = substream(0, "t")
        h = sample_channel(stats, [0], rng)[:, 0]
        m = sc.antennas_per_subarray
        expected = m * stats.beta_los[0].sum()
        assert np.vdot(h, h).real == pytest.approx(expected, rel=1e-12)

    def test_nlos_only_mean_power(self):
        # 1e5 draws: sample mean of ||h||^2 within 2% of M * sum(beta_nlos).
        sc, stats = _one_grid_stats(10.0, xi_override=0)
        rng = substream(1, "t")
        h = sample_channel(stats, np.zeros(100_000, int), rng)
        power = np.sum(np.abs(h) ** 2, axis=0)
        m = sc.antennas_per_subarray
        expected = m * stats.beta_nlos[0].sum()
        assert abs(power.mean() - expected) / expected < 0.02

    def test_phase_uniformity_ks(self):
        # Entry phases in pure LoS are uniform on [0, 2pi): KS at the 1% level.
        _sc, stats = _one_grid_stats(np.inf)
        rng = substream(2, "t")
        h = sample_channel(stats, np.zeros(10_000, int), rng)
        phases = np.angle(h[0, :]) % (2 * np.pi)
        stat = sps.kstest(phases / (2 * np.pi), "uniform")
        assert stat.pvalue > 0.01

    def test_distinct_grid_columns_uncorrelated(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=1, kappa=5.0, rho=[0.5, 0.5])
        layout = support_layout(sc, [2, 7])
        stats = compute_layout_stats(sc, layout, grid_indices=[0, 1])
        rng = substream(3, "t")
        draws = 20_000
        rows = np.tile([0, 1], draws)
        h = sample_channel(stats, rows, rng)
        h0 = h[:, 0::2]
        h1 = h[:, 1::2]
        inner = np.sum(h0.conj() * h1, axis=0)
        # E h_k^H h_i = 0; sample mean within 4 standard errors.
        se = inner.std(ddof=1) / np.sqrt(draws)
        assert abs(inner.mean()) < 4 * se

    def test_no_rows_gives_no_columns(self):
        _sc, stats = _one_grid_stats(10.0)
        h = sample_channel(stats, [], substream(5, "t"))
        assert h.shape == (stats.total_antennas, 0)

    def test_pure_los_subarray_power_follows_each_columns_row(self):
        # Each subarray block of a pure-LoS column has power m * beta_los of
        # that column's own row; a row/antenna transposition breaks this.
        sc = make_scenario(n_y=10, k_x=2, k_y=1, kappa=np.inf, rho=[0.5, 0.5])
        stats = compute_layout_stats(sc, support_layout(sc, [1, 7]), grid_indices=[0, 1])
        assert stats.xi.all() and len(np.unique(stats.beta_los)) == 4
        rows = [1, 0, 1]
        h = sample_channel(stats, rows, substream(6, "t"))
        m = sc.antennas_per_subarray
        for j, row in enumerate(rows):
            for s_idx, (a, b) in enumerate(stats.slices):
                power = np.vdot(h[a:b, j], h[a:b, j]).real
                assert power == pytest.approx(m * stats.beta_los[row, s_idx], rel=1e-12)

    def test_phases_of_one_subarray_independent_across_rows(self):
        # Rows [0, 1] drawn 20,000 times: the pure-LoS phase of subarray s in
        # row 0 is uncorrelated with that of the same subarray in row 1.
        sc = make_scenario(n_y=10, k_x=2, k_y=1, kappa=np.inf, rho=[0.5, 0.5])
        stats = compute_layout_stats(sc, support_layout(sc, [2, 7]), grid_indices=[0, 1])
        draws = 20_000
        h = sample_channel(stats, np.tile([0, 1], draws), substream(7, "t"))
        for a, _b in stats.slices:
            phase0 = h[a, 0::2] / stats.los_blocks[0, a]
            phase1 = h[a, 1::2] / stats.los_blocks[1, a]
            z = phase0 * phase1.conj()
            np.testing.assert_allclose(np.abs(z), 1.0, rtol=1e-12)
            # E[z] = 0; |z| = 1, so the sample mean's standard error is 1/sqrt(draws).
            assert abs(z.mean()) < 4.0 / np.sqrt(draws)

    @pytest.mark.parametrize("kappa", [np.inf, 10.0])
    def test_fixed_generator_state_gives_the_same_channel(self, kappa):
        # The three draws assembled column by column, as h was built before
        # assembly moved to channel_from_draws.
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=kappa, rho=[0.5] * 4)
        stats = compute_layout_stats(sc, support_layout(sc, [1, 4, 8]), np.arange(4))
        rows = [3, 0, 3, 2]
        h = sample_channel(stats, rows, substream(8, "t"))
        rng = substream(8, "t")
        psi = rng.uniform(0.0, 2.0 * np.pi, (len(rows), 3))
        re = rng.standard_normal((len(rows), stats.total_antennas))
        im = rng.standard_normal((len(rows), stats.total_antennas))
        m = sc.antennas_per_subarray
        for j, row in enumerate(rows):
            phase = np.repeat(np.exp(-1j * psi[j]), m)
            nlos_std = np.repeat(np.sqrt(stats.beta_nlos[row] / 2.0), m)
            column = stats.los_blocks[row] * phase + (re[j] + 1j * im[j]) * nlos_std
            np.testing.assert_array_equal(h[:, j], column)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
           st.lists(st.integers(1, 3), max_size=2), st.integers(0, 3),
           st.sampled_from([5.0, np.inf]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_channel_from_draws_is_the_element_formula(self, n_sub, m_h, m_v, batch, n_rows,
                                                       kappa, seed):
        # Element k of subarray s = k // M in column j: its own LoS entry
        # turned by the subarray's phase, plus its own normals scaled by the
        # subarray's sqrt(beta_nlos / 2), bit for bit under any batch shape.
        sc = make_scenario(n_y=8, k_x=2, k_y=2, m_h=m_h, m_v=m_v, kappa=kappa)
        stats = compute_layout_stats(sc, support_layout(sc, np.arange(n_sub)), np.arange(4))
        m = m_h * m_v
        rng = np.random.default_rng(seed)
        shape = (*batch, n_rows)
        rows = rng.integers(0, 4, shape)
        psi = rng.uniform(0.0, 2.0 * np.pi, (*shape, n_sub))
        re, im = rng.standard_normal((2, *shape, n_sub * m))
        h = channel_from_draws(stats, rows, psi, re, im)
        # The ufuncs run numpy's array loops one element at a time; operators
        # on numpy scalars take another path, whose complex product can
        # differ in the last bit.
        mul, add = np.multiply, np.add
        want = np.empty((*batch, n_sub * m, n_rows), complex)
        for index in np.ndindex(shape):
            *lead, j = index
            row = rows[index]
            for k in range(n_sub * m):
                s = k // m
                los = mul(stats.los_blocks[row, k], np.exp(mul(-1j, psi[(*index, s)])))
                normal = add(re[(*index, k)], mul(1j, im[(*index, k)]))
                want[(*lead, k, j)] = add(los, mul(normal, np.sqrt(stats.beta_nlos[row, s] / 2.0)))
        assert h.shape == want.shape
        assert np.array_equal(h, want)

    def test_draw_realization_then_channel_from_draws_is_sample_channel(self):
        # One draw's activation uniforms come first, then sample_channel's draws.
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=5.0, rho=[0.5] * 4)
        stats = compute_layout_stats(sc, support_layout(sc, [1, 4, 8]), np.arange(4))
        rho = np.array([0.9, 0.2, 0.7, 0.6])
        draw = draw_realization(stats, rho, substream(9, "t"))
        rng = substream(9, "t")
        columns = np.flatnonzero(sample_activation(rho, rng))
        np.testing.assert_array_equal(draw.columns, columns)
        np.testing.assert_array_equal(
            channel_from_draws(stats, draw.columns, draw.psi, draw.re, draw.im),
            sample_channel(stats, columns, rng))

    def test_activation_statistics(self):
        rho = np.array([0.0, 1.0, 0.3, 0.8])
        rng = substream(4, "t")
        totals = np.zeros(4)
        trials = 100_000
        for _ in range(trials):
            totals += sample_activation(rho, rng)
        freq = totals / trials
        assert freq[0] == 0.0 and freq[1] == 1.0
        # Mean number of active grids within 1% of the expected count.
        assert abs(totals.sum() / trials - rho.sum()) / rho.sum() < 0.01
