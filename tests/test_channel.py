import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import make_scenario
from xlma.channel import (
    ArrayLayout,
    Subarray,
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
        cands, grids = sc.candidates(), sc.grid_centers()
        xi = np.ones((len(grids), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, grids, xi)
        validate_gain_tables(tables)
        assert np.all(tables.beta_nlos == 0)
        np.testing.assert_allclose(tables.beta_total, tables.beta_los)

    def test_blocked_with_finite_kappa(self):
        sc = make_scenario(kappa=10.0)
        cands, grids = sc.candidates(), sc.grid_centers()
        xi = np.zeros((len(grids), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, grids, xi)
        np.testing.assert_allclose(tables.beta_total, tables.beta_los / 10.0)

    def test_kappa_20db(self):
        sc = make_scenario(kappa=100.0)
        cands, grids = sc.candidates(), sc.grid_centers()
        xi = np.ones((len(grids), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, grids, xi)
        np.testing.assert_allclose(tables.beta_nlos, tables.beta_los / 100.0)

    def test_unit_wave_vectors(self):
        sc = make_scenario()
        cands, grids = sc.candidates(), sc.grid_centers()
        xi = np.ones((len(grids), len(cands)), dtype=np.uint8)
        tables = build_gain_tables(sc, cands, grids, xi)
        np.testing.assert_allclose(np.linalg.norm(tables.u, axis=-1), 1.0, atol=1e-12)


class TestLayouts:
    def test_element_positions_centered(self):
        sub = Subarray(center=(0.0, 1.0, 2.0), m_h=2, m_v=2, d_h=0.4, d_v=0.6)
        pos = sub.element_positions()
        np.testing.assert_allclose(pos.mean(axis=0), [0.0, 1.0, 2.0])
        assert pos.shape == (4, 3)

    def test_support_layout_matches_candidates(self):
        sc = make_scenario(n_y=10)
        layout = support_layout(sc, [0, 5])
        np.testing.assert_allclose(layout.centers(), sc.candidates()[[0, 5]])
        assert sum(s.n_antennas for s in layout.subarrays) == 2 * sc.antennas_per_subarray

    def test_empty_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrayLayout(())


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
        stats = compute_layout_stats(sc, support_layout(sc, [1, 4, 8]))
        rows = [3, 0, 3, 2]
        h = sample_channel(stats, rows, substream(8, "t"))
        rng = substream(8, "t")
        psi = rng.uniform(0.0, 2.0 * np.pi, (len(rows), 3))
        re = rng.standard_normal((len(rows), stats.total_antennas))
        im = rng.standard_normal((len(rows), stats.total_antennas))
        m = sc.antennas_per_subarray
        for j, row in enumerate(rows):
            phase = np.repeat(np.exp(-1j * psi[j]), m)
            column = stats.los_blocks[row] * phase + (re[j] + 1j * im[j]) * stats.nlos_std[row]
            np.testing.assert_array_equal(h[:, j], column)

    def test_draw_realization_then_channel_from_draws_is_sample_channel(self):
        # One draw's activation uniforms come first, then sample_channel's draws.
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=5.0, rho=[0.5] * 4)
        stats = compute_layout_stats(sc, support_layout(sc, [1, 4, 8]))
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
