import dataclasses

import numpy as np
import pytest

from conftest import make_scenario
from xlma import montecarlo, rate
from xlma.channel import ArrayLayout, compute_layout_stats, support_layout
from xlma.errors import ConfigurationError, DomainError
from xlma.montecarlo import (
    SimOptions,
    _sinr_all_active,
    correlation_map,
    power_gain_map,
    simulate_trials,
    simulate_weighted_sum_rate,
)
from xlma.pipeline import ScenarioContext
from oracles import mmse_sinr, mrc_sinr, simulate_trials_reference


class TestCombinerSinr:
    def _toy(self):
        h = np.array([[1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0]], dtype=complex)
        alpha = np.array([1, 1, 0])
        return h, alpha

    def test_single_active_user_mrc(self):
        h, _ = self._toy()
        alpha = np.array([1, 0, 0])
        gamma = mrc_sinr(h, alpha, 0, tx_power_mw=2.0, noise_power_mw=1.0)
        assert gamma == pytest.approx(2.0 * 1.0)  # Pbar * ||h||^2

    def test_orthogonal_interferer_is_free_mrc(self):
        h, alpha = self._toy()
        gamma = mrc_sinr(h, alpha, 0, tx_power_mw=2.0, noise_power_mw=1.0)
        assert gamma == pytest.approx(2.0)

    def test_mmse_equals_mrc_single_user(self):
        h, _ = self._toy()
        alpha = np.array([1, 0, 0])
        a = mrc_sinr(h, alpha, 0, 2.0, 1.0)
        b = mmse_sinr(h, alpha, 0, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_mmse_orthonormal_closed_form(self):
        # Two orthonormal columns: gamma = Pbar_k exactly.
        h, alpha = self._toy()
        gamma = mmse_sinr(h, alpha, 0, 3.0, 1.0)
        assert gamma == pytest.approx(3.0, rel=1e-12)

    def test_mmse_dominates_mrc_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, k = 6, 4
            h = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
            alpha = np.ones(k, dtype=int)
            p = rng.uniform(0.5, 4.0, k)
            for j in range(k):
                a = mrc_sinr(h, alpha, j, p, 1.0)
                b = mmse_sinr(h, alpha, j, p, 1.0)
                assert b >= a - 1e-9

    def test_inactive_grid_rejected(self):
        h, alpha = self._toy()
        with pytest.raises(DomainError):
            mrc_sinr(h, alpha, 2, 1.0, 1.0)

    def test_zero_column_rate_zero(self):
        h = np.zeros((3, 1), dtype=complex)
        assert mrc_sinr(h, np.array([1]), 0, 1.0, 1.0) == 0.0


class TestMmseReference:
    """mmse_sinr against p_k h_k^H (I + sum_{i != k} p_i h_i h_i^H)^-1 h_k."""

    @staticmethod
    def reference(h, p, k):
        others = [i for i in range(h.shape[1]) if i != k]
        cov = np.eye(h.shape[0]) + (h[:, others] * p[others]) @ h[:, others].conj().T
        return p[k] * np.real(h[:, k].conj() @ np.linalg.solve(cov, h[:, k]))

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("j", range(1, 13))
    def test_matches_solve_reference(self, m, j):
        rng = np.random.default_rng(100 * m + j)
        for case in range(4):
            h = rng.normal(size=(m, j)) + 1j * rng.normal(size=(m, j))
            if case % 2:
                h[:, rng.integers(j)] = 0.0
            p = rng.uniform(0.5, 1e3, j)
            alpha = np.ones(j, dtype=int)
            for k in range(j):
                gamma = mmse_sinr(h, alpha, k, p, 1.0)
                if not h[:, k].any():
                    assert gamma == 0.0
                else:
                    assert gamma == pytest.approx(self.reference(h, p, k), rel=1e-9)


class TestStackedSinr:
    """``_sinr_all_active`` over a stack (n, M, J) against one call per matrix."""

    @pytest.mark.parametrize("combiner", ["mrc", "mmse"])
    @pytest.mark.parametrize("m, j", [(1, 1), (4, 1), (16, 3), (16, 10), (8, 13)])
    def test_stack_equals_per_matrix_calls(self, combiner, m, j):
        rng = np.random.default_rng(10 * m + j)
        n = 7
        # Built as the Monte Carlo builds them: the swapped axes of a C-ordered
        # (n, J, M) array, so each matrix has the strides one trial's has.
        h = np.swapaxes(rng.normal(size=(n, j, m)) + 1j * rng.normal(size=(n, j, m)), -1, -2)
        h[2, :, 0] = 0.0  # an all-zero column
        pbar = rng.uniform(0.5, 1e3, (n, j))
        stacked = _sinr_all_active(h, pbar, combiner)
        assert stacked.shape == (n, j)
        for i in range(n):
            np.testing.assert_array_equal(stacked[i], _sinr_all_active(h[i], pbar[i], combiner))
        assert stacked[2, 0] == 0.0

    @pytest.mark.parametrize("combiner", ["mrc", "mmse"])
    def test_all_zero_matrix_gives_zero(self, combiner):
        h = np.zeros((3, 4, 2), complex)
        np.testing.assert_array_equal(_sinr_all_active(h, np.full((3, 2), 5.0), combiner), 0.0)


def support_stats(sc, support):
    """The statistics ``simulate_trials`` takes for a support of ``sc``."""
    return ScenarioContext.build(sc).layout_stats(support_layout(sc, support))


def single_grid_scenario(n_subarrays=3):
    return make_scenario(n_y=20, k_x=1, k_y=1, kappa=np.inf, rho=[1.0],
                         n_subarrays=n_subarrays, seed=17)


class TestSimulateWeightedSum:
    def test_zero_rho_zero_estimate(self):
        sc = make_scenario(n_y=6, k_x=2, k_y=1, rho=[0.0, 0.0])
        stats = compute_layout_stats(sc, support_layout(sc, [0, 3]))
        est, err = simulate_weighted_sum_rate(sc, stats, SimOptions(trials=50))
        assert est == 0.0 and err == 0.0

    def test_pure_los_single_grid_exact_zero_variance(self):
        sc = single_grid_scenario()
        ctx = ScenarioContext.build(sc)
        support = np.array([2, 9, 14])
        closed = ctx.model.weighted_sum(support)
        stats = ctx.layout_stats(support_layout(sc, support))
        values = simulate_trials(sc, stats, SimOptions(trials=64))
        assert np.max(np.abs(values - closed)) < 1e-9
        est, err = simulate_weighted_sum_rate(sc, stats, SimOptions(trials=64))
        assert err < 1e-12  # variance at roundoff level only

    @pytest.mark.parametrize("support", [[-1], [2, 2, 2], [8], [0, 9], [True, True]])
    def test_bad_support_indices_rejected(self, support):
        ctx = ScenarioContext.build(make_scenario(n_y=8, n_subarrays=2))
        with pytest.raises(DomainError):
            ctx.layout_stats(support_layout(ctx.scenario, support))

    def test_seed_determinism(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=8.0,
                           rho=[0.5, 0.6, 0.4, 0.7], seed=23)
        opts = SimOptions(trials=40, combiner="mmse")
        a = simulate_weighted_sum_rate(sc, support_stats(sc, [1, 6]), opts)
        b = simulate_weighted_sum_rate(sc, support_stats(sc, [1, 6]), opts)
        assert a == b

    def test_two_grid_analytic_toy_unbiased(self):
        """Single-antenna subarray, 2 grids, pure LoS: the expectation is a
        finite sum over activation patterns; the estimator must match it."""
        sc = make_scenario(n_y=6, k_x=2, k_y=1, m_h=1, m_v=1, kappa=np.inf,
                           rho=[0.6, 0.3], n_subarrays=1, seed=29)
        stats = support_stats(sc, [2])
        beta = stats.beta_los[:, 0]
        pbar = sc.snr_scale
        # One antenna: |h_k|^2 = beta_k and |h_k^H h_i|^2 = beta_k beta_i.
        r1_alone = np.log2(1 + pbar[0] * beta[0])
        r2_alone = np.log2(1 + pbar[1] * beta[1])
        g1_both = pbar[0] * beta[0] ** 2 / (pbar[1] * beta[0] * beta[1] + beta[0])
        g2_both = pbar[1] * beta[1] ** 2 / (pbar[0] * beta[0] * beta[1] + beta[1])
        expected = (
            0.6 * 0.7 * r1_alone
            + 0.4 * 0.3 * r2_alone
            + 0.6 * 0.3 * (np.log2(1 + g1_both) + np.log2(1 + g2_both))
        )
        values = simulate_trials(sc, stats, SimOptions(trials=100_000))
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - expected) <= 3 * se

    def test_mmse_at_least_mrc_per_trial(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=6.0,
                           rho=[0.8, 0.7, 0.6, 0.5], seed=37)
        stats = support_stats(sc, [0, 4, 9])
        mrc = simulate_trials(sc, stats, SimOptions(trials=300, combiner="mrc"))
        mmse = simulate_trials(sc, stats, SimOptions(trials=300, combiner="mmse"))
        assert np.all(mmse >= mrc - 1e-9)

    def test_layout_and_support_agree(self):
        # A support's statistics, whose visibility is sliced from the
        # context's xi, and its layout's own, whose visibility pass runs over
        # the subarray centers, draw the same trials.
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=6.0,
                           rho=[0.8, 0.7, 0.6, 0.5], seed=41)
        ctx = ScenarioContext.build(sc)
        layout = support_layout(sc, [0, 5])
        a = simulate_trials(sc, ctx.layout_stats(layout), SimOptions(trials=20))
        b = simulate_trials(sc, compute_layout_stats(sc, layout, ctx.model.grid_rows),
                            SimOptions(trials=20))
        np.testing.assert_array_equal(a, b)

    def test_context_statistics_and_support_agree(self):
        # Statistics sliced from the candidate tables (rows with rho > 0 only)
        # draw exactly the trials of the support's own statistics over the
        # same grids.
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=6.0,
                           rho=[0.8, 0.0, 0.6, 0.5], seed=43)
        support = np.array([7, 2])
        sliced = support_stats(sc, support)
        computed = compute_layout_stats(sc, support_layout(sc, support),
                                        grid_indices=[0, 2, 3])
        for combiner in ("mrc", "mmse"):
            opts = SimOptions(trials=20, combiner=combiner)
            np.testing.assert_array_equal(simulate_trials(sc, sliced, opts),
                                          simulate_trials(sc, computed, opts))

    def test_statistics_over_other_grids_rejected(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=6.0,
                           rho=[0.8, 0.0, 0.6, 0.5], seed=43)
        stats = compute_layout_stats(sc, support_layout(sc, [7, 2]))  # all four grids
        with pytest.raises(ConfigurationError, match="rho > 0"):
            simulate_trials(sc, stats, SimOptions(trials=2))


def record_groups(monkeypatch) -> list:
    """Shapes (n, J) of the row stacks ``simulate_trials`` assembles."""
    shapes = []
    stacked = montecarlo.channel_from_draws

    def recording(stats, rows, *draws):
        shapes.append(rows.shape)
        return stacked(stats, rows, *draws)

    monkeypatch.setattr(montecarlo, "channel_from_draws", recording)
    return shapes


class TestStagedTrials:
    """``simulate_trials`` stages trials by active count and assembles each
    group in one stacked call; ``simulate_trials_reference`` does one trial
    at a time. They must agree bit for bit."""

    @staticmethod
    def _varying_scenario(kappa):
        # Six grids at rho 0.05-0.6: about a tenth of the trials (0.089)
        # draw no active grid, and the others draw 1 to 6.
        return make_scenario(n_y=12, k_x=3, k_y=2, kappa=kappa,
                             rho=[0.05, 0.6, 0.2, 0.35, 0.1, 0.5], seed=53)

    @pytest.mark.parametrize("combiner", ["mrc", "mmse"])
    @pytest.mark.parametrize("kappa", [np.inf, 4.0])
    def test_equals_per_trial_reference(self, combiner, kappa, monkeypatch):
        sc = self._varying_scenario(kappa)
        support = np.array([1, 6, 10])
        opts = SimOptions(trials=200, combiner=combiner)
        stats = support_stats(sc, support)
        shapes = record_groups(monkeypatch)
        values = simulate_trials(sc, stats, opts)
        reference = simulate_trials_reference(sc, stats, opts)
        np.testing.assert_array_equal(values, reference)
        assert np.sum(reference == 0.0) >= 10  # zero-activation trials
        assert len({j for _, j in shapes}) >= 4  # groups of several sizes
        assert max(n for n, _ in shapes) > 1  # each group in one stacked call
        assert sum(n for n, _ in shapes) == np.sum(reference != 0.0)

    @pytest.mark.parametrize("combiner", ["mrc", "mmse"])
    @pytest.mark.parametrize("trials_per_flush", [1, 4, 16])
    def test_small_budgets_equal_reference(self, combiner, trials_per_flush, monkeypatch):
        sc = self._varying_scenario(4.0)
        support = np.array([0, 5, 11])
        opts = SimOptions(trials=150, combiner=combiner)
        stats = support_stats(sc, support)
        reference = simulate_trials_reference(sc, stats, opts)
        per_user = 8 * (len(stats.layout.centers) + 2 * stats.total_antennas)
        monkeypatch.setattr(rate, "ASSEMBLY_BLOCK_BYTES", 2 * per_user * trials_per_flush)
        shapes = record_groups(monkeypatch)
        np.testing.assert_array_equal(simulate_trials(sc, stats, opts), reference)
        assert len(shapes) > 2 * len({j for _, j in shapes})  # several flushes

    @pytest.mark.parametrize("combiner", ["mrc", "mmse"])
    def test_default_budget_flushes_several_times(self, combiner, monkeypatch):
        # 400 trials of about ten active users at 16 antennas stage several
        # times the 120 kB budget.
        sc = make_scenario(n_y=12, k_x=4, k_y=4, kappa=6.0, rho=np.full(16, 0.6),
                           n_subarrays=4, seed=59)
        support = np.array([0, 3, 7, 11])
        opts = SimOptions(trials=400, combiner=combiner)
        stats = support_stats(sc, support)
        shapes = record_groups(monkeypatch)
        values = simulate_trials(sc, stats, opts)
        np.testing.assert_array_equal(values, simulate_trials_reference(sc, stats, opts))
        assert len(shapes) > 2 * len({j for _, j in shapes})

    @pytest.mark.parametrize("combiner", ["mrc", "mmse"])
    def test_prefix_of_longer_run(self, combiner):
        sc = self._varying_scenario(4.0)
        stats = support_stats(sc, [2, 8])
        short = simulate_trials(sc, stats, SimOptions(trials=20, combiner=combiner))
        long = simulate_trials(sc, stats, SimOptions(trials=57, combiner=combiner))
        np.testing.assert_array_equal(short, long[:20])


class TestMaps:
    def _probe_layout(self, sc):
        return support_layout(sc, [5])

    def test_power_map_boresight_value(self):
        sc = single_grid_scenario()
        layout = ArrayLayout([(0.0, 0.0, 20.0)], sc.m_h, sc.m_v, sc.d_h, sc.d_v)
        x, y, values = power_gain_map(sc, layout, 5, 20.0, None)
        # Point on boresight at distance d: M * (lambda / 4 pi d)^2.
        xi = int(np.argmin(np.abs(x - 30.0)))
        yi = int(np.argmin(np.abs(y)))
        d = x[xi]
        expected = sc.antennas_per_subarray * (sc.wavelength / (4 * np.pi * d)) ** 2
        assert values[xi, yi] == pytest.approx(expected, rel=1e-12)

    def test_power_map_additive_in_subarrays(self):
        sc = single_grid_scenario()
        one = support_layout(sc, [4])
        two = dataclasses.replace(one, centers=np.concatenate([one.centers, one.centers]))
        _, _, v1 = power_gain_map(sc, one, 4, None, None)
        _, _, v2 = power_gain_map(sc, two, 4, None, None)
        np.testing.assert_allclose(v2, 2 * v1, rtol=1e-12)

    def test_power_map_symmetric_layout(self):
        sc = single_grid_scenario()
        layout = support_layout(sc, [4, 15])  # symmetric about y = 0
        ys = layout.centers[:, 1]
        assert ys[0] == pytest.approx(-ys[1])
        _, y, values = power_gain_map(sc, layout, 7, None, None)
        np.testing.assert_allclose(values, values[:, ::-1], rtol=1e-9)

    def test_power_map_placeholder_for_blocked(self):
        sc = make_scenario(
            n_y=8, k_x=1, k_y=1, kappa=np.inf, rho=[1.0], n_subarrays=2,
            obstacles=[__import__("xlma.scenario", fromlist=["Obstacle"]).Obstacle(
                center=(4.0, 0.0, 7.5), dims=(2.0, 100.0, 15.0))],
        )
        layout = support_layout(sc, [3])
        _, _, values = power_gain_map(sc, layout, 6, 0.0, 1e-6)
        m = sc.antennas_per_subarray
        assert np.all(values >= m * 1e-6 - 1e-18)

    def test_correlation_probe_cell_is_one(self):
        sc = single_grid_scenario()
        layout = support_layout(sc, [2, 9, 14])
        x, y, values = correlation_map(sc, layout, (30.0, 0.0), 9, 0.0)
        xi = int(np.argmin(np.abs(x - 30.0)))
        yi = int(np.argmin(np.abs(y - 0.0)))
        assert values[xi, yi] == pytest.approx(1.0, rel=1e-12)
        assert values.min() >= -1e-12 and values.max() <= 1 + 1e-12

    def test_correlation_rank_one_everywhere_one(self):
        sc = make_scenario(n_y=8, k_x=1, k_y=1, m_h=1, m_v=1, kappa=np.inf,
                           rho=[1.0], n_subarrays=1)
        layout = support_layout(sc, [3])
        _, _, values = correlation_map(sc, layout, (20.0, 5.0), 5, 0.0)
        np.testing.assert_allclose(values, 1.0, atol=1e-9)

    def test_correlation_requires_probe(self):
        sc = single_grid_scenario()
        with pytest.raises(ConfigurationError):
            correlation_map(sc, self._probe_layout(sc), None, 4, None)

    def test_blocked_probe_domain_error(self):
        from xlma.scenario import Obstacle

        sc = make_scenario(
            n_y=8, k_x=1, k_y=1, kappa=np.inf, rho=[1.0], n_subarrays=2,
            obstacles=[Obstacle(center=(4.0, 0.0, 10.0), dims=(2.0, 200.0, 200.0))],
        )
        layout = support_layout(sc, [3])
        with pytest.raises(DomainError):
            correlation_map(sc, layout, (20.0, 0.0), 4, 0.0)

    def test_resolution_floor(self):
        sc = single_grid_scenario()
        with pytest.raises(ConfigurationError, match="resolution"):
            power_gain_map(sc, self._probe_layout(sc), 1, None, None)
        with pytest.raises(ConfigurationError, match="resolution"):
            correlation_map(sc, self._probe_layout(sc), (30.0, 0.0), 1, None)
