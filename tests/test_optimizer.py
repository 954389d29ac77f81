import itertools

import numpy as np
import pytest

from conftest import make_scenario
from xlma.channel import build_gain_tables
from xlma.errors import ConfigurationError
from xlma.optimizer import (
    SelectionState,
    best_replacement,
    exhaustive_search,
    round_top_n,
    select_victim,
    successive_replacement,
)
from xlma import rate
from xlma.rate import RateModel
from xlma.scenario import compute_los_visibility


def build_ctx(sc, xi=None):
    cands, grids = sc.candidates(), sc.grid_centers()
    if xi is None:
        xi = compute_los_visibility(cands, sc.coverage, sc.obstacles,
                                    sc.visibility_samples, sc.rng_seed)
    gains = build_gain_tables(sc, cands, grids, xi)
    return RateModel.from_candidate_tables(sc, gains), xi


def brute_force(model, n_select):
    best_val, best_supp = -np.inf, None
    for combo in itertools.combinations(range(model.n_cols), n_select):
        val = model.weighted_sum(np.asarray(combo, int))
        if val > best_val:
            best_val, best_supp = val, combo
    return best_supp, best_val


class TestRoundTopN:
    def test_exact_binary(self):
        assert round_top_n(np.array([0.0, 1.0, 0.0, 1.0]), 2) == [1, 3]

    def test_tie_breaks_to_lowest_index(self):
        assert round_top_n(np.array([0.9, 0.9, 0.1]), 2) == [0, 1]

    def test_strictly_decreasing_prefix(self):
        assert round_top_n(np.array([5.0, 4.0, 3.0, 2.0]), 3) == [0, 1, 2]


class TestVictimAndReplacement:
    def _setup(self, rho=None, n_y=12, support=(0, 5, 9)):
        sc = make_scenario(n_y=n_y, k_x=2, k_y=2, kappa=10.0,
                           rho=rho or [0.6, 0.5, 0.4, 0.7], seed=9)
        model, _ = build_ctx(sc)
        return model, SelectionState(model, list(support))

    def test_single_slot_victim(self):
        model, state = self._setup(support=(4,))
        assert select_victim(state) == 0

    def test_victim_matches_brute_enumeration(self):
        model, state = self._setup()
        values = [
            model.objective(*state.without(state.n_mu[slot]))
            for slot in range(len(state.n_mu))
        ]
        assert select_victim(state) == int(np.argmax(values))

    def test_useless_slot_selected_first(self):
        # A slot whose position is blocked toward every grid loses nothing.
        sc = make_scenario(n_y=12, k_x=2, k_y=2, kappa=np.inf,
                           rho=[0.6, 0.5, 0.4, 0.7], seed=9)
        cands, grids = sc.candidates(), sc.grid_centers()
        xi = np.ones((4, 12), dtype=np.uint8)
        xi[:, 5] = 0  # candidate 5 sees nothing
        gains = build_gain_tables(sc, cands, grids, xi)
        model = RateModel.from_candidate_tables(sc, gains)
        assert select_victim(SelectionState(model, [0, 5, 9])) == 1

    def test_replacement_matches_brute_force(self):
        model, state = self._setup()
        victim = 1  # slot holding candidate 5
        cand, value = best_replacement(model, state, victim)
        keep = [c for c in state.n_mu if c != state.n_mu[victim]]
        admissible = [c for c in range(model.n_cols) if c not in keep]
        values = {
            c: model.weighted_sum(np.asarray(keep + [c], int)) for c in admissible
        }
        best_manual = max(values.items(), key=lambda kv: (kv[1], -kv[0]))
        assert value == pytest.approx(values[cand], rel=1e-12)
        assert values[cand] == pytest.approx(best_manual[1], rel=1e-12)

    def test_replacement_n1_is_global_argmax(self):
        sc = make_scenario(n_y=12, k_x=2, k_y=2, kappa=10.0,
                           rho=[0.6, 0.5, 0.4, 0.7], seed=9, n_subarrays=1)
        model, _ = build_ctx(sc)
        cand, value = best_replacement(model, SelectionState(model, [3]), 0)
        marg = [model.weighted_sum(np.array([c])) for c in range(model.n_cols)]
        assert cand == int(np.argmax(marg))
        assert value == pytest.approx(max(marg), rel=1e-12)


class TestSuccessiveReplacement:
    def test_select_all_positions(self):
        sc = make_scenario(n_y=4, k_x=2, k_y=1, rho=[0.5, 0.5], n_subarrays=4)
        model, xi = build_ctx(sc)
        result = successive_replacement(sc, model, xi)
        assert sorted(result.n_mu) == [0, 1, 2, 3]

    def test_n1_reaches_global_single_optimum(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=8.0,
                           rho=[0.6, 0.2, 0.7, 0.4], n_subarrays=1, seed=4)
        model, xi = build_ctx(sc)
        result = successive_replacement(sc, model, xi)
        marg = [model.weighted_sum(np.array([c])) for c in range(model.n_cols)]
        assert result.objective == pytest.approx(max(marg), rel=1e-12)

    def test_trace_monotone_and_bounded(self):
        sc = make_scenario(n_y=14, k_x=2, k_y=3, kappa=12.0,
                           rho=[0.7, 0.3, 0.6, 0.4, 0.5, 0.2],
                           n_subarrays=4, seed=6)
        model, xi = build_ctx(sc)
        result = successive_replacement(sc, model, xi)
        accepted = [r["objective"] for r in result.trace if r["accepted"]]
        assert all(b > a for a, b in zip(accepted, accepted[1:]))
        assert len([r for r in result.trace if r["iteration"] > 0]) <= sc.n_subarrays
        # Each slot replaced at most once.
        victims = [r["victim_slot"] for r in result.trace
                   if r["accepted"] and r["iteration"] > 0]
        assert len(victims) == len(set(victims))

    def test_phi_constraints(self):
        sc = make_scenario(n_y=14, k_x=2, k_y=3, kappa=12.0,
                           rho=[0.7, 0.3, 0.6, 0.4, 0.5, 0.2],
                           n_subarrays=4, seed=6)
        model, xi = build_ctx(sc)
        result = successive_replacement(sc, model, xi)
        phi = result.phi
        assert phi.shape == (4, model.n_cols)
        np.testing.assert_array_equal(phi.sum(axis=1), 1)  # one position per subarray
        assert phi.sum(axis=0).max() <= 1  # at most one subarray per position
        np.testing.assert_array_equal(phi.T @ phi, np.diag(result.chi))

    def test_deterministic(self):
        sc = make_scenario(n_y=14, k_x=2, k_y=3, kappa=12.0,
                           rho=[0.7, 0.3, 0.6, 0.4, 0.5, 0.2],
                           n_subarrays=4, seed=6)
        model, xi = build_ctx(sc)
        a = successive_replacement(sc, model, xi)
        b = successive_replacement(sc, model, xi)
        assert a.n_mu == b.n_mu
        assert a.objective == b.objective

    def test_never_below_exhaustive(self):
        sc = make_scenario(n_y=10, k_x=2, k_y=2, kappa=10.0,
                           rho=[0.6, 0.5, 0.4, 0.7], n_subarrays=3, seed=1)
        model, xi = build_ctx(sc)
        result = successive_replacement(sc, model, xi)
        _, best = exhaustive_search(model, 3)
        assert result.objective <= best + 1e-12


class TestExhaustive:
    def test_full_support(self):
        sc = make_scenario(n_y=5, k_x=2, k_y=1, rho=[0.5, 0.5], n_subarrays=5)
        model, _ = build_ctx(sc)
        chi, val = exhaustive_search(model, 5)
        np.testing.assert_array_equal(chi, 1)

    def test_n1_equals_argmax(self):
        sc = make_scenario(n_y=9, k_x=2, k_y=2, kappa=9.0,
                           rho=[0.5, 0.6, 0.4, 0.3], seed=8)
        model, _ = build_ctx(sc)
        chi, val = exhaustive_search(model, 1)
        marg = [model.weighted_sum(np.array([c])) for c in range(model.n_cols)]
        assert val == pytest.approx(max(marg), rel=1e-12)
        assert chi[int(np.argmax(marg))] == 1

    def test_matches_itertools_brute_force(self):
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=11.0,
                           rho=[0.6, 0.5, 0.4, 0.7], seed=2)
        model, _ = build_ctx(sc)
        chi, val = exhaustive_search(model, 3)
        supp, best = brute_force(model, 3)
        assert val == best
        assert tuple(np.flatnonzero(chi)) == supp

    def test_limit_refusal_reports_count(self):
        sc = make_scenario(n_y=30, k_x=2, k_y=1, rho=[0.5, 0.5], n_subarrays=10)
        model, _ = build_ctx(sc)
        with pytest.raises(ConfigurationError, match="30045015"):
            exhaustive_search(model, 10, limit=1000)


def set_block_width(monkeypatch, model, n_select, width):
    """Make exhaustive_search score ``width`` combinations per block."""
    monkeypatch.setattr(rate, "ASSEMBLY_BLOCK_BYTES", 8 * len(model.rho) * n_select * width)


class TestExhaustiveBlocks:
    """The block oracle against the per-combination loop ``brute_force``."""

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_loop_for_every_n(self, seed):
        rng = np.random.default_rng(seed)
        sc = make_scenario(n_y=7, k_x=2, k_y=2, kappa=float(rng.uniform(2.0, 15.0)),
                           rho=list(rng.uniform(0.1, 0.9, 4)), seed=seed)
        model, _ = build_ctx(sc)
        for n_select in range(1, model.n_cols + 1):
            chi, val = exhaustive_search(model, n_select)
            supp, best = brute_force(model, n_select)
            assert tuple(np.flatnonzero(chi)) == supp
            assert val == best

    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_loop_across_block_boundaries(self, monkeypatch, width):
        sc = make_scenario(n_y=9, k_x=2, k_y=2, kappa=6.0,
                           rho=[0.3, 0.8, 0.5, 0.6], seed=4)
        model, _ = build_ctx(sc)
        for n_select in (1, 2, 3, 5):
            set_block_width(monkeypatch, model, n_select, width)
            chi, val = exhaustive_search(model, n_select)
            supp, best = brute_force(model, n_select)
            assert tuple(np.flatnonzero(chi)) == supp
            assert val == best

    def test_rejects_impossible_selection(self):
        sc = make_scenario(n_y=5, k_x=2, k_y=1, rho=[0.5, 0.5])
        model, _ = build_ctx(sc)
        for n_select in (0, 6):
            with pytest.raises(ConfigurationError, match="cannot select"):
                exhaustive_search(model, n_select)


class TestExhaustiveTies:
    """Two supports tie exactly; the lexicographically first must win."""

    N_SELECT = 3

    @pytest.fixture(scope="class")
    def tie(self):
        """(model, first, second): column b is a copy of an adjacent column a.

        ``best`` holds a but not b; swapping a for b sums the same values in
        the same order, so the two supports score exactly alike. Among the
        neighbours b = a -+ 1, take one where the pair stays optimal (a copy
        may instead make a support holding both a and b best).
        """
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=9.0,
                           rho=[0.6, 0.5, 0.4, 0.7], seed=2)
        base, _ = build_ctx(sc)
        best, _ = brute_force(base, self.N_SELECT)
        for a in best:
            for b in (a - 1, a + 1):
                if not 0 <= b < base.n_cols or b in best:
                    continue
                tables = [t.copy() for t in (base.sig_mean, base.sig_var, base.denom)]
                for t in tables:
                    t[:, b] = t[:, a]
                model = RateModel(base.grid_rows, base.rho, base.pbar, base.m_col, *tables)
                first, second = sorted([best, tuple(sorted(set(best) - {a} | {b}))])
                if brute_force(model, self.N_SELECT)[0] == first:
                    assert (model.weighted_sum(np.array(second))
                            == model.weighted_sum(np.array(first)))
                    return model, first, second
        pytest.fail("no adjacent column copy keeps the tied pair optimal")

    def _ranks(self, model, first, second):
        order = list(itertools.combinations(range(model.n_cols), self.N_SELECT))
        return order.index(first), order.index(second)

    def _check(self, monkeypatch, model, first, width):
        set_block_width(monkeypatch, model, self.N_SELECT, width)
        chi, val = exhaustive_search(model, self.N_SELECT)
        assert tuple(np.flatnonzero(chi)) == first
        assert val == model.weighted_sum(np.array(first))

    def test_tie_within_one_block(self, monkeypatch, tie):
        model, first, second = tie
        r1, r2 = self._ranks(model, first, second)
        width = r2 + 1  # block 0 holds ranks 0..r2
        assert r1 // width == r2 // width
        self._check(monkeypatch, model, first, width)

    def test_tie_across_block_boundary(self, monkeypatch, tie):
        model, first, second = tie
        r1, r2 = self._ranks(model, first, second)
        width = r2  # r1 ends block 0, r2 starts block 1
        assert r1 // width < r2 // width
        self._check(monkeypatch, model, first, width)

    def test_tie_one_combination_per_block(self, monkeypatch, tie):
        model, first, _ = tie
        self._check(monkeypatch, model, first, 1)
