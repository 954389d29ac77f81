import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_scenario
from oracles import exhaustive_search_reference
from xlma.channel import build_gain_tables
from xlma.errors import ConfigurationError, DomainError
from xlma.optimizer import (
    SelectionState,
    _prefix_blocks,
    best_replacement,
    build_init_lp,
    exhaustive_search,
    round_top_n,
    select_victim,
    successive_replacement,
)
from xlma import optimizer, rate
from xlma.rate import RateModel
from xlma.scenario import visibility_from_points


def build_ctx(sc, xi=None):
    cands, grids = sc.candidates(), sc.grid_centers()
    if xi is None:
        xi = visibility_from_points(cands, sc.coverage, sc.obstacles,
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
            model.objective(state.without(state.n_mu[slot]))
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
        # Phi has one 1 per row (slot) at n_mu[slot]: one position per
        # subarray, at most one subarray per position, Phi^T Phi = diag(chi).
        n_mu = np.asarray(result.n_mu)
        assert n_mu.shape == (4,) and len(set(result.n_mu)) == 4
        assert result.chi.shape == (model.n_cols,)
        np.testing.assert_array_equal(np.flatnonzero(result.chi), np.sort(n_mu))
        assert set(np.unique(result.chi)) == {0, 1}

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

    def test_limit_refusal_reports_count(self, monkeypatch):
        sc = make_scenario(n_y=30, k_x=2, k_y=1, rho=[0.5, 0.5], n_subarrays=10)
        model, _ = build_ctx(sc)
        monkeypatch.setattr(optimizer, "EXHAUSTIVE_LIMIT", 1000)
        with pytest.raises(ConfigurationError, match="30045015"):
            exhaustive_search(model, 10)


def set_block_width(monkeypatch, model, width):
    """Make exhaustive_search score at most ``width`` combinations per block."""
    monkeypatch.setattr(rate, "ASSEMBLY_BLOCK_BYTES", 8 * len(model.rho) * width)


def block_of(model, n_select, width):
    """{support: index of the block that scores it} for ``width``."""
    blocks = {}
    blocks_in_order = _prefix_blocks(model.n_cols, n_select, width, max(1, width // 4))
    for b, (heads, x, tails) in enumerate(blocks_in_order):
        for head in heads.tolist():
            for d in tails:
                blocks[(*head, *(() if x is None else (x,)), d)] = b
    return blocks


def random_model(seed, n_rows=12, n_cols=10, zero_den_row=None):
    """Tables spread over many magnitudes, so sums round in every position."""
    rng = np.random.default_rng(seed)

    def table():
        return rng.uniform(0.1, 1.0, (n_rows, n_cols)) * 10.0 ** rng.uniform(-8, 8, (n_rows, 1))

    terms = np.stack([table(), table(), table()])
    if zero_den_row is not None:
        terms[2, zero_den_row] = 0.0
    return RateModel(np.arange(n_rows), rng.uniform(0.1, 1.0, n_rows),
                     10.0 ** rng.uniform(2, 9, n_rows), terms)


class TestInitLp:
    # rho ranks the grids 3, 0, 1, 2: with N = 3, grid 2 is not a top grid.
    RHO = [0.6, 0.5, 0.4, 0.7]

    def _model(self, rows):
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=10.0, rho=self.RHO,
                           n_subarrays=3, seed=1)
        cands, grids = sc.candidates(), sc.grid_centers()
        xi = np.random.default_rng(1).integers(0, 2, (len(rows), len(cands)), dtype=np.uint8)
        gains = build_gain_tables(sc, cands, grids[rows], xi, grid_rows=rows)
        return sc, RateModel.from_candidate_tables(sc, gains), xi

    @pytest.mark.parametrize("left_out", [0, 1, 3])
    def test_top_grid_the_model_leaves_out_raises(self, left_out):
        rows = np.array([k for k in (3, 1, 0, 2) if k != left_out])
        sc, model, xi = self._model(rows)
        with pytest.raises(DomainError, match=f"grid {left_out} is not modeled"):
            build_init_lp(sc, model, xi)

    @pytest.mark.parametrize("rows", [[0, 1, 3], [0, 1, 2, 3], [3, 1, 0, 2]])
    def test_coverage_rows_are_the_top_grids_in_rho_order(self, rows):
        sc, model, xi = self._model(np.array(rows))
        problem = build_init_lp(sc, model, xi)
        top = [rows.index(k) for k in (3, 0, 1) if xi[rows.index(k)].any()]
        assert np.array_equal(problem.coverage_rows, xi[top].astype(float))


def test_every_scorer_rates_through_log_rates(monkeypatch):
    """``objective``, ``marginal_objective`` and each block of
    ``exhaustive_search`` call ``RateModel.log_rates``: no scorer keeps a
    closed-form SINR of its own."""
    library = RateModel.log_rates
    callers = []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return library(*args, **kwargs)

    monkeypatch.setattr(RateModel, "log_rates", staticmethod(spy))
    model = random_model(0)
    model.objective(model.sums([0, 4]))
    assert callers == ["objective"]
    callers.clear()
    model.marginal_objective()
    assert callers and set(callers) == {"marginal_objective"}
    callers.clear()
    set_block_width(monkeypatch, model, 7)
    exhaustive_search(model, 3)
    n_blocks = len(set(block_of(model, 3, 7).values()))
    assert n_blocks > 1
    assert callers == ["exhaustive_search"] * n_blocks + ["objective"]


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
            set_block_width(monkeypatch, model, width)
            chi, val = exhaustive_search(model, n_select)
            supp, best = brute_force(model, n_select)
            assert tuple(np.flatnonzero(chi)) == supp
            assert val == best

    @pytest.mark.parametrize("seed, zero_den_row", [(0, None), (1, 5), (2, None)])
    @pytest.mark.parametrize("width", [None, 1, 4, 7])
    def test_matches_reference_for_every_n(self, monkeypatch, seed, zero_den_row, width):
        """Same support and value as the lexicographic block oracle, with
        default, one-subset and tail-splitting block widths; one model has a
        grid whose denominator is zero, so its SINR is 0."""
        model = random_model(seed, zero_den_row=zero_den_row)
        if width is not None:
            set_block_width(monkeypatch, model, width)
        for n_select in range(1, model.n_cols + 1):
            chi, val = exhaustive_search(model, n_select)
            supp, best = exhaustive_search_reference(model, n_select)
            assert tuple(np.flatnonzero(chi)) == supp
            assert val == best

    def test_memory_bounded(self):
        """K' = 50, C = 40, N = 4: every temporary stays block-sized."""
        model = random_model(3, n_rows=50, n_cols=40)
        tracemalloc.start()
        try:
            exhaustive_search(model, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

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
                terms = base.terms.copy()
                terms[:, :, b] = terms[:, :, a]
                model = RateModel(base.grid_rows, base.rho, base.pbar, terms)
                first, second = sorted([best, tuple(sorted(set(best) - {a} | {b}))])
                if brute_force(model, self.N_SELECT)[0] == first:
                    assert (model.weighted_sum(np.array(second))
                            == model.weighted_sum(np.array(first)))
                    return model, first, second
        pytest.fail("no adjacent column copy keeps the tied pair optimal")

    def _blocks(self, model, first, second, width):
        blocks = block_of(model, self.N_SELECT, width)
        return blocks[first], blocks[second]

    def _check(self, monkeypatch, model, first, width):
        set_block_width(monkeypatch, model, width)
        chi, val = exhaustive_search(model, self.N_SELECT)
        assert tuple(np.flatnonzero(chi)) == first
        assert val == model.weighted_sum(np.array(first))

    def _shared_width(self, model, first, second):
        """The smallest block width that scores the pair in one block."""
        for width in range(1, math.comb(model.n_cols, self.N_SELECT) + 1):
            b1, b2 = self._blocks(model, first, second, width)
            if b1 == b2:
                return width
        pytest.fail("the tied pair never shares a block")

    def test_tie_within_one_block(self, monkeypatch, tie):
        model, first, second = tie
        self._check(monkeypatch, model, first, self._shared_width(model, first, second))

    def test_tie_across_block_boundary(self, monkeypatch, tie):
        model, first, second = tie
        width = self._shared_width(model, first, second) - 1
        b1, b2 = self._blocks(model, first, second, width)
        assert b1 != b2
        self._check(monkeypatch, model, first, width)

    def test_tie_one_combination_per_block(self, monkeypatch, tie):
        model, first, _ = tie
        self._check(monkeypatch, model, first, 1)

    @pytest.mark.parametrize("width", [1, 5, 64])
    def test_lexicographically_later_scored_first(self, monkeypatch, width):
        """(1, 2, 3) is scored before (0, 5, 6), which is lexicographically
        first. Each grid's signal sums to 2 over either support, in integers,
        so the two tie exactly; every other support sums unevenly or lower."""
        unit = {0: (2, 0, 0), 5: (0, 2, 0), 6: (0, 0, 2),
                1: (1, 1, 0), 2: (0, 1, 1), 3: (1, 0, 1)}
        terms = np.stack([np.zeros((3, 8)), np.zeros((3, 8)), np.ones((3, 8))])
        for col, signal in unit.items():
            terms[0, :, col] = signal
        model = RateModel(np.arange(3), np.ones(3), np.full(3, 1e3), terms)
        first, second = (0, 5, 6), (1, 2, 3)
        set_block_width(monkeypatch, model, width)
        blocks = block_of(model, self.N_SELECT, width)
        assert blocks[second] < blocks[first]
        assert exhaustive_search_reference(model, self.N_SELECT)[0] == first
        assert model.weighted_sum(np.array(second)) == model.weighted_sum(np.array(first))
        chi, val = exhaustive_search(model, self.N_SELECT)
        assert tuple(np.flatnonzero(chi)) == first
        assert val == model.weighted_sum(np.array(first))
