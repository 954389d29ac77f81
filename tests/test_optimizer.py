import itertools
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_scenario
from oracles import exhaustive_search_reference
from xlma.channel import build_gain_tables
from xlma.errors import ConfigurationError, DomainError
from xlma.optimizer import (
    SelectionState,
    best_replacement,
    build_init_lp,
    exhaustive_search,
    round_top_n,
    select_victim,
    successive_replacement,
)
from xlma import optimizer, rate
from xlma.pipeline import ScenarioContext
from xlma.presets import PRESETS
from xlma.rate import RateModel
from xlma.scenario import load_scenario, visibility_from_points


def build_ctx(sc, xi=None):
    cands = sc.candidates()
    if xi is None:
        xi = visibility_from_points(cands, sc.coverage, sc.obstacles,
                                    sc.visibility_samples, sc.rng_seed)
    gains = build_gain_tables(sc, cands, xi, np.arange(sc.coverage.n_grids))
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

    @staticmethod
    def _scored_state(values, replaced=()):
        """A selection whose slot s, when removed, leaves ``values[s]``."""
        model = SimpleNamespace(objective=lambda slot: values[slot])
        return SimpleNamespace(n_mu=list(range(len(values))), replaced_slots=set(replaced),
                               model=model, without=lambda col: col)

    @pytest.mark.parametrize("ulps", [1, 4])
    def test_near_tie_goes_to_the_lowest_slot(self, ulps):
        # The tie that rounding decided on paper_full_scale_3d_type3.
        tied = 32.337467674619454
        above = tied + ulps * np.spacing(tied)
        assert select_victim(self._scored_state([tied, above, 1.0])) == 0
        assert select_victim(self._scored_state([1.0, tied, above], replaced=[0])) == 1

    def test_clear_gain_goes_to_the_later_slot(self):
        tied = 32.337467674619454
        assert select_victim(self._scored_state([tied, tied + 5 * np.spacing(tied)])) == 1

    def test_useless_slot_selected_first(self):
        # A slot whose position is blocked toward every grid loses nothing.
        sc = make_scenario(n_y=12, k_x=2, k_y=2, kappa=np.inf,
                           rho=[0.6, 0.5, 0.4, 0.7], seed=9)
        cands = sc.candidates()
        xi = np.ones((4, 12), dtype=np.uint8)
        xi[:, 5] = 0  # candidate 5 sees nothing
        gains = build_gain_tables(sc, cands, xi, np.arange(4))
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

    def test_replacement_near_tie_goes_to_the_lowest_column(self):
        """Column b > a copies the best candidate a with its signal raised a
        few ulps: within ``VICTIM_TIE_ULPS`` of a's score, a is kept, as
        ``select_victim`` keeps the lowest slot; past it, b wins."""
        base = random_model(1)
        scores = base.marginal_objective(SelectionState(base, [0, 4, 8]).without(4))
        scores[[0, 8]] = -np.inf
        a, b = int(np.argmax(scores)), base.n_cols - 1
        assert a < b
        outcomes = set()
        for ulps in range(0, 400, 8):
            terms = base.terms.copy()
            terms[:, b] = terms[:, a]
            terms[0, b] *= 1.0 + ulps * np.finfo(float).eps
            model = RateModel(base.grid_rows, base.rho, base.pbar, terms)
            state = SelectionState(model, [0, 4, 8])
            scores = model.marginal_objective(state.without(4))
            gain = (scores[b] - scores[a]) / np.spacing(scores[a])
            near = gain <= optimizer.VICTIM_TIE_ULPS
            assert best_replacement(model, state, 1) == ((a, scores[a]) if near
                                                          else (b, scores[b]))
            outcomes.add("tie" if gain <= 0 else "near" if near else "gain")
        assert outcomes == {"tie", "near", "gain"}

    def test_first_best_keeps_an_infinite_best(self):
        assert optimizer.first_best([-np.inf, 1.0, np.inf, np.inf]) == 2
        assert optimizer.first_best([-np.inf, -np.inf]) == 0


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
        # subarray, at most one subarray per position among the candidates.
        n_mu = np.asarray(result.n_mu)
        assert n_mu.shape == (4,) and len(set(result.n_mu)) == 4
        assert 0 <= n_mu.min() and n_mu.max() < model.n_cols

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
        support, val = exhaustive_search(model, 5)
        np.testing.assert_array_equal(support, np.arange(5))

    def test_n1_equals_argmax(self):
        sc = make_scenario(n_y=9, k_x=2, k_y=2, kappa=9.0,
                           rho=[0.5, 0.6, 0.4, 0.3], seed=8)
        model, _ = build_ctx(sc)
        support, val = exhaustive_search(model, 1)
        marg = [model.weighted_sum(np.array([c])) for c in range(model.n_cols)]
        assert val == pytest.approx(max(marg), rel=1e-12)
        assert support.tolist() == [int(np.argmax(marg))]

    def test_matches_itertools_brute_force(self):
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=11.0,
                           rho=[0.6, 0.5, 0.4, 0.7], seed=2)
        model, _ = build_ctx(sc)
        support, val = exhaustive_search(model, 3)
        supp, best = brute_force(model, 3)
        assert val == best
        assert tuple(support) == supp

    def test_limit_refusal_reports_count(self, monkeypatch):
        sc = make_scenario(n_y=30, k_x=2, k_y=1, rho=[0.5, 0.5], n_subarrays=10)
        model, _ = build_ctx(sc)
        monkeypatch.setattr(optimizer, "EXHAUSTIVE_LIMIT", 1000)
        with pytest.raises(ConfigurationError, match="30045015"):
            exhaustive_search(model, 10)


def set_block_width(monkeypatch, model, width):
    """Make exhaustive_search's screen score at most ``width`` combinations
    per float32 block."""
    monkeypatch.setattr(rate, "ASSEMBLY_BLOCK_BYTES", 4 * len(model.rho) * width)


def chunk_of(model, n_select, width):
    """{support: index of the chunk that scores it} for ``width``, N >= 2:
    for each second-largest column x, chunks of at most ``width // 4``
    heads in lexicographic order, each with every tail past x. A chunk's
    rescore keeps its first maximum."""
    chunks, chunk = {}, itertools.count()
    n_cols = model.n_cols
    per_chunk = max(1, width // 4)
    for x in range(n_select - 2, n_cols - 1):
        heads = list(itertools.combinations(range(x), n_select - 2))
        for h in range(0, len(heads), per_chunk):
            c = next(chunk)
            for head in heads[h:h + per_chunk]:
                for tail in range(x + 1, n_cols):
                    chunks[(*head, x, tail)] = c
    return chunks


def random_model(seed, n_rows=12, n_cols=10, zero_den_row=None):
    """Tables spread over many magnitudes, so sums round in every position."""
    rng = np.random.default_rng(seed)

    def table():
        return rng.uniform(0.1, 1.0, (n_rows, n_cols)) * 10.0 ** rng.uniform(-8, 8, (n_rows, 1))

    terms = np.stack([table(), table(), table()])
    if zero_den_row is not None:
        terms[2, zero_den_row] = 0.0
    return RateModel(np.arange(n_rows), rng.uniform(0.1, 1.0, n_rows),
                     10.0 ** rng.uniform(2, 9, n_rows),
                     np.ascontiguousarray(terms.transpose(0, 2, 1)))


class TestInitLp:
    # rho ranks the grids 3, 0, 1, 2: with N = 3, grid 2 is not a top grid.
    RHO = [0.6, 0.5, 0.4, 0.7]

    def _model(self, rows):
        sc = make_scenario(n_y=8, k_x=2, k_y=2, kappa=10.0, rho=self.RHO,
                           n_subarrays=3, seed=1)
        cands = sc.candidates()
        xi = np.random.default_rng(1).integers(0, 2, (len(rows), len(cands)), dtype=np.uint8)
        gains = build_gain_tables(sc, cands, xi, rows)
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


def test_every_scorer_reduces_through_objective(monkeypatch):
    """``marginal_objective``, and through it the rescore of
    ``exhaustive_search``, scores through ``RateModel.objective``, the only
    caller of ``log_rates``, and it and ``weighted_upper_bound`` weight
    through ``_weighted``: no scorer keeps a closed-form SINR or a weighted
    reduction of its own. The exhaustive value comes from ``objective``:
    with every value it returns scaled by 2**40, which keeps their order and
    ties, the search returns the same support at 2**40 times its value, and
    its float32 screen never calls ``log_rates``."""
    callers = {"log_rates": [], "objective": [], "_weighted": []}
    library_objective = RateModel.objective

    def spy(name, library):
        def traced(*args, **kwargs):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return library(*args, **kwargs)
        return traced

    monkeypatch.setattr(RateModel, "log_rates",
                        staticmethod(spy("log_rates", RateModel.log_rates)))
    for name in ("objective", "_weighted"):
        monkeypatch.setattr(RateModel, name, spy(name, getattr(RateModel, name)))
    model = random_model(0)

    def calls(score):
        """``score()`` and the callers each spy saw while it ran."""
        for names in callers.values():
            names.clear()
        result = score()
        return result, {name: names.copy() for name, names in callers.items()}

    assert calls(lambda: model.objective(model.sums([0, 4])))[1] == {
        "log_rates": ["objective"], "objective": ["<lambda>"], "_weighted": ["objective"]}
    assert calls(lambda: model.weighted_upper_bound([0, 4]))[1] == {
        "log_rates": [], "objective": [], "_weighted": ["weighted_upper_bound"]}
    monkeypatch.setattr(rate, "ASSEMBLY_BLOCK_BYTES", 8 * len(model.rho) * 3)
    n_blocks = -(-model.n_cols // 3)
    assert calls(model.marginal_objective)[1] == {
        "log_rates": ["objective"] * n_blocks, "objective": ["marginal_objective"] * n_blocks,
        "_weighted": ["objective"] * n_blocks}
    support, value = exhaustive_search(model, 3)
    assert value == model.weighted_sum(support)

    def scaled(self, sums):
        callers["objective"].append(sys._getframe(1).f_code.co_name)
        return 2.0**40 * library_objective(self, sums)

    monkeypatch.setattr(RateModel, "objective", scaled)
    (scaled_support, scaled_value), found = calls(lambda: exhaustive_search(model, 3))
    assert scaled_support.tolist() == support.tolist()
    assert scaled_value == 2.0**40 * value
    assert found["objective"] and set(found["objective"]) == {"marginal_objective"}
    assert set(found["log_rates"]) == {"objective"}


class TestExhaustiveBlocks:
    """The block oracle against the per-combination loop ``brute_force``."""

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_loop_for_every_n(self, seed):
        rng = np.random.default_rng(seed)
        sc = make_scenario(n_y=7, k_x=2, k_y=2, kappa=float(rng.uniform(2.0, 15.0)),
                           rho=list(rng.uniform(0.1, 0.9, 4)), seed=seed)
        model, _ = build_ctx(sc)
        for n_select in range(1, model.n_cols + 1):
            support, val = exhaustive_search(model, n_select)
            supp, best = brute_force(model, n_select)
            assert tuple(support) == supp
            assert val == best

    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_loop_across_block_boundaries(self, monkeypatch, width):
        sc = make_scenario(n_y=9, k_x=2, k_y=2, kappa=6.0,
                           rho=[0.3, 0.8, 0.5, 0.6], seed=4)
        model, _ = build_ctx(sc)
        for n_select in (1, 2, 3, 5):
            set_block_width(monkeypatch, model, width)
            support, val = exhaustive_search(model, n_select)
            supp, best = brute_force(model, n_select)
            assert tuple(support) == supp
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
            support, val = exhaustive_search(model, n_select)
            supp, best = exhaustive_search_reference(model, n_select)
            assert tuple(support) == supp
            assert val == best

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_column_is_first_maximum_of_marginal_objective(self, seed):
        """N = 1 returns the first argmax of the LP seed's vector, with its
        bits; of exact copies of the best column the first wins."""
        model = random_model(seed)
        values = model.marginal_objective()
        best = int(np.argmax(values))
        support, val = exhaustive_search(model, 1)
        assert support.tolist() == [best]
        assert val == values[best]
        copies = RateModel(model.grid_rows, model.rho, model.pbar,
                           np.repeat(model.terms[:, best:best + 1], 3, axis=1))
        assert exhaustive_search(copies, 1)[0].tolist() == [0]

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
                terms[:, b] = terms[:, a]
                model = RateModel(base.grid_rows, base.rho, base.pbar, terms)
                first, second = sorted([best, tuple(sorted(set(best) - {a} | {b}))])
                if brute_force(model, self.N_SELECT)[0] == first:
                    assert (model.weighted_sum(np.array(second))
                            == model.weighted_sum(np.array(first)))
                    return model, first, second
        pytest.fail("no adjacent column copy keeps the tied pair optimal")

    def _chunks(self, model, first, second, width):
        chunks = chunk_of(model, self.N_SELECT, width)
        return chunks[first], chunks[second]

    def _check(self, monkeypatch, model, first, width):
        set_block_width(monkeypatch, model, width)
        support, val = exhaustive_search(model, self.N_SELECT)
        assert tuple(support) == first
        assert val == model.weighted_sum(np.array(first))

    def _shared_width(self, model, first, second):
        """The smallest block width that scores the pair in one chunk."""
        for width in range(1, math.comb(model.n_cols, self.N_SELECT) + 1):
            b1, b2 = self._chunks(model, first, second, width)
            if b1 == b2:
                return width
        pytest.fail("the tied pair never shares a chunk")

    def test_tie_within_one_block(self, monkeypatch, tie):
        model, first, second = tie
        self._check(monkeypatch, model, first, self._shared_width(model, first, second))

    def test_tie_across_block_boundary(self, monkeypatch, tie):
        model, first, second = tie
        width = self._shared_width(model, first, second) - 1
        b1, b2 = self._chunks(model, first, second, width)
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
        terms = np.stack([np.zeros((8, 3)), np.zeros((8, 3)), np.ones((8, 3))])
        for col, signal in unit.items():
            terms[0, col] = signal
        model = RateModel(np.arange(3), np.ones(3), np.full(3, 1e3), terms)
        first, second = (0, 5, 6), (1, 2, 3)
        set_block_width(monkeypatch, model, width)
        chunks = chunk_of(model, self.N_SELECT, width)
        assert chunks[second] < chunks[first]
        assert exhaustive_search_reference(model, self.N_SELECT)[0] == first
        assert model.weighted_sum(np.array(second)) == model.weighted_sum(np.array(first))
        support, val = exhaustive_search(model, self.N_SELECT)
        assert tuple(support) == first
        assert val == model.weighted_sum(np.array(first))


@pytest.mark.parametrize("preset", ["desk_partial_los", "paper_partial_los_1d",
                                    "desk_full_los", "desk_partial_los_3d_type1"])
def test_every_scorer_gives_a_support_the_same_bits(preset):
    """``marginal_objective`` scores each column added to kept sums with the
    bits of ``objective``, and ``exhaustive_search`` returns the bits of
    ``weighted_sum`` of its own support (pure-LoS presets and a Rician one)."""
    ctx = ScenarioContext.build(load_scenario(PRESETS[preset]()))
    model = ctx.model
    n_mu = ctx.plan().n_mu
    kept = SelectionState(model, n_mu).without(n_mu[0])
    scores = model.marginal_objective(kept)
    alone = model.marginal_objective()
    for n in range(model.n_cols):
        assert scores[n] == model.objective(kept + model.terms[:, n])
        assert alone[n] == model.objective(model.terms[:, n])
    head = RateModel(model.grid_rows, model.rho, model.pbar, model.terms[:, :16])
    for n_select in (1, 2, 4):
        support, value = exhaustive_search(head, n_select)
        assert value == head.weighted_sum(support)


def screen_variants(seed, n_cols=40):
    """``random_model`` and the zero terms the screen must cover: as drawn;
    a grid whose every denominator term is 0 (its rate is 0); blocked
    entries scattered, with mean and denominator 0; and pure LoS, every
    variance 0."""
    base = random_model(seed, n_cols=n_cols)
    models = [base, random_model(seed, n_cols=n_cols, zero_den_row=3)]
    blocked = np.random.default_rng(seed).random(base.terms.shape[1:]) < 0.3
    terms = base.terms.copy()
    terms[0][blocked] = terms[2][blocked] = 0.0
    models.append(RateModel(base.grid_rows, base.rho, base.pbar, terms))
    terms = base.terms.copy()
    terms[1] = 0.0
    models.append(RateModel(base.grid_rows, base.rho, base.pbar, terms))
    return models


class TestScreen:
    """The float32 screen of ``exhaustive_search`` and its bound."""

    @pytest.mark.parametrize("seed", range(4))
    def test_error_within_a_quarter_of_the_bound(self, seed):
        """|V32 - V64| <= E/4 on every subset of random heads of N - 1
        columns and each tail past them: at least 25,000 subsets a seed."""
        rng = np.random.default_rng(seed)
        checked = 0
        for model in screen_variants(seed):
            n_cols = model.n_cols
            for n_select in (2, 3, 5, 8):
                screen = optimizer._Screen.of(model, n_select)
                assert screen is not None
                heads = np.sort(rng.random((800, n_cols)).argsort(axis=1)[:, :n_select - 1], axis=1)
                v32 = screen.chunk(heads, 0, 4096)
                v64 = model.marginal_objective(optimizer._fold(model.terms, heads, axis=1))
                subsets = np.arange(n_cols) > heads[:, -1:]
                bound = screen.err_fixed + screen.err_per_value * v64
                assert v32.dtype == np.float32
                assert (np.abs(v32 - v64) <= bound / 4)[subsets].all()
                checked += subsets.sum()
        assert checked >= 25_000

    @pytest.mark.parametrize("seed", range(10))
    def test_random_models_pass_the_guard(self, seed):
        """Terms spread over about 2**-30 to 2**57 once folded, every N."""
        model = random_model(seed)
        for n_select in range(2, model.n_cols + 1):
            assert optimizer._Screen.of(model, n_select) is not None

    @pytest.mark.parametrize("k", [-60, 40])
    def test_a_power_of_two_rescale_keeps_the_screen(self, k):
        """Means times 2**k and variances and denominators times 4**k leave
        every float64 value as it is, and would leave float32 out of range
        without the screen's own power of two: the guard still passes, and
        the search returns the same support and value."""
        base = random_model(4)
        terms = base.terms * np.ldexp(1.0, [[[k]], [[2 * k]], [[2 * k]]])
        model = RateModel(base.grid_rows, base.rho, base.pbar, terms)
        for n_select in (2, 3, 5):
            assert optimizer._Screen.of(model, n_select) is not None
            support, value = exhaustive_search(model, n_select)
            expected = exhaustive_search(base, n_select)
            assert support.tolist() == expected[0].tolist()
            assert value == expected[1]

    def test_float32_log2_within_the_bound(self):
        """numpy's float32 log2 is within ``SCREEN_LOG2_ULPS`` ulps of the
        float64 one on every float32 in [1, 1 + 2**-7] and on 2**21
        log-spaced ones up to 2**127, and exact at 1."""
        x = np.concatenate([1.0 + np.arange(2**16) * 2.0**-23,
                            np.exp2(np.linspace(0.0, 127.0, 2**21))]).astype(np.float32)
        ref = np.log2(x.astype(float))
        ulps = np.abs(np.log2(x) - ref) / np.spacing(np.abs(ref).astype(np.float32))
        assert ulps.max() <= optimizer.SCREEN_LOG2_ULPS
        assert np.log2(np.float32(1.0)) == 0.0

    @pytest.mark.parametrize("noisy", [False, True])
    def test_supports_a_few_ulps_apart_the_higher_wins(self, monkeypatch, noisy):
        """Column b copies column a of the best support, its signal raised
        or lowered in steps of one eps, so that the support holding b scores
        1-4 spacings above or below the one holding a. The float32 screen
        cannot tell them apart; the float64 rescore picks the higher. So it
        does when every screen value is pushed by up to 0.9 E at random, as
        a screen may be within its bound."""
        if noisy:
            rng = np.random.default_rng(5)
            block = optimizer._Screen._block

            def pushed(self, head_sums, tails):
                values = block(self, head_sums, tails).astype(float)
                bound = self.err_fixed + self.err_per_value * values
                return values + 0.9 * bound * rng.uniform(-1.0, 1.0, values.shape)

            monkeypatch.setattr(optimizer._Screen, "_block", pushed)
        base = random_model(1)
        first, _ = exhaustive_search_reference(base, 3)
        a = first[1]
        b = next(c for c in (a + 1, a - 1) if c not in first)
        other = tuple(sorted(set(first) - {a} | {b}))
        seen = set()
        for step in range(-300, 301):
            terms = base.terms.copy()
            terms[:, b] = terms[:, a]
            terms[0, b] *= 1.0 + step * np.finfo(float).eps
            model = RateModel(base.grid_rows, base.rho, base.pbar, terms)
            low, high = model.weighted_sum(np.array(first)), model.weighted_sum(np.array(other))
            gap = (high - low) / np.spacing(low)
            if not 1 <= abs(gap) <= 4:
                continue
            supp, best = exhaustive_search_reference(model, 3)
            if supp not in (first, other):
                continue
            support, value = exhaustive_search(model, 3)
            assert tuple(support) == (other if gap > 0 else first) == supp
            assert value == best == max(low, high)
            seen.add(np.sign(gap) * gap)
        assert {1, 2, 3, 4} <= seen

    def test_every_subset_tied_gives_the_first_within_the_memory_bound(self):
        """All columns alike: every subset is rescored, and (0, ..., N - 1)
        wins with the 1 MB peak of ``test_memory_bounded``."""
        base = random_model(3, n_rows=50, n_cols=40)
        model = RateModel(base.grid_rows, base.rho, base.pbar,
                          np.repeat(base.terms[:, :1], 40, axis=1))
        tracemalloc.start()
        try:
            support, value = exhaustive_search(model, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert support.tolist() == [0, 1, 2, 3]
        assert value == model.weighted_sum(support)
        assert peak <= 1_000_000

    @pytest.mark.parametrize("entry", [-1e-3, np.inf, 1e300])
    @pytest.mark.parametrize("term", [0, 1, 2])
    def test_models_outside_the_guard_equal_the_reference(self, entry, term):
        """A negative, infinite or 1e300 term fails the guard; every subset
        is then rescored, to the reference's support and value."""
        base = random_model(2)
        terms = base.terms.copy()
        terms[term, 5, 3] = entry
        model = RateModel(base.grid_rows, base.rho, base.pbar, terms)
        with np.errstate(all="ignore"):
            for n_select in (2, 3, 4):
                assert optimizer._Screen.of(model, n_select) is None
                support, value = exhaustive_search(model, n_select)
                supp, best = exhaustive_search_reference(model, n_select)
                assert tuple(support) == supp
                assert value == best

    @pytest.mark.parametrize("preset, n_select", [("desk_partial_los_3d_type1", 3),
                                                  ("desk_partial_los", 2)])
    def test_a_preset_rescores_few_subsets(self, monkeypatch, preset, n_select):
        """On a Rician preset and a pure-LoS one with zero-denominator
        terms, the float64 rescore scores under 5% of the subsets, and the
        search returns the reference's support and value."""
        model = ScenarioContext.build(load_scenario(PRESETS[preset]())).model
        assert optimizer._Screen.of(model, n_select) is not None
        scored = []
        marginal = RateModel.marginal_objective

        def counted(self, kept=None, start=0):
            values = marginal(self, kept, start)
            scored.append(values.size)
            return values

        monkeypatch.setattr(RateModel, "marginal_objective", counted)
        support, value = exhaustive_search(model, n_select)
        assert 0 < sum(scored) < math.comb(model.n_cols, n_select) / 20
        supp, best = exhaustive_search_reference(model, n_select)
        assert tuple(support) == supp
        assert value == best
