import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from xlma.errors import ConfigurationError
import xlma.optimizer
from xlma.lp import AT_LOWER, AT_UPPER, BASIC, RC_TOL, SimplexResult, _Tableau, solve_simplex
from xlma.optimizer import LpProblem, _check_certificate, build_init_lp, solve_lp
from xlma.pipeline import context_from_document
from xlma.presets import PRESETS
from xlma.rate import RateModel


def random_placement_lp(rng, n_max=20):
    """Random instance of the initialization-LP class."""
    n = int(rng.integers(4, n_max + 1))
    n_select = int(rng.integers(1, max(2, n // 2)))
    c = rng.uniform(0.05, 3.0, n)
    n_rows = int(rng.integers(0, 4))
    rows = np.zeros((n_rows, n))
    for r in range(n_rows):
        mask = rng.random(n) < rng.uniform(0.15, 0.5)
        mask[rng.integers(0, n)] = True
        rows[r] = mask.astype(float)
    return LpProblem(c=c, coverage_rows=rows, n_select=n_select)


def scipy_reference(problem: LpProblem):
    n = len(problem.c)
    g = len(problem.coverage_rows)
    res = linprog(
        -problem.c,
        A_ub=-problem.coverage_rows if g else None,
        b_ub=-np.ones(g) if g else None,
        A_eq=np.ones((1, n)),
        b_eq=[problem.n_select],
        bounds=(0, 1),
        method="highs",
    )
    return res


def enumerate_vertices(problem: LpProblem):
    """Exact optimum by enumerating vertices of the box/equality/coverage
    polytope: choose a fractional support F (at most 1 + #rows variables),
    an active row subset of matching size, and 0/1 values elsewhere.

    Exponential in n; used only for small instances.
    """
    n = len(problem.c)
    rows = [np.ones(n)] + [r for r in problem.coverage_rows]
    rhs = [float(problem.n_select)] + [1.0] * len(problem.coverage_rows)
    best = -np.inf
    max_free = len(rows)
    for n_free in range(0, max_free + 1):
        for free in itertools.combinations(range(n), n_free):
            fixed = [j for j in range(n) if j not in free]
            for bits in itertools.product((0.0, 1.0), repeat=len(fixed)):
                x = np.zeros(n)
                x[fixed] = bits
                for active in itertools.combinations(range(len(rows)), n_free):
                    if 0 not in active and n_free > 0:
                        continue  # equality row is always active
                    if n_free == 0:
                        xx = x.copy()
                    else:
                        a = np.array([rows[i][list(free)] for i in active])
                        b = np.array([rhs[i] - rows[i][fixed] @ x[fixed] for i in active])
                        try:
                            sol = np.linalg.solve(a, b)
                        except np.linalg.LinAlgError:
                            continue
                        xx = x.copy()
                        xx[list(free)] = sol
                    if np.any(xx < -1e-9) or np.any(xx > 1 + 1e-9):
                        continue
                    if abs(xx.sum() - problem.n_select) > 1e-9:
                        continue
                    if len(problem.coverage_rows) and np.any(
                        problem.coverage_rows @ xx < 1 - 1e-9
                    ):
                        continue
                    best = max(best, float(problem.c @ xx))
    return best


class TestSolveLp:
    def test_select_all_is_all_ones(self):
        problem = LpProblem(c=np.array([1.0, 2.0, 3.0]),
                            coverage_rows=np.zeros((0, 3)), n_select=3)
        sol = solve_lp(problem)
        np.testing.assert_allclose(sol.chi, 1.0)
        assert sol.result.status == "optimal"

    def test_single_pick_is_argmax(self):
        c = np.array([0.3, 2.0, 1.1, 0.7])
        problem = LpProblem(c=c, coverage_rows=np.zeros((0, 4)), n_select=1)
        sol = solve_lp(problem)
        np.testing.assert_allclose(sol.chi, [0, 1, 0, 0], atol=1e-12)

    def test_no_coverage_optimum_is_top_n_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 20))
            k = int(rng.integers(1, n))
            c = rng.uniform(0, 2, n)
            problem = LpProblem(c=c, coverage_rows=np.zeros((0, n)), n_select=k)
            sol = solve_lp(problem)
            assert sol.objective == pytest.approx(np.sort(c)[-k:].sum(), abs=1e-9)

    def test_random_instances_match_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            problem = random_placement_lp(rng)
            ref = scipy_reference(problem)
            if ref.status == 2:  # coverage infeasible with the budget
                with pytest.raises(ConfigurationError, match="infeasible"):
                    solve_lp(problem)
                continue
            assert ref.status == 0
            sol = solve_lp(problem)
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-8)
            assert sol.result.primal_residual <= 1e-8

    def test_vertex_enumeration_small_instances(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 12:
            problem = random_placement_lp(rng, n_max=8)
            if len(problem.c) > 8:
                continue
            exact = enumerate_vertices(problem)
            if not np.isfinite(exact):
                continue  # infeasible instance: solve_lp raises (tested above)
            sol = solve_lp(problem)
            assert sol.objective == pytest.approx(exact, abs=1e-8)
            done += 1

    def test_deterministic_across_reruns(self):
        rng = np.random.default_rng(3)
        problem = random_placement_lp(rng)
        a = solve_lp(problem)
        b = solve_lp(problem)
        assert np.array_equal(a.chi, b.chi)
        assert a.objective == b.objective

    def test_infeasible_coverage_raises(self):
        # Two disjoint coverage rows but only one subarray: infeasible. Only a
        # hand-built problem can be; build_init_lp's never are (below).
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        problem = LpProblem(c=np.array([1.0, 0.9, 0.1]),
                            coverage_rows=rows, n_select=1)
        with pytest.raises(ConfigurationError, match="status infeasible"):
            solve_lp(problem)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_grids=st.integers(1, 6), n_cols=st.integers(1, 10))
    def test_init_lp_is_always_feasible(self, data, n_grids, n_cols):
        # Random visibility (rows with and without a visible candidate),
        # random rho with zeros, any N <= N0: solve_lp never raises.
        xi = data.draw(hnp.arrays(np.uint8, (n_grids, n_cols), elements=st.integers(0, 1)))
        xi[data.draw(hnp.arrays(bool, n_grids))] = 0
        rho = data.draw(hnp.arrays(float, n_grids,
                                   elements=st.sampled_from([0.0, 0.1, 0.5, 1.0])))
        n_select = data.draw(st.integers(1, n_cols))
        gains = data.draw(hnp.arrays(float, (3, n_cols, n_grids),
                                     elements=st.floats(0.1, 10.0)))
        gains[2] += gains[0]  # a denominator term holds its column's signal term
        model = RateModel(np.arange(n_grids), rho, np.ones(n_grids), gains)
        scenario = SimpleNamespace(rho=rho, n_subarrays=n_select)
        problem = build_init_lp(scenario, model, xi)
        sol = solve_lp(problem)
        assert sol.result.status == "optimal"
        assert sol.chi.sum() == pytest.approx(n_select)
        assert np.all(problem.coverage_rows @ sol.chi >= 1.0 - 1e-9)


def tampered_result(n, residual):
    """An 'optimal' result selecting the first candidate, with a bad certificate."""
    x = np.zeros(n)
    x[0] = 1.0
    return SimplexResult(
        "optimal", x, 1.0, 1,
        primal_residual=residual, dual_residual=residual,
    )


class TestCertificate:
    @pytest.mark.parametrize("residual", [1e-3, np.nan])
    def test_tampered_certificate_raises(self, residual):
        with pytest.raises(ConfigurationError, match="certificate"):
            _check_certificate(tampered_result(3, residual))

    def test_primal_residual_alone_raises(self):
        res = SimplexResult("optimal", np.ones(2), 2.0, 1, primal_residual=1e-3,
                            dual_residual=0.0)
        with pytest.raises(ConfigurationError, match="primal_residual"):
            _check_certificate(res)

    @pytest.mark.parametrize("residual", [1e-3, np.nan])
    def test_solve_lp_rejects_tampered_solve(self, monkeypatch, residual):
        monkeypatch.setattr(
            xlma.optimizer, "solve_simplex",
            lambda c, *args, **kwargs: tampered_result(len(c), residual),
        )
        problem = LpProblem(c=np.array([1.0, 0.5, 0.2]),
                            coverage_rows=np.zeros((0, 3)), n_select=1)
        with pytest.raises(ConfigurationError, match="certificate"):
            solve_lp(problem)


class TestSimplexCore:
    @pytest.mark.parametrize("c, coverage, n_select", [
        # More subarrays than candidates.
        ([1.0, 1.0], np.zeros((0, 2)), 5),
        # A coverage row with no visible candidate.
        ([1.0, 0.5, 0.2], [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], 2),
        # Two disjoint coverage rows but only one subarray.
        ([1.0, 0.9, 0.1], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1),
    ])
    def test_infeasible_detected(self, c, coverage, n_select):
        res = solve_simplex(np.array(c), np.array(coverage), n_select)
        assert res.status == "infeasible"
        assert res.x is None and res.objective is None

    def test_select_all_with_a_negative_cost(self):
        # Every candidate must be selected, so the sum row's artificial is
        # still basic (at zero) after phase 1. Phase 2 wants x[1] lower and
        # may not get there by lifting that artificial.
        coverage = np.array([[1.0, 0, 0, 0], [1, 0, 1, 1], [1, 1, 1, 1], [0, 1, 1, 0]])
        res = solve_simplex(np.array([0.76, -0.41, 2.22, 0.76]), coverage, 4)
        assert res.status == "optimal"
        np.testing.assert_array_equal(res.x, np.ones(4))
        assert res.primal_residual == 0.0

    def test_ties_go_to_the_lowest_index(self):
        res = solve_simplex(np.ones(4), np.zeros((0, 4)), 2)
        np.testing.assert_array_equal(res.x, [1.0, 1.0, 0.0, 0.0])
        res = solve_simplex(np.ones(4), np.array([[0.0, 0.0, 1.0, 1.0]]), 1)
        np.testing.assert_array_equal(res.x, [0.0, 0.0, 1.0, 0.0])

    def test_fuzz_against_scipy_placement_shape(self):
        # Denser and sparser coverage rows, some empty, more rows than the
        # budget can meet: both feasible and infeasible instances.
        rng = np.random.default_rng(11)
        statuses = set()
        for _ in range(120):
            n = int(rng.integers(1, 16))
            n_select = int(rng.integers(1, n + 1))
            c = rng.uniform(-1.0, 3.0, n)
            coverage = (rng.random((int(rng.integers(0, 6)), n))
                        < rng.uniform(0.05, 0.6)).astype(float)
            problem = LpProblem(c=c, coverage_rows=coverage, n_select=n_select)
            mine = solve_simplex(c, coverage, n_select)
            ref = scipy_reference(problem)
            assert ref.status in (0, 2)
            assert mine.status == ("optimal" if ref.status == 0 else "infeasible")
            statuses.add(mine.status)
            if ref.status == 0:
                assert mine.objective == pytest.approx(-ref.fun, abs=1e-8)
                assert max(mine.primal_residual, mine.dual_residual) <= 1e-8
        assert statuses == {"optimal", "infeasible"}


def loop_entering(status, upper, rc):
    """Bland's entering choice, column by column: the reference for the scan."""
    for j in range(len(rc)):
        if status[j] == BASIC or upper[j] <= 0.0:
            continue
        if status[j] == AT_LOWER and rc[j] > RC_TOL:
            return j, 1
        if status[j] == AT_UPPER and rc[j] < -RC_TOL:
            return j, -1
    return -1, 0


def test_entering_scan_matches_the_column_loop():
    # Reduced costs on and next to the tolerance, bounds 0 (held), 1 and inf.
    rng = np.random.default_rng(5)
    rcs = np.array([-1.0, -2 * RC_TOL, -RC_TOL, 0.0, RC_TOL, 2 * RC_TOL, 1.0])
    for _ in range(2000):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, n + 1))
        tab = _Tableau(np.zeros((m, n)), np.zeros(m), rng.choice([0.0, 1.0, np.inf], n))
        tab.status[:] = rng.choice([AT_LOWER, AT_UPPER, BASIC], n)
        rc = rng.choice(rcs, n)
        assert tab.entering(rc) == loop_entering(tab.status, tab.upper, rc)


@pytest.mark.parametrize("preset, iterations, n_mu", [
    ("desk_full_los", 34, [13, 14, 15, 86]),
    ("desk_full_los_2d", 38, [0, 1, 2, 8, 11, 9, 18, 10]),
    ("desk_partial_los", 130, [11, 12, 13, 91]),
    ("desk_partial_los_3d_type1", 23, [4, 27, 22, 37]),
    ("desk_partial_los_3d_type2", 35, [1, 7, 8, 0]),
    ("desk_partial_los_3d_type3", 18, [3, 6, 13, 16]),
    ("desk_single_grid", 51, [23, 24, 25]),
    ("paper_full_los_1d", 35, [94, 93, 11, 12, 13, 14, 15, 16]),
    ("paper_partial_los_1d", 220, [96, 94, 95, 10, 11, 12, 13, 14]),
])
def test_preset_pivots_and_placement_pinned(preset, iterations, n_mu):
    # Bland's rule fixes the pivot sequence, so the iteration count and the
    # placement it seeds change only if the pivoting does.
    result = context_from_document(PRESETS[preset]()).plan()
    assert result.lp.result.iterations == iterations
    assert result.n_mu == n_mu
