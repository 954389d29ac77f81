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
from xlma.lp import SimplexResult, solve_simplex
from xlma.optimizer import LpProblem, _check_certificate, build_init_lp, solve_lp
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
        gains = data.draw(hnp.arrays(float, (3, n_grids, n_cols),
                                     elements=st.floats(0.1, 10.0)))
        model = RateModel(np.arange(n_grids), rho, np.ones(n_grids), np.ones(n_cols),
                          gains[0], gains[1], gains[2] + gains[0])
        scenario = SimpleNamespace(distribution=SimpleNamespace(rho=rho),
                                   n_subarrays=n_select)
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
    def test_unbounded_detected(self):
        res = solve_simplex(np.array([1.0]), np.zeros((0, 1)), [], np.array([]))
        assert res.status == "unbounded"

    def test_infeasible_detected(self):
        res = solve_simplex(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            ["="],
            np.array([5.0]),
            upper=np.array([1.0, 1.0]),
        )
        assert res.status == "infeasible"

    def test_fuzz_against_scipy_general(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(0, 4))
            c = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            rels = [str(rng.choice(["<=", ">=", "="])) for _ in range(m)]
            b = rng.normal(size=m)
            upper = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0.5, 2.5, n))
            mine = solve_simplex(c, a, rels, b, upper)
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for row, rel, bb in zip(a, rels, b):
                if rel == "<=":
                    a_ub.append(row)
                    b_ub.append(bb)
                elif rel == ">=":
                    a_ub.append(-row)
                    b_ub.append(-bb)
                else:
                    a_eq.append(row)
                    b_eq.append(bb)
            ref = linprog(
                -c,
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=b_ub or None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=b_eq or None,
                bounds=[(0, u if np.isfinite(u) else None) for u in upper],
                method="highs",
            )
            if ref.status == 2:
                assert mine.status == "infeasible"
            elif ref.status == 3:
                assert mine.status == "unbounded"
            else:
                assert mine.status == "optimal"
                assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)
