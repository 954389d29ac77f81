"""Dense two-phase simplex for the placement LP.

It solves one problem shape, the LP relaxation that seeds successive
replacement:

    max c^T x  s.t.  sum(x) = N,  coverage @ x >= 1,  0 <= x <= 1.

Upper bounds are handled inside the ratio test (bounded-variable simplex)
rather than as explicit rows, so a placement LP with thousands of variables
still has only 1 + (coverage rows) tableau rows. Entering and leaving
choices use Bland's rule (lowest eligible index), which is anti-cycling and
makes every solve deterministic. The entering choice is one vectorized scan
of the reduced costs; the ratio test walks the few rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RC_TOL = 1e-9
PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    primal_residual: float = np.nan
    dual_residual: float = np.nan


class _Tableau:
    """Working state: T = B^-1 A maintained by pivoting, x_B explicit.

    The last m columns of ``a`` are the artificials, the starting basis.
    """

    def __init__(self, a, b, upper):
        self.t = a.copy()
        self.m, n = a.shape
        self.upper = upper
        self.status = np.full(n, AT_LOWER, dtype=np.int8)
        self.basis = np.arange(n - self.m, n)
        self.status[self.basis] = BASIC
        self.x_basic = b
        self.iterations = 0

    def set_basic(self, row: int, col: int):
        self.basis[row] = col
        self.status[col] = BASIC

    def solution(self) -> np.ndarray:
        x = np.where(self.status == AT_UPPER, self.upper, 0.0)
        x[self.basis] = self.x_basic
        return x

    def pivot(self, row: int, col: int):
        piv = self.t[row, col]
        self.t[row] /= piv
        factors = self.t[:, col].copy()
        factors[row] = 0.0
        self.t -= np.outer(factors, self.t[row])

    def entering(self, rc) -> tuple[int, int]:
        """Bland's entering column for reduced costs ``rc`` and its direction
        (1 up from the lower bound, -1 down from the upper), or (-1, 0) at
        optimality: the lowest-index nonbasic column with room to move
        whose reduced cost improves the objective."""
        at_lower = self.status == AT_LOWER
        eligible = (self.upper > 0.0) & np.where(
            at_lower, rc > RC_TOL, (self.status == AT_UPPER) & (rc < -RC_TOL))
        j = int(np.argmax(eligible))
        if not eligible[j]:
            return -1, 0
        return j, 1 if at_lower[j] else -1

    def run(self, c, max_iterations) -> str:
        """Bland-rule bounded simplex, maximizing c^T x. Mutates in place."""
        while True:
            if self.iterations >= max_iterations:
                return "iteration_limit"
            entering, direction = self.entering(c - c[self.basis] @ self.t)
            if entering < 0:
                return "optimal"

            # Ratio test: smallest step among basic-variable limits and the
            # entering variable's own bound span; ties leave the basic
            # variable with the lowest index (Bland). It walks Python floats,
            # which round every operation as float64 does.
            col = self.t[:, entering]
            basis = self.basis.tolist()
            x_basic = self.x_basic.tolist()
            upper = self.upper[self.basis].tolist()
            row_step = math.inf
            leave_row = -1
            leave_at_upper = False
            for i, entry in enumerate(col.tolist()):
                delta = direction * entry
                if delta > PIVOT_TOL:
                    limit = max(x_basic[i], 0.0) / delta
                    hits_upper = False
                elif delta < -PIVOT_TOL and math.isfinite(upper[i]):
                    limit = (upper[i] - x_basic[i]) / (-delta)
                    hits_upper = True
                else:
                    continue
                if (limit < row_step - PIVOT_TOL
                        or (limit <= row_step + PIVOT_TOL
                            and (leave_row < 0 or basis[i] < basis[leave_row]))):
                    row_step = min(row_step, limit)
                    leave_row = i
                    leave_at_upper = hits_upper
            flip_step = self.upper[entering]
            step = min(row_step, flip_step)
            if not np.isfinite(step):
                return "unbounded"

            step = max(step, 0.0)
            self.x_basic -= direction * step * col
            self.iterations += 1
            if flip_step < row_step - PIVOT_TOL or leave_row < 0:
                # Entering variable travels to its opposite bound; no pivot.
                self.status[entering] = AT_UPPER if direction == 1 else AT_LOWER
                continue
            leaving = self.basis[leave_row]
            self.status[leaving] = AT_UPPER if leave_at_upper else AT_LOWER
            entering_value = step if direction == 1 else self.upper[entering] - step
            self.pivot(leave_row, entering)
            self.set_basic(leave_row, entering)
            self.x_basic[leave_row] = entering_value
            # Clean tiny negatives from roundoff.
            np.clip(self.x_basic, 0.0, None, out=self.x_basic)


def solve_simplex(c, coverage, n_select: int) -> SimplexResult:
    """Solve max c^T x s.t. sum(x) = n_select, coverage @ x >= 1, 0 <= x <= 1.

    Tableau columns are the structural variables, then one surplus per
    coverage row, then one artificial per row (the sum row first). Returns
    the primal residual and the dual residual (reduced-cost sign violation)
    of the final basis, so callers can assert an optimality certificate.
    Complementary slackness holds by construction: every nonbasic variable
    sits exactly at one of its bounds.
    """
    c = np.asarray(c, float)
    n = len(c)
    coverage = np.asarray(coverage, float).reshape(-1, n)
    g = len(coverage)
    m = 1 + g
    cols = n + g
    a = np.zeros((m, cols + m))
    a[0, :n] = 1.0
    a[1:, :n] = coverage
    a[1 + np.arange(g), n + np.arange(g)] = -1.0
    a[np.arange(m), cols + np.arange(m)] = 1.0
    b = np.concatenate([[float(n_select)], np.ones(g)])
    upper = np.concatenate([np.ones(n), np.full(g + m, np.inf)])
    max_iterations = 1000 + 200 * (m + a.shape[1])

    tab = _Tableau(a, b, upper)
    c1 = np.zeros(a.shape[1])
    c1[cols:] = -1.0
    status = tab.run(c1, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, tab.iterations)
    if tab.x_basic[tab.basis >= cols].sum() > FEAS_TOL:
        return SimplexResult("infeasible", None, None, tab.iterations)
    # Pivot any lingering zero-level artificials out where possible
    # (degenerate pivots on at-lower columns keep the point unchanged).
    for row in range(m):
        if tab.basis[row] >= cols:
            movable = (tab.status[:cols] == AT_LOWER) & (np.abs(tab.t[row, :cols]) > 1e-7)
            if movable.any():
                j = int(np.argmax(movable))
                old = tab.basis[row]
                tab.pivot(row, j)
                tab.set_basic(row, j)
                tab.status[old] = AT_LOWER
                tab.x_basic[row] = max(tab.x_basic[row], 0.0)
    # Phase 2 holds the artificials at zero: a zero upper bound keeps them
    # out of the entering scan and stops any step that would lift one still
    # basic (as when every candidate must be selected).
    tab.upper[cols:] = 0.0

    c2 = np.zeros(a.shape[1])
    c2[:n] = c
    status = tab.run(c2, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, tab.iterations)

    x = tab.solution()[:n]
    lhs = a[:, :n] @ x  # [sum(x), coverage @ x]
    primal = max(0.0, abs(lhs[0] - n_select), np.max(1.0 - lhs[1:], initial=0.0),
                 np.max(-x, initial=0.0), np.max(x - 1.0, initial=0.0))
    rc = (c2 - c2[tab.basis] @ tab.t)[:cols]
    nonbasic = tab.status[:cols]
    dual = max(0.0, np.max(rc[nonbasic == AT_LOWER], initial=0.0),
               np.max(-rc[nonbasic == AT_UPPER], initial=0.0))
    return SimplexResult("optimal", x, float(c @ x), tab.iterations,
                         primal_residual=float(primal), dual_residual=float(dual))
