"""Dense two-phase simplex for small-row, box-constrained linear programs.

Upper bounds are handled inside the ratio test (bounded-variable simplex)
rather than as explicit rows, so a placement LP with thousands of variables
still has only a handful of tableau rows. Entering and leaving choices use
Bland's rule (lowest eligible index), which is anti-cycling and makes every
solve deterministic.
"""

from __future__ import annotations

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
    """Working state: T = B^-1 A maintained by pivoting, x_B explicit."""

    def __init__(self, a, b, upper):
        self.t = np.asarray(a, float).copy()
        self.m, self.n = self.t.shape
        self.upper = np.asarray(upper, float).copy()
        self.status = np.full(self.n, AT_LOWER, dtype=np.int8)
        self.basis = np.full(self.m, -1, dtype=int)
        self.x_basic = np.asarray(b, float).copy()
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

    def run(self, c, allowed, max_iterations) -> str:
        """Bland-rule bounded simplex, maximizing c^T x. Mutates in place."""
        c = np.asarray(c, float)
        while True:
            if self.iterations >= max_iterations:
                return "iteration_limit"
            rc = c - c[self.basis] @ self.t
            entering = -1
            direction = 0
            for j in range(self.n):
                if not allowed[j] or self.status[j] == BASIC or self.upper[j] <= 0.0:
                    continue
                if self.status[j] == AT_LOWER and rc[j] > RC_TOL:
                    entering, direction = j, 1
                    break
                if self.status[j] == AT_UPPER and rc[j] < -RC_TOL:
                    entering, direction = j, -1
                    break
            if entering < 0:
                return "optimal"

            # Ratio test: smallest step among basic-variable limits and the
            # entering variable's own bound span; ties leave the basic
            # variable with the lowest index (Bland).
            col = self.t[:, entering]
            row_step = np.inf
            leave_row = -1
            leave_at_upper = False
            for i in range(self.m):
                delta = direction * col[i]
                if delta > PIVOT_TOL:
                    limit = max(self.x_basic[i], 0.0) / delta
                    hits_upper = False
                elif delta < -PIVOT_TOL and np.isfinite(self.upper[self.basis[i]]):
                    limit = (self.upper[self.basis[i]] - self.x_basic[i]) / (-delta)
                    hits_upper = True
                else:
                    continue
                if (limit < row_step - PIVOT_TOL
                        or (limit <= row_step + PIVOT_TOL
                            and (leave_row < 0
                                 or self.basis[i] < self.basis[leave_row]))):
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


def solve_simplex(
    c,
    a,
    relations,
    b,
    upper=None,
    max_iterations: int | None = None,
) -> SimplexResult:
    """Solve max c^T x s.t. A x (<=, >=, =) b, 0 <= x <= upper.

    Returns the primal residual and the dual residual (reduced-cost sign
    violation) of the final basis, so callers can assert an optimality
    certificate. Complementary slackness holds by construction: every
    nonbasic variable sits exactly at one of its bounds.
    """
    c = np.asarray(c, float)
    a = np.atleast_2d(np.asarray(a, float))
    b = np.asarray(b, float).copy()
    relations = list(relations)
    n = len(c)
    m = len(b)
    if upper is None:
        upper = np.full(n, np.inf)
    upper = np.asarray(upper, float)
    a = a.copy()
    rel = []
    for i, r in enumerate(relations):
        if b[i] < 0:
            a[i] *= -1
            b[i] *= -1
            r = {"<=": ">=", ">=": "<=", "=": "="}[r]
        rel.append(r)

    # Columns: structural | slack/surplus | artificial.
    n_slack = sum(1 for r in rel if r != "=")
    slack_of = {}
    art_rows = []
    cols = n + n_slack
    slack_idx = n
    ext_a = np.zeros((m, cols))
    ext_a[:, :n] = a
    ext_upper = np.concatenate([upper, np.full(n_slack, np.inf)])
    for i, r in enumerate(rel):
        if r == "<=":
            ext_a[i, slack_idx] = 1.0
            slack_of[i] = slack_idx
            slack_idx += 1
        elif r == ">=":
            ext_a[i, slack_idx] = -1.0
            slack_of[i] = slack_idx
            slack_idx += 1
            art_rows.append(i)
        else:
            art_rows.append(i)
    n_art = len(art_rows)
    full_a = np.hstack([ext_a, np.zeros((m, n_art))])
    full_upper = np.concatenate([ext_upper, np.full(n_art, np.inf)])
    for j, i in enumerate(art_rows):
        full_a[i, cols + j] = 1.0

    if max_iterations is None:
        max_iterations = 1000 + 200 * (m + full_a.shape[1])

    tab = _Tableau(full_a, b, full_upper)
    for i, r in enumerate(rel):
        if r == "<=":
            tab.set_basic(i, slack_of[i])
    for j, i in enumerate(art_rows):
        tab.set_basic(i, cols + j)

    allowed = np.ones(full_a.shape[1], dtype=bool)
    if n_art:
        c1 = np.zeros(full_a.shape[1])
        c1[cols:] = -1.0
        status = tab.run(c1, allowed, max_iterations)
        if status != "optimal":
            return SimplexResult(status, None, None, tab.iterations)
        art_mask = np.zeros(full_a.shape[1], dtype=bool)
        art_mask[cols:] = True
        infeas = tab.x_basic[art_mask[tab.basis]].sum() if art_mask[tab.basis].any() else 0.0
        if infeas > FEAS_TOL:
            return SimplexResult("infeasible", None, None, tab.iterations)
        # Pivot any lingering zero-level artificials out where possible
        # (degenerate pivots on at-lower columns keep the point unchanged).
        for row in range(m):
            if art_mask[tab.basis[row]]:
                for j in range(cols):
                    if (tab.status[j] == AT_LOWER
                            and abs(tab.t[row, j]) > 1e-7):
                        old = tab.basis[row]
                        tab.pivot(row, j)
                        tab.set_basic(row, j)
                        tab.status[old] = AT_LOWER
                        tab.x_basic[row] = max(tab.x_basic[row], 0.0)
                        break
        allowed[cols:] = False

    c2 = np.zeros(full_a.shape[1])
    c2[:n] = c
    status = tab.run(c2, allowed, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, tab.iterations)

    x_full = tab.solution()
    x = x_full[:n]
    objective = float(c @ x)

    # Optimality certificate pieces from the final basis.
    lhs = a @ x
    primal = 0.0
    for i, r in enumerate(rel):
        if r == "<=":
            primal = max(primal, lhs[i] - b[i])
        elif r == ">=":
            primal = max(primal, b[i] - lhs[i])
        else:
            primal = max(primal, abs(lhs[i] - b[i]))
    primal = max(primal, float(np.max(-x, initial=0.0)))
    finite = np.isfinite(upper)
    if finite.any():
        primal = max(primal, float(np.max((x - upper)[finite], initial=0.0)))

    rc = c2 - c2[tab.basis] @ tab.t
    dual = 0.0
    for j in range(cols):
        if tab.status[j] == BASIC:
            continue  # reduced cost is zeroed by pivoting
        if tab.status[j] == AT_LOWER:
            dual = max(dual, rc[j])           # must be <= 0 at optimum
        else:
            dual = max(dual, -rc[j])          # must be >= 0 at optimum

    return SimplexResult(
        "optimal",
        x,
        objective,
        tab.iterations,
        primal_residual=float(primal),
        dual_residual=float(max(dual, 0.0)),
    )
