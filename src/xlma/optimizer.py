"""Placement optimization: LP initialization and successive replacement.

The binary placement problem (select N of N0 candidate positions maximizing
the closed-form expected weighted sum rate) is seeded by a linear program
whose objective is each position's marginal contribution and whose
constraints force LoS coverage of the busiest grids, then refined by a loop
that repeatedly removes the least-damaging subarray and rehomes it to the
best candidate, accepting only strict improvements. Each subarray moves at
most once, so the loop runs at most N iterations. The exhaustive oracle,
against which the method is measured, scores every N-subset. All three
score candidates through ``RateModel.marginal_objective``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rate
from .errors import ConfigurationError, DomainError
from .lp import FEAS_TOL, SimplexResult, solve_simplex
from .rate import RateModel
from .scenario import ScenarioConfig

IMPROVEMENT_EPS = 1e-12
# Values closer than this many spacings of the best tie in select_victim and
# best_replacement.
VICTIM_TIE_ULPS = 4
# Largest C(N0, N) that exhaustive_search (and the sweep's optimal scheme)
# will enumerate.
EXHAUSTIVE_LIMIT = 10_000_000


@dataclass
class LpProblem:
    """Relaxed placement initialization problem.

    maximize c^T chi  s.t.  coverage_rows @ chi >= 1, sum(chi) = n_select,
    0 <= chi <= 1. Coverage rows are visibility masks of the busiest grids.
    """

    c: np.ndarray
    coverage_rows: np.ndarray  # (n_rows, N0) binary
    n_select: int


@dataclass
class LpSolution:
    chi: np.ndarray
    objective: float
    result: SimplexResult


class SelectionState:
    """Ordered selected candidates, the slots already replaced, and the
    running (3, K') per-grid sums of the selection (O(K') per replacement)."""

    def __init__(self, model: RateModel, n_mu):
        self.model = model
        self.sums = model.sums(n_mu)
        self.n_mu = [int(c) for c in n_mu]
        self.replaced_slots = set()
        self.objective = float(model.objective(self.sums))

    def without(self, col: int) -> np.ndarray:
        """Per-grid sums with the selected column ``col`` left out."""
        return self.sums - self.model.terms[:, col]

    def replace(self, slot: int, col: int, objective: float) -> None:
        """Move ``slot`` to column ``col``, whose selection scores ``objective``."""
        terms = self.model.terms
        self.sums -= terms[:, self.n_mu[slot]]
        self.sums += terms[:, col]
        self.n_mu[slot] = col
        self.replaced_slots.add(slot)
        self.objective = objective


@dataclass
class PlacementResult:
    n_mu: list
    objective: float
    trace: list
    lp: LpSolution


def build_init_lp(scenario: ScenarioConfig, model: RateModel, xi: np.ndarray) -> LpProblem:
    """Marginal-contribution objective plus LoS coverage of the top-N grids.

    Row r of ``xi`` is the visibility of grid ``model.grid_rows[r]``. Only
    grids that see at least one candidate get a coverage row, so there are
    at most N rows, each with a visible candidate. A top grid the model does
    not hold raises ``DomainError``.
    """
    c = model.marginal_objective()
    rho = scenario.rho
    n_select = scenario.n_subarrays
    top = np.lexsort((np.arange(len(rho)), -rho))[:n_select]
    top = top[rho[top] > 0.0]
    order = np.argsort(model.grid_rows)
    at = np.searchsorted(model.grid_rows, top, sorter=order)  # any row order
    rows = order[np.minimum(at, len(order) - 1)]
    held = model.grid_rows[rows] == top
    if not held.all():
        raise DomainError(f"grid {top[~held][0]} is not modeled")
    coverage = xi[rows].astype(float)
    return LpProblem(c=c, coverage_rows=coverage[coverage.sum(axis=1) >= 1], n_select=n_select)


def _check_certificate(res: SimplexResult) -> None:
    """Reject an optimal solve whose certificate residuals exceed FEAS_TOL.

    NaN residuals (a certificate that was never computed) are rejected too.
    """
    for name in ("primal_residual", "dual_residual"):
        value = getattr(res, name)
        if not value <= FEAS_TOL:
            raise ConfigurationError(
                f"initialization LP certificate failed: {name}={value!r} "
                f"is not within tolerance {FEAS_TOL}"
            )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the initialization LP; any status but ``optimal`` raises.

    An LP from ``build_init_lp`` is always feasible: it has at most
    N <= N0 coverage rows, each with at least one visible candidate, and
    every variable may reach 1. Picking one visible candidate per row and
    padding with other candidates up to N gives a 0/1 point meeting every
    constraint. An infeasible LP can only come from a hand-built problem.
    """
    res = solve_simplex(problem.c, problem.coverage_rows, problem.n_select)
    if res.status != "optimal":
        raise ConfigurationError(f"initialization LP failed with status {res.status}")
    _check_certificate(res)
    return LpSolution(res.x, res.objective, res)


def round_top_n(chi_star: np.ndarray, n_select: int) -> list:
    """Indices of the N largest entries, ties broken by lowest index."""
    chi_star = np.asarray(chi_star, float)
    order = np.lexsort((np.arange(len(chi_star)), -chi_star))
    return [int(i) for i in order[:n_select]]


def first_best(values) -> int:
    """Index of the first of ``values`` within ``VICTIM_TIE_ULPS`` spacings
    of the largest. Mirror-symmetric choices tie in exact arithmetic, so
    their rounding, not the geometry, would pick otherwise."""
    values = np.asarray(values, float)
    best = values.max()
    # fmin keeps an infinite best as it is: np.spacing(inf) is nan.
    return int(np.argmax(values >= np.fmin(best, best - VICTIM_TIE_ULPS * np.spacing(abs(best)))))


def select_victim(state: SelectionState) -> int:
    """Slot whose temporary removal costs least (highest remaining objective),
    the lowest slot among near-ties (``first_best``)."""
    slots = [slot for slot in range(len(state.n_mu)) if slot not in state.replaced_slots]
    if not slots:
        raise DomainError("all slots already replaced")
    values = [state.model.objective(state.without(state.n_mu[slot])) for slot in slots]
    return slots[first_best(values)]


def best_replacement(
    model: RateModel, state: SelectionState, victim_slot: int
) -> tuple[int, float]:
    """Best candidate for the vacated slot (the old position is admissible),
    the lowest candidate among near-ties (``first_best``).

    Every candidate is scored at once by ``model.marginal_objective`` on the
    selection's sums without the vacated column.
    """
    old = state.n_mu[victim_slot]
    objectives = model.marginal_objective(state.without(old))
    blocked = [c for c in state.n_mu if c != old]
    objectives[blocked] = -np.inf
    best = first_best(objectives)
    return best, float(objectives[best])


def successive_replacement(
    scenario: ScenarioConfig, model: RateModel, xi: np.ndarray
) -> PlacementResult:
    """LP-seeded successive replacement (at most N accepted iterations)."""
    problem = build_init_lp(scenario, model, xi)
    lp_solution = solve_lp(problem)
    state = SelectionState(model, round_top_n(lp_solution.chi, scenario.n_subarrays))
    trace = [
        {
            "iteration": 0,
            "victim_slot": None,
            "old_candidate": None,
            "new_candidate": None,
            "objective": state.objective,
            "accepted": True,
        }
    ]

    for iteration in range(1, scenario.n_subarrays + 1):
        victim = select_victim(state)
        candidate, cand_objective = best_replacement(model, state, victim)
        accepted = cand_objective > state.objective + IMPROVEMENT_EPS
        trace.append(
            {
                "iteration": iteration,
                "victim_slot": victim,
                "old_candidate": state.n_mu[victim],
                "new_candidate": candidate,
                "objective": cand_objective,
                "accepted": accepted,
            }
        )
        if not accepted:
            break
        state.replace(victim, candidate, cand_objective)

    return PlacementResult(
        n_mu=list(state.n_mu),
        objective=state.objective,
        trace=trace,
        lp=lp_solution,
    )


def exhaustive_search(model: RateModel, n_select: int) -> tuple[np.ndarray, float]:
    """(support, value): the sorted columns of the global optimum over all
    N-subsets (lexicographically first among ties) and its value.

    One column is the first maximum of ``model.marginal_objective``, the LP
    seed's vector. More are walked by x, the second-largest column. The
    heads, the (N - 2)-subsets of range(x), come in chunks: each head's
    columns and then x are summed in the order of ``RateModel.sums``, and
    ``model.marginal_objective`` scores those sums plus each column past x,
    so each value has the bits of ``model.weighted_sum`` of its subset. A
    chunk holds at most a quarter block of ``rate.ASSEMBLY_BLOCK_BYTES``
    heads and, when the columns past x fit, one block of subsets. Chunks
    are not in lexicographic order, so a chunk's best that ties the best so
    far is compared with it as a support.
    """
    n_cols = model.n_cols
    if not 1 <= n_select <= n_cols:
        raise ConfigurationError(f"cannot select {n_select} of {n_cols} candidates")
    count = math.comb(n_cols, n_select)
    if count > EXHAUSTIVE_LIMIT:
        raise ConfigurationError(
            f"exhaustive search over {count} combinations exceeds limit {EXHAUSTIVE_LIMIT}"
        )
    if n_select == 1:
        values = model.marginal_objective()
        best = int(np.argmax(values))
        return np.array([best]), float(values[best])
    width = max(1, rate.ASSEMBLY_BLOCK_BYTES // (8 * len(model.rho)))
    best_support = None
    best_value = -np.inf
    for x in range(n_select - 2, n_cols - 1):
        n_tails = n_cols - x - 1
        heads = itertools.combinations(range(x), n_select - 2)
        while chunk := list(itertools.islice(heads, max(1, width // max(4, n_tails)))):
            columns = np.array([(*head, x) for head in chunk], np.intp).T
            prefix = model.terms.take(columns[0], axis=1)
            for col in columns[1:]:
                prefix += model.terms.take(col, axis=1)
            values = model.marginal_objective(prefix, start=x + 1)
            j = int(np.argmax(values))  # first maximum: lexicographically first in the chunk
            head, d = divmod(j, n_tails)
            value = values[head, d]
            if not value >= best_value:
                continue
            support = (*chunk[head], x, x + 1 + d)
            if best_support is None or value > best_value or support < best_support:
                best_value = value
                best_support = support
    return np.array(best_support), float(best_value)
