"""Placement optimization: LP initialization and successive replacement.

The binary placement problem (select N of N0 candidate positions maximizing
the closed-form expected weighted sum rate) is seeded by a linear program
whose objective is each position's marginal contribution and whose
constraints force LoS coverage of the busiest grids, then refined by a loop
that repeatedly removes the least-damaging subarray and rehomes it to the
best candidate, accepting only strict improvements. Each subarray moves at
most once, so the loop runs at most N iterations.
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
    running per-grid sums of the selection (O(K') per replacement)."""

    def __init__(self, model: RateModel, n_mu):
        self.model = model
        self.s_mean, self.s_var, self.s_den = model.sums(n_mu)
        self.n_mu = [int(c) for c in n_mu]
        self.replaced_slots = set()
        self.objective = float(model.objective(self.s_mean, self.s_var, self.s_den))

    def without(self, col: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-grid sums with the selected column ``col`` left out."""
        m = self.model
        return (self.s_mean - m.sig_mean[:, col],
                self.s_var - m.sig_var[:, col],
                self.s_den - m.denom[:, col])

    def replace(self, slot: int, col: int, objective: float) -> None:
        """Move ``slot`` to column ``col``, whose selection scores ``objective``."""
        m = self.model
        old = self.n_mu[slot]
        for total, table in ((self.s_mean, m.sig_mean), (self.s_var, m.sig_var),
                             (self.s_den, m.denom)):
            total -= table[:, old]
            total += table[:, col]
        self.n_mu[slot] = col
        self.replaced_slots.add(slot)
        self.objective = objective


@dataclass
class PlacementResult:
    phi: np.ndarray
    chi: np.ndarray
    n_mu: list
    objective: float
    trace: list
    lp: LpSolution


def build_init_lp(scenario: ScenarioConfig, model: RateModel, xi: np.ndarray) -> LpProblem:
    """Marginal-contribution objective plus LoS coverage of the top-N grids.

    Row r of ``xi`` is the visibility of grid ``model.grid_rows[r]``. Only
    grids that see at least one candidate get a coverage row, so there are
    at most N rows, each with a visible candidate.
    """
    c = model.marginal_objective()
    rho = scenario.distribution.rho
    n_select = scenario.n_subarrays
    order = np.lexsort((np.arange(len(rho)), -rho))
    top = [k for k in order[:n_select] if rho[k] > 0.0]
    reachable = [k for k in top if xi[model.row_of(k)].sum() >= 1]
    coverage = (xi[[model.row_of(k) for k in reachable]].astype(float)
                if reachable else np.zeros((0, len(c))))
    return LpProblem(c=c, coverage_rows=coverage, n_select=n_select)


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
    n = len(problem.c)
    rows = np.vstack([np.ones((1, n)), problem.coverage_rows])
    rels = ["="] + [">="] * len(problem.coverage_rows)
    rhs = np.concatenate([[float(problem.n_select)], np.ones(len(problem.coverage_rows))])
    res = solve_simplex(problem.c, rows, rels, rhs, np.ones(n))
    if res.status != "optimal":
        raise ConfigurationError(f"initialization LP failed with status {res.status}")
    _check_certificate(res)
    return LpSolution(res.x, res.objective, res)


def round_top_n(chi_star: np.ndarray, n_select: int) -> list:
    """Indices of the N largest entries, ties broken by lowest index."""
    chi_star = np.asarray(chi_star, float)
    order = np.lexsort((np.arange(len(chi_star)), -chi_star))
    return [int(i) for i in order[:n_select]]


def select_victim(state: SelectionState) -> int:
    """Slot whose temporary removal costs least (highest remaining objective)."""
    best_slot = -1
    best_value = -np.inf
    for slot in range(len(state.n_mu)):
        if slot in state.replaced_slots:
            continue
        value = state.model.objective(*state.without(state.n_mu[slot]))
        if value > best_value:
            best_value = value
            best_slot = slot
    if best_slot < 0:
        raise DomainError("all slots already replaced")
    return best_slot


def best_replacement(
    model: RateModel, state: SelectionState, victim_slot: int
) -> tuple[int, float]:
    """Best candidate for the vacated slot (the old position is admissible).

    Every candidate is scored at once by ``model.marginal_objective`` on the
    selection's sums without the vacated column. Its rates are formed column
    block by column block into one whole (K', C) table, weighted by one
    product so each score rounds alike whatever the blocking. Ties resolve
    to the lowest candidate index.
    """
    old = state.n_mu[victim_slot]
    objectives = model.marginal_objective(state.without(old))
    blocked = [c for c in state.n_mu if c != old]
    objectives[blocked] = -np.inf
    best = int(np.argmax(objectives))  # first maximum = lowest index
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

    chi = np.zeros(model.n_cols, dtype=np.uint8)
    chi[state.n_mu] = 1
    phi = np.zeros((scenario.n_subarrays, model.n_cols), dtype=np.uint8)
    for slot, cand in enumerate(state.n_mu):
        phi[slot, cand] = 1
    return PlacementResult(
        phi=phi,
        chi=chi,
        n_mu=list(state.n_mu),
        objective=state.objective,
        trace=trace,
        lp=lp_solution,
    )


def exhaustive_search(
    model: RateModel, n_select: int, limit: int = EXHAUSTIVE_LIMIT
) -> tuple[np.ndarray, float]:
    """Global optimum over all N-subsets (lexicographically first among ties).

    Subsets are scored in lexicographic order, in blocks whose float64
    temporaries stay under ``rate.ASSEMBLY_BLOCK_BYTES``. Each score is summed
    over grids on its own, not by a matvec that may round by position in the
    block, so exact ties stay exact. The winner is re-scored by
    ``model.weighted_sum``.
    """
    n_cols = model.n_cols
    if not 1 <= n_select <= n_cols:
        raise ConfigurationError(f"cannot select {n_select} of {n_cols} candidates")
    count = math.comb(n_cols, n_select)
    if count > limit:
        raise ConfigurationError(
            f"exhaustive search over {count} combinations exceeds limit {limit}"
        )
    width = max(1, rate.ASSEMBLY_BLOCK_BYTES // (8 * len(model.rho) * n_select))
    combos = itertools.combinations(range(n_cols), n_select)
    best_support = None
    best_value = -np.inf
    for _ in range(0, count, width):
        block = itertools.chain.from_iterable(itertools.islice(combos, width))
        idx = np.fromiter(block, dtype=np.intp).reshape(-1, n_select)
        gamma = model._sinr_from_sums(
            model.pbar[:, None],
            model.sig_mean[:, idx].sum(axis=2),
            model.sig_var[:, idx].sum(axis=2),
            model.denom[:, idx].sum(axis=2),
        )
        values = (model.rho[:, None] * np.log2(1.0 + gamma)).sum(axis=0)
        j = int(np.argmax(values))  # first maximum = lexicographically first
        if values[j] > best_value:
            best_value = values[j]
            best_support = idx[j]
    chi = np.zeros(n_cols, dtype=np.uint8)
    chi[best_support] = 1
    return chi, model.weighted_sum(best_support)
