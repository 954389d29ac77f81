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
    running (3, K') per-grid sums of the selection (O(K') per replacement)."""

    def __init__(self, model: RateModel, n_mu):
        self.model = model
        self.sums = model.sums(n_mu)
        self.n_mu = [int(c) for c in n_mu]
        self.replaced_slots = set()
        self.objective = float(model.objective(self.sums))

    def without(self, col: int) -> np.ndarray:
        """Per-grid sums with the selected column ``col`` left out."""
        return self.sums - self.model.terms[:, :, col]

    def replace(self, slot: int, col: int, objective: float) -> None:
        """Move ``slot`` to column ``col``, whose selection scores ``objective``."""
        terms = self.model.terms
        self.sums -= terms[:, :, self.n_mu[slot]]
        self.sums += terms[:, :, col]
        self.n_mu[slot] = col
        self.replaced_slots.add(slot)
        self.objective = objective


@dataclass
class PlacementResult:
    chi: np.ndarray
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
    rho = scenario.distribution.rho
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


def select_victim(state: SelectionState) -> int:
    """Slot whose temporary removal costs least (highest remaining objective)."""
    best_slot = -1
    best_value = -np.inf
    for slot in range(len(state.n_mu)):
        if slot in state.replaced_slots:
            continue
        value = state.model.objective(state.without(state.n_mu[slot]))
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
    return PlacementResult(
        chi=chi,
        n_mu=list(state.n_mu),
        objective=state.objective,
        trace=trace,
        lp=lp_solution,
    )


def _prefix_blocks(n_cols: int, n_select: int, width: int, max_heads: int):
    """Every n_select-subset of range(n_cols) once, in blocks
    ``(heads, x, tails)`` of at most ``width`` subsets and ``max_heads``
    heads: head + (x, d) for each row of ``heads`` and each d in the range
    ``tails``.

    x is the second-largest element, each head an (n_select - 2)-subset of
    range(x) and each tail d > x; for n_select == 1, x is None and heads
    has one empty row. A block runs head-major, in lexicographic order.
    """
    if n_select == 1:
        for d in range(0, n_cols, width):
            yield np.empty((1, 0), np.intp), None, range(d, min(n_cols, d + width))
        return
    for x in range(n_select - 2, n_cols - 1):
        for d in range(x + 1, n_cols, width):
            tails = range(d, min(n_cols, d + width))
            heads = itertools.combinations(range(x), n_select - 2)
            rows = min(max_heads, width // len(tails))
            while chunk := list(itertools.islice(heads, rows)):
                yield np.array(chunk, np.intp).reshape(len(chunk), n_select - 2), x, tails


def _block_sums(columns, heads, x, tails, out, prefix, scratch) -> None:
    """Sums of the rows of ``columns`` (a (C, ...) table) over a
    ``_prefix_blocks`` block's subsets, into ``out`` (subsets, ...), which
    may be strided.

    Each head's sum plus row x is formed once, into ``prefix`` (heads, ...),
    with ``scratch`` of the same shape for the gathered rows, and one
    broadcast add appends every tail: the left fold ((a + b) + c) + d.
    """
    block = out.reshape(len(heads), len(tails), *out.shape[1:])
    tail = columns[tails.start : tails.stop]
    if x is None:
        block[0] = tail
        return
    if heads.shape[1] == 0:
        prefix[...] = columns[x]
    else:
        # mode="clip" writes straight into the given buffer, where the
        # default mode would write a copy; no head index reaches x.
        np.take(columns, heads[:, 0], axis=0, out=prefix, mode="clip")
        for col in heads.T[1:]:
            np.take(columns, col, axis=0, out=scratch, mode="clip")
            prefix += scratch
        prefix += columns[x]
    np.add(prefix[:, None], tail[None], out=block)


def exhaustive_search(model: RateModel, n_select: int) -> tuple[np.ndarray, float]:
    """Global optimum over all N-subsets (lexicographically first among ties).

    Subsets are scored in ``_prefix_blocks``. ``_block_sums`` forms a block's
    column sums from a (C, 3, K') copy of ``model.terms``, whose row c holds
    column c's three terms: the left fold which ``table[:, idx].sum(axis=2)``
    applies to N gathered columns of each (K', C) table when K' >= 2.
    ``RateModel.log_rates`` turns them into rates. The buffers are allocated
    once per call: three blocks of ``rate.ASSEMBLY_BLOCK_BYTES`` for the
    sums, one for the rates and six quarter blocks for the head sums. A
    block's rates hold one row of K' grids per subset, and each row's
    weighted sum is numpy's pairwise sum over its own contiguous grids,
    never a matvec that may round by position in the block, so exact ties
    stay exact. Blocks are not in lexicographic order, so a block's best
    that ties the best so far is compared with it as a support. The winner
    is re-scored by ``model.weighted_sum``.
    """
    n_cols = model.n_cols
    if not 1 <= n_select <= n_cols:
        raise ConfigurationError(f"cannot select {n_select} of {n_cols} candidates")
    count = math.comb(n_cols, n_select)
    if count > EXHAUSTIVE_LIMIT:
        raise ConfigurationError(
            f"exhaustive search over {count} combinations exceeds limit {EXHAUSTIVE_LIMIT}"
        )
    n_rows = len(model.rho)
    width = max(1, rate.ASSEMBLY_BLOCK_BYTES // (8 * n_rows))
    max_heads = max(1, width // 4)
    columns = np.ascontiguousarray(model.terms.transpose(2, 0, 1))  # (C, 3, K')
    sums = np.empty(width * 3 * n_rows)
    work = np.empty(width * n_rows)
    head_sums = np.empty((2, max_heads, 3, n_rows))  # prefix and scratch
    scores = np.empty(width)
    best_support = None
    best_value = -np.inf
    for heads, x, tails in _prefix_blocks(n_cols, n_select, width, max_heads):
        n = len(heads) * len(tails)
        # (3, n, K'): each term's sums contiguous, as ``log_rates`` reads them.
        block = sums[: n * 3 * n_rows].reshape(3, n, n_rows)
        prefix, scratch = head_sums[:, : len(heads)]
        _block_sums(columns, heads, x, tails, block.transpose(1, 0, 2), prefix, scratch)
        rates = model.log_rates(model.pbar, *block, out=work[: n * n_rows].reshape(n, n_rows))
        rates *= model.rho
        values = rates.sum(axis=1, out=scores[:n])
        j = int(np.argmax(values))  # first maximum: first in the block's order
        value = values[j]
        if not value >= best_value:
            continue
        head, d = divmod(j, len(tails))
        support = (*heads[head].tolist(), *(() if x is None else (x,)), tails[d])
        if best_support is None or value > best_value or support < best_support:
            best_value = value
            best_support = support
    chi = np.zeros(n_cols, dtype=np.uint8)
    chi[list(best_support)] = 1
    return chi, model.weighted_sum(np.array(best_support))
