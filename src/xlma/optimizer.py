"""Placement optimization: LP initialization and successive replacement.

The binary placement problem (select N of N0 candidate positions maximizing
the closed-form expected weighted sum rate) is seeded by a linear program
whose objective is each position's marginal contribution and whose
constraints force LoS coverage of the busiest grids, then refined by a loop
that repeatedly removes the least-damaging subarray and rehomes it to the
best candidate, accepting only strict improvements. Each subarray moves at
most once, so the loop runs at most N iterations. The exhaustive oracle,
against which the method is measured, screens every N-subset in float32
within a proven error bound and scores in float64 only the subsets that can
win. All three score candidates through ``RateModel.marginal_objective``;
the oracle's screen is a bound, never a reported value.
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
# The exhaustive oracle's float32 screen (``_Screen``): the float32 log2
# error in ulps its bound allows (1.79-1.94 measured, numpy 2.4, AVX-512) and
# the factor on its first-order bound.
SCREEN_LOG2_ULPS = 8
SCREEN_SAFETY = 8
# Its float32 values lie within 2**+-124: float32's normal range, 2**-126 up
# to below 2**128, less two binades for rounding at either end.
SCREEN_EXPONENT = -np.finfo(np.float32).minexp - 2
# The model's nonzero terms and pbar lie within 2**+-256, a quarter of
# float64's exponent range: the float64 numerator (M^2 + V) * pbar is a
# product of three of them, within 2**+-768 but for the few bits of the sums,
# so it stays normal (2**-1022 up to below 2**1024).
SCREEN_RAW_EXPONENT = np.finfo(np.float64).maxexp // 4


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


def _within(values, exponent: int) -> bool:
    """Whether each of ``values`` is 0 or lies in [2**-exponent, 2**exponent]."""
    values = values[values != 0.0]
    return bool(np.all((2.0**-exponent <= values) & (values <= 2.0**exponent)))


def _fold(table, columns, axis: int):
    """Sums along ``axis`` of ``table`` over each row of ``columns``, the
    columns added in the row's order, as ``RateModel.sums`` adds them."""
    sums = table.take(columns[:, 0], axis=axis)
    for col in columns.T[1:]:
        sums += table.take(col, axis=axis)
    return sums


@dataclass
class _Screen:
    """The exhaustive oracle's float32 screen of one model and N, with the
    bound E on how far a screen value lies from the float64 value.

    ``terms`` holds the model's terms by column, (C, 3, K') float32, so that
    a chunk's columns are gathered as whole rows: each grid's mean times
    sqrt(pbar_k) * 2**a, its variance times pbar_k * 4**a and its
    denominator term times 4**a, folded in float64 and then cast. So a
    subset's sums give gamma = (M^2 + V) / D with no pbar, and the power of
    two 2**a, which leaves gamma as it is, moves every float32 quantity into
    the normal range.

    **The bound.** Let u = 2**-24, and let every float32 value below be
    normal. Each folded term is within u relative of its exact value (the
    float64 fold adds about 2**-53). A sum of N nonnegative terms is then
    within N*u, M^2 within (2N + 1)*u, M^2 + V within (2N + 2)*u, gamma
    within (3N + 3)*u and 1 + gamma within (3N + 4)*u, so log2(1 + gamma)
    is off by at most (3N + 4)*u/ln 2 before ``log2`` rounds, and ``log2``
    adds at most L ulps, 2*L*u relative (``SCREEN_LOG2_ULPS``). A grid
    whose D is 0 rates 0, as in float64. The cast of rho and its product
    add 2*u relative, and the K' grids are added in order, (K' - 1)*u
    relative of the value V. To first order

        |V32 - V| <= (3N + 5)*u/ln 2 * sum(rho) + (2L + K' + 4)*u*V,

    and the float64 value carries the same bound with 2**-53 in place of
    u, about 2**-29 of it. E is ``SCREEN_SAFETY`` times the right side,
    which covers both sides and the terms of second order.

    **The guard** (``of`` is None where it fails). Every term, rho and
    pbar is finite and >= 0, and pbar > 0. Each nonzero term and pbar lies
    within 2**+-``SCREEN_RAW_EXPONENT``, where no float64 score overflows
    or has a subnormal numerator or denominator, and each nonzero rho
    within 2**+-(``SCREEN_EXPONENT`` / 2). For the a chosen, every nonzero
    sum of up to N folded terms, square of a mean sum, M^2 + V and D, and
    every quotient of the two, lies within 2**+-``SCREEN_EXPONENT``, where
    no float32 operation overflows or rounds to a subnormal.
    """

    terms: np.ndarray
    rho: np.ndarray  # float32
    err_fixed: float  # E = err_fixed + err_per_value * V
    err_per_value: float

    @classmethod
    def of(cls, model: RateModel, n_select: int):
        terms, rho, pbar = model.terms, model.rho, model.pbar
        low = np.min(terms, axis=1, initial=np.inf, where=terms > 0.0)  # (3, K'); inf: all 0
        high = terms.max(axis=1)
        if not (terms.min() >= 0.0 and pbar.all() and _within(rho, SCREEN_EXPONENT // 2)
                and _within(np.concatenate([low[low < np.inf], high.ravel(), pbar]),
                            SCREEN_RAW_EXPONENT)):
            return None
        fold = np.stack([np.sqrt(pbar), pbar, np.ones_like(pbar)])
        (mean_lo, var_lo, den_lo), (mean_hi, var_hi, den_hi) = (
            (low * fold).min(axis=1), (high * fold).max(axis=1))
        sum_bits = (n_select - 1).bit_length()  # N values below 2**e sum below 2**(e + sum_bits)

        def span(lo, hi, power=1):
            """Exponents e with 2**e bounding a nonzero sum of up to N
            values in [lo, hi], raised to ``power``."""
            return power * (math.frexp(lo)[1] - 1), power * (math.frexp(hi)[1] + sum_bits)

        spans = [span(mean_lo, mean_hi, 2)] if mean_hi else []
        spans += [span(var_lo, var_hi)] if var_hi else []
        if spans:  # M^2 + V
            spans = [(min(lo for lo, _ in spans), max(hi for _, hi in spans) + 1)]
            if den_hi:  # the quotient, whatever the scale
                (num_lo, num_hi), (d_lo, d_hi) = spans[0], span(den_lo, den_hi)
                if not -SCREEN_EXPONENT <= num_lo - d_hi <= num_hi - d_lo <= SCREEN_EXPONENT:
                    return None
        spans += [span(den_lo, den_hi)] if den_hi else []
        lo = min((lo for lo, _ in spans), default=0)
        hi = max((hi for _, hi in spans), default=0)
        a = -((lo + hi) // 4)  # scales the squared spans by 4**a, centering them
        if not -SCREEN_EXPONENT <= lo + 2 * a <= hi + 2 * a <= SCREEN_EXPONENT:
            return None
        scaled = np.empty(terms.shape[1:2] + terms.shape[:1] + terms.shape[2:], np.float32)
        np.multiply(terms.transpose(1, 0, 2), np.ldexp(fold, [[a], [2 * a], [2 * a]]),
                    out=scaled, casting="same_kind")
        u = 2.0**-24
        err_fixed = SCREEN_SAFETY * u * (3 * n_select + 5) / math.log(2.0) * float(rho.sum())
        err_per_value = SCREEN_SAFETY * u * (2 * SCREEN_LOG2_ULPS + len(rho) + 4)
        return cls(scaled, rho.astype(np.float32), err_fixed, err_per_value)

    def threshold(self, best: float) -> np.float64:
        """The least screen value of a subset that may score ``best`` or
        more in float64: ``best`` less 2E. A float64 scalar, so that float32
        values are compared with it in float64."""
        return np.float64(best - 2.0 * (self.err_fixed + self.err_per_value * best))

    def chunk(self, columns, start: int, width: int):
        """(H, C - start) float32 screen values of the subsets made of each
        row of ``columns`` and each column from ``start`` on, in blocks of
        at most ``width`` subsets."""
        # (3, K', H): each grid's head sums contiguous, the blocks' inner axis
        head_sums = np.ascontiguousarray(_fold(self.terms, columns, axis=0).transpose(1, 2, 0))
        step = max(1, width // len(columns))
        return np.concatenate([self._block(head_sums, self.terms[c:c + step])
                               for c in range(start, len(self.terms), step)], axis=1)

    def _block(self, head_sums, tails):
        """(H, W) screen values of each head's sums (3, K', H) plus each
        tail's terms (W, 3, K'), scored grid-major in a (K', W, H) block."""
        mean_t, var_t, den_t = tails.transpose(1, 2, 0)[..., None]
        mean_h, var_h, den_h = head_sums[:, :, None]
        gamma = np.add(mean_t, mean_h, order="C")
        gamma *= gamma
        part = np.add(var_t, var_h, order="C")
        gamma += part
        np.add(den_t, den_h, out=part)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma /= part
        np.copyto(gamma, 0.0, where=part == 0.0)
        gamma += 1.0
        np.log2(gamma, out=gamma)
        gamma *= self.rho[:, None, None]
        return gamma.sum(axis=0).T  # the grids in order


def exhaustive_search(model: RateModel, n_select: int) -> tuple[np.ndarray, float]:
    """(support, value): the sorted columns of the global optimum over all
    N-subsets (lexicographically first among ties) and its value.

    One column is the first maximum of ``model.marginal_objective``, the LP
    seed's vector. More are walked by x, the second-largest column. The
    heads, the (N - 2)-subsets of range(x), come in lexicographic chunks of
    index arrays, each with every tail column past x, and each chunk is
    scored in two steps.

    - **Screen.** ``_Screen`` scores every subset of the chunk in float32,
      within E of its float64 value, in blocks of at most
      ``rate.ASSEMBLY_BLOCK_BYTES`` per float32 table.
    - **Rescore.** The heads and the tails from the first one on that hold a
      subset whose screen value is within 2E of the best screen value so far
      (or is not finite) are scored in float64, exactly as every scorer
      scores: each head's columns and then x are summed in the order of
      ``RateModel.sums``, and ``model.marginal_objective`` scores those sums
      plus each column from that tail on. So each value has the bits of
      ``model.weighted_sum`` of its subset.

    The float64 optimum s* is always rescored: for the subset b of the best
    screen value so far, V32(s*) >= V64(s*) - E >= V64(b) - E >= V32(b) - 2E.
    So are the subsets that tie it exactly. A model outside the screen's
    guard (``_Screen.of`` is None) is rescored whole, as with a threshold
    of -inf. Chunks are not in lexicographic order, so a chunk's best that
    ties the best so far is compared with it as a support.
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
    screen = _Screen.of(model, n_select)
    width = max(1, rate.ASSEMBLY_BLOCK_BYTES // (4 * len(model.rho)))
    n_heads = n_select - 2
    per_chunk = max(1, width // 4)  # heads, scored with blocks of 4 tails or more
    best_support = None
    best_value = -np.inf
    best_screen = -np.inf
    threshold = -np.inf
    for x in range(n_heads, n_cols - 1):
        heads = itertools.combinations(range(x), n_heads)
        for first in range(0, math.comb(x, n_heads), per_chunk):
            n_chunk = min(per_chunk, math.comb(x, n_heads) - first)
            columns = np.empty((n_chunk, n_heads + 1), np.intp)
            columns[:, :-1] = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(heads, n_chunk)), np.intp,
                n_chunk * n_heads).reshape(n_chunk, n_heads)
            columns[:, -1] = x
            start = x + 1
            if screen is not None:
                screened = screen.chunk(columns, start, width)
                top = float(screened.max())  # nan if one is
                if best_screen < top < np.inf:
                    best_screen, threshold = top, screen.threshold(top)
                if top < threshold:
                    continue
                keep = np.logical_not(screened < threshold)
                columns = columns[keep.any(axis=1)]
                start += int(np.argmax(keep.any(axis=0)))
            values = model.marginal_objective(_fold(model.terms, columns, axis=1), start)
            j = int(np.argmax(values))  # first maximum: lexicographically first in the chunk
            head, d = divmod(j, n_cols - start)
            value = values[head, d]
            if not value >= best_value:
                continue
            support = (*columns[head].tolist(), start + d)
            if best_support is None or value > best_value or support < best_support:
                best_value = value
                best_support = support
    return np.array(best_support), float(best_value)
