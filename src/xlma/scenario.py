"""Placement-region and user-distribution geometry.

Discretizes the 2D antenna placement region into candidate positions and the
3D coverage cuboid into user grids, assigns per-grid activation
probabilities, and computes obstacle-induced line-of-sight visibility.

Index conventions (all 0-based in code):
    candidate  idx = iy + iz * n_y          (row-major over y, then z)
    user grid  idx = ix + iy * k_x + iz * k_x * k_y
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .rng import uniforms

SPEED_OF_LIGHT = 299792458.0


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (np.asarray(dbm) / 10.0)


def mw_to_dbm(mw: float) -> float:
    return 10.0 * np.log10(mw)


def distinct_sorted(values) -> np.ndarray:
    """The distinct entries of the index list ``values``, ascending.

    Equal to plain ``np.unique`` on integer input, which on numpy 2.x
    imports ``numpy.ma`` (and ``ast`` and ``tokenize`` with it) on its first
    call in a process.
    """
    out = np.sort(np.asarray(values).ravel())
    keep = np.ones(out.size, bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _check_finite(what: str, *values) -> None:
    """Reject NaN and infinite entries (JSON parsing accepts both)."""
    if not np.all(np.isfinite(np.asarray(values, float))):
        raise ConfigurationError(f"{what} must be finite")


# ---------------------------------------------------------------------------
# Region specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaRegionSpec:
    """Rectangular antenna placement region in the x = 0 plane.

    A degenerate axis (min == max) is allowed only with count 1 and places
    the single coordinate at the common value (1D placement scenarios).
    """

    y_min: float
    y_max: float
    z_min: float
    z_max: float
    n_y: int
    n_z: int

    def __post_init__(self):
        _check_finite("ma_region values", *astuple(self))
        for axis, lo, hi, count in (
            ("y", self.y_min, self.y_max, self.n_y),
            ("z", self.z_min, self.z_max, self.n_z),
        ):
            if count < 1:
                raise ConfigurationError(f"ma_region.n_{axis} must be positive")
            if lo > hi or (lo == hi and count != 1):
                raise ConfigurationError(
                    f"ma_region {axis} bounds invalid: [{lo}, {hi}] with n_{axis}={count}"
                )

    @property
    def n_candidates(self) -> int:
        return self.n_y * self.n_z

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.n_y

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n_z


@dataclass(frozen=True)
class CoverageSpec:
    """Cuboid coverage region discretized into k_x * k_y * k_z user grids."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float
    k_x: int
    k_y: int
    k_z: int

    def __post_init__(self):
        _check_finite("coverage values", *astuple(self))
        if self.x_min <= 0:
            raise ConfigurationError("coverage.x_min must be > 0 (front half-space)")
        for axis, lo, hi, count in (
            ("x", self.x_min, self.x_max, self.k_x),
            ("y", self.y_min, self.y_max, self.k_y),
            ("z", self.z_min, self.z_max, self.k_z),
        ):
            if count < 1:
                raise ConfigurationError(f"coverage.k_{axis} must be positive")
            if lo > hi or (lo == hi and count != 1):
                raise ConfigurationError(
                    f"coverage {axis} bounds invalid: [{lo}, {hi}] with k_{axis}={count}"
                )

    @property
    def n_grids(self) -> int:
        return self.k_x * self.k_y * self.k_z

    @property
    def deltas(self) -> np.ndarray:
        return np.array(
            [
                (self.x_max - self.x_min) / self.k_x,
                (self.y_max - self.y_min) / self.k_y,
                (self.z_max - self.z_min) / self.k_z,
            ]
        )

    def cell_bounds(self, k) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of grid cell ``k``, each (3,), or of every
        cell of an index array, each (len(k), 3); degenerate axes collapse."""
        index = np.stack(grid_multi_index(np.asarray(k), self.k_x, self.k_y), axis=-1)
        lo = np.array([self.x_min, self.y_min, self.z_min]) + index * self.deltas
        return lo, lo + self.deltas


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned box blocking line-of-sight paths."""

    center: tuple[float, float, float]
    dims: tuple[float, float, float]

    def __post_init__(self):
        _check_finite("obstacle center and dims", *self.center, *self.dims)
        if any(d <= 0 for d in self.dims):
            raise ConfigurationError("obstacle dims must be strictly positive")

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.center, float) - np.asarray(self.dims, float) / 2.0

    @property
    def hi(self) -> np.ndarray:
        return np.asarray(self.center, float) + np.asarray(self.dims, float) / 2.0


# ---------------------------------------------------------------------------
# Index mappings
# ---------------------------------------------------------------------------


def candidate_linear_index(iy: int, iz: int, n_y: int) -> int:
    return iy + iz * n_y


def candidate_multi_index(idx: int, n_y: int) -> tuple[int, int]:
    return idx % n_y, idx // n_y


def grid_linear_index(ix: int, iy: int, iz: int, k_x: int, k_y: int) -> int:
    return ix + iy * k_x + iz * k_x * k_y


def grid_multi_index(idx: int, k_x: int, k_y: int) -> tuple[int, int, int]:
    return idx % k_x, (idx // k_x) % k_y, idx // (k_x * k_y)


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------


def build_candidate_grid(ma: MaRegionSpec) -> np.ndarray:
    """Centers of all candidate placement positions, shape (N0, 3)."""
    iy = np.arange(ma.n_y)
    iz = np.arange(ma.n_z)
    y = ma.y_min + (iy + 0.5) * ma.dy
    z = ma.z_min + (iz + 0.5) * ma.dz
    yy, zz = np.meshgrid(y, z, indexing="xy")  # iz-major rows, iy fastest
    out = np.zeros((ma.n_candidates, 3))
    out[:, 1] = yy.ravel()
    out[:, 2] = zz.ravel()
    return out


def build_user_grid(cov: CoverageSpec) -> np.ndarray:
    """Geometric centers of all user grids, shape (K, 3)."""
    d = cov.deltas
    ix = cov.x_min + (np.arange(cov.k_x) + 0.5) * d[0]
    iy = cov.y_min + (np.arange(cov.k_y) + 0.5) * d[1]
    iz = cov.z_min + (np.arange(cov.k_z) + 0.5) * d[2]
    zz, yy, xx = np.meshgrid(iz, iy, ix, indexing="ij")  # ix fastest
    return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)


# ---------------------------------------------------------------------------
# Activation probabilities
# ---------------------------------------------------------------------------


def assign_probabilities(
    expected_users: float,
    regular_ratio: float,
    k0: np.ndarray,
    k1: np.ndarray,
    k2: np.ndarray,
) -> np.ndarray:
    """Per-grid activation probabilities for regular / hotspot grid sets.

    The hotspot levels are
        rho2 = min(1, 3*Kbar*(1-zeta) / (2|K1| + 3|K2|))
        rho1 = max(2*Kbar*(1-zeta) / (2|K1| + 3|K2|), (Kbar*(1-zeta) - |K2|) / |K1|)
        rho0 = Kbar*zeta / |K0|
    which keep sum(rho) = Kbar whenever the values stay within [0, 1]; a
    configuration whose levels exceed 1 is rejected rather than renormalized.
    """
    k0, k1, k2 = (np.asarray(s, dtype=int) for s in (k0, k1, k2))
    n0, n1, n2 = len(k0), len(k1), len(k2)
    total = n0 + n1 + n2
    combined = np.concatenate([k0, k1, k2])
    if len(distinct_sorted(combined)) != total or combined.min(initial=0) < 0 or (
        total and combined.max() != total - 1
    ):
        raise ConfigurationError("k0/k1/k2 must partition the grid index range")
    zeta = float(regular_ratio)
    if not 0.0 <= zeta <= 1.0:
        raise ConfigurationError("regular_ratio must be within [0, 1]")
    kbar = float(expected_users)
    if not 0 <= kbar <= total:
        raise ConfigurationError("expected_users must be within [0, K]")

    hot_mass = kbar * (1.0 - zeta)
    denom = 2 * n1 + 3 * n2
    if denom == 0:
        if hot_mass > 1e-12:
            raise ConfigurationError(
                "regular_ratio < 1 requires nonempty hotspot sets (hotspot_k1/hotspot_k2)"
            )
        rho1 = rho2 = 0.0
    else:
        rho2 = min(1.0, 3.0 * hot_mass / denom)
        if n1 > 0:
            rho1 = max(2.0 * hot_mass / denom, (hot_mass - n2) / n1)
        else:
            rho1 = 0.0
            if 3.0 * hot_mass / denom > 1.0:
                raise ConfigurationError(
                    "expected_users too large for hotspot_k2 alone (rho2 clamps at 1)"
                )
    rho0 = kbar * zeta / n0 if n0 > 0 else 0.0
    if n0 == 0 and kbar * zeta > 1e-12:
        raise ConfigurationError("regular_ratio > 0 requires nonempty regular set")

    for name, value in (("rho0", rho0), ("rho1", rho1)):
        if value > 1.0 + 1e-12:
            raise ConfigurationError(
                f"expected_users too large for the grid sets ({name} = {value:.4g} > 1)"
            )

    rho = np.zeros(total)
    rho[k0] = rho0
    rho[k1] = rho1
    rho[k2] = rho2
    return rho


@dataclass(frozen=True)
class UserDistribution:
    """Activation probabilities plus the hotspot structure they came from."""

    rho: np.ndarray
    hotspot_k1: np.ndarray
    hotspot_k2: np.ndarray
    regular_ratio: float
    expected_users: float

    def __post_init__(self):
        rho = np.asarray(self.rho, float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "hotspot_k1", np.asarray(self.hotspot_k1, int))
        object.__setattr__(self, "hotspot_k2", np.asarray(self.hotspot_k2, int))
        if rho.min(initial=0.0) < 0 or rho.max(initial=0.0) > 1:
            raise ConfigurationError("distribution.rho entries must lie in [0, 1]")
        if abs(rho.sum() - self.expected_users) > 1e-9:
            raise ConfigurationError(
                "sum(rho) != expected_users; clamped probability levels are rejected"
            )

    @classmethod
    def from_sets(
        cls,
        n_grids: int,
        expected_users: float,
        regular_ratio: float,
        hotspot_k1,
        hotspot_k2,
    ) -> "UserDistribution":
        k1 = np.asarray(hotspot_k1, int)
        k2 = np.asarray(hotspot_k2, int)
        hot = set(k1.tolist()) | set(k2.tolist())
        k0 = np.array(sorted(set(range(n_grids)) - hot), dtype=int)
        rho = assign_probabilities(expected_users, regular_ratio, k0, k1, k2)
        return cls(rho, k1, k2, regular_ratio, expected_users)


# ---------------------------------------------------------------------------
# Line-of-sight visibility
# ---------------------------------------------------------------------------


def check_indices(indices, size: int, what: str) -> np.ndarray:
    """``indices`` as an int array, checked as a list of distinct indices.

    A multi-dimensional, boolean, non-integral, negative, out-of-range
    (>= ``size``) or duplicate index list raises ``DomainError``; integral
    floats such as ``5.0`` pass. ``what`` names the list in the message.
    The order is kept.
    """
    arr = np.asarray(indices)
    if arr.dtype == bool:
        raise DomainError(f"{what} must be an index list, not a boolean mask")
    with np.errstate(invalid="ignore"):  # NaN/inf cast to garbage, rejected below
        out = arr.astype(int)
    if not np.array_equal(out, arr):
        raise DomainError(f"{what} indices must be integers")
    if out.ndim != 1:
        raise DomainError(f"{what} must be one-dimensional")
    if out.size and (out.min() < 0 or out.max() >= size):
        raise DomainError(f"{what} indices must lie in [0, {size})")
    if distinct_sorted(out).size != out.size:
        raise DomainError(f"{what} indices must be distinct")
    return out


class _SlabTest:
    """Slab test of segments against box obstacles, in buffers for up to
    ``size`` segments that every call reuses.

    Segment p + t*d, t in [0, 1], touches box [lo, hi] (boundary contact
    counts) iff [0, 1] and the intervals between (lo_a - p_a)/d_a and
    (hi_a - p_a)/d_a of the three axes a intersect. The differences
    d = end - start are formed once per call and shared by every obstacle,
    the numerators on the shape of the start points, and the temporaries of
    the segments' shape are views of the buffers' leading entries.
    A component d_a == 0 makes the segment parallel to slab a: it lies
    inside the slab for every t or for none. Inside, its bounds become
    (-inf, inf); outside (or not provably inside, as with NaN), (inf, -inf).
    That alone decides the miss: np.maximum and np.minimum keep t_lo at inf
    and t_hi at -inf or turn them into NaN, and inf <= -inf and comparisons
    with NaN are false, so no mask is needed, for infinite or NaN
    coordinates too. That branch runs only on axes where some component is
    exactly 0. Each segment gets the operations of a separate test per
    obstacle, so results are the same bit for bit in any batch.
    """

    # float64 d (3 components) and five t temporaries, bool hit and blocked.
    BYTES_PER_SEGMENT = 8 * 8 + 2

    def __init__(self, size: int):
        self.floats = np.empty((8, size))
        self.flags = np.empty((2, size), dtype=bool)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def __call__(self, starts: np.ndarray, ends: np.ndarray, boxes: np.ndarray) -> np.ndarray:
        """Whether each segment [starts, ends] (their broadcast shape) touches
        any of ``boxes``, an (obstacles, 2, 3) array of (lo, hi) corners.

        The result is a buffer of this test, overwritten by the next call.
        """
        shape = np.broadcast_shapes(starts.shape[:-1], ends.shape[:-1])
        size = math.prod(shape)
        *d, t_lo, t_hi, t0, t1, t2 = self.floats[:, :size].reshape((8,) + shape)
        hit, blocked = self.flags[:, :size].reshape((2,) + shape)
        for a in range(3):
            np.subtract(ends[..., a], starts[..., a], out=d[a])
        parallel = [d[a] == 0.0 for a in range(3)]
        parallel = [mask if mask.any() else None for mask in parallel]
        blocked.fill(False)
        for lo, hi in boxes:
            for a in range(3):
                oa = starts[..., a]
                np.divide(lo[a] - oa, d[a], out=t0)
                np.divide(hi[a] - oa, d[a], out=t1)
                tmin = np.minimum(t0, t1, out=t2)
                tmax = np.maximum(t0, t1, out=t1)
                if parallel[a] is not None:
                    inside = (oa >= lo[a]) & (oa <= hi[a])
                    tmin = np.where(parallel[a], np.where(inside, -np.inf, np.inf), tmin)
                    tmax = np.where(parallel[a], np.where(inside, np.inf, -np.inf), tmax)
                # [t_lo, t_hi] starts as [0, 1]: axis 0 clips the scalars.
                np.maximum(t_lo if a else 0.0, tmin, out=t_lo)
                np.minimum(t_hi if a else 1.0, tmax, out=t_hi)
            np.less_equal(t_lo, t_hi, out=hit)
            blocked |= hit
        return blocked


def _corners(obstacles) -> np.ndarray:
    """The (lo, hi) corners of ``obstacles``, an (obstacles, 2, 3) array."""
    return np.array([(box.lo, box.hi) for box in obstacles], float).reshape(-1, 2, 3)


def segments_blocked(starts: np.ndarray, ends: np.ndarray, obstacles) -> np.ndarray:
    """Boolean array (broadcast of starts/ends): any obstacle hit per segment.

    Boundaries are inclusive: a segment touching a face counts as blocked.
    """
    starts = np.asarray(starts, float)
    ends = np.asarray(ends, float)
    shape = np.broadcast_shapes(starts.shape[:-1], ends.shape[:-1])
    return _SlabTest(math.prod(shape))(starts, ends, _corners(obstacles))


def cell_samples(cov: CoverageSpec, grid_indices, samples: int, rng_seed: int,
                 purpose: str = "visibility") -> np.ndarray:
    """Sample points of the cells ``grid_indices``, (cells, samples, 3).

    Cell k's points are ``lo + r * (hi - lo)`` for its corners lo, hi and
    r = ``substream(rng_seed, purpose, k).random((samples, 3))``: uniform in
    the cell and fixed by (seed, purpose, k) alone. Every cell's r comes
    from one ``rng.uniforms`` call, the rng module's own PCG64, bit for bit
    those Generator draws, so drawing samples never imports
    ``numpy.random``.
    """
    lo, hi = cov.cell_bounds(grid_indices)
    points = uniforms(rng_seed, purpose, indices=grid_indices, count=3 * samples)
    points = points.reshape(len(lo), samples, 3)
    points *= (hi - lo)[:, None, :]
    points += lo[:, None, :]
    return points


# The cone prune widens each obstacle by this share of (the scene's largest
# |coordinate| + 1); see ``visibility_from_points``.
CONE_PAD = 1e-9


def _window(slope, bound):
    """(lower, upper): the t with slope * t <= bound are those in [lower,
    upper], and none when ``upper`` is -inf. ``slope`` is (rows,
    coordinates), ``bound`` (coordinates,). A quotient that is NaN (inf/inf
    after an overflow) bounds nothing in ``_cone_mask``."""
    ratio = bound / slope
    lower = np.where(slope < 0, ratio, -np.inf)
    upper = np.where(slope > 0, ratio, np.inf)
    upper[(slope == 0) & (bound < 0)] = -np.inf
    return lower, upper


def _cone_mask(lower, upper, gathered, box_lo, box_hi, sample_lo, sample_hi, axes):
    """Where the segments from a point to a row's sample box [sample_lo,
    sample_hi] may meet the box [box_lo, box_hi]: a (rows, points) mask.

    ``axes`` holds, per axis, the points' unique coordinates and the index
    that gathers them back; ``lower``, ``upper`` and ``gathered`` are
    (rows, points) buffers. fmax and fmin drop NaN bounds, which only
    widens the windows.
    """
    lower.fill(0.0)
    upper.fill(1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a, (coords, inverse) in enumerate(axes):
            lo1, up1 = _window(sample_lo[:, a, None] - coords, box_hi[a] - coords)
            lo2, up2 = _window(coords - sample_hi[:, a, None], coords - box_lo[a])
            np.take(np.fmax(lo1, lo2, out=lo1), inverse, axis=1, out=gathered, mode="clip")
            np.fmax(lower, gathered, out=lower)
            np.take(np.fmin(up1, up2, out=up1), inverse, axis=1, out=gathered, mode="clip")
            np.fmin(upper, gathered, out=upper)
    return lower <= upper


def visibility_from_points(
    points: np.ndarray,
    cov: CoverageSpec,
    obstacles,
    samples_per_grid: int,
    rng_seed: int,
    purpose: str = "visibility",
    grid_indices=None,
) -> np.ndarray:
    """LoS visibility table (len(grid_indices), len(points)).

    Entry (k, s) is 1 iff none of the ``samples_per_grid`` points drawn inside
    grid k is blocked from points[s]. Sample points use a per-grid RNG
    substream keyed by the absolute grid index, so results are independent of
    evaluation order and of which grid subset is requested. ``points`` must
    be a finite (P, 3) array (else ``DomainError``), ``samples_per_grid`` a
    positive integer (else ``ConfigurationError``) and ``grid_indices``
    distinct grid indices (``check_indices``).

    A cone prune decides which (grid, point) pairs each obstacle can shadow.
    Every segment from point p to a sample of a row lies in the hull of p
    and the samples' own bounding box [s_lo, s_hi] (not the cell's, which a
    sample can round past). The hull's slice at t in [0, 1],
    p + t * ([s_lo, s_hi] - p), is a box; it meets the obstacle [lo, hi] on
    axis a iff t * (s_lo_a - p_a) <= hi_a - p_a and
    t * (p_a - s_hi_a) <= p_a - lo_a. Where the six windows and [0, 1] have
    no common t, no segment of the pair can touch the obstacle. The windows'
    ends are the slab kernel's own quotients, up to sign, with a sample-box
    corner in place of the sample, and rounding is monotone, so they hold
    every t the kernel finds for the row's samples, rounding included: an
    endpoint an ulp outside a face whose t rounds to 1.0 in the kernel gets
    1.0 here too. On top of that the obstacle is widened by ``CONE_PAD``
    times (the scene's largest |coordinate| + 1), a margin far past any
    rounding. The pairs left run through the kernel with their segments'
    exact operations, so the table is bit for bit that of testing every
    pair.

    A pair left is tested in rounds of growing width, samples [0, 1), [1, 2),
    [2, 4), [4, 8), ... up to ``samples_per_grid``, and only while none of
    its samples so far is blocked; a pair already blocked by an earlier
    obstacle is not tested against the later ones. The entry is an OR over
    samples and obstacles, and the kernel gives each segment the same bits
    in any batch, so stopping at a pair's first blocked sample leaves the
    table as it is. Most blocked pairs are blocked by their first sample.

    Every row's samples are drawn first, before the kernel's buffers exist,
    so the draw's temporaries never add to them. Then, one obstacle at a
    time, rows go through the prune in blocks; the pairs found queue up
    across blocks until they fill a batch, and the queue goes through the
    rounds in batches of at most as many pairs as segments, each round's
    undecided pairs kept in its front. Blocks and batches share the memory
    of one (samples, points) slab test, which is what testing a whole row
    at once held: a block takes at most half, a batch the rest. Both reuse
    one buffer set per call, each batch through views.
    """
    samples = as_integer(samples_per_grid, "samples_per_grid")
    if samples < 1:
        raise ConfigurationError("samples_per_grid must be >= 1")
    points = np.asarray(points, float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DomainError(f"points must be a (P, 3) array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise DomainError("points must be finite")
    if grid_indices is None:
        grid_indices = np.arange(cov.n_grids)
    grid_indices = check_indices(grid_indices, cov.n_grids, "grid_indices")
    boxes = _corners(obstacles)
    if not np.all(np.isfinite(boxes)):
        raise DomainError("obstacles must have finite bounds")
    n_rows, n_points = len(grid_indices), len(points)
    xi = np.ones((n_rows, n_points), dtype=np.uint8)
    if not (len(boxes) and xi.size):
        return xi

    axes = [np.unique(points[:, a], return_inverse=True) for a in range(3)]
    corners = [cov.x_min, cov.x_max, cov.y_min, cov.y_max, cov.z_min, cov.z_max]
    pad = CONE_PAD * (max(np.abs(points).max(), np.abs(boxes).max(), np.abs(corners).max()) + 1)
    bounds = [0, 1]
    while bounds[-1] < samples:
        bounds.append(min(2 * bounds[-1], samples))
    rounds = list(zip(bounds, bounds[1:]))
    widest = max(stop - start for start, stop in rounds)
    # Bytes per row of a block: (rows, points) masks and the pair indices
    # found and queued, (rows, coordinates) windows. Per segment of a batch:
    # the slab test, its parallel masks and the gathered sample; per pair: its
    # queue entries, row and column, start point, hit and the index kept for
    # the next round.
    budget = samples * n_points * _SlabTest.BYTES_PER_SEGMENT
    row_bytes = 49 * n_points + 64 * max(len(coords) for coords, _ in axes)
    pair_bytes = _SlabTest.BYTES_PER_SEGMENT + 3 + 24 + 66
    block_rows = min(max(budget // 2 // row_bytes, 1), n_rows)
    capacity = max(min((budget - block_rows * row_bytes) // pair_bytes,
                       n_rows * n_points * samples), widest)

    targets = cell_samples(cov, grid_indices, samples, rng_seed, purpose)
    slab_test = _SlabTest(capacity)
    lower, upper, gathered = np.empty((3, block_rows, n_points))
    sample_lo, sample_hi = targets.min(axis=1), targets.max(axis=1)
    flat_xi = xi.reshape(-1)

    def test_in_rounds(pairs, box):
        """Clear flat_xi at the pairs (flat indices) whose segments touch
        ``box``, testing in each round only those still undecided."""
        for start, stop in rounds:
            width, kept = stop - start, 0
            step = capacity // width
            for batch in (pairs[i:i + step] for i in range(0, len(pairs), step)):
                row, col = np.divmod(batch, n_points)
                hit = slab_test(points[col][:, None, :], targets[row, start:stop],
                                box[None]).any(axis=1)
                flat_xi[batch[hit]] = 0
                undecided = batch[~hit]
                pairs[kept:kept + len(undecided)] = undecided
                kept += len(undecided)
            pairs = pairs[:kept]

    for box in boxes:
        queued = []
        for first in range(0, n_rows, block_rows):
            block = slice(first, first + block_rows)
            rows = min(block_rows, n_rows - first)
            near = _cone_mask(lower[:rows], upper[:rows], gathered[:rows], box[0] - pad,
                              box[1] + pad, sample_lo[block], sample_hi[block], axes)
            found = np.flatnonzero(np.logical_and(near, xi[block], out=near))
            found += first * n_points
            queued.append(found)
            if sum(map(len, queued)) >= capacity or first + rows == n_rows:
                test_in_rounds(np.concatenate(queued), box)
                queued = []
    return xi


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """All physical and system parameters of one scenario.

    Powers are linear milliwatts and the Rician factor is a linear ratio
    (np.inf selects the symbolic pure-LoS mode); dB conversions happen once
    at JSON load time.
    """

    carrier_freq: float
    m_h: int
    m_v: int
    d_h: float
    d_v: float
    n_subarrays: int
    tx_power_mw: np.ndarray
    noise_power_mw: float
    rician_kappa: float
    rng_seed: int
    ma_region: MaRegionSpec
    coverage: CoverageSpec
    obstacles: list = field(default_factory=list)
    distribution: UserDistribution = None
    visibility_samples: int = 20

    def __post_init__(self):
        self.tx_power_mw = np.broadcast_to(
            np.asarray(self.tx_power_mw, float), (self.coverage.n_grids,)
        ).copy()
        self.validate()

    def validate(self):
        # Written as 0 < x < inf so that NaN fails too.
        if not 0 < self.carrier_freq < np.inf:
            raise ConfigurationError("carrier_freq must be positive and finite")
        if self.m_h < 1 or self.m_v < 1:
            raise ConfigurationError("m_h and m_v must be >= 1")
        if not (0 < self.d_h < np.inf and 0 < self.d_v < np.inf):
            raise ConfigurationError("d_h and d_v must be positive and finite")
        n0 = self.ma_region.n_candidates
        if not 1 <= self.n_subarrays <= n0:
            raise ConfigurationError(
                f"n_subarrays must satisfy 1 <= N <= N0 = {n0}, got {self.n_subarrays}"
            )
        if not np.all((0 < self.tx_power_mw) & (self.tx_power_mw < np.inf)):
            raise ConfigurationError("tx_power_mw entries must be positive and finite")
        if not 0 < self.noise_power_mw < np.inf:
            raise ConfigurationError("noise_power_mw must be positive and finite")
        if not (self.rician_kappa > 0):  # rejects NaN and nonpositive
            raise ConfigurationError("rician_kappa must be > 0 or infinite (pure LoS)")
        if self.visibility_samples < 1:
            raise ConfigurationError("visibility_samples must be >= 1")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be >= 0")
        # Adjacent placements must not overlap along any axis the subarray moves on.
        extent_y = (self.m_h - 1) * self.d_h
        extent_z = (self.m_v - 1) * self.d_v
        if self.ma_region.n_y > 1 and self.ma_region.dy <= extent_y:
            raise ConfigurationError(
                "ma_region y sampling interval must exceed the subarray horizontal extent"
            )
        if self.ma_region.n_z > 1 and self.ma_region.dz <= extent_z:
            raise ConfigurationError(
                "ma_region z sampling interval must exceed the subarray vertical extent"
            )
        if self.distribution is not None and len(self.distribution.rho) != self.coverage.n_grids:
            raise ConfigurationError("distribution.rho length must equal the grid count K")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def antennas_per_subarray(self) -> int:
        return self.m_h * self.m_v

    @property
    def pure_los(self) -> bool:
        return np.isinf(self.rician_kappa)

    @property
    def snr_scale(self) -> np.ndarray:
        """Per-grid transmit SNR P_k / sigma^2."""
        return self.tx_power_mw / self.noise_power_mw

    def candidates(self) -> np.ndarray:
        return build_candidate_grid(self.ma_region)

    def grid_centers(self) -> np.ndarray:
        return build_user_grid(self.coverage)


# The fields each object of a scenario document accepts.
SCENARIO_FIELDS = ("carrier_freq", "m_h", "m_v", "d_h", "d_v", "n_subarrays", "tx_power_dbm",
                   "noise_power_dbm", "rician_kappa_db", "rng_seed", "visibility_samples",
                   "ma_region", "coverage", "distribution", "obstacles")
MA_REGION_FIELDS = ("y_min", "y_max", "z_min", "z_max", "n_y", "n_z")
COVERAGE_FIELDS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "k_x", "k_y", "k_z")
DISTRIBUTION_FIELDS = ("expected_users", "regular_ratio", "hotspot_k1", "hotspot_k2")
OBSTACLE_FIELDS = ("center", "dims")


def check_fields(mapping, accepted, context: str = "") -> dict:
    """``mapping``, an object (dict) whose keys all lie in ``accepted``. Else
    ``ConfigurationError`` names the object, or the first other key by its
    path (``context`` + key) and the accepted key closest to it."""
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"'{context.rstrip('.')}' must be an object, got {mapping!r}")
    for key in mapping:
        if key not in accepted:
            import difflib  # only on the error path: no run loads it

            close = difflib.get_close_matches(str(key), accepted, n=1)
            hint = f"; did you mean '{context}{close[0]}'?" if close else ""
            raise ConfigurationError(
                f"unknown field '{context}{key}'{hint} (accepted: {', '.join(accepted)})")
    return mapping


def _require(mapping: dict, key: str, context: str):
    """``mapping[key]``, of an object ``check_fields`` has passed."""
    if key not in mapping:
        raise ConfigurationError(f"missing required field '{context}{key}'")
    return mapping[key]


def rician_kappa(kappa_db) -> float:
    """The linear Rician factor of ``rician_kappa_db``, a number in dB or the
    string "infinite" (pure LoS); errors name the field and the value."""
    if isinstance(kappa_db, str):
        if kappa_db.lower() not in ("infinite", "inf"):
            raise ConfigurationError(
                f"'rician_kappa_db' must be a number in dB or 'infinite', got {kappa_db!r}"
            )
        return np.inf
    db = as_number(kappa_db, "rician_kappa_db")
    try:
        kappa = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigurationError(
            f"'rician_kappa_db' {kappa_db!r} is past a float's range; "
            "write 'infinite' for pure LoS") from None
    if not kappa > 0.0:  # underflow below about -3240 dB, or NaN
        raise ConfigurationError(
            f"'rician_kappa_db' {kappa_db!r} gives a linear Rician factor of {kappa!r}; "
            "it must be > 0")
    return kappa


def as_number(value, field: str, finite: bool = False) -> float:
    """``value`` as a float; anything but a JSON number (a string, a bool,
    null, a list), or with ``finite`` a NaN or infinity, raises
    ``ConfigurationError`` naming ``field``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or finite and not np.isfinite(value)):
        raise ConfigurationError(f"'{field}' must be a {'finite ' * finite}number, got {value!r}")
    return float(value)


def as_integer(value, field: str) -> int:
    """``value`` as an int; NaN, infinite and fractional values are refused."""
    number = as_number(value, field)
    if not (np.isfinite(number) and number == int(number)):
        raise ConfigurationError(f"'{field}' must be an integer, got {value!r}")
    return int(number)


def _number(mapping: dict, key: str, context: str, default=None) -> float:
    """``mapping[key]`` as a float; required unless ``default`` is given."""
    value = _require(mapping, key, context) if default is None else mapping.get(key, default)
    return as_number(value, context + key)


def _integer(mapping: dict, key: str, context: str, default=None) -> int:
    """``mapping[key]`` as an int; required unless ``default`` is given."""
    value = _require(mapping, key, context) if default is None else mapping.get(key, default)
    return as_integer(value, context + key)


def _numbers(value, field: str, length: int) -> list:
    """``value`` as a list of ``length`` floats."""
    if not isinstance(value, list) or len(value) != length:
        raise ConfigurationError(f"'{field}' must be a list of {length} numbers, got {value!r}")
    return [as_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _power_mw(dbm, field: str):
    """A power in dBm (a number or a per-grid list) in mW. One that is not
    positive and finite in mW, say NaN or past a float's range, raises
    naming ``field`` and the entry."""
    with np.errstate(over="ignore"):
        mw = dbm_to_mw(dbm)
    bad = np.flatnonzero(~((0 < mw) & (mw < np.inf)))
    if bad.size:
        where, value = ((f"{field}[{bad[0]}]", dbm[bad[0]]) if isinstance(dbm, list)
                        else (field, dbm))
        raise ConfigurationError(f"'{where}' must be a positive, finite power, got {value!r} dBm")
    return mw


def _integers(value, field: str) -> list:
    """``value`` as a list of ints, each entry named in its error."""
    if not isinstance(value, list):
        raise ConfigurationError(f"'{field}' must be a list of integers, got {value!r}")
    return [as_integer(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _check_obstacles_clear(obstacles, candidates: np.ndarray, cells: np.ndarray) -> None:
    """Refuse a box that holds a candidate position, faces included, or the
    center of a user cell, faces excluded: the channel model has no path
    from inside a box. A cell that a box only partly covers stays valid."""
    for i, box in enumerate(obstacles):
        held = np.flatnonzero(np.all((box.lo <= candidates) & (candidates <= box.hi), axis=1))
        if held.size:
            raise ConfigurationError(f"'obstacles[{i}]' holds candidate position {held[0]}")
        held = np.flatnonzero(np.all((box.lo < cells) & (cells < box.hi), axis=1))
        if held.size:
            raise ConfigurationError(f"'obstacles[{i}]' holds the center of user grid {held[0]}")


def load_scenario(doc) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document, which must be a
    mapping.

    Powers are given in dBm (``tx_power_dbm``, ``noise_power_dbm``) and the
    Rician factor in dB (``rician_kappa_db``) or the string "infinite".
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    check_fields(doc, SCENARIO_FIELDS)

    ma_doc = check_fields(_require(doc, "ma_region", ""), MA_REGION_FIELDS, "ma_region.")
    ma = MaRegionSpec(
        **{key: _number(ma_doc, key, "ma_region.")
           for key in ("y_min", "y_max", "z_min", "z_max")},
        **{key: _integer(ma_doc, key, "ma_region.") for key in ("n_y", "n_z")},
    )
    cov_doc = check_fields(_require(doc, "coverage", ""), COVERAGE_FIELDS, "coverage.")
    cov = CoverageSpec(
        **{key: _number(cov_doc, key, "coverage.")
           for key in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")},
        **{key: _integer(cov_doc, key, "coverage.") for key in ("k_x", "k_y", "k_z")},
    )

    freq = _number(doc, "carrier_freq", "")
    if not 0 < freq < np.inf:  # NaN fails too
        raise ConfigurationError(f"'carrier_freq' must be positive and finite, got {freq!r}")
    wavelength = SPEED_OF_LIGHT / freq
    d_h = wavelength / 2.0 if doc.get("d_h") is None else _number(doc, "d_h", "")
    d_v = wavelength / 2.0 if doc.get("d_v") is None else _number(doc, "d_v", "")

    kappa = rician_kappa(doc.get("rician_kappa_db", "infinite"))

    dist_doc = check_fields(_require(doc, "distribution", ""), DISTRIBUTION_FIELDS,
                            "distribution.")
    distribution = UserDistribution.from_sets(
        n_grids=cov.n_grids,
        expected_users=_number(dist_doc, "expected_users", "distribution."),
        regular_ratio=_number(dist_doc, "regular_ratio", "distribution.", default=0.0),
        **{key: _integers(dist_doc.get(key, []), "distribution." + key)
           for key in ("hotspot_k1", "hotspot_k2")},
    )

    obstacle_docs = doc.get("obstacles", [])
    if not isinstance(obstacle_docs, list):
        raise ConfigurationError(f"'obstacles' must be a list, got {obstacle_docs!r}")
    obstacles = []
    for i, o in enumerate(obstacle_docs):
        where = f"obstacles[{i}]."
        check_fields(o, OBSTACLE_FIELDS, where)
        center, dims = (tuple(_numbers(_require(o, key, where), where + key, 3))
                        for key in ("center", "dims"))
        obstacles.append(Obstacle(center=center, dims=dims))
    _check_obstacles_clear(obstacles, build_candidate_grid(ma), build_user_grid(cov))

    tx_power_dbm = _require(doc, "tx_power_dbm", "")
    if isinstance(tx_power_dbm, list):  # one value per grid
        tx_power_dbm = _numbers(tx_power_dbm, "tx_power_dbm", cov.n_grids)
    else:
        tx_power_dbm = as_number(tx_power_dbm, "tx_power_dbm")

    return ScenarioConfig(
        carrier_freq=freq,
        m_h=_integer(doc, "m_h", ""),
        m_v=_integer(doc, "m_v", ""),
        d_h=d_h,
        d_v=d_v,
        n_subarrays=_integer(doc, "n_subarrays", ""),
        tx_power_mw=_power_mw(tx_power_dbm, "tx_power_dbm"),
        noise_power_mw=float(_power_mw(_number(doc, "noise_power_dbm", ""), "noise_power_dbm")),
        rician_kappa=kappa,
        rng_seed=_integer(doc, "rng_seed", "", default=0),
        ma_region=ma,
        coverage=cov,
        obstacles=obstacles,
        distribution=distribution,
        visibility_samples=_integer(doc, "visibility_samples", "", default=20),
    )
