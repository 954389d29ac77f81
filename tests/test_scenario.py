import copy
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlma import scenario
from xlma.errors import ConfigurationError, DomainError
from xlma.scenario import (
    CoverageSpec,
    MaRegionSpec,
    Obstacle,
    assign_probabilities,
    build_candidate_grid,
    build_user_grid,
    candidate_linear_index,
    candidate_multi_index,
    cell_samples,
    dbm_to_mw,
    distinct_sorted,
    grid_linear_index,
    grid_multi_index,
    load_scenario,
    segments_blocked,
    visibility_from_points,
)
from xlma.presets import PRESETS, desk_full_los
from conftest import make_scenario
from oracles import (blocked_reference, grid_sample_points, segment_intersects_box,
                     visibility_reference)


class TestCandidateGrid:
    def test_single_cell_is_region_center(self):
        ma = MaRegionSpec(y_min=-1, y_max=1, z_min=0, z_max=2, n_y=1, n_z=1)
        np.testing.assert_allclose(build_candidate_grid(ma), [[0.0, 0.0, 1.0]])

    def test_full_scale_geometry(self):
        # 1 m sampling in both axes; first center at (-50, 20.5).
        ma = MaRegionSpec(y_min=-50.5, y_max=50.5, z_min=20, z_max=50, n_y=101, n_z=30)
        pos = build_candidate_grid(ma)
        assert pos.shape == (3030, 3)
        np.testing.assert_allclose(pos[0], [0.0, -50.0, 20.5])
        np.testing.assert_allclose(pos[100], [0.0, 50.0, 20.5])  # iy fastest
        np.testing.assert_allclose(pos[101], [0.0, -50.0, 21.5])  # next z row
        assert pos[:, 1].min() >= -50.5 and pos[:, 1].max() <= 50.5

    def test_swapped_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            MaRegionSpec(y_min=1.0, y_max=-1.0, z_min=0, z_max=1, n_y=2, n_z=1)

    def test_degenerate_axis_needs_count_one(self):
        ma = MaRegionSpec(y_min=-1, y_max=1, z_min=5, z_max=5, n_y=4, n_z=1)
        assert np.all(build_candidate_grid(ma)[:, 2] == 5.0)
        with pytest.raises(ConfigurationError):
            MaRegionSpec(y_min=-1, y_max=1, z_min=5, z_max=5, n_y=4, n_z=2)


class TestUserGrid:
    def test_single_cell_is_cuboid_center(self):
        cov = CoverageSpec(x_min=7.5, x_max=52.5, y_min=-52.5, y_max=52.5,
                           z_min=0, z_max=50, k_x=1, k_y=1, k_z=1)
        np.testing.assert_allclose(build_user_grid(cov), [[30.0, 0.0, 25.0]])

    def test_planar_grid(self):
        cov = CoverageSpec(x_min=7.5, x_max=52.5, y_min=-52.5, y_max=52.5,
                           z_min=0, z_max=0, k_x=9, k_y=21, k_z=1)
        pos = build_user_grid(cov)
        assert pos.shape == (189, 3)
        np.testing.assert_allclose(pos[0], [10.0, -50.0, 0.0])
        np.testing.assert_allclose(pos[1], [15.0, -50.0, 0.0])  # ix fastest
        np.testing.assert_allclose(pos[9], [10.0, -45.0, 0.0])

    def test_full_3d_count(self):
        cov = CoverageSpec(x_min=7.5, x_max=52.5, y_min=-52.5, y_max=52.5,
                           z_min=0, z_max=50, k_x=9, k_y=21, k_z=10)
        assert build_user_grid(cov).shape == (1890, 3)

    def test_front_halfspace_required(self):
        with pytest.raises(ConfigurationError):
            CoverageSpec(x_min=0.0, x_max=10, y_min=-1, y_max=1,
                         z_min=0, z_max=1, k_x=1, k_y=1, k_z=1)


class TestIndexing:
    @given(st.integers(1, 12), st.integers(1, 9), st.data())
    @settings(max_examples=50, deadline=None)
    def test_candidate_roundtrip(self, n_y, n_z, data):
        idx = data.draw(st.integers(0, n_y * n_z - 1))
        iy, iz = candidate_multi_index(idx, n_y)
        assert 0 <= iy < n_y and 0 <= iz < n_z
        assert candidate_linear_index(iy, iz, n_y) == idx

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_grid_roundtrip(self, k_x, k_y, k_z, data):
        idx = data.draw(st.integers(0, k_x * k_y * k_z - 1))
        ix, iy, iz = grid_multi_index(idx, k_x, k_y)
        assert grid_linear_index(ix, iy, iz, k_x, k_y) == idx

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_grids_equal_the_per_axis_meshgrid_layout(self, preset):
        """The centers built from the index mappings equal, on every preset,
        those laid out per axis by ``np.meshgrid``, as the grids were built
        before."""
        sc = load_scenario(PRESETS[preset]())
        ma, cov = sc.ma_region, sc.coverage
        y = ma.y_min + (np.arange(ma.n_y) + 0.5) * ma.dy
        z = ma.z_min + (np.arange(ma.n_z) + 0.5) * ma.dz
        yy, zz = np.meshgrid(y, z, indexing="xy")  # iy fastest
        candidates = np.stack([np.zeros(yy.size), yy.ravel(), zz.ravel()], axis=1)
        d = cov.deltas
        axes = [lo + (np.arange(n) + 0.5) * step for lo, n, step in
                zip((cov.x_min, cov.y_min, cov.z_min), (cov.k_x, cov.k_y, cov.k_z), d)]
        zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")  # ix fastest
        cells = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        assert np.array_equal(sc.candidates(), candidates)
        assert np.array_equal(sc.grid_centers(), cells)

    @given(st.lists(st.integers(-2**62, 2**62) | st.integers(0, 5), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_distinct_sorted_is_plain_unique(self, values):
        got = distinct_sorted(np.asarray(values, dtype=np.int64))
        want = np.unique(np.asarray(values, dtype=np.int64))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestProbabilities:
    def test_all_regular(self):
        rho = assign_probabilities(4.0, 1.0, np.arange(8), [], [])
        np.testing.assert_allclose(rho, 0.5)

    def test_paper_hotspot_levels(self):
        # zeta = 0, Kbar = 10, |K1| = |K2| = 6: rho2 = 1, rho1 = 2/3.
        k1 = np.arange(6)
        k2 = np.arange(6, 12)
        k0 = np.arange(12, 40)
        rho = assign_probabilities(10.0, 0.0, k0, k1, k2)
        np.testing.assert_allclose(rho[k2], 1.0)
        np.testing.assert_allclose(rho[k1], 2.0 / 3.0)
        np.testing.assert_allclose(rho[k0], 0.0)
        assert abs(rho.sum() - 10.0) < 1e-9

    def test_mass_conserved_when_rho2_clamps(self):
        # Clamp active: rho1 takes the repair value and the sum still equals Kbar.
        k1, k2, k0 = np.arange(6), np.arange(6, 12), np.arange(12, 40)
        rho = assign_probabilities(11.0, 0.0, k0, k1, k2)
        np.testing.assert_allclose(rho[k2], 1.0)
        np.testing.assert_allclose(rho[k1], (11.0 - 6.0) / 6.0)
        assert abs(rho.sum() - 11.0) < 1e-9

    def test_overload_rejected_not_renormalized(self):
        k1, k2, k0 = np.arange(6), np.arange(6, 12), np.arange(12, 14)
        with pytest.raises(ConfigurationError):
            assign_probabilities(13.0, 0.0, k0, k1, k2)  # rho1 would exceed 1

    def test_partition_enforced(self):
        with pytest.raises(ConfigurationError):
            assign_probabilities(2.0, 0.5, [0, 1], [1, 2], [3])

    @given(st.integers(0, 24), st.data())
    @settings(max_examples=300, deadline=None)
    def test_returned_levels_sum_to_expected_users(self, n_grids, data):
        # Every branch that returns (regular only, both hotspot sets, rho2
        # clamped, one or more empty sets) keeps the mass Kbar.
        order = data.draw(st.permutations(range(n_grids)))
        n1 = data.draw(st.integers(0, n_grids))
        n2 = data.draw(st.integers(0, n_grids - n1))
        zeta = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        kbar = data.draw(st.floats(0.0, float(n_grids)))
        try:
            rho = assign_probabilities(kbar, zeta, order[n1 + n2:], order[:n1],
                                       order[n1:n1 + n2])
        except ConfigurationError:
            return
        assert abs(rho.sum() - kbar) <= 1e-9

    @given(st.floats(0.05, 0.95), st.floats(0.5, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_identity(self, zeta, kbar):
        k0, k1, k2 = np.arange(20), np.arange(20, 26), np.arange(26, 32)
        rho = assign_probabilities(kbar, zeta, k0, k1, k2)
        assert abs(rho.sum() - kbar) < 1e-9
        assert rho.min() >= 0 and rho.max() <= 1


class TestScenarioActivation:
    """``ScenarioConfig`` checks the activation probabilities it holds."""

    @pytest.mark.parametrize("rho, message", [
        ([0.5, 0.5, 1.0], "length must equal the grid count"),
        ([0.5] * 5, "length must equal the grid count"),
        ([-0.5, 1.5, 0.5, 0.5], r"entries must lie in \[0, 1\]"),
        ([1.5, 0.5, 0.0, 0.0], r"entries must lie in \[0, 1\]"),
        ([math.nan, 0.5, 0.5, 0.5], r"entries must lie in \[0, 1\]"),
    ])
    def test_bad_rho_rejected(self, rho, message):
        sc = make_scenario()  # 4 grids at 0.5
        with pytest.raises(ConfigurationError, match=f"^rho {message}"):
            dataclasses.replace(sc, rho=rho)

    def test_expected_user_count_is_the_sum_of_rho(self):
        # No separate count is kept to agree with rho.
        names = [f.name for f in dataclasses.fields(scenario.ScenarioConfig)]
        assert "expected_users" not in names and len(names) == 15
        assert dataclasses.replace(make_scenario(), rho=[0.5, 0.5, 0.5, 0.4]).rho.sum() == 1.9

    def test_rho_is_required(self):
        sc = make_scenario()
        kwargs = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc) if f.name != "rho"}
        with pytest.raises(TypeError, match="rho"):
            scenario.ScenarioConfig(**kwargs)


BOX = Obstacle(center=(5.0, 0.0, 5.0), dims=(2.0, 4.0, 10.0))


class TestSegmentBox:
    def test_through_hit(self):
        assert segment_intersects_box((0, 0, 5), (10, 0, 5), BOX)

    def test_miss_above(self):
        assert not segment_intersects_box((0, 0, 11), (10, 0, 11), BOX)

    def test_short_segment_stops_before(self):
        assert not segment_intersects_box((0, 0, 5), (3.9, 0, 5), BOX)

    def test_touching_face_counts_blocked(self):
        # Inclusive boundary convention: grazing the x = 4 face blocks.
        assert segment_intersects_box((0, 0, 5), (4.0, 0, 5), BOX)
        assert segment_intersects_box((4.0, -5, 5), (4.0, 5, 5), BOX)

    def test_parallel_outside_slab(self):
        assert not segment_intersects_box((0, 2.1, 5), (10, 2.1, 5), BOX)

    @given(
        st.tuples(*[st.floats(-20, 20) for _ in range(3)]),
        st.tuples(*[st.floats(-20, 20) for _ in range(3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_endpoint_symmetry(self, p, q):
        assert segment_intersects_box(p, q, BOX) == segment_intersects_box(q, p, BOX)

    @given(
        st.tuples(*[st.floats(-20, 20) for _ in range(3)]),
        st.tuples(*[st.floats(-20, 20) for _ in range(3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_point_sampling(self, p, q):
        """Parametric oracle: dense points along the segment, inside-box test."""
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        ts = np.linspace(0.0, 1.0, 2001)
        pts = p[None, :] + ts[:, None] * (q - p)[None, :]
        # A sampled point clearly interior proves a hit; a segment staying
        # clearly away from the box proves a miss. Grazing cases are covered
        # by the deterministic boundary tests above.
        inside = np.all((pts >= BOX.lo + 1e-9) & (pts <= BOX.hi - 1e-9), axis=1)
        if inside.any():
            assert segment_intersects_box(p, q, BOX)
        margin = np.min(np.maximum(BOX.lo - pts, pts - BOX.hi).max(axis=1))
        if margin > 0.1:
            assert not segment_intersects_box(p, q, BOX)


# Half-integers hit box faces (integer centers, dims in {1, 2, 3}) exactly.
_COORD = st.one_of(st.integers(-8, 8).map(lambda i: i / 2.0), st.floats(-5, 5))
_POINT = st.tuples(_COORD, _COORD, _COORD)
_BOX = st.builds(
    Obstacle,
    center=st.tuples(*[st.integers(-2, 2).map(float)] * 3),
    dims=st.tuples(*[st.sampled_from([1.0, 2.0, 3.0])] * 3),
)
_POINT_NONFINITE = st.tuples(*[st.one_of(_COORD, st.sampled_from([np.inf, -np.inf, np.nan]))] * 3)
# Obstacle rejects non-finite values; the kernel only reads ``lo`` and ``hi``.
_BOX_NONFINITE = st.builds(
    lambda lo, hi: SimpleNamespace(lo=np.array(lo), hi=np.array(hi)),
    _POINT_NONFINITE, _POINT_NONFINITE,
)
# (start, end, shared): axes in ``shared`` copy the start coordinate into
# the end, which makes the segment parallel to that axis' slab.
_SEGMENT = st.tuples(_POINT, _POINT, st.tuples(*[st.booleans()] * 3))


class TestSlabKernel:
    """``segments_blocked`` against the per-obstacle slab test it replaced."""

    @given(st.lists(_SEGMENT, min_size=1, max_size=12),
           st.lists(_BOX, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_elementwise(self, segments, boxes):
        starts = np.array([p for p, _, _ in segments], float)
        ends = np.array([[p_a if s_a else q_a for p_a, q_a, s_a in zip(p, q, shared)]
                         for p, q, shared in segments], float)
        np.testing.assert_array_equal(
            segments_blocked(starts, ends, boxes), blocked_reference(starts, ends, boxes)
        )
        # Every start against every end: a broadcast (n, n) table.
        np.testing.assert_array_equal(
            segments_blocked(starts[:, None, :], ends[None, :, :], boxes),
            blocked_reference(starts[:, None, :], ends[None, :, :], boxes),
        )

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("offset, hit", [(0.0, True), (2.0, True), (1.0, True),
                                             (2.5, False), (-2.0, False)])
    def test_parallel_axis(self, axis, offset, hit):
        """A segment whose ``axis`` coordinate is fixed at ``offset``: inside
        the slab [0, 2] of the box [0, 2]^3, on one of its faces, or outside."""
        box = Obstacle(center=(1.0, 1.0, 1.0), dims=(2.0, 2.0, 2.0))
        p = np.array([-1.0, 1.0, 1.0])
        q = np.array([3.0, 1.5, 0.5])
        if axis == 0:
            p, q = p[[1, 0, 2]], q[[1, 0, 2]]
        p[axis] = q[axis] = offset
        starts, ends = p[None, :], q[None, :]
        got = segments_blocked(starts, ends, [box])
        np.testing.assert_array_equal(got, blocked_reference(starts, ends, [box]))
        assert bool(got[0]) is hit

    @given(st.lists(st.tuples(_POINT_NONFINITE, _POINT_NONFINITE,
                              st.tuples(*[st.booleans()] * 3)), min_size=1, max_size=12),
           st.lists(st.one_of(_BOX, _BOX_NONFINITE), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_non_finite_coordinates_equal_reference(self, segments, boxes):
        """With +-inf and NaN in segments and boxes, the kernel (which has no
        inside-slab mask) still agrees with the reference (which has one)."""
        starts = np.array([p for p, _, _ in segments], float)
        ends = np.array([[p_a if s_a else q_a for p_a, q_a, s_a in zip(p, q, shared)]
                         for p, q, shared in segments], float)
        with np.errstate(invalid="ignore"):
            expected = blocked_reference(starts, ends, boxes)
        np.testing.assert_array_equal(segments_blocked(starts, ends, boxes), expected)

    @pytest.mark.parametrize("outside", [(0, 1), (0, 2), (1, 2), (0, 1, 2)])
    def test_parallel_outside_on_several_axes(self, outside):
        """Parallel to the slabs of ``outside`` and outside them; the free
        axis (if any) crosses the box's extent."""
        box = Obstacle(center=(1.0, 1.0, 1.0), dims=(2.0, 2.0, 2.0))
        p = np.array([-1.0, -1.0, -1.0])
        q = np.array([3.0, 3.0, 3.0])
        for a in outside:
            p[a] = q[a] = 2.5 if a % 2 else -0.5
        starts, ends = p[None, :], q[None, :]
        got = segments_blocked(starts, ends, [box])
        np.testing.assert_array_equal(got, blocked_reference(starts, ends, [box]))
        assert not got[0]

    def test_endpoint_on_face(self):
        box = Obstacle(center=(1.0, 1.0, 1.0), dims=(2.0, 2.0, 2.0))
        starts = np.array([[-1.0, 0.5, 0.5], [-1.0, 0.5, 0.5], [-1.0, 3.0, 0.5]])
        ends = np.array([[0.0, 0.5, 0.5], [-0.1, 0.5, 0.5], [0.0, 2.0, 0.5]])
        got = segments_blocked(starts, ends, [box])
        np.testing.assert_array_equal(got, blocked_reference(starts, ends, [box]))
        np.testing.assert_array_equal(got, [True, False, True])

    def test_returns_a_fresh_array(self):
        """A second call, on other segments, leaves the first result as it was."""
        boxes = scenario._corners([Obstacle(center=(1.0, 1.0, 1.0), dims=(2.0, 2.0, 2.0))])
        starts = np.array([[-1.0, 1.0, 1.0], [-1.0, 5.0, 1.0]])
        first = scenario._slab_test(starts, np.array([[3.0, 1.0, 1.0], [3.0, 5.0, 1.0]]), boxes)
        kept = first.copy()
        second = scenario._slab_test(starts[::-1], np.array([[3.0, 5.0, 1.0], [3.0, 1.0, 1.0]]),
                                     boxes)
        np.testing.assert_array_equal(kept, [True, False])
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(second, [False, True])

    def test_peak_memory_per_segment(self):
        """The tracemalloc peak of one call stays within
        ``SLAB_BYTES_PER_SEGMENT`` per segment, plus 8 kB, where it is
        highest: start points of the segments' shape, some segments parallel
        to every slab and inside it."""
        rng = np.random.default_rng(3)
        starts = rng.uniform(-4.0, 4.0, (100_000, 3))
        ends = rng.uniform(-4.0, 4.0, (100_000, 3))
        ends[::7] = starts[::7] + [0.0, 0.0, 1.0]
        ends[1::7, 2] = starts[1::7, 2]
        boxes = scenario._corners([BOX, Obstacle(center=(0.0, 0.0, 0.0), dims=(9.0, 9.0, 9.0))])
        scenario._slab_test(starts, ends, boxes)
        tracemalloc.start()
        try:
            blocked = scenario._slab_test(starts, ends, boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocked.all()  # the second box holds every start point
        assert peak <= scenario.SLAB_BYTES_PER_SEGMENT * len(starts) + 8192

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_visibility_equals_reference(self, preset):
        """Every grid's row, or at full scale every active grid's (all clear
        for type 3)."""
        sc = load_scenario(PRESETS[preset]())
        full_scale = preset.startswith("paper_full_scale")
        grids = (np.flatnonzero(sc.rho > 0) if full_scale
                 else np.arange(sc.coverage.n_grids))
        xi = visibility_from_points(sc.candidates(), sc.coverage, sc.obstacles,
                                    sc.visibility_samples, sc.rng_seed, grid_indices=grids)
        ref = visibility_reference(sc.candidates(), sc.coverage, sc.obstacles,
                                   sc.visibility_samples, sc.rng_seed, grids)
        if sc.obstacles and not full_scale:
            assert 0 < xi.mean() < 1
        assert np.array_equal(xi, ref)


class TestVisibility:
    def _cov(self):
        return CoverageSpec(x_min=8, x_max=40, y_min=-18, y_max=18,
                            z_min=0, z_max=0, k_x=3, k_y=3, k_z=1)

    def _candidates(self):
        ma = MaRegionSpec(y_min=-20, y_max=20, z_min=15, z_max=15, n_y=10, n_z=1)
        return build_candidate_grid(ma)

    def test_no_obstacles_all_visible(self):
        xi = visibility_from_points(self._candidates(), self._cov(), [], 20, 0)
        assert xi.shape == (9, 10)
        assert np.all(xi == 1)

    def test_full_wall_blocks_everything(self):
        wall = Obstacle(center=(4.0, 0.0, 10.0), dims=(1.0, 200.0, 200.0))
        xi = visibility_from_points(self._candidates(), self._cov(), [wall], 20, 0)
        assert np.all(xi == 0)

    def test_reproducible_and_seed_sensitive(self):
        box = Obstacle(center=(6.0, 0.0, 6.0), dims=(3.0, 14.0, 12.0))
        a = visibility_from_points(self._candidates(), self._cov(), [box], 20, 0)
        b = visibility_from_points(self._candidates(), self._cov(), [box], 20, 0)
        assert np.array_equal(a, b)
        assert 0 < a.mean() < 1  # partial occlusion scenario

    def test_monotone_in_obstacles(self):
        box1 = Obstacle(center=(6.0, -5.0, 6.0), dims=(3.0, 8.0, 12.0))
        box2 = Obstacle(center=(6.0, 8.0, 4.0), dims=(3.0, 6.0, 8.0))
        one = visibility_from_points(self._candidates(), self._cov(), [box1], 20, 5)
        both = visibility_from_points(self._candidates(), self._cov(), [box1, box2], 20, 5)
        assert np.all(both <= one)


class TestGridIndices:
    """``grid_indices`` is checked like a placement support (K = 50 here)."""

    @pytest.mark.parametrize("indices", [[50], [57], [-1], [1.5], [3, 3], [True, False],
                                         [[1, 2]], 4])
    def test_rejected(self, indices):
        sc = load_scenario(PRESETS["desk_partial_los"]())
        cands = sc.candidates()
        with pytest.raises(DomainError):
            visibility_from_points(cands, sc.coverage, sc.obstacles, 20, 0,
                                   grid_indices=indices)
        with pytest.raises(DomainError):
            visibility_from_points(cands, sc.coverage, sc.obstacles, 20, 0,
                                   grid_indices=indices)

    def test_integral_floats_and_order_kept(self):
        sc = load_scenario(PRESETS["desk_partial_los"]())
        cands = sc.candidates()
        full = visibility_from_points(cands, sc.coverage, sc.obstacles, 20, 0)
        rows = visibility_from_points(cands, sc.coverage, sc.obstacles, 20, 0,
                                      grid_indices=[49.0, 3.0, 0.0])
        assert np.array_equal(rows, full[[49, 3, 0]])


@st.composite
def _scenes(draw):
    """(points, coverage, obstacles): 1-3 x 1-3 cells, planar or 1-2 deep,
    and 1-3 boxes on a half-integer lattice, so that faces of boxes, cells
    and points often share a plane; thin boxes, boxes floating over a
    planar coverage and points inside a box are all drawn."""
    k = [draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))]
    planar = draw(st.booleans())
    lo = [draw(st.integers(1, 4)), draw(st.integers(-3, 0)), draw(st.integers(0, 3))]
    hi = [lo[a] + k[a] * draw(st.integers(1, 2)) for a in range(3)]
    if planar:
        k[2], hi[2] = 1, lo[2]
    cov = CoverageSpec(x_min=lo[0], x_max=hi[0], y_min=lo[1], y_max=hi[1],
                       z_min=lo[2], z_max=hi[2], k_x=k[0], k_y=k[1], k_z=k[2])
    half = st.integers(-4, 20).map(lambda i: i / 2.0)
    dims = st.sampled_from([1e-3, 0.5, 1.0, 2.0, 3.0, 6.0])
    boxes = [Obstacle(center=tuple(c + d / 2 for c, d in zip(corner, size)), dims=size)
             for corner, size in draw(st.lists(st.tuples(st.tuples(half, half, half),
                                                         st.tuples(dims, dims, dims)),
                                               min_size=1, max_size=3))]
    coord = st.one_of(half, st.floats(-2, 10))
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8))
    if draw(st.booleans()):
        points.append(tuple(boxes[0].center))
    return np.array(points, float), cov, boxes


class TestConePrune:
    """The pruned table against every segment tested (``visibility_reference``)."""

    @given(_scenes(), st.integers(1, 40), st.integers(0, 2**16), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, scene, samples, seed, data):
        points, cov, boxes = scene
        grids = data.draw(st.lists(st.integers(0, cov.n_grids - 1), min_size=1,
                                   max_size=cov.n_grids, unique=True))
        xi = visibility_from_points(points, cov, boxes, samples, seed, grid_indices=grids)
        ref = visibility_reference(points, cov, boxes, samples, seed, grids)
        np.testing.assert_array_equal(xi, ref)

    def test_kernel_runs_only_where_a_box_may_shadow(self, monkeypatch):
        """A box behind the panel (x < 0) can shadow no segment to a cell
        (x >= 7.5), so the kernel tests none of its pairs; a wall between
        them shadows every segment, so it tests all of them."""
        tested = []
        kernel = scenario._slab_test

        def counted(starts, ends, obstacles):
            tested.append(len(ends) * len(obstacles))
            return kernel(starts, ends, obstacles)

        monkeypatch.setattr(scenario, "_slab_test", counted)
        sc = load_scenario(PRESETS["desk_partial_los"]())
        behind = Obstacle(center=(-5.0, 0.0, 10.0), dims=(2.0, 500.0, 500.0))
        wall = Obstacle(center=(4.0, 0.0, 10.0), dims=(0.5, 500.0, 500.0))
        assert visibility_from_points(sc.candidates(), sc.coverage, [behind], 20, 0).min() == 1
        assert tested == []
        xi = visibility_from_points(sc.candidates(), sc.coverage, [behind, wall], 20, 0)
        assert xi.max() == 0 and sum(tested) == xi.size

    def test_endpoint_an_ulp_outside_a_face_stays_blocked(self):
        """Every sample lies below the face x = lo of the box, the nearest an
        ulp below, so the cone from p misses the box. The kernel still
        counts the segment to that sample as touching, as its t rounds to
        1.0; the pair must not be pruned."""
        cov = CoverageSpec(x_min=8.0, x_max=12.0, y_min=-2.0, y_max=2.0,
                           z_min=0.0, z_max=0.0, k_x=1, k_y=1, k_z=1)
        targets = cell_samples(cov, [0], 20, 3)[0]
        q = targets[np.argmax(targets[:, 0])]
        face = np.nextafter(q[0], np.inf)
        box = Obstacle(center=(face + 0.5, 0.0, 5.0), dims=(1.0, 40.0, 40.0))
        assert box.lo[0] == face and targets[:, 0].max() < face
        starts = (np.array([x, 0.25, 7.0]) for x in np.linspace(-3.0, 3.0, 601))
        p = next(p for p in starts if segments_blocked(p[None], q[None], [box])[0])
        xi = visibility_from_points(p[None], cov, [box], 20, 3)
        assert xi[0, 0] == 0
        np.testing.assert_array_equal(xi, visibility_reference(p[None], cov, [box], 20, 3, [0]))

    def test_peak_memory(self):
        """A dense scene, 189 ground cells by 1010 candidates, 20 samples:
        the tracemalloc peak stays under that of the loop that tested every
        pair one row at a time: 1,659,130 bytes, the least of three runs
        with numpy 2.4.6."""
        sc = load_scenario(PRESETS["paper_partial_los_1d"]())
        ma = MaRegionSpec(y_min=-50.5, y_max=50.5, z_min=20.0, z_max=45.0, n_y=101, n_z=10)
        points = build_candidate_grid(ma)

        def run():
            return visibility_from_points(points, sc.coverage, sc.obstacles, 20, 7)

        run()
        tracemalloc.start()
        try:
            xi = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xi.shape == (189, 1010) and 0 < xi.mean() < 1
        assert peak < 1_659_130


def _counting_kernel(monkeypatch):
    """A list that gains the number of segments of every slab-kernel call."""
    tested = []
    kernel = scenario._slab_test

    def counted(starts, ends, boxes):
        tested.append(math.prod(np.broadcast_shapes(starts.shape[:-1], ends.shape[:-1]))
                      * len(boxes))
        return kernel(starts, ends, boxes)

    monkeypatch.setattr(scenario, "_slab_test", counted)
    return tested


class TestEarlyStop:
    """A pair's samples are tested in rounds and only until one is blocked."""

    @pytest.mark.parametrize("boxes", [["wall"], ["behind", "wall"], ["wall", "wall"]])
    def test_a_wall_costs_one_sample_per_pair(self, monkeypatch, boxes):
        """A wall between panel and cells blocks every pair at its first
        sample; a box behind the panel is pruned whole, and pairs a first
        wall blocked are not tested against a second."""
        obstacles = {"wall": Obstacle(center=(4.0, 0.0, 10.0), dims=(0.5, 500.0, 500.0)),
                     "behind": Obstacle(center=(-5.0, 0.0, 10.0), dims=(2.0, 500.0, 500.0))}
        tested = _counting_kernel(monkeypatch)
        sc = load_scenario(PRESETS["desk_partial_los"]())
        xi = visibility_from_points(sc.candidates(), sc.coverage,
                                    [obstacles[name] for name in boxes], 20, 0)
        assert xi.max() == 0 and sum(tested) == xi.size

    @given(_scenes(), st.integers(1, 40), st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_never_more_segments_than_every_sample_of_every_pruned_pair(
            self, scene, samples, seed):
        """Testing every sample of every pair the cone prune leaves, as the
        table did before the rounds, is the most the kernel may run."""
        points, cov, boxes = scene
        with pytest.MonkeyPatch.context() as monkeypatch:
            tested = _counting_kernel(monkeypatch)
            near = []
            cone_mask = scenario._cone_mask

            def counted_mask(*args):
                mask = cone_mask(*args)
                near.append(np.count_nonzero(mask))
                return mask

            monkeypatch.setattr(scenario, "_cone_mask", counted_mask)
            xi = visibility_from_points(points, cov, boxes, samples, seed)
        assert sum(tested) <= samples * sum(near)
        np.testing.assert_array_equal(
            xi, visibility_reference(points, cov, boxes, samples, seed, range(cov.n_grids)))

    def test_peak_memory_at_full_scale(self):
        """The 12 active rows of paper_full_scale_3d_type1 by its 3030
        candidates, 20 samples: the tracemalloc peak stays under that of
        testing every sample of every pruned pair: 3,855,480 bytes, the least
        of four runs with numpy 2.4.6."""
        sc = load_scenario(PRESETS["paper_full_scale_3d_type1"]())
        grids = np.flatnonzero(sc.rho > 0)
        points = sc.candidates()

        def run():
            return visibility_from_points(points, sc.coverage, sc.obstacles, 20,
                                          sc.rng_seed, grid_indices=grids)

        run()
        tracemalloc.start()
        try:
            xi = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xi.shape == (12, 3030) and 0 < xi.mean() < 1
        assert peak < 3_855_480


class TestCellSamples:
    @given(st.sampled_from(["paper_partial_los_1d", "desk_partial_los_3d_type1"]),
           st.sampled_from(["visibility", "visibility-oracle"]),
           st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_per_cell_draws(self, preset, purpose, samples, seed, data):
        cov = load_scenario(PRESETS[preset]()).coverage
        grids = data.draw(st.lists(st.integers(0, cov.n_grids - 1), min_size=1,
                                   max_size=30, unique=True))
        got = cell_samples(cov, np.array(grids), samples, seed, purpose)
        want = np.stack([grid_sample_points(cov, k, samples, seed, purpose) for k in grids])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("purpose, samples", [("visibility", 20), ("visibility-oracle", 1000)])
    def test_every_row_block_equals_per_cell_draws(self, purpose, samples):
        """All 189 cells of a paper preset: several of ``rng.uniforms``'
        row blocks at both purposes' sample counts."""
        cov = load_scenario(PRESETS["paper_partial_los_1d"]()).coverage
        grids = np.arange(cov.n_grids)[::-1]
        got = cell_samples(cov, grids, samples, 7, purpose)
        want = np.stack([grid_sample_points(cov, k, samples, 7, purpose) for k in grids])
        assert np.array_equal(got, want)


class TestVisibilityInputs:
    def _scenario(self):
        return load_scenario(PRESETS["desk_partial_los"]())

    @pytest.mark.parametrize("points", [np.zeros((4, 2)), np.zeros(3), np.zeros((2, 3, 1))])
    def test_points_not_p_by_3_rejected(self, points):
        sc = self._scenario()
        with pytest.raises(DomainError, match="points"):
            visibility_from_points(points, sc.coverage, sc.obstacles, 20, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        sc = self._scenario()
        points = sc.candidates()
        points[3, 1] = bad
        with pytest.raises(DomainError, match="points"):
            visibility_from_points(points, sc.coverage, sc.obstacles, 20, 0)

    @pytest.mark.parametrize("samples", [2.5, "20", None, np.nan, True, 0, -3])
    def test_samples_not_a_positive_integer_rejected(self, samples):
        sc = self._scenario()
        with pytest.raises(ConfigurationError, match="samples_per_grid"):
            visibility_from_points(sc.candidates(), sc.coverage, sc.obstacles, samples, 0)

    def test_integral_float_samples_accepted(self):
        sc = self._scenario()
        a = visibility_from_points(sc.candidates(), sc.coverage, sc.obstacles, 20.0, 0)
        b = visibility_from_points(sc.candidates(), sc.coverage, sc.obstacles, 20, 0)
        assert np.array_equal(a, b)

    def test_non_finite_obstacle_rejected(self):
        sc = self._scenario()
        box = SimpleNamespace(lo=np.array([1.0, -np.inf, 0.0]), hi=np.array([2.0, 1.0, 1.0]))
        with pytest.raises(DomainError, match="obstacles"):
            visibility_from_points(sc.candidates(), sc.coverage, [box], 20, 0)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_editing_nested_lists_leaves_the_next_document_unchanged(self, name):
        doc = PRESETS[name]()
        pristine = copy.deepcopy(doc)
        for obstacle in doc["obstacles"]:
            obstacle["center"][0] += 1.0
            obstacle["dims"][1] *= 2.0
        doc["distribution"]["hotspot_k1"].append(-1)
        doc["distribution"]["hotspot_k2"].clear()
        doc["coverage"]["k_x"] = 0
        assert PRESETS[name]() == pristine


class TestLoadScenario:
    def test_desk_preset_units(self):
        sc = load_scenario(desk_full_los())
        np.testing.assert_allclose(sc.tx_power_mw, 10 ** 0.5)  # 5 dBm
        np.testing.assert_allclose(sc.noise_power_mw, 1e-8)  # -80 dBm
        assert np.isinf(sc.rician_kappa)
        assert sc.wavelength == pytest.approx(299792458.0 / 30e9)
        assert sc.d_h == pytest.approx(sc.wavelength / 2)

    def test_kappa_db_conversion(self):
        doc = desk_full_los()
        doc["rician_kappa_db"] = 20.0
        assert load_scenario(doc).rician_kappa == pytest.approx(100.0)

    def test_missing_field_named(self):
        doc = desk_full_los()
        del doc["m_h"]
        with pytest.raises(ConfigurationError, match="m_h"):
            load_scenario(doc)

    def test_too_many_subarrays_named(self):
        doc = desk_full_los()
        doc["n_subarrays"] = 101
        with pytest.raises(ConfigurationError, match="n_subarrays"):
            load_scenario(doc)

    def test_overlapping_placements_rejected(self):
        doc = desk_full_los(m_h=8)
        # 8 elements at lambda/2 need ~3.5 cm; shrink sampling below that.
        doc["ma_region"]["n_y"] = 6000
        with pytest.raises(ConfigurationError, match="interval"):
            load_scenario(doc)

    @pytest.mark.parametrize("path, value", [
        (("carrier_freq",), 0),
        (("carrier_freq",), -30e9),
        (("carrier_freq",), "fast"),
        (("m_h",), np.nan),
        (("m_v",), np.inf),
        (("n_subarrays",), np.nan),
        (("n_subarrays",), 2.5),
        (("rng_seed",), np.nan),
        (("rng_seed",), -1),
        (("visibility_samples",), np.inf),
        (("ma_region", "n_z"), np.nan),
        (("coverage", "k_x"), 1.5),
        (("distribution", "regular_ratio"), None),
        (("rician_kappa_db",), None),
        (("tx_power_dbm",), "high"),
        (("tx_power_dbm",), None),
        (("noise_power_dbm",), "low"),
        (("m_h",), True),
        (("m_h",), "4"),
        (("d_h",), "half"),
        (("distribution", "hotspot_k1"), ["a"]),
        (("distribution", "hotspot_k1"), 5),
        (("distribution", "hotspot_k1"), [None]),
        (("distribution", "hotspot_k2"), [1.5]),
        (("distribution", "hotspot_k2"), [True]),
        (("distribution", "hotspot_k2"), "0, 1"),
        (("obstacles",), 5),
        (("obstacles",), None),
        # Past a float's range in linear units: no OverflowError, and (with
        # warnings as errors) no numpy overflow warning either.
        (("rician_kappa_db",), 4000),
        (("tx_power_dbm",), 1e6),
        (("noise_power_dbm",), 1e6),
    ])
    def test_bad_number_raises_naming_the_field(self, path, value):
        doc = desk_full_los()
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(ConfigurationError, match=key):
            load_scenario(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "[1, 2]", 5])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_scenario(doc)

    @pytest.mark.parametrize("db", [-4000, -1e6, -math.inf, math.nan])
    def test_kappa_db_without_a_positive_factor_is_named(self, db):
        doc = desk_full_los()
        doc["rician_kappa_db"] = db
        with pytest.raises(ConfigurationError, match=rf"'rician_kappa_db' {db!r} gives"):
            load_scenario(doc)

    def test_huge_per_grid_tx_power_is_named(self):
        doc = desk_full_los()
        doc["tx_power_dbm"] = [5.0] * load_scenario(doc).coverage.n_grids
        doc["tx_power_dbm"][3] = 1e6
        with pytest.raises(ConfigurationError, match=r"tx_power_dbm\[3\]"):
            load_scenario(doc)

    @pytest.mark.parametrize("key, entries, message", [
        ("hotspot_k1", [35, 40.0, 41.5], r"'distribution\.hotspot_k1\[2\]' must be an integer"),
        ("hotspot_k1", [35, 500], r"'distribution\.hotspot_k1\[1\]' must be a grid index "
                                  r"in \[0, 50\), got 500"),
        ("hotspot_k2", [0, 1, -1], r"'distribution\.hotspot_k2\[2\]' must be a grid index "
                                   r"in \[0, 50\), got -1"),
        ("hotspot_k1", [35, 40, 35], r"'distribution\.hotspot_k1\[2\]' repeats grid 35, "
                                     r"already listed at 'distribution\.hotspot_k1\[0\]'"),
        ("hotspot_k2", [0, 1, 40], r"'distribution\.hotspot_k2\[2\]' repeats grid 40, "
                                   r"already listed at 'distribution\.hotspot_k1\[1\]'"),
    ])
    def test_bad_hotspot_entry_is_named(self, key, entries, message):
        doc = desk_full_los()  # 50 grids; hotspot_k1 [35, 40, ...], hotspot_k2 [0, 1, ...]
        doc["distribution"][key] = entries
        with pytest.raises(ConfigurationError, match=message):
            load_scenario(doc)

    @pytest.mark.parametrize("path, value", [
        (("ma_region", "y_max"), np.nan),
        (("ma_region", "n_y"), np.inf),
        (("coverage", "x_max"), np.inf),
        (("coverage", "z_min"), np.nan),
        (("obstacles", 0, "dims", 1), np.nan),
        (("obstacles", 1, "center", 2), -np.inf),
        (("tx_power_dbm",), np.nan),
        (("tx_power_dbm",), np.inf),
        (("noise_power_dbm",), np.nan),
        (("noise_power_dbm",), np.inf),
        (("carrier_freq",), np.nan),
        (("carrier_freq",), np.inf),
        (("d_h",), np.nan),
        (("d_v",), np.inf),
        (("d_h",), 0.0),
        (("d_v",), 0),
        (("d_h",), 1e300),
        (("d_v",), -1.0),
        (("distribution", "expected_users"), np.nan),
    ])
    def test_non_finite_or_zero_value_rejected(self, path, value):
        doc = PRESETS["desk_partial_los"]()
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(ConfigurationError):
            load_scenario(doc)

    @pytest.mark.parametrize("edit, field", [
        (lambda o: o.update(center=[4.0, 0.0]), r"obstacles\[0\]\.center"),
        (lambda o: o.update(dims=[1.0, 2.0, 3.0, 4.0]), r"obstacles\[0\]\.dims"),
        (lambda o: o.update(center="middle"), r"obstacles\[0\]\.center"),
        (lambda o: o["dims"].__setitem__(1, "x"), r"obstacles\[0\]\.dims\[1\]"),
        (lambda o: o.pop("dims"), r"obstacles\[0\]\.dims"),
    ])
    def test_bad_obstacle_raises_naming_the_field(self, edit, field):
        doc = PRESETS["desk_partial_los"]()
        edit(doc["obstacles"][0])
        with pytest.raises(ConfigurationError, match=field):
            load_scenario(doc)

    @pytest.mark.parametrize("obstacle, message", [
        ({"center": [0, 0, 20.5], "dims": [2, 200, 2]}, "candidate position 0"),
        ({"center": [-1, 0, 20.5], "dims": [2, 200, 2]}, "candidate position 0"),  # on a face
        ({"center": [0, 30, 20.5], "dims": [2, 2, 2]}, "candidate position 79"),
        ({"center": [30, 0, 0], "dims": [60, 200, 2]}, "user grid 0"),
        ({"center": [30, 5.25, 0], "dims": [2, 2, 2]}, "user grid 27"),
    ])
    def test_obstacle_holding_a_candidate_or_cell_center_rejected(self, obstacle, message):
        # A candidate counts on a box's faces too; a cell center only inside.
        doc = PRESETS["desk_partial_los"]()
        doc["obstacles"].append(obstacle)
        with pytest.raises(ConfigurationError, match=rf"'obstacles\[2\]' holds .*{message}$"):
            load_scenario(doc)

    @pytest.mark.parametrize("obstacle", [
        {"center": [30, 0, 1], "dims": [60, 200, 2]},  # cell centers on its bottom face
        {"center": [9, -47.25, 1], "dims": [2, 4, 2]},  # covers part of cell 0, not its center
        {"center": [1.5, 0, 20.5], "dims": [2, 200, 2]},  # just clear of the candidates
    ])
    def test_obstacle_clear_of_candidates_and_cell_centers_accepted(self, obstacle):
        doc = PRESETS["desk_partial_los"]()
        doc["obstacles"].append(obstacle)
        assert len(load_scenario(doc).obstacles) == 3

    @pytest.mark.parametrize("point, message", [
        (lambda sc: sc.candidates()[2], "candidate position 2"),
        (lambda sc: sc.grid_centers()[3], "the center of user grid 3"),
    ], ids=["candidate", "cell_center"])
    def test_api_scene_with_a_box_holding_a_point_rejected(self, point, message):
        # A scenario built without a document is checked as a document is.
        box = Obstacle(center=tuple(point(make_scenario())), dims=(1.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError, match=rf"'obstacles\[0\]' holds {message}$"):
            make_scenario(obstacles=[box])

    def test_obstacle_must_be_an_object(self):
        doc = PRESETS["desk_partial_los"]()
        doc["obstacles"][1] = [1, 2, 3]
        with pytest.raises(ConfigurationError, match=r"obstacles\[1\]"):
            load_scenario(doc)

    @pytest.mark.parametrize("parents, key, path, hint", [
        ((), "rician_kapa_db", "'rician_kapa_db'", "'rician_kappa_db'"),
        ((), "visibilty_samples", "'visibilty_samples'", "'visibility_samples'"),
        (("ma_region",), "n_yy", "'ma_region.n_yy'", "'ma_region.n_y'"),
        (("coverage",), "kx", "'coverage.kx'", "'coverage.k_x'"),
        (("distribution",), "hotspot_k3", "'distribution.hotspot_k3'",
         "'distribution.hotspot_k[12]'"),
        (("obstacles", 1), "centre", r"'obstacles\[1\].centre'", r"'obstacles\[1\].center'"),
        ((), "comment", "'comment'", None),
    ])
    def test_unknown_field_named_by_its_path(self, parents, key, path, hint):
        doc = PRESETS["desk_partial_los"]()
        target = doc
        for step in parents:
            target = target[step]
        target[key] = 20
        with pytest.raises(ConfigurationError, match="unknown field " + path) as err:
            load_scenario(doc)
        if hint is None:
            assert "did you mean" not in str(err.value)
        else:
            assert re.search("did you mean " + hint, str(err.value))

    @pytest.mark.parametrize("parents, key, path", [
        ((), "ma_region", "'ma_region'"),
        ((), "coverage", "'coverage'"),
        ((), "distribution", "'distribution'"),
        (("obstacles",), 0, r"'obstacles\[0\]'"),
    ])
    def test_non_object_named_by_its_path(self, parents, key, path):
        doc = PRESETS["desk_partial_los"]()
        target = doc
        for step in parents:
            target = target[step]
        target[key] = [1, 2]
        with pytest.raises(ConfigurationError, match=path + " must be an object"):
            load_scenario(doc)

    def test_readme_example_lists_every_accepted_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Scenario JSON", 1)[1].split("```jsonc\n", 1)[1]
        text = re.sub(r"//.*", "", block.split("```", 1)[0])
        doc = json.loads(text)
        load_scenario(doc)
        assert set(doc) == set(scenario.SCENARIO_FIELDS)
        for key, fields in (("ma_region", scenario.MA_REGION_FIELDS),
                            ("coverage", scenario.COVERAGE_FIELDS),
                            ("distribution", scenario.DISTRIBUTION_FIELDS)):
            assert set(doc[key]) == set(fields), key
        assert set(doc["obstacles"][0]) == set(scenario.OBSTACLE_FIELDS)

    @pytest.mark.parametrize("fields, doc", [
        (scenario.SCENARIO_FIELDS, lambda d: d),
        (scenario.MA_REGION_FIELDS, lambda d: d["ma_region"]),
        (scenario.COVERAGE_FIELDS, lambda d: d["coverage"]),
        (scenario.DISTRIBUTION_FIELDS, lambda d: d["distribution"]),
        (scenario.OBSTACLE_FIELDS, lambda d: d["obstacles"][0]),
    ])
    def test_every_accepted_field_is_read(self, fields, doc):
        """Each accepted field of a document holding all of them is read:
        a bad value in it is named."""
        full = PRESETS["desk_partial_los"]()
        full.update(d_h=None, d_v=None)
        full["distribution"].setdefault("regular_ratio", 0.0)
        assert set(doc(full)) == set(fields)
        load_scenario(full)
        for key in fields:
            bad = copy.deepcopy(full)
            doc(bad)[key] = "bad"
            with pytest.raises(ConfigurationError, match=key):
                load_scenario(bad)

    def test_per_grid_tx_power_list(self):
        doc = desk_full_los()
        n_grids = load_scenario(doc).coverage.n_grids
        doc["tx_power_dbm"] = [5.0 + (k % 3) for k in range(n_grids)]
        sc = load_scenario(doc)
        np.testing.assert_array_equal(sc.tx_power_mw, dbm_to_mw(np.array(doc["tx_power_dbm"])))
        for bad, field in (([5.0] * (n_grids - 1), "tx_power_dbm"),
                           ([5.0, "x"] + [5.0] * (n_grids - 2), r"tx_power_dbm\[1\]")):
            doc["tx_power_dbm"] = bad
            with pytest.raises(ConfigurationError, match=field):
                load_scenario(doc)

    def test_spacing_defaults_to_half_wavelength_when_absent_or_null(self):
        doc = desk_full_los()
        doc["d_h"] = None
        doc.pop("d_v", None)
        sc = load_scenario(doc)
        assert sc.d_h == sc.d_v == sc.wavelength / 2

    def test_infinite_kappa_db_is_pure_los(self):
        doc = desk_full_los()
        doc["rician_kappa_db"] = float("inf")
        assert np.isinf(load_scenario(doc).rician_kappa)

    def test_dbm_helper(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(-80.0) == pytest.approx(1e-8)


def _box(data, x=(2.0, 6.0), z=(0.0, 25.0)):
    """A box between the MA plane (x = 0) and the coverage region
    (x >= 8), so it holds no candidate and no cell center."""
    center = (data.draw(st.floats(*x)), data.draw(st.floats(-22.0, 22.0)),
              data.draw(st.floats(*z)))
    dims = (data.draw(st.floats(0.5, 2.0)), data.draw(st.floats(0.5, 12.0)),
            data.draw(st.floats(0.5, 12.0)))
    return Obstacle(center=center, dims=dims)


@st.composite
def small_scenes(draw):
    """Small valid scenes: 1-11 x 1-3 candidates, up to 16 grids, 1-3 boxes
    that shadow some of them, Rician or pure LoS."""
    n_y, n_z = draw(st.integers(1, 11)), draw(st.integers(1, 3))
    data = draw(st.data())
    return make_scenario(
        n_y=n_y, n_z=n_z, k_x=draw(st.integers(1, 4)), k_y=draw(st.integers(1, 4)),
        n_subarrays=draw(st.integers(1, min(3, n_y * n_z))),
        kappa=draw(st.sampled_from([np.inf, 4.0])), seed=draw(st.integers(0, 50)),
        obstacles=[_box(data) for _ in range(draw(st.integers(1, 3)))])


# sim_* may exceed upper_bound only by Monte Carlo noise, at most this many
# standard errors (as in perfbench/workloads.py). At 3, about 100
# comparisons would fail by chance up to about 12% of the time.
UPPER_BOUND_STDERRS = 4.0


class TestNumbers:
    def test_integers_past_float_range_are_infinities(self):
        assert scenario.as_number(10**30, "f", finite=True) == 1e30
        assert scenario.as_number(10**400, "f") == math.inf
        assert scenario.as_number(-10**400, "f") == -math.inf
        with pytest.raises(ConfigurationError, match="'f' must be a finite number"):
            scenario.as_number(10**400, "f", finite=True)
        with pytest.raises(ConfigurationError, match="'n' must be an integer"):
            scenario.as_integer(10**400, "n")


class TestCountLimits:
    """API-built scenarios are held to the counts a document is."""

    def test_candidates(self):
        region = dict(y_min=-1.0, y_max=1.0, z_min=0.0, z_max=1.0)
        assert MaRegionSpec(**region, n_y=scenario.CANDIDATE_LIMIT, n_z=1).n_candidates == (
            scenario.CANDIDATE_LIMIT)
        with pytest.raises(ConfigurationError, match=r"ma_region.n_y \* ma_region.n_z = "
                           f"{scenario.CANDIDATE_LIMIT + 1} exceeds"):
            MaRegionSpec(**region, n_y=1, n_z=scenario.CANDIDATE_LIMIT + 1)

    def test_grids(self):
        cov = dict(x_min=1.0, x_max=2.0, y_min=0.0, y_max=1.0, z_min=0.0, z_max=1.0)
        assert CoverageSpec(**cov, k_x=1, k_y=1, k_z=scenario.GRID_LIMIT).n_grids == (
            scenario.GRID_LIMIT)
        with pytest.raises(ConfigurationError, match=r"coverage.k_x \* coverage.k_y \* "
                           f"coverage.k_z = {scenario.GRID_LIMIT + 1} exceeds"):
            CoverageSpec(**cov, k_x=scenario.GRID_LIMIT + 1, k_y=1, k_z=1)

    def test_visibility_samples_and_elements(self):
        sc = make_scenario(m_h=1)
        assert dataclasses.replace(sc, visibility_samples=scenario.SAMPLES_LIMIT)
        with pytest.raises(ConfigurationError, match="visibility_samples must lie in"):
            dataclasses.replace(sc, visibility_samples=scenario.SAMPLES_LIMIT + 1)
        assert dataclasses.replace(sc, m_v=scenario.ELEMENT_LIMIT)
        with pytest.raises(ConfigurationError, match="m_h \\* m_v = "
                           f"{scenario.ELEMENT_LIMIT + 1} exceeds"):
            dataclasses.replace(sc, m_v=scenario.ELEMENT_LIMIT + 1)


class TestCoordinateLimits:
    """API-built regions and obstacles are held to the coordinate bound a
    document is."""

    def test_regions(self):
        limit = scenario.COORDINATE_LIMIT
        assert MaRegionSpec(y_min=-limit, y_max=limit, z_min=0.0, z_max=1.0, n_y=2, n_z=1)
        with pytest.raises(ConfigurationError, match=r"^'ma_region.z_min' must lie in"):
            MaRegionSpec(y_min=-1.0, y_max=1.0, z_min=-2 * limit, z_max=1.0, n_y=2, n_z=1)
        cov = dict(x_min=1.0, y_min=0.0, y_max=1.0, z_min=0.0, z_max=1.0, k_x=1, k_y=1, k_z=1)
        assert CoverageSpec(**cov, x_max=limit)
        with pytest.raises(ConfigurationError, match=r"^'coverage.x_max' must lie in"):
            CoverageSpec(**cov, x_max=np.nextafter(limit, np.inf))

    def test_obstacles(self):
        limit = scenario.COORDINATE_LIMIT
        assert Obstacle(center=(limit, 0.0, 0.0), dims=(1.0, limit, 1.0))
        with pytest.raises(ConfigurationError, match=r"^'center\[1\]' must lie in"):
            Obstacle(center=(0.0, -1e308, 0.0), dims=(1.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError, match=r"^'dims\[2\]' must lie in"):
            Obstacle(center=(0.0, 0.0, 0.0), dims=(1.0, 1.0, 2 * limit))


REGION = dict(y_min=-1.0, y_max=1.0, z_min=0.0, z_max=1.0, n_y=2, n_z=1)
COVERAGE = dict(x_min=1.0, x_max=2.0, y_min=0.0, y_max=1.0, z_min=0.0, z_max=1.0,
                k_x=1, k_y=1, k_z=1)
NOT_COUNTS = [1.5, True, math.nan, math.inf, "2", None]


class TestApiFields:
    """Each scenario object reads its own fields: one built through the API
    is refused as a document is, naming the field, and keeps what it read."""

    @pytest.mark.parametrize("value", NOT_COUNTS)
    @pytest.mark.parametrize("spec, fields, region", [
        (MaRegionSpec, REGION, "ma_region"), (CoverageSpec, COVERAGE, "coverage")])
    def test_region_counts(self, spec, fields, region, value):
        for name in (key for key in fields if key[:2] in ("n_", "k_")):
            with pytest.raises(ConfigurationError, match=rf"^'{region}\.{name}' must be"):
                spec(**{**fields, name: value})

    @pytest.mark.parametrize("value", [True, math.nan, "1.0", None])
    @pytest.mark.parametrize("spec, fields, region", [
        (MaRegionSpec, REGION, "ma_region"), (CoverageSpec, COVERAGE, "coverage")])
    def test_region_bounds(self, spec, fields, region, value):
        for name in (key for key in fields if key.endswith(("_min", "_max"))):
            with pytest.raises(ConfigurationError, match=rf"^'{region}\.{name}' must be"):
                spec(**{**fields, name: value})

    def test_integral_float_counts_are_stored_as_int(self):
        ma = MaRegionSpec(**{**REGION, "n_y": 40.0, "y_min": -1})
        assert (ma.n_y, type(ma.n_y), ma.y_min, type(ma.y_min)) == (40, int, -1.0, float)
        assert build_candidate_grid(ma).shape == (40, 3)
        cov = CoverageSpec(**{**COVERAGE, "k_x": 3.0, "k_y": np.int64(2)})
        assert [type(getattr(cov, k)) for k in ("k_x", "k_y", "k_z")] == [int] * 3
        assert cov.n_grids == 6
        sc = make_scenario(m_h=4.0, n_subarrays=3.0, seed=3.0)
        assert [type(getattr(sc, k)) for k in ("m_h", "m_v", "n_subarrays", "rng_seed",
                                               "visibility_samples")] == [int] * 5

    @pytest.mark.parametrize("value", NOT_COUNTS)
    @pytest.mark.parametrize("name", ["m_h", "m_v", "n_subarrays", "rng_seed",
                                      "visibility_samples"])
    def test_scenario_counts(self, name, value):
        # Left unread, an rng_seed of 1.5 plans to the objective of seed 1.
        sc = make_scenario()
        with pytest.raises(ConfigurationError, match=rf"^'{name}' must be"):
            dataclasses.replace(sc, **{name: value})

    @pytest.mark.parametrize("name", ["center", "dims"])
    @pytest.mark.parametrize("value, message", [
        ((1.0, 2.0), "' must be 3 numbers"),
        ([1.0, 2.0, 3.0, 4.0], "' must be 3 numbers"),
        (np.ones((1, 3)), "' must be 3 numbers"),
        (np.array(1.0), "' must be 3 numbers"),
        ("abc", "' must be 3 numbers"),
        (None, "' must be 3 numbers"),
        ((1.0, True, 1.0), r"\[1\]' must be a finite number"),
        ((1.0, 1.0, math.nan), r"\[2\]' must be a finite number"),
        ((1.0, "2", 1.0), r"\[1\]' must be a finite number"),
    ])
    def test_obstacle_center_and_dims(self, name, value, message):
        fields = {"center": (1.0, 1.0, 1.0), "dims": (1.0, 1.0, 1.0), name: value}
        with pytest.raises(ConfigurationError, match=f"^'{name}{message}"):
            Obstacle(**fields)

    def test_obstacle_keeps_floats(self):
        box = Obstacle(center=np.array([1, 2, 3]), dims=[1, 1, 2])
        assert box.center == (1.0, 2.0, 3.0) and box.dims == (1.0, 1.0, 2.0)
        assert {type(v) for v in box.center + box.dims} == {float}


class TestTypeStability:
    """A loaded scenario holds each int field as an int and each float
    field as a float, whatever JSON number the document wrote, so what it
    writes out (plan JSON, sweep CSVs) has the same bytes."""

    @staticmethod
    def assert_field_types(obj):
        for f in dataclasses.fields(obj):
            kind = {"int": int, "float": float}.get(f.type)
            if kind is not None:
                assert type(getattr(obj, f.name)) is kind, (type(obj).__name__, f.name)

    def test_every_preset_and_workload_document(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        assert workloads.FULL_SCALE_PRESET in PRESETS
        docs = [make() for make in PRESETS.values()] + [
            workloads.dense_scenario(7), workloads.sweep_scenario(7)]
        for doc in docs:
            sc = load_scenario(doc)
            for obj in (sc, sc.ma_region, sc.coverage):
                self.assert_field_types(obj)
            for box in sc.obstacles:
                assert {type(v) for v in box.center + box.dims} == {float}

    def test_integral_float_count_plans_byte_identically(self, tmp_path):
        from xlma.cli import main

        outputs = []
        for n_y in (12, 12.0):
            doc = PRESETS["desk_partial_los"]()
            doc["ma_region"]["n_y"] = n_y
            config, out = tmp_path / f"{n_y!r}.json", tmp_path / f"plan_{n_y!r}.json"
            config.write_text(json.dumps(doc))
            assert main(["plan", "--config", str(config), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert '"n_y": 12.0' in (tmp_path / "12.0.json").read_text()
        assert outputs[0] == outputs[1]


class TestWholeScenes:
    """Every small valid scene plans and scores every scheme it can build."""

    @given(small_scenes())
    @settings(max_examples=60, deadline=None)
    def test_every_constructible_scheme_scores_finite_closed_forms(self, sc):
        from xlma.cli import SWEEP_SCHEMES
        from xlma.pipeline import ScenarioContext

        ctx = ScenarioContext.build(sc)
        assert np.isfinite(ctx.plan().objective)
        for scheme in SWEEP_SCHEMES:
            try:
                layout = ctx.placement_for_scheme(scheme)
            except (ConfigurationError, DomainError) as exc:
                assert str(exc), scheme
                continue
            assert np.all(np.isfinite(ctx.closed_forms(ctx.layout_stats(layout)))), scheme

    @given(small_scenes())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_simulated_rates_within_the_upper_bound(self, sc):
        # Jensen's inequality bounds the true rate by upper_bound; the
        # derandomized examples and the seeded draws make this deterministic.
        from xlma.channel import support_layout
        from xlma.montecarlo import SimOptions, draw_trials, simulate_weighted_sum_rate
        from xlma.pipeline import ScenarioContext

        ctx = ScenarioContext.build(sc)
        stats = ctx.layout_stats(support_layout(sc, ctx.plan().n_mu))
        _, bound = ctx.closed_forms(stats)
        trials = 400
        draws = draw_trials(sc, stats, trials)
        for combiner in ("mrc", "mmse"):
            est, err = simulate_weighted_sum_rate(sc, stats, SimOptions(trials, combiner), draws)
            assert est <= bound + UPPER_BOUND_STDERRS * err, combiner


class TestObstacleProperties:
    """Whole-scene properties of the obstacle list: its order does not
    matter, and a box no segment can reach changes nothing."""

    @staticmethod
    def _xi(sc):
        return visibility_from_points(sc.candidates(), sc.coverage, sc.obstacles,
                                      sc.visibility_samples, sc.rng_seed)

    @given(small_scenes(), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_obstacle_order_leaves_xi_bit_identical(self, sc, random):
        shuffled = list(sc.obstacles)
        random.shuffle(shuffled)
        permuted = dataclasses.replace(sc, obstacles=shuffled)
        assert np.array_equal(self._xi(permuted), self._xi(sc))

    @given(small_scenes(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_unreachable_box_changes_nothing(self, sc, data):
        # Candidates sit at z >= 15 and cells at z >= 0, so every segment
        # between them stays at z >= 0; this box lies wholly below z = 0.
        from xlma.channel import support_layout
        from xlma.pipeline import ScenarioContext

        below = _box(data, x=(-5.0, 50.0), z=(-30.0, -7.0))
        assert below.hi[2] < 0.0
        boxed = dataclasses.replace(sc, obstacles=[*sc.obstacles, below])
        results = []
        for scene in (sc, boxed):
            ctx = ScenarioContext.build(scene)
            plan = ctx.plan()
            layout = support_layout(scene, plan.n_mu)
            results.append((ctx.xi, plan, ctx.closed_forms(ctx.layout_stats(layout))))
        (xi, plan, forms), (xi_boxed, plan_boxed, forms_boxed) = results
        assert np.array_equal(xi_boxed, xi)
        assert plan_boxed.n_mu == plan.n_mu and plan_boxed.trace == plan.trace
        assert plan_boxed.objective == plan.objective
        assert forms_boxed == forms


class TestCombinerOrder:
    """On every realization, the MMSE combiner's rate is at least MRC's:
    MMSE maximizes each active user's SINR. Equal rates can differ in the
    last bits, hence the 1e-9 relative slack."""

    @given(small_scenes())
    @settings(max_examples=30, deadline=None)
    def test_mmse_at_least_mrc_on_every_trial(self, sc):
        from xlma.channel import support_layout
        from xlma.montecarlo import SimOptions, draw_trials, simulate_trials
        from xlma.pipeline import ScenarioContext

        ctx = ScenarioContext.build(sc)
        stats = ctx.layout_stats(support_layout(sc, ctx.plan().n_mu))
        trials = 40
        draws = draw_trials(sc, stats, trials)
        mrc, mmse = (simulate_trials(sc, stats, SimOptions(trials, combiner), draws)
                     for combiner in ("mrc", "mmse"))
        assert np.all(mmse >= mrc * (1.0 - 1e-9))
