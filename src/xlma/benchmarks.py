"""Fixed-position-antenna baseline layouts and hotspot grid layouts.

Five FPA baselines are generated deterministically from the scenario
geometry: a 2x4 sparse grid, horizontal and vertical sparse arrays over the
candidate grid, and dense ULA/UPA arrays of N*M half-wavelength elements
centered at candidate ceil(N0/2). Rounding is half-away-from-zero
throughout. Hotspot types 1-3 give the 12-grid user concentrations used in
distribution comparisons.
"""

from __future__ import annotations

import numpy as np

from .channel import ArrayLayout, Subarray
from .errors import ConfigurationError
from .scenario import (
    CoverageSpec,
    ScenarioConfig,
    candidate_linear_index,
    distinct_sorted,
    grid_linear_index,
)

BENCHMARK_KINDS = (
    "sparse_2x4",
    "horizontal_sparse",
    "vertical_sparse",
    "dense_ula",
    "dense_upa",
)


def round_half_away(x):
    """Round halves away from zero (np.round rounds halves to even)."""
    x = np.asarray(x, float)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(int)


def _movable_subarray(scenario: ScenarioConfig, center) -> Subarray:
    return Subarray(
        center=tuple(center),
        m_h=scenario.m_h,
        m_v=scenario.m_v,
        d_h=scenario.d_h,
        d_v=scenario.d_v,
    )


def _check_distinct(indices, kind: str):
    if len(set(int(i) for i in indices)) != len(indices):
        raise ConfigurationError(
            f"{kind} layout needs {len(indices)} distinct candidate positions; "
            "the grid is too coarse for this N"
        )


def fpa_layout(kind: str, scenario: ScenarioConfig) -> ArrayLayout:
    """Deterministic baseline layout of the requested kind."""
    ma = scenario.ma_region
    n = scenario.n_subarrays
    candidates = scenario.candidates()
    lam = scenario.wavelength

    if kind == "horizontal_sparse":
        if n < 2:
            raise ConfigurationError("horizontal_sparse requires N >= 2")
        iy = round_half_away((ma.n_y - 1) / (n - 1) * np.arange(n))
        mu = [candidate_linear_index(int(i), 0, ma.n_y) for i in iy]
        _check_distinct(mu, kind)
        return ArrayLayout(tuple(_movable_subarray(scenario, candidates[m]) for m in mu))

    if kind == "vertical_sparse":
        if n < 2:
            raise ConfigurationError("vertical_sparse requires N >= 2")
        center_col = (ma.n_y + 1) // 2 - 1
        iz = round_half_away((ma.n_z - 1) / (n - 1) * np.arange(n))
        mu = [candidate_linear_index(center_col, int(i), ma.n_y) for i in iz]
        _check_distinct(mu, kind)
        return ArrayLayout(tuple(_movable_subarray(scenario, candidates[m]) for m in mu))

    if kind == "sparse_2x4":
        if n != 8:
            raise ConfigurationError("sparse_2x4 requires N = 8")
        if ma.n_y < 4 or ma.n_z < 2:
            raise ConfigurationError("sparse_2x4 requires at least a 4x2 candidate grid")
        iy = round_half_away((ma.n_y - 1) / 3 * np.arange(4))
        iz = [0, ma.n_z - 1]
        mu = [
            candidate_linear_index(int(col), int(row), ma.n_y)
            for row in iz
            for col in iy
        ]
        _check_distinct(mu, kind)
        return ArrayLayout(tuple(_movable_subarray(scenario, candidates[m]) for m in mu))

    center_idx = (ma.n_candidates + 1) // 2 - 1  # candidate ceil(N0/2), 0-based
    anchor = candidates[center_idx]
    m_total = n * scenario.antennas_per_subarray

    # Dense arrays are one contiguous coherent aperture at the center
    # candidate: a single N*M-element array with a single per-user random
    # phase, the direct embedding of a conventional array in the
    # per-position channel model.
    if kind == "dense_ula":
        return ArrayLayout(
            (
                Subarray(
                    center=tuple(anchor),
                    m_h=m_total,
                    m_v=1,
                    d_h=lam / 2.0,
                    d_v=lam / 2.0,
                ),
            )
        )

    if kind == "dense_upa":
        if n != 8:
            raise ConfigurationError("dense_upa requires N = 8 (2 M_V x 4 M_H elements)")
        return ArrayLayout(
            (
                Subarray(
                    center=tuple(anchor),
                    m_h=4 * scenario.m_h,
                    m_v=2 * scenario.m_v,
                    d_h=lam / 2.0,
                    d_v=lam / 2.0,
                ),
            )
        )

    raise ConfigurationError(f"unknown benchmark kind {kind!r}")


def hotspot_type(type_id: int, cov: CoverageSpec) -> np.ndarray:
    """Linear indices (0-based, sorted) of the 12 hotspot grids of a type."""
    ky_count, kz_count = cov.k_y, cov.k_z

    if type_id == 1:
        # A line along y at the nearest x-slab, ground level.
        ky = round_half_away((ky_count - 1) / 11.0 * np.arange(12) + 1)
        cells = [(1, int(y), 1) for y in ky]
    elif type_id == 2:
        # Two 6-grid columns along z, offset +-4 around the center y-slot.
        kz = round_half_away(1 + np.arange(6) * (kz_count - 1) / 5.0)
        left = int(np.ceil(ky_count / 2)) - 4
        right = int(np.ceil(ky_count / 2)) + 4
        cells = [(1, left, int(z)) for z in kz] + [(1, right, int(z)) for z in kz]
    elif type_id == 3:
        ky_vals = [2, 3, 4, ky_count - 3, ky_count - 2, ky_count - 1]
        cells = [(2, y, kz_count - 2) for y in ky_vals] + [
            (2, y, kz_count) for y in ky_vals
        ]
    else:
        raise ConfigurationError("hotspot type_id must be 1, 2, or 3")

    linear = []
    for kx1, ky1, kz1 in cells:  # 1-based formula indices
        if not (1 <= kx1 <= cov.k_x and 1 <= ky1 <= ky_count and 1 <= kz1 <= kz_count):
            raise ConfigurationError(
                f"hotspot type {type_id} index {(kx1, ky1, kz1)} outside the grid"
            )
        linear.append(grid_linear_index(kx1 - 1, ky1 - 1, kz1 - 1, cov.k_x, ky_count))
    out = distinct_sorted(np.asarray(linear, int))
    if len(out) != 12:
        raise ConfigurationError(
            f"hotspot type {type_id} produced {len(out)} distinct grids, expected 12"
        )
    return out
