"""Ready-made scenario configuration documents.

Desk-scale presets keep every acceptance check fast while preserving the
structure that makes placement optimization matter: always-on hotspot
clusters containing nearly radially-aligned grid pairs (same direction from
the region center, different range), which a centered dense array cannot
separate but spread subarrays can. The paper-scale presets reproduce the
full simulation geometries.
"""

from __future__ import annotations

import copy
import functools

from .benchmarks import hotspot_type
from .scenario import CoverageSpec

# Hotspot sets for the 5 x 10 desk coverage grid (0-based linear indices,
# ix + iy * 5): two clusters at the low-y and high-y ends, each containing
# aligned (same y/range ratio) pairs.
_DESK_K2 = [0, 1, 2, 5, 6, 10]
_DESK_K1 = [35, 40, 41, 45, 46, 47]

_PAPER_1D_K1 = [92, 98, 153, 162, 171, 184]
_PAPER_1D_K2 = [0, 8, 9, 24, 27, 39]

_PAPER_OBSTACLES = [
    {"center": [5.0, -20.0, 9.0], "dims": [5.0, 10.0, 18.0]},
    {"center": [5.0, 20.0, 9.0], "dims": [5.0, 10.0, 18.0]},
]

_DESK_COVERAGE = {
    "x_min": 7.5, "x_max": 52.5, "y_min": -52.5, "y_max": 52.5,
    "z_min": 0.0, "z_max": 0.0, "k_x": 5, "k_y": 10, "k_z": 1,
}

_DESK_DISTRIBUTION = {
    "expected_users": 10.5,
    "regular_ratio": 0.02,
    "hotspot_k1": _DESK_K1,
    "hotspot_k2": _DESK_K2,
}


def _fresh(preset):
    """``preset`` returning a deep copy, so no two documents share a list."""
    return functools.wraps(preset)(lambda *args, **kw: copy.deepcopy(preset(*args, **kw)))


@_fresh
def desk_full_los(m_h: int = 4) -> dict:
    """1D placement over 100 candidates, all 50 grids positive-probability."""
    return {
        "carrier_freq": 30e9,
        "m_h": m_h,
        "m_v": 1,
        "n_subarrays": 4,
        "tx_power_dbm": 5.0,
        "noise_power_dbm": -80.0,
        "rician_kappa_db": "infinite",
        "rng_seed": 7,
        "visibility_samples": 20,
        "ma_region": {"y_min": -50.5, "y_max": 50.5, "z_min": 20.5, "z_max": 20.5,
                      "n_y": 100, "n_z": 1},
        "coverage": _DESK_COVERAGE,
        "obstacles": [],
        "distribution": _DESK_DISTRIBUTION,
    }


@_fresh
def desk_full_los_2d() -> dict:
    """2D placement grid with N = 8 so every FPA baseline is constructible."""
    doc = desk_full_los(m_h=4)
    doc["m_v"] = 2
    doc["n_subarrays"] = 8
    doc["ma_region"] = {"y_min": -50.5, "y_max": 50.5, "z_min": 20.0, "z_max": 45.0,
                        "n_y": 10, "n_z": 10}
    return doc


@_fresh
def desk_partial_los() -> dict:
    doc = desk_full_los(m_h=4)
    doc["obstacles"] = _PAPER_OBSTACLES
    return doc


@_fresh
def desk_single_grid() -> dict:
    """Pure-LoS single always-active grid (estimator exactness studies)."""
    return {
        "carrier_freq": 30e9,
        "m_h": 4,
        "m_v": 1,
        "n_subarrays": 3,
        "tx_power_dbm": 5.0,
        "noise_power_dbm": -80.0,
        "rician_kappa_db": "infinite",
        "rng_seed": 7,
        "ma_region": {"y_min": -25.0, "y_max": 25.0, "z_min": 20.0, "z_max": 20.0,
                      "n_y": 50, "n_z": 1},
        "coverage": {"x_min": 10.0, "x_max": 50.0, "y_min": -20.0, "y_max": 20.0,
                     "z_min": 0.0, "z_max": 0.0, "k_x": 1, "k_y": 1, "k_z": 1},
        "obstacles": [],
        "distribution": {"expected_users": 1.0, "regular_ratio": 1.0,
                         "hotspot_k1": [], "hotspot_k2": []},
    }


@_fresh
def desk_partial_los_3d(hotspot: int = 1) -> dict:
    """Small 3D coverage with obstacles and a 12-grid hotspot type."""
    cov = CoverageSpec(x_min=7.5, x_max=52.5, y_min=-52.5, y_max=52.5,
                       z_min=0.0, z_max=30.0, k_x=2, k_y=12, k_z=6)
    hotspots = hotspot_type(hotspot, cov)
    return {
        "carrier_freq": 30e9,
        "m_h": 2,
        "m_v": 2,
        "n_subarrays": 4,
        "tx_power_dbm": 5.0,
        "noise_power_dbm": -80.0,
        "rician_kappa_db": 20.0,
        "rng_seed": 7,
        "visibility_samples": 20,
        "ma_region": {"y_min": -50.5, "y_max": 50.5, "z_min": 20.0, "z_max": 40.0,
                      "n_y": 10, "n_z": 5},
        "coverage": {"x_min": 7.5, "x_max": 52.5, "y_min": -52.5, "y_max": 52.5,
                     "z_min": 0.0, "z_max": 30.0, "k_x": 2, "k_y": 12, "k_z": 6},
        "obstacles": _PAPER_OBSTACLES,
        "distribution": {
            "expected_users": 6.0,
            "regular_ratio": 0.0,
            "hotspot_k1": [],
            "hotspot_k2": [int(k) for k in hotspots],
        },
    }


@_fresh
def paper_full_los_1d() -> dict:
    """101-candidate segment at z = 20.5 m serving a 189-grid ground plane."""
    return {
        "carrier_freq": 30e9,
        "m_h": 8,
        "m_v": 1,
        "n_subarrays": 8,
        "tx_power_dbm": 5.0,
        "noise_power_dbm": -80.0,
        "rician_kappa_db": "infinite",
        "rng_seed": 7,
        "visibility_samples": 20,
        "ma_region": {"y_min": -50.5, "y_max": 50.5, "z_min": 20.5, "z_max": 20.5,
                      "n_y": 101, "n_z": 1},
        "coverage": {"x_min": 7.5, "x_max": 52.5, "y_min": -52.5, "y_max": 52.5,
                     "z_min": 0.0, "z_max": 0.0, "k_x": 9, "k_y": 21, "k_z": 1},
        "obstacles": [],
        "distribution": {
            "expected_users": 10.0,
            "regular_ratio": 0.0,
            "hotspot_k1": _PAPER_1D_K1,
            "hotspot_k2": _PAPER_1D_K2,
        },
    }


@_fresh
def paper_partial_los_1d() -> dict:
    doc = paper_full_los_1d()
    doc["obstacles"] = _PAPER_OBSTACLES
    return doc


@_fresh
def paper_full_scale_3d(hotspot: int = 1) -> dict:
    """Full-scale geometry: 3030 candidates, 1890 grids, 12 of them active."""
    cov = CoverageSpec(
        x_min=7.5, x_max=52.5, y_min=-52.5, y_max=52.5, z_min=0.0, z_max=50.0,
        k_x=9, k_y=21, k_z=10,
    )
    hotspots = hotspot_type(hotspot, cov)
    return {
        "carrier_freq": 30e9,
        "m_h": 4,
        "m_v": 4,
        "n_subarrays": 8,
        "tx_power_dbm": 5.0,
        "noise_power_dbm": -80.0,
        "rician_kappa_db": 20.0,
        "rng_seed": 7,
        "visibility_samples": 20,
        "ma_region": {"y_min": -50.5, "y_max": 50.5, "z_min": 20.0, "z_max": 50.0,
                      "n_y": 101, "n_z": 30},
        "coverage": {"x_min": 7.5, "x_max": 52.5, "y_min": -52.5, "y_max": 52.5,
                     "z_min": 0.0, "z_max": 50.0, "k_x": 9, "k_y": 21, "k_z": 10},
        "obstacles": _PAPER_OBSTACLES,
        "distribution": {
            "expected_users": 10.0,
            "regular_ratio": 0.0,
            "hotspot_k1": [],
            "hotspot_k2": [int(k) for k in hotspots],
        },
    }


PRESETS = {
    "desk_full_los": desk_full_los,
    "desk_full_los_2d": desk_full_los_2d,
    "desk_partial_los": desk_partial_los,
    "desk_partial_los_3d_type1": lambda: desk_partial_los_3d(1),
    "desk_partial_los_3d_type2": lambda: desk_partial_los_3d(2),
    "desk_partial_los_3d_type3": lambda: desk_partial_los_3d(3),
    "desk_single_grid": desk_single_grid,
    "paper_full_los_1d": paper_full_los_1d,
    "paper_partial_los_1d": paper_partial_los_1d,
    "paper_full_scale_3d_type1": lambda: paper_full_scale_3d(1),
    "paper_full_scale_3d_type2": lambda: paper_full_scale_3d(2),
    "paper_full_scale_3d_type3": lambda: paper_full_scale_3d(3),
}
