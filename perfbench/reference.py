"""Independent numpy evaluation of a plan's closed-form objective.

Computes, from the scenario document alone and without importing xlma, the
expected weighted sum rate under MRC that ``xlma.rate`` documents:

    gamma_k = Pbar_k * ((sum_c m*beta_kc)^2 + sum_c beta_kc^2 f_kc)
              / sum_c [beta_kc * sum_{i != k} Pbar_i rho_i beta_ic
                       (phi_kic g_kic + q_kic) + m*beta_kc]

    objective = sum_k rho_k log2(1 + gamma_k)

over the grids with rho_k > 0 and the selected candidate columns c. Line of
sight is recomputed for those columns only, by this module's own slab test
against the documented per-grid sample points: ``samples`` uniform draws in
grid cell k from ``default_rng(SeedSequence([rng_seed, key("visibility"),
k]))``, where ``key`` is the first 8 little-endian bytes of the SHA-256 of
the purpose string.
"""

from __future__ import annotations

import hashlib

import numpy as np

SPEED_OF_LIGHT = 299792458.0
FEJER_SIN_TOL = 1e-9
_VISIBILITY_KEY = int.from_bytes(hashlib.sha256(b"visibility").digest()[:8], "little")


def _linear(db) -> np.ndarray:
    return 10.0 ** (np.asarray(db, float) / 10.0)


def _axis_centers(lo, hi, count):
    return lo + (np.arange(count) + 0.5) * (hi - lo) / count


def candidate_centers(ma: dict) -> np.ndarray:
    """Candidate centers in the x = 0 plane, index iy + iz * n_y."""
    y = _axis_centers(ma["y_min"], ma["y_max"], ma["n_y"])
    z = _axis_centers(ma["z_min"], ma["z_max"], ma["n_z"])
    out = np.zeros((ma["n_y"] * ma["n_z"], 3))
    out[:, 1] = np.tile(y, ma["n_z"])
    out[:, 2] = np.repeat(z, ma["n_y"])
    return out


def _cell_bounds(cov: dict, k: int):
    counts = (cov["k_x"], cov["k_y"], cov["k_z"])
    index = (k % counts[0], (k // counts[0]) % counts[1], k // (counts[0] * counts[1]))
    lo = np.empty(3)
    hi = np.empty(3)
    for a, axis in enumerate("xyz"):
        step = (cov[f"{axis}_max"] - cov[f"{axis}_min"]) / counts[a]
        lo[a] = cov[f"{axis}_min"] + index[a] * step
        hi[a] = lo[a] + step
    return lo, hi


def grid_centers(cov: dict) -> np.ndarray:
    """User-grid centers, index ix + iy * k_x + iz * k_x * k_y."""
    n = cov["k_x"] * cov["k_y"] * cov["k_z"]
    return np.array([sum(_cell_bounds(cov, k)) / 2.0 for k in range(n)])


def activation(dist: dict, n_grids: int) -> np.ndarray:
    """Per-grid activation probabilities of the regular and hotspot sets."""
    kbar = float(dist["expected_users"])
    zeta = float(dist.get("regular_ratio", 0.0))
    k1 = [int(k) for k in dist.get("hotspot_k1", [])]
    k2 = [int(k) for k in dist.get("hotspot_k2", [])]
    n0 = n_grids - len(k1) - len(k2)
    hot = kbar * (1.0 - zeta)
    denom = 2 * len(k1) + 3 * len(k2)
    rho = np.full(n_grids, kbar * zeta / n0 if n0 else 0.0)
    if denom:
        rho[k2] = min(1.0, 3.0 * hot / denom)
        if k1:
            rho[k1] = max(2.0 * hot / denom, (hot - len(k2)) / len(k1))
    return rho


def _hits_box(starts, ends, lo, hi) -> np.ndarray:
    """Segments [start, end] (broadcast) touching the closed box [lo, hi]."""
    d = ends - starts
    shape = d.shape[:-1]
    enter = np.zeros(shape)
    leave = np.ones(shape)
    possible = np.ones(shape, bool)
    for a in range(3):
        o = np.broadcast_to(starts[..., a], shape)
        da = d[..., a]
        moving = da != 0.0
        possible &= moving | ((o >= lo[a]) & (o <= hi[a]))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_a = (lo[a] - o) / da
            t_b = (hi[a] - o) / da
        enter = np.where(moving, np.maximum(enter, np.minimum(t_a, t_b)), enter)
        leave = np.where(moving, np.minimum(leave, np.maximum(t_a, t_b)), leave)
    return possible & (enter <= leave)


def visibility(doc: dict, grids, points) -> np.ndarray:
    """(len(grids), len(points)) 1 where no sample of the grid is blocked."""
    cov = doc["coverage"]
    samples = int(doc.get("visibility_samples", 20))
    seed = int(doc.get("rng_seed", 0))
    boxes = [
        (np.asarray(o["center"], float) - np.asarray(o["dims"], float) / 2.0,
         np.asarray(o["center"], float) + np.asarray(o["dims"], float) / 2.0)
        for o in doc.get("obstacles", [])
    ]
    xi = np.ones((len(grids), len(points)))
    for row, k in enumerate(grids):
        lo, hi = _cell_bounds(cov, int(k))
        rng = np.random.default_rng(np.random.SeedSequence([seed, _VISIBILITY_KEY, int(k)]))
        targets = lo + rng.random((samples, 3)) * (hi - lo)
        blocked = np.zeros((len(points), samples), bool)
        for box_lo, box_hi in boxes:
            blocked |= _hits_box(points[:, None, :], targets[None, :, :], box_lo, box_hi)
        xi[row] = ~blocked.any(axis=1)
    return xi


def _fejer(delta_u, m, d_over_lambda):
    x = np.pi * d_over_lambda * delta_u
    s = np.sin(x)
    tiny = np.abs(s) < FEJER_SIN_TOL
    return np.where(tiny, float(m * m), (np.sin(m * x) / np.where(tiny, 1.0, s)) ** 2)


def weighted_rate(doc: dict, support) -> float:
    """Closed-form expected weighted sum rate of candidate indices ``support``."""
    lam = SPEED_OF_LIGHT / float(doc["carrier_freq"])
    d_h = float(doc.get("d_h") or lam / 2.0)
    d_v = float(doc.get("d_v") or lam / 2.0)
    m_h, m_v = int(doc["m_h"]), int(doc["m_v"])
    m = m_h * m_v
    kappa_db = doc.get("rician_kappa_db", "infinite")
    pure = isinstance(kappa_db, str)
    cov = doc["coverage"]
    n_grids = cov["k_x"] * cov["k_y"] * cov["k_z"]
    rho_all = activation(doc["distribution"], n_grids)
    active = np.flatnonzero(rho_all > 0.0)
    rho = rho_all[active]
    pbar = np.broadcast_to(_linear(doc["tx_power_dbm"]), (n_grids,))[active] / _linear(
        doc["noise_power_dbm"]
    )

    cols = candidate_centers(doc["ma_region"])[np.asarray(support, int)]
    diff = grid_centers(cov)[active][:, None, :] - cols[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    u = diff / dist[..., None]
    beta_los = (lam / (4.0 * np.pi * dist)) ** 2
    xi = visibility(doc, active, cols)

    if pure:
        beta = xi * beta_los
        f = np.zeros_like(beta)
        g = xi[:, None, :] * xi[None, :, :]
        q = np.zeros_like(g)
    else:
        kappa = float(_linear(kappa_db))
        beta = xi * beta_los + beta_los / kappa
        a = kappa * xi
        f = m * (2.0 * a + 1.0) / (a + 1.0) ** 2
        pair = (a[:, None, :] + 1.0) * (a[None, :, :] + 1.0)
        g = a[:, None, :] * a[None, :, :] / pair
        q = m * (1.0 + a[:, None, :] + a[None, :, :]) / pair
    phi = (_fejer(u[:, None, :, 1] - u[None, :, :, 1], m_h, d_h / lam)
           * _fejer(u[:, None, :, 2] - u[None, :, :, 2], m_v, d_v / lam))
    weight = (pbar * rho)[None, :, None] * beta[None, :, :]
    terms = weight * (phi * g + q)
    idx = np.arange(len(active))
    terms[idx, idx, :] = 0.0
    interference = terms.sum(axis=1)
    denom = (beta * interference + m * beta).sum(axis=1)
    numer = pbar * ((m * beta).sum(axis=1) ** 2 + (beta * beta * f).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(denom > 0.0, numer / denom, 0.0)
    return float(rho @ np.log2(1.0 + gamma))
