"""Spatially non-stationary channel model.

Per-position wave vectors, planar-array steering vectors, distance-based
LoS/NLoS gains, and sampling of instantaneous channel realizations for an
arbitrary subarray layout. A user sees each individual subarray in its far
field, so plane-wave steering applies per subarray, while gains, angles and
LoS visibility vary across subarray positions (near field of the whole
aperture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .scenario import ScenarioConfig, check_indices, visibility_from_points


def wave_vectors(targets: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise unit vectors and distances, shapes (T, S, 3) and (T, S).

    The differences are written straight into the unit-vector array, one
    (T, S) coordinate plane at a time, and each plane is divided by the
    distance in place, so no ufunc runs an inner loop of length 3. The
    distance adds the squared components left to right,
    (dx^2 + dy^2) + dz^2, the order of ``np.linalg.norm(axis=-1)``, with one
    (T, S) temporary instead of a (T, S, 3) one.
    """
    targets = np.atleast_2d(np.asarray(targets, float))
    sources = np.atleast_2d(np.asarray(sources, float))
    u = np.empty((len(targets), len(sources), 3))
    planes = [u[..., axis] for axis in range(3)]
    for axis, plane in enumerate(planes):
        np.subtract(targets[:, axis, None], sources[:, axis], out=plane)
    dist = np.square(planes[0])
    for plane in planes[1:]:
        dist += np.square(plane)
    np.sqrt(dist, out=dist)
    if np.any(dist == 0.0):
        raise DomainError("coincident target/source positions")
    for plane in planes:
        plane /= dist
    return u, dist


def steering_vector(
    u: np.ndarray, m_h: int, m_v: int, d_h: float, d_v: float, wavelength: float
) -> np.ndarray:
    """UPA response: Kronecker product of vertical and horizontal responses.

    Entry (m_v_idx * m_h + m_h_idx) has phase
    -2*pi/wavelength * (m_v_idx * d_v * u_z + m_h_idx * d_h * u_y);
    every entry has unit magnitude, so ||a||^2 = m_h * m_v exactly. Stacked
    wave vectors, shape (..., 3), give stacked responses (..., m_h * m_v).
    """
    if wavelength <= 0:
        raise DomainError("wavelength must be positive")
    u = np.asarray(u, float)
    k = 2.0 * np.pi / wavelength
    a_h = np.exp(-1j * k * d_h * np.arange(m_h) * u[..., 1:2])
    a_v = np.exp(-1j * k * d_v * np.arange(m_v) * u[..., 2:3])
    return (a_v[..., :, None] * a_h[..., None, :]).reshape(u.shape[:-1] + (m_v * m_h,))


def los_path_gain(distance, wavelength: float):
    """Free-space gain (wavelength / (4 pi d))^2."""
    distance = np.asarray(distance, float)
    if np.any(distance <= 0):
        raise DomainError("distance must be positive")
    return (wavelength / (4.0 * np.pi * distance)) ** 2


# ---------------------------------------------------------------------------
# Gain tables over the candidate grid
# ---------------------------------------------------------------------------


@dataclass
class GainTables:
    """Per (grid, column) large-scale channel statistics.

    Row r of every table belongs to user grid ``grid_rows[r]``; the pipeline
    tabulates only the grids with positive activation probability. Columns
    are candidate positions, or the subarrays of a layout (``LayoutStats``).
    Stored: ``beta_los``, the 0/1 visibility ``xi`` (uint8), the unit wave
    vectors ``u`` (rows, columns, 3) and the scalar Rician factor ``kappa``
    (``np.inf``: pure LoS). ``beta_nlos = beta_los / kappa`` (0.0 in pure
    LoS) and ``beta_total = xi * beta_los + beta_nlos`` are derived on read.
    """

    beta_los: np.ndarray
    xi: np.ndarray
    u: np.ndarray
    grid_rows: np.ndarray
    kappa: float

    @property
    def beta_nlos(self) -> np.ndarray:
        return self.beta_los / self.kappa

    @property
    def beta_total(self) -> np.ndarray:
        return self.xi * self.beta_los + self.beta_nlos


def build_gain_tables(
    scenario: ScenarioConfig,
    candidates: np.ndarray,
    grids: np.ndarray,
    xi: np.ndarray,
    grid_rows=None,
) -> GainTables:
    """Gain tables for every (grid, candidate) pair.

    ``candidates`` are the column positions, ``grids`` the centers of the
    tabulated grids and ``grid_rows`` their absolute indices (default: all
    grids, in order); ``xi`` has one row each.
    """
    xi = np.asarray(xi)
    if xi.shape != (len(grids), len(candidates)):
        raise ConfigurationError("xi shape must be (len(grids), N0)")
    if grid_rows is None:
        grid_rows = np.arange(len(grids))
    grid_rows = np.asarray(grid_rows, int)
    if grid_rows.shape != (len(grids),):
        raise ConfigurationError("grid_rows must hold one index per tabulated grid")
    u, dist = wave_vectors(grids, candidates)
    return GainTables(
        beta_los=los_path_gain(dist, scenario.wavelength),
        xi=xi.astype(np.uint8),
        u=u,
        grid_rows=grid_rows,
        kappa=scenario.rician_kappa,
    )


# ---------------------------------------------------------------------------
# Array layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subarray:
    """One uniform planar subarray moved as a unit; center in meters."""

    center: tuple[float, float, float]
    m_h: int
    m_v: int
    d_h: float
    d_v: float

    @property
    def n_antennas(self) -> int:
        return self.m_h * self.m_v

    def element_positions(self) -> np.ndarray:
        """Element coordinates, grid centered on the subarray center."""
        off_h = (np.arange(self.m_h) - (self.m_h - 1) / 2.0) * self.d_h
        off_v = (np.arange(self.m_v) - (self.m_v - 1) / 2.0) * self.d_v
        pos = np.zeros((self.m_v, self.m_h, 3))
        pos[..., 1] = off_h[None, :]
        pos[..., 2] = off_v[:, None]
        return np.asarray(self.center, float) + pos.reshape(-1, 3)


@dataclass(frozen=True)
class ArrayLayout:
    """A set of subarrays; generalizes candidate placements and FPA baselines."""

    subarrays: tuple

    def __post_init__(self):
        if not self.subarrays:
            raise ConfigurationError("layout must contain at least one subarray")
        object.__setattr__(self, "subarrays", tuple(self.subarrays))

    def centers(self) -> np.ndarray:
        return np.array([s.center for s in self.subarrays], float)

    def to_json_dict(self) -> dict:
        return {
            "subarrays": [
                {
                    "center": list(map(float, s.center)),
                    "m_h": s.m_h,
                    "m_v": s.m_v,
                    "d_h": s.d_h,
                    "d_v": s.d_v,
                }
                for s in self.subarrays
            ]
        }


def check_support(indices, n_cols: int) -> np.ndarray:
    """``indices`` as an int array, checked as a list of candidate columns.

    An empty index list raises ``DomainError``, and so does every list
    ``check_indices`` rejects. The order is kept.
    """
    if np.size(indices) == 0:
        raise DomainError("placement support must be nonempty")
    return check_indices(indices, n_cols, "placement support")


def support_layout(scenario: ScenarioConfig, support) -> ArrayLayout:
    """Layout of scenario subarrays placed at the given candidate indices."""
    candidates = scenario.candidates()
    subs = [
        Subarray(
            center=tuple(candidates[idx]),
            m_h=scenario.m_h,
            m_v=scenario.m_v,
            d_h=scenario.d_h,
            d_v=scenario.d_v,
        )
        for idx in support
    ]
    return ArrayLayout(tuple(subs))


# ---------------------------------------------------------------------------
# Per-layout channel statistics and sampling
# ---------------------------------------------------------------------------


@dataclass
class LayoutStats(GainTables):
    """Gain tables whose column s is subarray s of one layout, at its exact
    center, plus what channel draws need.

    ``los_blocks`` holds the stacked per-element LoS response
    xi * sqrt(beta_los) * a(u) without the random phase, and ``nlos_std``
    the per-element NLoS deviation sqrt(beta_nlos / 2), so channel draws
    only add phases and Gaussian noise.
    """

    m_col: np.ndarray          # antennas per subarray, shape (S,)
    geometry: tuple            # (m_h, m_v, d_h, d_v) per subarray
    los_blocks: np.ndarray     # (G, M_total) complex
    nlos_std: np.ndarray       # (G, M_total)
    slices: tuple              # per-subarray (start, stop) into the antenna axis

    @property
    def total_antennas(self) -> int:
        """Length of the antenna axis, m_col.sum()."""
        return self.los_blocks.shape[1]


def compute_layout_stats(
    scenario: ScenarioConfig, layout: ArrayLayout, grid_indices=None
) -> LayoutStats:
    """Gains, visibility and steering blocks for ``layout`` at exact centers.

    Rows cover the user grids ``grid_indices`` (default: all), in that order.
    """
    if grid_indices is None:
        grid_indices = np.arange(scenario.coverage.n_grids)
    grid_indices = check_indices(grid_indices, scenario.coverage.n_grids, "grid_indices")
    centers = layout.centers()
    xi = visibility_from_points(
        centers,
        scenario.coverage,
        scenario.obstacles,
        scenario.visibility_samples,
        scenario.rng_seed,
        grid_indices=grid_indices,
    )
    gains = build_gain_tables(
        scenario, centers, scenario.grid_centers()[grid_indices], xi, grid_rows=grid_indices
    )
    return layout_stats_from_gains(scenario, layout, gains)


def layout_stats_from_gains(
    scenario: ScenarioConfig, layout: ArrayLayout, gains: GainTables
) -> LayoutStats:
    """``gains``, whose column s is subarray s of ``layout``, plus the
    per-element LoS steering blocks and NLoS deviations channel draws need."""
    geometry = tuple((s.m_h, s.m_v, s.d_h, s.d_v) for s in layout.subarrays)
    m_col = np.array([s.n_antennas for s in layout.subarrays], int)
    stops = np.cumsum(m_col)
    amplitude = gains.xi * np.sqrt(gains.beta_los)
    los_blocks = np.concatenate([
        amplitude[:, s_idx, None] * steering_vector(gains.u[:, s_idx], *geom, scenario.wavelength)
        for s_idx, geom in enumerate(geometry)
    ], axis=1)
    return LayoutStats(
        **vars(gains),
        m_col=m_col,
        geometry=geometry,
        los_blocks=los_blocks,
        nlos_std=np.repeat(np.sqrt(gains.beta_nlos / 2.0), m_col, axis=1),
        slices=tuple((int(stop - m), int(stop)) for m, stop in zip(m_col, stops)),
    )


def sample_activation(rho: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli activation indicators."""
    rho = np.asarray(rho, float)
    return (rng.random(len(rho)) < rho).astype(np.uint8)


@dataclass
class ChannelDraw:
    """The random part of one Monte Carlo draw.

    ``columns`` are the drawn-active stat rows; ``psi`` (J, S) holds their
    LoS phases and ``re``/``im`` (J, total antennas) their NLoS normals.
    ``channel_from_draws`` turns them into channel columns.
    """

    columns: np.ndarray
    psi: np.ndarray
    re: np.ndarray
    im: np.ndarray


def _channel_draws(stats: LayoutStats, n_rows: int, rng: np.random.Generator):
    """Phases (n_rows, S), then real and imaginary normals (n_rows, M_total).

    The normals come from one generator call: a normal draw keeps no state
    beyond the generator's, so this is the stream of a real-part call
    followed by an imaginary-part call.
    """
    psi = rng.uniform(0.0, 2.0 * np.pi, (n_rows, len(stats.m_col)))
    re, im = rng.standard_normal((2, n_rows, stats.total_antennas))
    return psi, re, im


def draw_realization(
    stats: LayoutStats, rho_rows: np.ndarray, rng: np.random.Generator
) -> ChannelDraw:
    """One Monte Carlo draw: activation indicators, then the channel draws
    of the active rows.

    The draw order is fixed for reproducibility: the activation uniforms,
    then ``sample_channel``'s phases, real normals and imaginary normals for
    the active rows. The channel is left to ``channel_from_draws``, so that
    draws with the same number of active rows can be assembled in one call.
    """
    columns = np.flatnonzero(sample_activation(rho_rows, rng))
    return ChannelDraw(columns, *_channel_draws(stats, len(columns), rng))


def channel_from_draws(stats: LayoutStats, rows, psi, re, im) -> np.ndarray:
    """Channel columns for stat ``rows`` from their phases and normals.

    Works on any leading batch shape: ``rows`` (..., J), ``psi`` (..., J, S)
    and ``re``/``im`` (..., J, M_total) give h (..., M_total, J). Every
    entry is los_blocks * exp(-j psi) + (re + j im) * nlos_std, computed
    elementwise, so a batch holds the same bits as its members one by one.
    """
    phase = np.repeat(np.exp(-1j * psi), stats.m_col, axis=-1)
    h = stats.los_blocks[rows] * phase + (re + 1j * im) * stats.nlos_std[rows]
    return np.swapaxes(h, -1, -2)


def sample_channel(
    stats: LayoutStats, rows, rng: np.random.Generator
) -> np.ndarray:
    """Channel matrix (total antennas, len(rows)) for the given stat rows.

    Per subarray and row the LoS part gets an independent uniform phase and
    the NLoS part i.i.d. circular Gaussian entries with per-entry variance
    beta_nlos. The draws come in a fixed order: the phases, shape
    (len(rows), S), then the real and then the imaginary normals, each
    shape (len(rows), total antennas), all filled row-major;
    ``channel_from_draws`` assembles them. Results are reproducible for a
    given generator state.
    """
    rows = np.asarray(rows, int)
    return channel_from_draws(stats, rows, *_channel_draws(stats, len(rows), rng))
