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
from .scenario import ScenarioConfig, as_integer, as_spacing, check_indices, visibility_from_points


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
    are candidate positions, or the subarray centers of a layout
    (``LayoutStats``); either way every column carries one element grid.
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
    scenario: ScenarioConfig, columns: np.ndarray, xi: np.ndarray, grid_rows
) -> GainTables:
    """Gain tables for every (grid, column) pair.

    ``columns`` are the column positions and ``grid_rows`` the indices of
    the tabulated user grids, checked by ``check_indices``; ``xi`` has one
    row per grid and one column per position.
    """
    grid_rows = check_indices(grid_rows, scenario.coverage.n_grids, "grid_rows")
    xi = np.asarray(xi)
    if xi.shape != (len(grid_rows), len(columns)):
        raise ConfigurationError("xi shape must be (len(grid_rows), len(columns))")
    u, dist = wave_vectors(scenario.grid_centers()[grid_rows], columns)
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


@dataclass(frozen=True, eq=False)
class ArrayLayout:
    """S subarrays with one element grid: ``centers`` (S, 3) in meters, each
    carrying m_h x m_v elements at spacings d_h, d_v. Movable placements put
    S = N scenario subarrays on candidates; a dense baseline is one center.

    Two subarrays whose element rectangles meet, faces included, raise
    ``DomainError``: at equal x, |dy| <= (m_h - 1) d_h and
    |dz| <= (m_v - 1) d_v: the scenario's candidate spacing rule, under
    which equal centers always meet.
    """

    centers: np.ndarray
    m_h: int
    m_v: int
    d_h: float
    d_v: float

    def __post_init__(self):
        for name in ("m_h", "m_v"):
            count = as_integer(getattr(self, name), name)
            if count < 1:
                raise ConfigurationError(f"'{name}' must be >= 1, got {count}")
            object.__setattr__(self, name, count)
        for name in ("d_h", "d_v"):
            object.__setattr__(self, name, as_spacing(getattr(self, name), name))
        centers = np.array(self.centers, float)
        if centers.ndim != 2 or centers.shape[1] != 3 or len(centers) == 0:
            raise ConfigurationError("layout needs a nonempty (S, 3) array of centers")
        gap = np.abs(centers[:, None] - centers)
        meet = ((gap[..., 0] == 0) & (gap[..., 1] <= (self.m_h - 1) * self.d_h)
                & (gap[..., 2] <= (self.m_v - 1) * self.d_v))
        pairs = np.argwhere(np.triu(meet, 1))
        if len(pairs):
            first, second = pairs[0]
            raise DomainError(f"subarrays {first} and {second} overlap: their element "
                              "rectangles meet")
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    @property
    def n_antennas(self) -> int:
        """Elements per subarray, M = m_h * m_v."""
        return self.m_h * self.m_v

    def element_positions(self) -> np.ndarray:
        """(S, M, 3) element coordinates, each grid centered on its subarray."""
        off_h = (np.arange(self.m_h) - (self.m_h - 1) / 2.0) * self.d_h
        off_v = (np.arange(self.m_v) - (self.m_v - 1) / 2.0) * self.d_v
        pos = np.zeros((self.m_v, self.m_h, 3))
        pos[..., 1] = off_h[None, :]
        pos[..., 2] = off_v[:, None]
        return self.centers[:, None, :] + pos.reshape(-1, 3)

    def to_json_dict(self) -> dict:
        grid = {"m_h": self.m_h, "m_v": self.m_v, "d_h": self.d_h, "d_v": self.d_v}
        return {"subarrays": [{"center": list(map(float, c)), **grid} for c in self.centers]}


def check_support(indices, n_cols: int) -> np.ndarray:
    """``indices`` as an int array, checked as a list of candidate columns.

    An empty index list raises ``DomainError``, and so does every list
    ``check_indices`` rejects. The order is kept.
    """
    if np.size(indices) == 0:
        raise DomainError("placement support must be nonempty")
    return check_indices(indices, n_cols, "placement support")


def support_layout(scenario: ScenarioConfig, support) -> ArrayLayout:
    """Layout of scenario subarrays at the candidate indices ``support``,
    checked by ``check_support``."""
    candidates = scenario.candidates()
    return ArrayLayout(candidates[check_support(support, len(candidates))],
                       scenario.m_h, scenario.m_v, scenario.d_h, scenario.d_v)


# ---------------------------------------------------------------------------
# Per-layout channel statistics and sampling
# ---------------------------------------------------------------------------


@dataclass
class LayoutStats(GainTables):
    """Gain tables whose column s is subarray s of one layout, at its exact
    center, plus what channel draws need.

    ``los_blocks`` holds the stacked per-element LoS response
    xi * sqrt(beta_los) * a(u) without the random phase, so channel draws
    only add phases and Gaussian noise. The NLoS deviation sqrt(beta_nlos / 2)
    is one number per (grid, subarray), shared by the subarray's M elements;
    ``channel_from_draws`` forms it from ``beta_nlos``.
    """

    layout: ArrayLayout
    los_blocks: np.ndarray     # (G, S * M) complex

    @property
    def total_antennas(self) -> int:
        """Length of the antenna axis, S * M."""
        return self.los_blocks.shape[1]

    @property
    def slices(self) -> tuple:
        """Per-subarray (start, stop) into the antenna axis."""
        m = self.layout.n_antennas
        return tuple((s * m, (s + 1) * m) for s in range(len(self.layout.centers)))


def compute_layout_stats(
    scenario: ScenarioConfig, layout: ArrayLayout, grid_indices, xi=None
) -> LayoutStats:
    """Gains, visibility and steering blocks for ``layout`` at exact centers:
    the one maker of ``LayoutStats``.

    Rows cover the user grids ``grid_indices``, in that order, checked by
    ``check_indices``. ``xi``, one row per grid and one column per center,
    is the visibility to use; without it a visibility pass over the centers
    computes it. A center inside an obstacle, faces included, raises
    ``DomainError``.
    """
    centers = layout.centers
    for i, box in enumerate(scenario.obstacles):
        held = box.holds(centers)
        if held.size:
            raise DomainError(f"obstacles[{i}] holds the center of subarray {held[0]}")
    if xi is None:
        xi = visibility_from_points(
            centers,
            scenario.coverage,
            scenario.obstacles,
            scenario.visibility_samples,
            scenario.rng_seed,
            grid_indices=grid_indices,
        )
    gains = build_gain_tables(scenario, centers, xi, grid_indices)
    steering = steering_vector(gains.u, layout.m_h, layout.m_v, layout.d_h, layout.d_v,
                               scenario.wavelength)
    amplitude = gains.xi * np.sqrt(gains.beta_los)
    return LayoutStats(
        **vars(gains),
        layout=layout,
        los_blocks=(amplitude[..., None] * steering).reshape(len(amplitude), -1),
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
    psi = rng.uniform(0.0, 2.0 * np.pi, (n_rows, len(stats.layout.centers)))
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
    and ``re``/``im`` (..., J, M_total) give h (..., M_total, J). Element m
    of subarray s is los_blocks * exp(-j psi_s) + (re + j im) *
    sqrt(beta_nlos_s / 2): the antenna axis is viewed as (S, M), and each
    subarray's phase and deviation broadcast over its M elements. Every
    entry is computed elementwise, so a batch holds the same bits as its
    members one by one.
    """
    n_sub, m = len(stats.layout.centers), stats.layout.n_antennas
    by_subarray = psi.shape + (m,)
    nlos_std = np.sqrt(stats.beta_nlos[rows] / 2.0)[..., None]
    h = (stats.los_blocks.reshape(-1, n_sub, m)[rows] * np.exp(-1j * psi)[..., None]
         + (re + 1j * im).reshape(by_subarray) * nlos_std)
    return np.swapaxes(h.reshape(re.shape), -1, -2)


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
