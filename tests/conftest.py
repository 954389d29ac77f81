import numpy as np
import pytest

from xlma.scenario import (
    CoverageSpec,
    MaRegionSpec,
    ScenarioConfig,
    UserDistribution,
)


def make_scenario(
    n_y=8,
    n_z=1,
    k_x=2,
    k_y=2,
    k_z=1,
    m_h=4,
    m_v=1,
    n_subarrays=3,
    kappa=np.inf,
    rho=None,
    expected_users=None,
    seed=3,
    obstacles=(),
    y_half=20.0,
    tx_power_mw=3.1622776601683795,
    noise_mw=1e-8,
):
    """Small synthetic scenario for unit tests; rho defaults to uniform."""
    ma = MaRegionSpec(
        y_min=-y_half, y_max=y_half,
        z_min=15.0, z_max=15.0 if n_z == 1 else 25.0,
        n_y=n_y, n_z=n_z,
    )
    cov = CoverageSpec(
        x_min=8.0, x_max=40.0,
        y_min=-18.0, y_max=18.0,
        z_min=0.0, z_max=0.0 if k_z == 1 else 6.0,
        k_x=k_x, k_y=k_y, k_z=k_z,
    )
    n_grids = cov.n_grids
    if rho is None:
        fill = 0.5 if expected_users is None else expected_users / n_grids
        rho = np.full(n_grids, fill)
    rho = np.asarray(rho, float)
    dist = UserDistribution(
        rho=rho,
        hotspot_k1=[],
        hotspot_k2=[],
        regular_ratio=1.0,
        expected_users=float(rho.sum()),
    )
    return ScenarioConfig(
        carrier_freq=30e9,
        m_h=m_h,
        m_v=m_v,
        d_h=0.0049965411,  # lambda/2 at 30 GHz
        d_v=0.0049965411,
        n_subarrays=n_subarrays,
        tx_power_mw=tx_power_mw,
        noise_power_mw=noise_mw,
        rician_kappa=kappa,
        rng_seed=seed,
        ma_region=ma,
        coverage=cov,
        obstacles=list(obstacles),
        distribution=dist,
    )


def active_gain_tables(scenario):
    """The gain tables ``ScenarioContext.build`` assembles its model from,
    which the context does not keep: the build's visibility and gain-table
    calls over the grids with positive activation probability."""
    from xlma.channel import build_gain_tables
    from xlma.scenario import visibility_from_points

    rows = np.flatnonzero(scenario.distribution.rho > 0.0)
    candidates = scenario.candidates()
    xi = visibility_from_points(candidates, scenario.coverage, scenario.obstacles,
                                scenario.visibility_samples, scenario.rng_seed,
                                grid_indices=rows)
    return build_gain_tables(scenario, candidates, scenario.grid_centers()[rows], xi,
                             grid_rows=rows)


@pytest.fixture(scope="session")
def desk_context():
    from xlma.pipeline import context_from_document
    from xlma.presets import desk_full_los

    return context_from_document(desk_full_los())
