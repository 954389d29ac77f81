"""Movable-subarray placement toolkit for near-field multiuser uplink systems."""

from .channel import (
    ArrayLayout,
    GainTables,
    Subarray,
    build_gain_tables,
    los_path_gain,
    sample_activation,
    sample_channel,
    steering_vector,
    support_layout,
    wave_vector,
)
from .errors import ConfigurationError, DomainError
from .montecarlo import (
    MapRequest,
    SimOptions,
    correlation_map,
    mmse_sinr,
    mrc_sinr,
    power_gain_map,
    simulate_weighted_sum_rate,
)
from .optimizer import (
    LpProblem,
    SelectionState,
    best_replacement,
    build_init_lp,
    exhaustive_search,
    round_top_n,
    select_victim,
    solve_lp,
    successive_replacement,
)
from .pipeline import ScenarioContext
from .rate import RateModel, fejer_correlation
from .scenario import (
    CoverageSpec,
    MaRegionSpec,
    Obstacle,
    ScenarioConfig,
    UserDistribution,
    assign_probabilities,
    build_candidate_grid,
    build_user_grid,
    compute_los_visibility,
    load_scenario,
)

__version__ = "0.1.0"
