"""Energy-efficiency optimization for a wireless-powered multiantenna UAV
serving paired downlink users.

Modules: scenario geometry, LoS channels, zero-forcing link layer, the
intra-pair power game, the successive-convex power/time solver, UAV
placement, the outer block-coordinate loop, and comparison baselines.
"""

from .params import (ConfigError, IterLimits, RotorParams, SystemParams,
                     Tolerances, load_params, save_params)
from .scenario import (GroundUser, Scenario, UserPair, generate_users,
                       make_scenario, pair_users)
from .channel import (array_response, beacon_link, distance, path_gain,
                      propulsion_power, user_channel)
from .linklayer import (Allocation, EEReport, LinkState, build_link_state,
                        build_report, cycle_ee, cycle_energy, exact_rates,
                        link_gains, static_power, tx_budget)
from .game import GameResult, UtilityParams, run_algorithm1
from .sca import InfeasibleAllocation, ScaProblem, ScaResult, run_algorithm2
from .placement import PlacementResult, ee_gradient, run_algorithm3
from .bcd import (PipelineInfeasible, PipelineResult, position_starts,
                  run_algorithm4, run_pipeline, run_pipeline_multistart)
from .baselines import GridSpec, etpa_coefficients, exhaustive_search

__version__ = "0.1.0"
