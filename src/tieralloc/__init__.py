"""Service allocation for mobile users over a two-tier cloud.

Models a grid of cells with WiFi-covered local clouds and remote public
instances, mobile users following seeded mobility traces, and workflows whose
function occurrences must be mapped to service instances. Provides the
MuSIC best-of-N allocation heuristic centered on user mobility, random and
greedy baselines, an exhaustive optimum for small instances, and a
reproducible experiment harness.
"""

from .allocation import (AllocationResult, AnnealingParams, ConstraintVector,
                         GroupInstance, UserInstance, allocate_greedy,
                         allocate_music, allocate_rsa, brute_force_optimal,
                         clouds_without_room, constraints_for, find_service,
                         fleet_utility, greedy_plan, music,
                         objective_from_plans, random_plan, roulette_index,
                         rsa_plan)
from .errors import (AdmissionRefused, IdError, IncompletePlan, InvalidGroup,
                     InvalidTrajectory, InvalidWorkflow, LedgerUnderflow,
                     NoFeasibleCandidates, NoRealizingService, ScenarioError,
                     TierAllocError, TooLargeForEnumeration, UndefinedGain,
                     UndefinedThroughput)
from .harness import (ALGORITHM_STREAMS, CSV_COLUMNS, MetricsRow, carry_plans,
                      compute_throughput, emit_results, gain_pct, rows_to_csv,
                      rows_to_table, run_experiment, summarize)
from .mobility import (MANHATTAN, RANDOM_WAYPOINT, MobilityParams,
                       UncertaintySpec, generate_manhattan,
                       generate_random_waypoint, generate_trajectory,
                       inject_uncertainty)
from .model import (LOCAL, PUBLIC, THREEG, WIFI, Cell, CloudNode, LocationMap,
                    MobileUser, Service, Trajectory, UserGroup,
                    center_of_group_mobility, center_of_mobility)
from .profiles import (ComputeProfile, InvocationContext, LinkProfile,
                       PriceBook, ProfileSet, intercloud_hop_ms,
                       invocation_context, service_delay, service_power,
                       service_price, service_qos)
from .registry import CapacityLedger, RTree, ServiceDirectory
from .scenario import (ALGORITHMS, Deployment, Population, Scenario,
                       WorkflowTemplate, build_deployment, build_population,
                       derive_rng, derive_seed, load_scenario, make_templates)
from .workflow import (DIMS, And, FunctionNode, LTW, LTWEntry, Leaf, Loop,
                       QoSExtrema, QoSTriple, Seq, Xor, aggregate_qos,
                       candidate_services, fold_qos, leaf, normalize_qos,
                       normalize_service, occurrences, par, seq,
                       workflow_extrema, xor)

__version__ = "0.1.0"
