"""Spectrum requirements of delay-constrained cellular traffic, with and
without device-to-device load balancing."""

from .model import (
    D2DCommGraph,
    Demand,
    DemandSet,
    DiscrepancyParams,
    Metrics,
    ModelError,
    Schedule,
    SpectrumResult,
    Topology,
    ValidationReport,
    build_d2d_comm_graph,
    compute_metrics,
    compute_volumes,
    discrepancy_params,
    fill_storage,
    per_slot_loads,
    validate_schedule,
)
from .lp import LpProblem, LpSolution, solve
from .no_d2d import (
    CellInstance,
    edf_feasible,
    intensity,
    min_spectrum_no_d2d,
    yds_min_spectrum,
)
from .d2d_flow import solve_min_overhead, solve_min_spectrum_d2d
from .heuristic import (
    check_heuristic_bounds,
    heuristic_min_overhead,
    heuristic_min_spectrum,
    heuristic_sweep,
    split_demands,
)
from .bounds import (
    build_complete_instance,
    build_ring_instance,
    frequency_reuse_adjusted,
    general_rho_upper_bound,
    inter_cell_bound,
    intra_cell_bound,
    overhead_upper_bound,
    simple_rho_upper_bound,
)
from .scenario import GeoParams, fixture, generate_topology, synthesize_demands, synthesize_trace

__version__ = "0.1.0"
