"""Three-step reduced-size alternative to the full D2D flow LP.

Step I solves each cell without D2D.  Step II marks the slots whose no-D2D
load exceeds a fraction ``level`` of the cell's peak as hot and splits the
demands: anything served in a hot slot becomes D2D-eligible, the rest keeps
its no-D2D allocation.  Step III re-solves the flow LP for the D2D-eligible
demands only, on top of the kept allocations.

level=0 reduces to the full problem, level=1 to the pure no-D2D solution;
in between the split trades LP size against spectrum.  One routine takes a
split through step III (a ``FlowSolve`` of the reduced problem, or no LP
when nothing is eligible) to the combined schedule.  ``heuristic_min_spectrum``
runs it on one level; ``heuristic_sweep`` runs it once per distinct eligible
set of a grid of levels, reusing the full problem's solve when every demand
is eligible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

# build_flow_lp is not called here (solve_flow_lp builds the reduced LP), but
# benchmark/spans.py traces the flow-LP layer under this name too
# (tests/test_benchmark_targets.py fails if it goes)
from .d2d_flow import (  # noqa: F401
    FlowSolve,
    build_flow_lp,
    solve_flow_lp,
    solve_min_spectrum_d2d,
)
from .model import (
    DemandSet,
    ModelError,
    Schedule,
    Topology,
    compute_volumes,
    fill_storage,
    per_slot_loads,
)
from .no_d2d import min_spectrum_no_d2d

#: slots count as hot only when the load clears the threshold by this much
HOT_SLOT_TOL = 1e-9
#: an allocation below this is treated as zero when splitting demands
ALLOC_TOL = 1e-9


@dataclass(frozen=True)
class SplitResult:
    """Step II outcome: hot slots, demand partition, and kept allocations."""

    level: float
    hot_slots: Mapping[str, frozenset[int]]
    d2d_demand_ids: frozenset[int]
    nd_demand_ids: frozenset[int]
    residual_load: Mapping[tuple[str, int], float]  # per (BS, slot), ND demands only
    nd_schedule: Schedule  # full Step-I schedule (all demands, direct links)


def split_demands(
    topology: Topology,
    demands: DemandSet,
    nd_schedule: Schedule,
    level: float,
) -> SplitResult:
    """Partition demands into D2D-eligible and locally-served sets.

    ``nd_schedule`` must be an optimal per-cell no-D2D schedule; its per-slot
    loads define the hot slots.  A demand is D2D-eligible iff it has a
    positive allocation in some hot slot of its cell.
    """
    if not 0.0 <= level <= 1.0:
        raise ModelError(f"split level must lie in [0, 1], got {level}")
    loads = per_slot_loads(nd_schedule, topology)
    peaks: dict[str, float] = {b: 0.0 for b in topology.bs_ids}
    for (b, _t), load in loads.items():
        peaks[b] = max(peaks[b], float(load))
    hot: dict[str, set[int]] = {b: set() for b in topology.bs_ids}
    for (b, t), load in loads.items():
        if float(load) > level * peaks[b] + HOT_SLOT_TOL:
            hot[b].add(t)

    d2d_ids: set[int] = set()
    for (jid, u, v, t), x in nd_schedule.allocations.items():
        if u == v or float(x) <= ALLOC_TOL:
            continue
        b = topology.home_bs[u]
        if t in hot[b]:
            d2d_ids.add(jid)
    nd_ids = {j.id for j in demands.demands} - d2d_ids

    residual: dict[tuple[str, int], float] = {}
    for (jid, u, v, t), x in nd_schedule.allocations.items():
        if u == v or jid not in nd_ids:
            continue
        key = (topology.home_bs[u], t)
        residual[key] = residual.get(key, 0.0) + float(x)
    return SplitResult(
        level=level,
        hot_slots={b: frozenset(ts) for b, ts in hot.items()},
        d2d_demand_ids=frozenset(d2d_ids),
        nd_demand_ids=frozenset(nd_ids),
        residual_load=residual,
        nd_schedule=nd_schedule,
    )


@dataclass(frozen=True)
class HeuristicOutcome:
    """One split level solved: the reduced problem's peaks and the combined schedule.

    ``flow`` is the lexicographic solve of the reduced problem, or None when
    no demand is eligible: then there is no flow to place and no LP, each
    peak is the largest kept load of its BS and nothing is relayed.
    """

    split: SplitResult
    per_bs_peak: Mapping[str, float]
    total_spectrum: float
    schedule: Schedule  # combined: kept ND allocations plus Step-III flows
    flow: FlowSolve | None

    @property
    def step3_variables(self) -> int:
        return self.flow.n_variables if self.flow is not None else 0

    @property
    def relayed_traffic(self) -> float:
        return self.flow.relayed_traffic if self.flow is not None else 0.0


def _solve_level(
    topology: Topology, demands: DemandSet, split: SplitResult, flow: FlowSolve | None = None
) -> HeuristicOutcome:
    """Step III of one split and the schedule it combines with the kept allocations.

    The D2D-eligible set fixes the reduced problem (its flows and, through
    the kept allocations, its residual load).  ``flow`` is a solve of that
    problem already at hand; without it the reduced LP is solved here.
    """
    if flow is None and split.d2d_demand_ids:
        flow = solve_flow_lp(
            topology,
            demands,
            demand_subset=tuple(j for j in demands.demands if j.id in split.d2d_demand_ids),
            residual_load=split.residual_load,
            name=f"heuristic-spectrum-level{split.level}",
        )
    if flow is None:
        peaks = {b: 0.0 for b in topology.bs_ids}
        for (b, _t), load in split.residual_load.items():
            peaks[b] = max(peaks[b], load)
        total, flows = sum(peaks.values()), Schedule({})
    else:
        peaks, total, flows = flow.per_bs_peak, flow.total, flow.schedule
    nd_ids = split.nd_demand_ids
    kept = {key: x for key, x in split.nd_schedule.allocations.items() if key[0] in nd_ids}
    nd_part = fill_storage(
        Schedule(kept),
        topology,
        DemandSet(demands.horizon, tuple(j for j in demands.demands if j.id in nd_ids)),
    )
    return HeuristicOutcome(split, peaks, total, nd_part.merged_with(flows), flow)


def heuristic_min_spectrum(
    topology: Topology, demands: DemandSet, level: float
) -> HeuristicOutcome:
    """Run the three steps; returns the reduced-problem spectrum and schedule."""
    _, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    return _solve_level(topology, demands, split_demands(topology, demands, nd_schedule, level))


def heuristic_min_overhead(
    topology: Topology,
    demands: DemandSet,
    outcome: HeuristicOutcome,
) -> tuple[Schedule, float]:
    """The least D2D traffic of the reduced problem at its spectrum optimum.

    ``heuristic_min_spectrum`` already minimized it, so nothing is solved
    here; returns the combined schedule and the relayed traffic.
    """
    return outcome.schedule, outcome.relayed_traffic


def overhead_ratio(v_d2d: float, v_bs: float) -> float:
    """Share of the transmitted traffic carried on D2D hops; 0 when nothing moves."""
    return float(v_d2d / (v_d2d + v_bs)) if v_d2d + v_bs > 0 else 0.0


@dataclass(frozen=True)
class SweepLevel:
    """One split level of a sweep; ``wall_seconds`` of a reused level is lookup time."""

    level: float
    split: SplitResult
    total_spectrum: float
    rho: float
    eta: float
    step3_variables: int  # flow columns of the LP the row's numbers come from
    wall_seconds: float
    reused: bool  # an earlier level had the same eligible set

    @property
    def n_d2d_demands(self) -> int:
        return len(self.split.d2d_demand_ids)


@dataclass(frozen=True)
class HeuristicSweep:
    f_nd: float
    rho: float  # the full problem's spectrum reduction
    levels: tuple[SweepLevel, ...]


def heuristic_sweep(
    topology: Topology, demands: DemandSet, levels: Sequence[float]
) -> HeuristicSweep:
    """Spectrum and overhead of the reduced problem at each split level, each LP solved once.

    The no-D2D baseline is computed once.  Levels with the same eligible set
    share one lexicographic solve, and a level that makes every demand
    eligible reuses the full problem's, which the sweep solves anyway for the
    full reduction.
    """
    nd_result, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    f_nd = float(nd_result.total)
    if f_nd == 0:
        raise ModelError("spectrum reduction undefined: no-D2D total is zero")
    full = solve_min_spectrum_d2d(topology, demands)
    all_ids = frozenset(j.id for j in demands.demands)
    solved: dict[frozenset[int], tuple[float, float, int]] = {}
    rows = []
    for level in levels:
        t0 = time.perf_counter()
        split = split_demands(topology, demands, nd_schedule, level)
        key = split.d2d_demand_ids
        reused = key in solved
        if not reused:
            outcome = _solve_level(topology, demands, split, full if key == all_ids else None)
            eta = overhead_ratio(*compute_volumes(outcome.schedule, topology))
            solved[key] = (outcome.total_spectrum, eta, outcome.step3_variables)
        total, eta, n_variables = solved[key]
        rows.append(
            SweepLevel(
                level=level,
                split=split,
                total_spectrum=total,
                rho=(f_nd - total) / f_nd,
                eta=eta,
                step3_variables=n_variables,
                wall_seconds=time.perf_counter() - t0,
                reused=reused,
            )
        )
    return HeuristicSweep(f_nd, (f_nd - full.total) / f_nd, tuple(rows))


@dataclass(frozen=True)
class HeuristicBoundReport:
    level: float
    rho: float
    rho_heuristic: float
    eta_heuristic: float
    sandwich_lower: float  # (1 - level) * rho
    eta_bound: float  # refined overhead bound from the D2D-eligible volume
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_heuristic_bounds(
    demands: DemandSet,
    level: float,
    rho: float,
    rho_heuristic: float,
    eta_heuristic: float,
    d2d_demand_ids: frozenset[int],
    tol: float = 1e-6,
) -> HeuristicBoundReport:
    """Check the sandwich on the spectrum reduction and the refined overhead bound."""
    d_max = demands.max_delay
    volume_d2d_eligible = float(
        sum(j.volume for j in demands.demands if j.id in d2d_demand_ids)
    )
    total_volume = float(demands.total_volume)
    scaled = (d_max - 1) * volume_d2d_eligible
    eta_bound = scaled / (scaled + total_volume) if scaled + total_volume > 0 else 0.0
    lower = (1.0 - level) * rho
    violations = []
    if rho_heuristic < lower - tol:
        violations.append(
            f"spectrum reduction {rho_heuristic} below sandwich lower bound {lower}"
        )
    if rho_heuristic > rho + tol:
        violations.append(f"spectrum reduction {rho_heuristic} above full-LP value {rho}")
    if eta_heuristic > eta_bound + tol:
        violations.append(f"overhead ratio {eta_heuristic} above bound {eta_bound}")
    return HeuristicBoundReport(
        level=level,
        rho=rho,
        rho_heuristic=rho_heuristic,
        eta_heuristic=eta_heuristic,
        sandwich_lower=lower,
        eta_bound=eta_bound,
        violations=tuple(violations),
    )


__all__ = [
    "SplitResult",
    "split_demands",
    "HeuristicOutcome",
    "heuristic_min_spectrum",
    "heuristic_min_overhead",
    "SweepLevel",
    "HeuristicSweep",
    "heuristic_sweep",
    "overhead_ratio",
    "HeuristicBoundReport",
    "check_heuristic_bounds",
]
