"""Three-step reduced-size alternative to the full D2D flow LP.

Step I solves each cell without D2D.  Step II marks the slots whose no-D2D
load exceeds a fraction ``level`` of the cell's peak as hot and splits the
demands: anything served in a hot slot becomes D2D-eligible, the rest keeps
its no-D2D allocation.  Step III solves the flow LP for the D2D-eligible
demands only, on top of the kept allocations.

level=0 reduces to the full problem, level=1 to the pure no-D2D solution;
in between the split trades LP size against spectrum.  Step III's LP is the
full problem's LP with every kept demand's columns fixed at 0, its source
row at 0, and each billed (BS, slot) peak row lowered by the kept load
there.  Only bounds and right-hand sides differ, so each level is
solved on a new HiGHS object started from the basis of the full optimum,
and its size (``step3_variables``) is the count of columns left free.

One routine takes a split through step III (a ``FlowSolve`` of that LP, the
full solve itself when every demand is eligible, or no LP when none is) to
the combined schedule.  ``heuristic_min_spectrum`` runs it on one level;
``heuristic_sweep`` runs it once per distinct eligible set of a grid of
levels, all from one full solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .d2d_flow import FlowSolve, TimeExpandedIndex, build_flow_lp, solve_flow_lp
from .lp import LpError
from .model import (
    DemandSet,
    ModelError,
    Schedule,
    Topology,
    _demand_positions,
    compute_volumes,
    node_positions,
    slot_loads,
    sum_by,
)

# fill_storage and per_slot_loads are not called here, but benchmark/spans.py
# traces the model layer under these names (tests/test_benchmark_targets.py
# fails if they go)
from .model import fill_storage, per_slot_loads  # noqa: F401
from .no_d2d import min_spectrum_no_d2d

#: slots count as hot only when the load clears the threshold by this much
#: times the cell's no-D2D peak
HOT_SLOT_TOL = 1e-9
#: an allocation at most this much times its demand's volume is treated as
#: zero when splitting demands
ALLOC_TOL = 1e-9


@dataclass(frozen=True)
class SplitResult:
    """Step II outcome: hot slots, demand partition, and kept allocations."""

    level: float
    hot_slots: Mapping[str, frozenset[int]]
    d2d_demand_ids: frozenset[int]
    nd_demand_ids: frozenset[int]
    residual_load: Mapping[tuple[str, int], float]  # per (BS, slot), ND demands only
    nd_schedule: Schedule  # full Step-I schedule (all demands, direct links and storage)


def nd_loads(topology: Topology, nd_schedule: Schedule) -> tuple[np.ndarray, ...]:
    """``slot_loads`` of a no-D2D schedule as floats, and per BS the largest of them."""
    bs, slot, load = slot_loads(nd_schedule, topology)
    load = load.astype(float)
    peaks = np.zeros(len(topology.bs_ids))
    np.maximum.at(peaks, bs, load)
    return bs, slot, load, peaks


def split_demands(
    topology: Topology,
    demands: DemandSet,
    nd_schedule: Schedule,
    level: float,
    *,
    loads: tuple[np.ndarray, ...] | None = None,
) -> SplitResult:
    """Partition demands into D2D-eligible and locally-served sets.

    ``nd_schedule`` must be an optimal per-cell no-D2D schedule; its per-slot
    loads define the hot slots: a slot is hot when its load exceeds
    ``level`` times the cell's peak by more than ``HOT_SLOT_TOL`` times the
    peak.  A demand is D2D-eligible iff it has an allocation above
    ``ALLOC_TOL`` times its volume in some hot slot of its cell.  Both
    thresholds are relative, so the split does not depend on the volume
    unit.  Each kept load adds its allocations in schedule order.
    ``loads`` are the schedule's ``nd_loads``, when one schedule is split
    at several levels.
    """
    if not 0.0 <= level <= 1.0:
        raise ModelError(f"split level must lie in [0, 1], got {level}")
    table = topology.arrays
    n_bs = len(topology.bs_ids)
    bs, slot, load, peaks = loads if loads is not None else nd_loads(topology, nd_schedule)
    hot = load > level * peaks[bs] + HOT_SLOT_TOL * peaks[bs]
    span = int(nd_schedule.slot.max(initial=0)) + 1
    hot_cells = np.zeros((n_bs, span), dtype=bool)
    hot_cells[bs[hot], slot[hot]] = True

    real = np.flatnonzero(nd_schedule.src != nd_schedule.dst)
    cell = table.billed[node_positions(nd_schedule.nodes, topology)[nd_schedule.src[real]]]
    t, x = nd_schedule.slot[real], nd_schedule.value[real].astype(float)
    dem = demands.arrays
    volume = dem.volume[_demand_positions(dem.ids, nd_schedule.demand[real])]
    used = (x > ALLOC_TOL * volume) & hot_cells[cell, t]
    eligible = np.unique(nd_schedule.demand[real[used]])
    kept = ~np.isin(nd_schedule.demand[real], eligible)
    keys, key_of = np.unique(cell[kept] * span + t[kept], return_inverse=True)
    residual = sum_by(key_of, x[kept], len(keys))
    ids = topology.bs_ids
    d2d_ids = frozenset(eligible.tolist())
    return SplitResult(
        level=level,
        hot_slots={
            b: frozenset(np.flatnonzero(hot_cells[i]).tolist()) for i, b in enumerate(ids)
        },
        d2d_demand_ids=d2d_ids,
        nd_demand_ids=frozenset(demands.arrays.ids.tolist()) - d2d_ids,
        residual_load={
            (ids[key // span], key % span): r
            for key, r in zip(keys.tolist(), residual.tolist())
        },
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


def _step3_index(
    full: TimeExpandedIndex, demands: DemandSet, split: SplitResult
) -> TimeExpandedIndex:
    """The full problem's LP restricted to the split's eligible demands over its kept load.

    Every kept (BS, slot) already has a peak row: each demand's direct
    uplink is a column in every slot of its lifetime.
    """
    problem = full.problem
    ids = demands.arrays.ids
    kept = np.isin(ids, list(split.nd_demand_ids))
    upper = problem.upper.copy()
    lp_flow = full.lp_flow
    upper[: lp_flow.size][np.isin(full.flow_demand[lp_flow], ids[kept])] = 0.0
    rhs = problem.rhs.copy()
    rhs[full.source_row[kept]] = 0.0
    for key, load in split.residual_load.items():
        if key not in full.peak_row:
            raise LpError(f"kept load at {key} has no peak row in the full flow LP")
        rhs[full.peak_row[key]] = -float(load) / full.unit
    name = f"heuristic-spectrum-level{split.level}"
    return replace(full, problem=problem.with_bounds(upper, rhs, name))


def _solve_level(
    topology: Topology, demands: DemandSet, split: SplitResult, full: FlowSolve | None
) -> HeuristicOutcome:
    """Step III of one split and the schedule it combines with the kept allocations.

    ``full`` is the full problem's solve; it is step III when every demand
    is eligible, and otherwise the warm start of step III's LP.  It may be
    None only when no demand is eligible.
    """
    if not split.d2d_demand_ids:
        flow = None
    elif not split.nd_demand_ids:
        flow = full
    else:
        flow = solve_flow_lp(_step3_index(full.index, demands, split), full.solution.basis)
    if flow is None:
        peaks = {b: 0.0 for b in topology.bs_ids}
        for (b, _t), load in split.residual_load.items():
            peaks[b] = max(peaks[b], load)
        total, flows = sum(peaks.values()), Schedule.empty(topology.arrays.nodes)
    else:
        peaks, total, flows = flow.per_bs_peak, flow.total, flow.schedule
    # a demand's storage follows from its own transmissions alone, so the
    # kept demands' entries of the filled no-D2D schedule are complete
    nd_schedule = split.nd_schedule
    nd_part = nd_schedule.select(np.isin(nd_schedule.demand, list(split.nd_demand_ids)))
    return HeuristicOutcome(split, peaks, total, Schedule.concatenate([nd_part, flows]), flow)


def heuristic_min_spectrum(
    topology: Topology, demands: DemandSet, level: float
) -> HeuristicOutcome:
    """Run the three steps; returns the reduced-problem spectrum and schedule.

    Step III starts from the full problem's optimum, so the full LP is
    solved first unless no demand is eligible.
    """
    _, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    split = split_demands(topology, demands, nd_schedule, level)
    full = solve_flow_lp(build_flow_lp(topology, demands)) if split.d2d_demand_ids else None
    return _solve_level(topology, demands, split, full)


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
    schedule: Schedule  # the combined schedule eta comes from, shared by reused levels

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

    The no-D2D baseline and the full problem, which the sweep needs for the
    full reduction, are solved once.  Levels with the same eligible set
    share one lexicographic solve, a level that makes every demand eligible
    reuses the full problem's, and every other step III starts from the full
    optimum's basis on its own HiGHS object, so a row depends only on its
    eligible set, not on the levels solved before it.
    """
    nd_result, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    f_nd = float(nd_result.total)
    if f_nd == 0:
        raise ModelError("spectrum reduction undefined: no-D2D total is zero")
    full = solve_flow_lp(build_flow_lp(topology, demands))
    loads = nd_loads(topology, nd_schedule)
    solved: dict[frozenset[int], tuple[float, float, int, Schedule]] = {}
    rows = []
    for level in levels:
        t0 = time.perf_counter()
        split = split_demands(topology, demands, nd_schedule, level, loads=loads)
        key = split.d2d_demand_ids
        reused = key in solved
        if not reused:
            outcome = _solve_level(topology, demands, split, full)
            eta = overhead_ratio(*compute_volumes(outcome.schedule, topology))
            solved[key] = (outcome.total_spectrum, eta, outcome.step3_variables, outcome.schedule)
        total, eta, n_variables, schedule = solved[key]
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
                schedule=schedule,
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
