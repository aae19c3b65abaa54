"""Three-step reduced-size alternative to the full D2D flow LP.

Step I solves each cell without D2D.  Step II marks the slots whose no-D2D
load exceeds a fraction ``level`` of the cell's peak as hot and splits the
demands: anything served in a hot slot becomes D2D-eligible, the rest keeps
its no-D2D allocation.  Step III solves the flow LP for the D2D-eligible
demands only, on top of the kept allocations.

level=0 reduces to the full problem, level=1 to the pure no-D2D solution;
in between the split trades LP size against spectrum.  Step III's LP is the
full problem's LP restricted to the eligible demands on top of the kept
allocations (``TimeExpandedIndex.restricted``).  Only bounds and right-hand
sides differ, so each level is solved on a new HiGHS object started from
the basis of the full optimum, and its size (``step3_variables``) is the
count of columns left free.

One routine takes a split through step III (a ``FlowSolve`` of that LP, the
full solve itself when every demand is eligible, or no LP when none is) to
the combined schedule.  ``heuristic_sweep`` runs it once per distinct
eligible set of a grid of levels, all from one full solve and one
``split_context`` of the no-D2D schedule, and returns a ``SweepLevel`` per
level; ``heuristic_min_spectrum`` is the sweep of one level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import BOUND_TOL
from .d2d_flow import FlowSolve, build_flow_lp, solve_flow_lp
from .model import (
    DemandSet,
    ModelError,
    Schedule,
    Topology,
    _demand_positions,
    billed_slots,
    compute_metrics,
    compute_volumes,
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


@dataclass(frozen=True, eq=False)
class SplitResult:
    """Step II outcome: demand partition and kept allocations.

    ``fixed`` and ``kept_loads`` are what step III's LP reads of the kept
    allocations (``TimeExpandedIndex.restricted``).
    """

    level: float
    d2d_demand_ids: frozenset[int]
    nd_demand_ids: frozenset[int]
    kept: Schedule  # the ND demands' entries of nd_schedule
    nd_schedule: Schedule  # full Step-I schedule (all demands, direct links and storage)
    # per demand, in the instance's order: it has entries in ``kept``
    fixed: np.ndarray
    # ``slot_loads`` of ``kept``: BS positions, slots and loads
    kept_loads: tuple[np.ndarray, np.ndarray, np.ndarray]


def nd_loads(topology: Topology, schedule: Schedule) -> tuple[np.ndarray, ...]:
    """``slot_loads`` of a schedule as floats, and per BS the largest of them."""
    bs, slot, load = slot_loads(schedule, topology)
    load = load.astype(float)
    peaks = np.zeros(len(topology.bs_ids))
    np.maximum.at(peaks, bs, load)
    return bs, slot, load, peaks


class SplitContext(NamedTuple):
    """A no-D2D schedule as ``split_demands`` reads it at every level (``split_context``).

    Rows are the schedule's billed (BS, slot) pairs (``billed_slots``):
    their BSs, slots and loads, and each row's BS peak.  Per real entry,
    ``real_row`` is its pair, ``real_value`` its spectrum and
    ``real_demand`` its demand's position in the instance, and
    ``candidate`` holds when it is above ``ALLOC_TOL`` times the demand's
    volume.  ``demand`` is every entry's demand position, storage included,
    and ``has_entry`` masks the demands with some entry.
    """

    ids: np.ndarray
    bs: np.ndarray
    slot: np.ndarray
    load: np.ndarray
    peak: np.ndarray
    real_row: np.ndarray
    real_value: np.ndarray
    real_demand: np.ndarray
    candidate: np.ndarray
    demand: np.ndarray
    has_entry: np.ndarray


def split_context(topology: Topology, demands: DemandSet, nd_schedule: Schedule) -> SplitContext:
    """What splitting ``nd_schedule`` needs at any level, computed once."""
    real, row, bs, slot = billed_slots(nd_schedule, topology)
    value = nd_schedule.value[real]
    load = sum_by(row, value, len(bs)).astype(float)
    peaks = np.zeros(len(topology.bs_ids))
    np.maximum.at(peaks, bs, load)
    dem = demands.arrays
    demand = _demand_positions(dem, nd_schedule.demand)
    if (demand < 0).any():
        unknown = int(nd_schedule.demand[np.argmin(demand)])
        raise ModelError(f"no-D2D schedule has an entry of unknown demand {unknown}")
    candidate = value.astype(float) > ALLOC_TOL * dem.volume[demand[real]]
    has_entry = np.bincount(demand, minlength=len(dem.ids)) > 0
    return SplitContext(
        dem.ids, bs, slot, load, peaks[bs], row, value, demand[real], candidate, demand, has_entry
    )


def split_demands(
    topology: Topology,
    demands: DemandSet,
    nd_schedule: Schedule,
    level: float,
    *,
    context: SplitContext | None = None,
) -> SplitResult:
    """Partition demands into D2D-eligible and locally-served sets.

    ``nd_schedule`` must be an optimal per-cell no-D2D schedule; its per-slot
    loads define the hot slots: a slot is hot when its load exceeds
    ``level`` times the cell's peak by more than ``HOT_SLOT_TOL`` times the
    peak.  A demand is D2D-eligible iff it has an allocation above
    ``ALLOC_TOL`` times its volume in some hot slot of its cell.  Both
    thresholds are relative, so the split does not depend on the volume
    unit.  The other demands keep their entries of ``nd_schedule``, storage
    included (``kept``).
    ``context`` is the schedule's ``split_context``, when one schedule is
    split at several levels.
    """
    if not 0.0 <= level <= 1.0:
        raise ModelError(f"split level must lie in [0, 1], got {level}")
    ctx = context if context is not None else split_context(topology, demands, nd_schedule)
    hot = ctx.load > level * ctx.peak + HOT_SLOT_TOL * ctx.peak
    eligible = np.zeros(ctx.ids.size, bool)
    eligible[ctx.real_demand[ctx.candidate & hot[ctx.real_row]]] = True
    d2d_ids = frozenset(ctx.ids[eligible].tolist())
    kept_real = ~eligible[ctx.real_demand]
    rows = ctx.real_row[kept_real]
    present = np.bincount(rows, minlength=ctx.bs.size) > 0
    kept_load = sum_by(rows, ctx.real_value[kept_real], ctx.bs.size)
    return SplitResult(
        level=level,
        d2d_demand_ids=d2d_ids,
        nd_demand_ids=frozenset(ctx.ids.tolist()) - d2d_ids,
        kept=nd_schedule.select(~eligible[ctx.demand]),
        nd_schedule=nd_schedule,
        fixed=ctx.has_entry & ~eligible,
        kept_loads=(ctx.bs[present], ctx.slot[present], kept_load[present]),
    )


def _solve_level(
    topology: Topology, demands: DemandSet, split: SplitResult, full: FlowSolve
) -> tuple[FlowSolve | None, Mapping[str, float], float, Schedule]:
    """Step III of one split: its flow solve, per-BS peaks, total and combined schedule.

    ``full`` is the full problem's solve; it is step III when every demand
    is eligible, and otherwise the warm start of step III's LP.  When no
    demand is eligible there is no flow to place and no LP: the flow solve
    is None, each peak is the largest kept load of its BS and nothing is
    relayed.
    """
    if not split.d2d_demand_ids:
        flow = None
        bs, _, load = split.kept_loads
        largest = np.zeros(len(topology.bs_ids))
        np.maximum.at(largest, bs, load)
        peaks = dict(zip(topology.bs_ids, largest.tolist()))
        total, flows = sum(peaks.values()), Schedule.empty(topology.arrays.nodes)
    else:
        flow = full
        if split.nd_demand_ids:
            name = f"heuristic-spectrum-level{split.level}"
            step3 = full.index.restricted(split.fixed, split.kept_loads, name)
            flow = solve_flow_lp(step3, full.solution.basis)
        peaks, total, flows = flow.per_bs_peak, flow.total, flow.schedule
    # a demand's storage follows from its own transmissions alone, so the
    # kept demands' entries of the filled no-D2D schedule are complete
    return flow, peaks, total, Schedule.concatenate([split.kept, flows])


@dataclass(frozen=True)
class SweepLevel:
    """One split level solved: the reduced problem's peaks, its ratios and the combined schedule.

    ``flow`` is the lexicographic solve of the reduced problem, or None when
    no demand is eligible (then nothing is relayed and no LP is solved).
    ``rho`` and ``eta`` are ``compute_metrics`` of the no-D2D total, this
    level's total and the combined schedule's volumes.  A level with the
    same eligible set as an earlier one of its sweep shares that level's
    numbers, schedule and flow, and its ``wall_seconds`` is lookup time.
    """

    split: SplitResult
    per_bs_peak: Mapping[str, float]
    total_spectrum: float
    rho: float
    eta: float
    wall_seconds: float
    reused: bool  # an earlier level had the same eligible set
    schedule: Schedule  # combined: kept ND allocations plus Step-III flows
    flow: FlowSolve | None

    @property
    def level(self) -> float:
        return self.split.level

    @property
    def n_d2d_demands(self) -> int:
        return len(self.split.d2d_demand_ids)

    @property
    def step3_variables(self) -> int:
        """Flow columns of the LP the level's numbers come from."""
        return self.flow.n_variables if self.flow is not None else 0

    @property
    def relayed_traffic(self) -> float:
        return self.flow.relayed_traffic if self.flow is not None else 0.0


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
    index = build_flow_lp(topology, demands)
    index.problem.share_layout()  # each step III is this LP under other bounds
    full = solve_flow_lp(index)
    context = split_context(topology, demands, nd_schedule)
    solved: dict[frozenset[int], SweepLevel] = {}
    rows = []
    for level in levels:
        t0 = time.perf_counter()
        split = split_demands(topology, demands, nd_schedule, level, context=context)
        row = solved.get(split.d2d_demand_ids)
        reused = row is not None
        if not reused:
            flow, peaks, total, schedule = _solve_level(topology, demands, split, full)
            metrics = compute_metrics(f_nd, total, *compute_volumes(schedule, topology))
            row = solved[split.d2d_demand_ids] = SweepLevel(
                split=split,
                per_bs_peak=peaks,
                total_spectrum=total,
                rho=float(metrics.spectrum_reduction),
                eta=float(metrics.overhead_ratio),
                wall_seconds=0.0,
                reused=False,
                schedule=schedule,
                flow=flow,
            )
        wall = time.perf_counter() - t0
        rows.append(replace(row, split=split, wall_seconds=wall, reused=reused))
    return HeuristicSweep(f_nd, (f_nd - full.total) / f_nd, tuple(rows))


def heuristic_min_spectrum(topology: Topology, demands: DemandSet, level: float) -> SweepLevel:
    """The reduced problem at one split level: the sweep of that level alone."""
    return heuristic_sweep(topology, demands, (level,)).levels[0]


def heuristic_min_overhead(
    topology: Topology,
    demands: DemandSet,
    outcome: SweepLevel,
) -> tuple[Schedule, float]:
    """The least D2D traffic of the reduced problem at its spectrum optimum.

    ``heuristic_min_spectrum`` already minimized it, so nothing is solved
    here; returns the combined schedule and the relayed traffic.
    """
    return outcome.schedule, outcome.relayed_traffic


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
) -> HeuristicBoundReport:
    """Check the sandwich on the spectrum reduction and the refined overhead bound.

    A value counts as a violation only when it passes its bound by more
    than ``BOUND_TOL``.
    """
    d_max = demands.max_delay
    volume_d2d_eligible = float(
        sum(j.volume for j in demands.demands if j.id in d2d_demand_ids)
    )
    total_volume = float(demands.total_volume)
    scaled = (d_max - 1) * volume_d2d_eligible
    eta_bound = scaled / (scaled + total_volume) if scaled + total_volume > 0 else 0.0
    lower = (1.0 - level) * rho
    violations = []
    if rho_heuristic < lower - BOUND_TOL:
        violations.append(
            f"spectrum reduction {rho_heuristic} below sandwich lower bound {lower}"
        )
    if rho_heuristic > rho + BOUND_TOL:
        violations.append(f"spectrum reduction {rho_heuristic} above full-LP value {rho}")
    if eta_heuristic > eta_bound + BOUND_TOL:
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
    "SplitContext",
    "split_context",
    "split_demands",
    "SweepLevel",
    "HeuristicSweep",
    "heuristic_sweep",
    "heuristic_min_spectrum",
    "heuristic_min_overhead",
    "HeuristicBoundReport",
    "check_heuristic_bounds",
]
