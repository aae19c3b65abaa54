"""Minimum per-cell spectrum without D2D.

Three interchangeable routes compute the same quantity and cross-check each
other: the combinatorial interval-intensity search (the adapted YDS
algorithm), binary search over an EDF feasibility test, and the direct LP.
The first is exact and fast; the LP is the independent formulation used by
the acceptance suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lp
from .model import (
    Demand,
    DemandSet,
    ModelError,
    Number,
    Schedule,
    SpectrumResult,
    Topology,
    fill_storage,
    per_slot_loads,
)


@dataclass(frozen=True)
class CellInstance:
    """One cell's demands together with their direct uplink rates."""

    bs: str
    horizon: int
    demands: tuple[Demand, ...]
    direct_rate: dict[int, Number]  # demand id -> rate of (user, bs) link

    @staticmethod
    def from_instance(topology: Topology, demands: DemandSet, bs: str) -> "CellInstance":
        cell_demands = tuple(
            j for j in demands.demands if topology.home_bs[j.user] == bs
        )
        rates: dict[int, Number] = {}
        for j in cell_demands:
            if (j.user, bs) not in topology.rate_map:
                raise ModelError(
                    f"user {j.user!r} of cell {bs!r} has no direct link to its BS"
                )
            rates[j.id] = topology.rate_map[(j.user, bs)]
        return CellInstance(bs, demands.horizon, cell_demands, rates)

    def work(self, j: Demand) -> float:
        """Service requirement of a demand in Hz-slots (volume over rate)."""
        return float(j.volume) / float(self.direct_rate[j.id])


def intensity(cell: CellInstance, start: int, end: int) -> float:
    """Average service requirement of demands whose lifetime fits in [start, end]."""
    if not (1 <= start <= end <= cell.horizon):
        raise ModelError(f"invalid interval [{start}, {end}] for horizon {cell.horizon}")
    total = sum(cell.work(j) for j in cell.demands if start <= j.start and j.end <= end)
    return total / (end - start + 1)


def max_intensity(jobs: Sequence[tuple[int, int, float]]) -> tuple[float, tuple[int, int]]:
    """Maximum interval intensity over candidate intervals [s_j, e_k].

    ``jobs`` are (start, end, work) triples.  An optimal interval starts at
    some demand's start and ends at some demand's end, so only those O(n^2)
    pairs are scanned; ties resolve to the smallest start, then smallest end.
    Returns (0.0, (1, 1)) for an empty job list.
    """
    if not jobs:
        return 0.0, (1, 1)
    starts = sorted({s for s, _, _ in jobs})
    ends = sorted({e for _, e, _ in jobs})
    s_index = {s: i for i, s in enumerate(starts)}
    e_index = {e: i for i, e in enumerate(ends)}
    grid = np.zeros((len(starts), len(ends)))
    for s, e, w in jobs:
        grid[s_index[s], e_index[e]] += w
    # contained[a, b] = total work of jobs with start >= starts[a], end <= ends[b]
    contained = np.cumsum(grid[::-1], axis=0)[::-1]
    contained = np.cumsum(contained, axis=1)
    lengths = np.array(ends)[None, :] - np.array(starts)[:, None] + 1
    ratios = np.where(lengths >= 1, contained / np.maximum(lengths, 1), -np.inf)
    flat = int(np.argmax(ratios))  # row-major: smallest start, then smallest end
    a, b = divmod(flat, len(ends))
    return float(ratios[a, b]), (starts[a], ends[b])


def yds_min_spectrum(cell: CellInstance) -> tuple[float, tuple[int, int]]:
    """Minimum spectrum of a cell and one critical interval attaining it.

    The returned value is recomputed through intensity() on the critical
    interval so both agree bit for bit.
    """
    jobs = [(j.start, j.end, cell.work(j)) for j in cell.demands]
    if not jobs:
        return 0.0, (1, 1)
    _, (z, z2) = max_intensity(jobs)
    return intensity(cell, z, z2), (z, z2)


def _with_cell_storage(cell: CellInstance, direct: dict) -> Schedule:
    """Add the virtual self-link entries a direct-only cell schedule implies.

    Unsent volume waits in the user's self-link; delivered volume accumulates
    in the BS's self-link until the deadline.
    """
    out = dict(direct)
    for j in cell.demands:
        rate = float(cell.direct_rate[j.id])
        held = float(j.volume)
        arrived = 0.0
        for t in range(j.start, j.end + 1):
            sent_bits = direct.get((j.id, j.user, cell.bs, t), 0.0) * rate
            if arrived > 0.0:
                out[(j.id, cell.bs, cell.bs, t)] = arrived
            held = max(held - sent_bits, 0.0)
            if held > 0.0 and t < j.end:
                out[(j.id, j.user, j.user, t)] = held
            arrived += sent_bits
    return Schedule(out)


def edf_feasible(
    cell: CellInstance, capacity: float, completion_rel_tol: float = 1e-9
) -> tuple[bool, Schedule | None]:
    """Fluid earliest-deadline-first feasibility test at a fixed capacity.

    Each slot offers ``capacity`` Hz which may be split across the released,
    unfinished demands in ascending (deadline, id) order.  A demand finishes
    once its residual work drops below a relative rounding tolerance.  On
    success the witness schedule, storage entries included, is returned.

    Released demands wait in a heap keyed (deadline, id); a demand leaves it
    once finished, so a slot only touches the demands it serves, and the
    deadline check looks only at the demands due in that slot.
    """
    if capacity < 0:
        raise ModelError("capacity must be nonnegative")
    remaining = {j.id: cell.work(j) for j in cell.demands}
    tol = {j.id: completion_rel_tol * max(cell.work(j), 1e-300) for j in cell.demands}
    released: dict[int, list[Demand]] = {}
    due: dict[int, list[Demand]] = {}
    for j in cell.demands:
        released.setdefault(j.start, []).append(j)
        due.setdefault(j.end, []).append(j)
    alloc: dict[tuple[int, str, str, int], float] = {}
    slots = sorted({t for j in cell.demands for t in range(j.start, j.end + 1)})
    waiting: list[tuple[int, int, Demand]] = []
    for t in slots:
        for j in released.get(t, ()):
            heapq.heappush(waiting, (j.end, j.id, j))
        free = capacity
        while waiting and free > 0:
            j = waiting[0][2]
            if remaining[j.id] > tol[j.id]:
                grant = min(free, remaining[j.id])
                alloc[(j.id, j.user, cell.bs, t)] = grant
                remaining[j.id] -= grant
                free -= grant
            if remaining[j.id] <= tol[j.id]:
                heapq.heappop(waiting)
        for j in due.get(t, ()):
            if remaining[j.id] > tol[j.id]:
                return False, None
    return True, _with_cell_storage(cell, alloc)


def binary_search_min_spectrum(
    cell: CellInstance, rel_width: float = 1e-9
) -> float:
    """Minimum feasible capacity by bisection over the EDF test."""
    if not cell.demands:
        return 0.0
    hi = sum(cell.work(j) for j in cell.demands)
    lo = 0.0
    target = rel_width * hi
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        feasible, _ = edf_feasible(cell, mid)
        if feasible:
            hi = mid
        else:
            lo = mid
    return hi


def build_min_spectrum_nd_lp(cell: CellInstance) -> tuple[lp.LpProblem, dict]:
    """LP with per-demand slot allocations, per-slot totals, and the peak."""
    problem = lp.LpProblem(f"min-spectrum-nd-{cell.bs}")
    x_vars: dict[tuple[int, int], int] = {}
    for j in cell.demands:
        for t in range(j.start, j.end + 1):
            x_vars[(j.id, t)] = problem.add_variable(f"x_j{j.id}_t{t}")
    active_slots = sorted({t for j in cell.demands for t in range(j.start, j.end + 1)})
    load_vars = {t: problem.add_variable(f"load_t{t}") for t in active_slots}
    peak = problem.add_variable("peak")
    for j in cell.demands:
        rate = float(cell.direct_rate[j.id])
        problem.add_constraint(
            {x_vars[(j.id, t)]: rate for t in range(j.start, j.end + 1)},
            "=",
            float(j.volume),
            f"volume_j{j.id}",
        )
    for t in active_slots:
        coeffs = {x_vars[(j.id, t)]: 1.0 for j in cell.demands if j.start <= t <= j.end}
        coeffs[load_vars[t]] = -1.0
        problem.add_constraint(coeffs, "=", 0.0, f"load_t{t}")
        problem.add_constraint({load_vars[t]: 1.0, peak: -1.0}, "<=", 0.0, f"peak_t{t}")
    problem.set_objective({peak: 1.0})
    index = {"x": x_vars, "load": load_vars, "peak": peak}
    return problem, index


def min_spectrum_nd_lp(cell: CellInstance) -> tuple[float, Schedule]:
    """Solve the per-cell LP; returns the optimum and the direct-link schedule."""
    if not cell.demands:
        return 0.0, Schedule({})
    problem, index = build_min_spectrum_nd_lp(cell)
    solution = lp.solve(problem)
    if not solution.optimal:
        raise lp.LpError(f"cell {cell.bs}: LP terminated with status {solution.status}")
    users = {j.id: j.user for j in cell.demands}
    alloc = {
        (jid, users[jid], cell.bs, t): solution.value(col)
        for (jid, t), col in index["x"].items()
        if solution.value(col) > 0.0
    }
    return float(solution.objective), _with_cell_storage(cell, alloc)


def min_spectrum_no_d2d(
    topology: Topology,
    demands: DemandSet,
    method: str = "yds",
) -> tuple[SpectrumResult, Schedule, dict[str, tuple[int, int]]]:
    """Per-cell minimum spectrum, summed.

    method="yds" pairs the interval search with an EDF witness schedule;
    method="lp" takes both the optimum and the schedule from the LP.
    Returns (result, schedule-with-storage, critical interval per cell).
    """
    if method not in ("yds", "lp"):
        raise ModelError(f"unknown method {method!r}")
    demands.check_users(topology)
    per_bs: dict[str, Number] = {}
    intervals: dict[str, tuple[int, int]] = {}
    combined: dict[tuple[int, str, str, int], Number] = {}
    for bs in topology.bs_ids:
        cell = CellInstance.from_instance(topology, demands, bs)
        if method == "yds":
            f_b, interval = yds_min_spectrum(cell)
            feasible, schedule = edf_feasible(cell, f_b)
            if not feasible:
                raise ModelError(
                    f"cell {bs}: EDF infeasible at the interval-search optimum {f_b}"
                )
        else:
            f_b, schedule = min_spectrum_nd_lp(cell)
            _, interval = yds_min_spectrum(cell)
        per_bs[bs] = f_b
        intervals[bs] = interval
        combined.update(schedule.allocations)
    schedule = fill_storage(Schedule(combined), topology, demands)
    loads = per_slot_loads(schedule, topology)
    result = SpectrumResult(
        per_bs_peak=per_bs,
        total=sum(per_bs.values()),
        v_d2d=0.0,
        v_bs=demands.total_volume,
        per_slot_load=loads,
    )
    return result, schedule, intervals
