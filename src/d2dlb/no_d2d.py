"""Minimum per-cell spectrum without D2D.

Each cell's optimum is its largest interval intensity, found by the adapted
YDS interval search (Yao, Demers and Shenker, FOCS 1995).  The fluid EDF
schedule at that capacity is the witness that certifies it: the intensity
bounds every schedule's peak from below, and a witness that delivers every
demand with no slot above the intensity attains it.  The per-cell LP and
bisection over the EDF test live in the tests, as oracles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    Demand,
    DemandSet,
    FlowResidualError,
    ModelError,
    Number,
    Schedule,
    SpectrumResult,
    Topology,
    fill_storage,
)

# per_slot_loads is not called here, but benchmark/spans.py traces the model
# layer under this name (tests/test_benchmark_targets.py fails if it goes)
from .model import per_slot_loads  # noqa: F401


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
        return CellInstance.of_demands(topology, demands.horizon, bs, cell_demands)

    @staticmethod
    def every_cell(topology: Topology, demands: DemandSet) -> list["CellInstance"]:
        """``from_instance`` of every BS, in ``bs_ids`` order, the demands grouped in one pass."""
        by_bs: dict[str, list[Demand]] = {bs: [] for bs in topology.bs_ids}
        for j in demands.demands:
            by_bs[topology.home_bs[j.user]].append(j)
        return [
            CellInstance.of_demands(topology, demands.horizon, bs, tuple(cell_demands))
            for bs, cell_demands in by_bs.items()
        ]

    @staticmethod
    def of_demands(
        topology: Topology, horizon: int, bs: str, cell_demands: tuple[Demand, ...]
    ) -> "CellInstance":
        """The cell of ``bs`` serving ``cell_demands``, its users' demands in instance order."""
        rates: dict[int, Number] = {}
        for j in cell_demands:
            if (j.user, bs) not in topology.rate_map:
                raise ModelError(
                    f"user {j.user!r} of cell {bs!r} has no direct link to its BS"
                )
            rates[j.id] = topology.rate_map[(j.user, bs)]
        return CellInstance(bs, horizon, cell_demands, rates)

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


#: an EDF demand is finished once its residual work is below this share of its work
EDF_COMPLETION_REL_TOL = 1e-9


def edf_feasible(cell: CellInstance, capacity: float) -> tuple[bool, Schedule | None]:
    """Fluid earliest-deadline-first feasibility test at a fixed capacity.

    Each slot offers ``capacity`` Hz which may be split across the released,
    unfinished demands in ascending (deadline, id) order.  A demand finishes
    once its residual work drops below ``EDF_COMPLETION_REL_TOL`` of its
    work.  On success the witness schedule is returned: its direct-link
    allocations only, the storage they imply comes from ``fill_storage``.

    Released demands wait in a heap keyed (deadline, id); a demand leaves it
    once finished, so a slot only touches the demands it serves, and the
    deadline check looks only at the demands due in that slot.
    """
    if capacity < 0:
        raise ModelError("capacity must be nonnegative")
    remaining = {j.id: cell.work(j) for j in cell.demands}
    tol = {j.id: EDF_COMPLETION_REL_TOL * max(cell.work(j), 1e-300) for j in cell.demands}
    released: dict[int, list[Demand]] = {}
    due: dict[int, list[Demand]] = {}
    for j in cell.demands:
        released.setdefault(j.start, []).append(j)
        due.setdefault(j.end, []).append(j)
    nodes = tuple(dict.fromkeys(j.user for j in cell.demands)) + (cell.bs,)
    sender = {u: i for i, u in enumerate(nodes)}
    granted: list[tuple[int, int, int, float]] = []  # (demand, sender, slot, grant)
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
                granted.append((j.id, sender[j.user], t, grant))
                remaining[j.id] -= grant
                free -= grant
            if remaining[j.id] <= tol[j.id]:
                heapq.heappop(waiting)
        for j in due.get(t, ()):
            if remaining[j.id] > tol[j.id]:
                return False, None
    demand, src, slot, value = zip(*granted) if granted else ((),) * 4
    return True, Schedule(
        nodes,
        np.array(demand, dtype=np.int64),
        np.array(src, dtype=np.int64),
        np.full(len(granted), len(nodes) - 1, dtype=np.int64),
        np.array(slot, dtype=np.int64),
        np.array(value, dtype=float),
    )


def min_spectrum_no_d2d(
    topology: Topology, demands: DemandSet
) -> tuple[SpectrumResult, Schedule, dict[str, tuple[int, int]]]:
    """Per-cell minimum spectrum, summed, with the EDF witness schedule.

    Returns (result, schedule-with-storage, critical interval per cell); the
    per-slot loads, where wanted, come from the schedule (``per_slot_loads``).
    An EDF witness that fails at the interval-search optimum is a numerical
    failure and raises ``FlowResidualError``.
    """
    demands.check_users(topology)
    per_bs: dict[str, Number] = {}
    intervals: dict[str, tuple[int, int]] = {}
    witnesses: list[Schedule] = []
    for cell in CellInstance.every_cell(topology, demands):
        bs = cell.bs
        f_b, interval = yds_min_spectrum(cell)
        feasible, schedule = edf_feasible(cell, f_b)
        if not feasible:
            raise FlowResidualError(
                f"cell {bs}: EDF infeasible at the interval-search optimum {f_b}"
            )
        per_bs[bs] = f_b
        intervals[bs] = interval
        witnesses.append(schedule)
    schedule = fill_storage(Schedule.concatenate(witnesses), topology, demands)
    return SpectrumResult(per_bs, sum(per_bs.values())), schedule, intervals
