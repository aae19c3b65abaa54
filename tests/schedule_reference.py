"""The loop versions of the schedule routines: the tests' oracles.

The library computes storage, validation, volumes, loads and the heuristic's
demand split with array code over integer (demand, node, slot) keys.  These
are the same routines written as loops over the ``(demand, src, dst, slot)``
allocation map, one entry at a time, so tests can hold the array versions to
them: the float sums here add their terms in the order the array versions
must keep.
"""

from __future__ import annotations

import csv
from typing import Iterable

from d2dlb.heuristic import ALLOC_TOL, HOT_SLOT_TOL, SplitResult
from d2dlb.model import (
    FLOW_ABS_TOL,
    VOLUME_REL_TOL,
    DemandSet,
    FlowResidualError,
    ModelError,
    Number,
    Schedule,
    Topology,
    ValidationReport,
    Violation,
)


def fill_storage(schedule: Schedule, topology: Topology, demands: DemandSet) -> Schedule:
    """Complete real-link transmissions with the storage they imply at users; a BS is a sink."""
    by_demand: dict[int, dict[tuple[str, str, int], Number]] = {}
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue  # recomputed below
        by_demand.setdefault(j, {})[(u, v, t)] = x
    out: dict[tuple[int, str, str, int], Number] = {}
    user_set = set(topology.user_ids)
    for j in demands.demands:
        entries = by_demand.get(j.id, {})
        for (u, v, t), x in entries.items():
            out[(j.id, u, v, t)] = x
        # bits sent/received per node per slot
        sent: dict[tuple[str, int], Number] = {}
        received: dict[tuple[str, int], Number] = {}
        for (u, v, t), x in entries.items():
            bits = x * topology.rate(u, v)
            sent[(u, t)] = sent.get((u, t), 0) + bits
            received[(v, t)] = received.get((v, t), 0) + bits
        nodes = {u for (u, _, _) in entries} | {v for (_, v, _) in entries} | {j.user}
        nodes &= user_set
        for node in nodes:
            if node != j.user and sent.get((node, j.start), 0) > 0:
                raise FlowResidualError(
                    f"demand {j.id}: node {node!r} transmits at start slot {j.start}"
                    " but only the source holds the data then"
                )
        for node in nodes:
            store_prev = j.volume - sent.get((node, j.start), 0) if node == j.user else 0
            if store_prev < -FLOW_ABS_TOL * max(1.0, float(j.volume)):
                raise FlowResidualError(
                    f"demand {j.id}: source sends more than its volume at start"
                )
            store_prev = max(store_prev, 0)
            if store_prev > 0:
                out[(j.id, node, node, j.start)] = store_prev
            for t in range(j.start + 1, j.end + 1):
                store_t = store_prev + received.get((node, t - 1), 0) - sent.get((node, t), 0)
                if store_t < -FLOW_ABS_TOL * max(1.0, float(j.volume)):
                    raise FlowResidualError(
                        f"demand {j.id}: node {node!r} slot {t}: sends more than it holds"
                    )
                store_t = max(store_t, 0)
                if store_t > 0:
                    out[(j.id, node, node, t)] = store_t
                store_prev = store_t
            # users must not hold volume at the deadline
            if store_prev > FLOW_ABS_TOL * max(1.0, float(j.volume)):
                raise FlowResidualError(
                    f"demand {j.id}: user {node!r} still holds {store_prev} at deadline"
                )
    return Schedule.from_allocations(out)


def validate_schedule(
    schedule: Schedule,
    topology: Topology,
    demands: DemandSet,
    flow_abs_tol: float = FLOW_ABS_TOL,
    volume_rel_tol: float = VOLUME_REL_TOL,
) -> ValidationReport:
    """Check a schedule against the traffic-scheduling-policy constraints."""
    violations: list[Violation] = []
    demand_map = {j.id: j for j in demands.demands}
    by_demand: dict[int, list[tuple[str, str, int, Number]]] = {}
    for (jid, u, v, t), x in schedule.allocations.items():
        if jid not in demand_map:
            violations.append(Violation(jid, "unknown_demand", None, t, float(x)))
            continue
        j = demand_map[jid]
        if not topology.has_link(u, v):
            violations.append(Violation(jid, "unknown_link", f"{u}->{v}", t, float(x)))
            continue
        if x < -flow_abs_tol:
            violations.append(Violation(jid, "negative", f"{u}->{v}", t, float(x)))
        if not (j.start <= t <= j.end):
            violations.append(Violation(jid, "lifetime", f"{u}->{v}", t, float(x)))
            continue
        by_demand.setdefault(jid, []).append((u, v, t, x))

    bs_set = set(topology.bs_ids)
    for j in demands.demands:
        jid = j.id
        entries = by_demand.get(jid, [])
        vol_tol = max(flow_abs_tol, volume_rel_tol * float(j.volume))
        flow_tol = flow_abs_tol * max(1.0, float(j.volume))
        inflow: dict[tuple[str, int], Number] = {}
        outflow: dict[tuple[str, int], Number] = {}
        for u, v, t, x in entries:
            bits = x * topology.rate(u, v)
            outflow[(u, t)] = outflow.get((u, t), 0) + bits
            inflow[(v, t)] = inflow.get((v, t), 0) + bits
        # source balance at the start slot
        res = float(outflow.get((j.user, j.start), 0) - j.volume)
        if abs(res) > vol_tol:
            violations.append(Violation(jid, "source_balance", j.user, j.start, res))
        # nothing emanates from other nodes at the start slot
        for (u, t), bits in outflow.items():
            if t == j.start and u != j.user and bits > flow_tol:
                violations.append(Violation(jid, "source_balance", u, t, float(bits)))
        # arrival: what enters base stations within the lifetime, entry by entry
        arrived = sum(x * topology.rate(u, v) for u, v, _, x in entries if v in bs_set)
        res = float(arrived - j.volume)
        if abs(res) > vol_tol:
            violations.append(Violation(jid, "arrival", None, j.end, res))
        # per-user conservation on the time-expanded graph; a BS is a sink
        nodes = ({u for (u, _) in inflow} | {u for (u, _) in outflow}) - bs_set
        for node in sorted(nodes):
            for t in range(j.start, j.end):
                res = float(inflow.get((node, t), 0) - outflow.get((node, t + 1), 0))
                if abs(res) > flow_tol:
                    violations.append(Violation(jid, "conservation", node, t, res))
    return ValidationReport(tuple(violations))


def to_csv(
    schedule: Schedule, path: str, topology: Topology, header_lines: Iterable[str] = ()
) -> None:
    """One ``csv.writer`` row per entry, sorted by (demand, src, dst, slot)."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["demand", "src", "dst", "slot", "spectrum", "bits"])
        for (j, u, v, t), x in sorted(schedule.allocations.items()):
            writer.writerow([j, u, v, t, repr(float(x)), repr(float(x * topology.rate(u, v)))])


def compute_volumes(schedule: Schedule, topology: Topology) -> tuple[Number, Number]:
    """Total D2D traffic and total user-to-BS traffic moved by a schedule (bits)."""
    user_set = set(topology.user_ids)
    bs_set = set(topology.bs_ids)
    v_d2d: Number = 0
    v_bs: Number = 0
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue
        bits = x * topology.rate(u, v)
        if u in user_set and v in user_set:
            v_d2d += bits
        elif v in bs_set:
            v_bs += bits
    return v_d2d, v_bs


def per_slot_loads(schedule: Schedule, topology: Topology) -> dict[tuple[str, int], Number]:
    """Spectrum billed to each (BS, slot) under the receiver-takeover rule."""
    user_set = set(topology.user_ids)
    loads: dict[tuple[str, int], Number] = {}
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue
        bs = topology.home_bs[v] if v in user_set else v
        loads[(bs, t)] = loads.get((bs, t), 0) + x
    return loads


def split_demands(
    topology: Topology, demands: DemandSet, nd_schedule: Schedule, level: float
) -> SplitResult:
    """Partition demands into D2D-eligible and locally-served sets."""
    if not 0.0 <= level <= 1.0:
        raise ModelError(f"split level must lie in [0, 1], got {level}")
    loads = per_slot_loads(nd_schedule, topology)
    peaks: dict[str, float] = {b: 0.0 for b in topology.bs_ids}
    for (b, _t), load in loads.items():
        peaks[b] = max(peaks[b], float(load))
    hot: dict[str, set[int]] = {b: set() for b in topology.bs_ids}
    for (b, t), load in loads.items():
        if float(load) > level * peaks[b] + HOT_SLOT_TOL * peaks[b]:
            hot[b].add(t)

    volume = {j.id: float(j.volume) for j in demands.demands}
    d2d_ids: set[int] = set()
    for (jid, u, v, t), x in nd_schedule.allocations.items():
        if u == v or float(x) <= ALLOC_TOL * volume[jid]:
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
