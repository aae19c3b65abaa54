"""Closed-form bounds on the D2D benefit and the worst-case constructions.

Bounds are plain formulas over the topology's discrepancy parameters, the
BS-level D2D graph's in-degrees, and the maximum demand delay.  The ring and
complete-graph builders return both the instance and an explicit relay
schedule achieving the advertised spectrum; all construction arithmetic is
exact (Fractions), so the achieved reduction and overhead equal their closed
forms identically rather than within a float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import (
    DemandSet,
    ModelError,
    Number,
    Schedule,
    Topology,
    build_d2d_comm_graph,
    compute_metrics,
    compute_volumes,
    discrepancy_params,
    fill_storage,
    per_slot_loads,
)
from .no_d2d import max_intensity, min_spectrum_no_d2d


@dataclass(frozen=True)
class BoundReport:
    name: str
    bound: float
    inputs: Mapping[str, float]


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def relaxed_spectrum_floor(topology: Topology, demands: DemandSet) -> float:
    """Minimum spectrum when relaying is free: one grand BS at the best rate.

    All demands are pooled on a fictitious single cell whose uplink rate is
    the best user-to-home-BS rate in the network; the interval-intensity
    search then gives a lower bound on the D2D optimum.
    """
    best = 0.0
    for u in topology.user_ids:
        b = topology.home_bs[u]
        if (u, b) not in topology.rate_map:
            raise ModelError(f"user {u!r} has no direct link to its home BS")
        best = max(best, float(topology.rate_map[(u, b)]))
    if not demands.demands:
        return 0.0
    jobs = [(j.start, j.end, float(j.volume) / best) for j in demands.demands]
    floor, _ = max_intensity(jobs)
    return floor


def simple_rho_upper_bound(
    topology: Topology, demands: DemandSet, f_nd: float | None = None
) -> tuple[float, float]:
    """Free-relaying bound: returns (spectrum floor, bound on the reduction)."""
    if f_nd is None:
        result, _, _ = min_spectrum_no_d2d(topology, demands)
        f_nd = float(result.total)
    floor = relaxed_spectrum_floor(topology, demands)
    if f_nd == 0:
        raise ModelError("reduction bound undefined: no-D2D total is zero")
    return floor, (f_nd - floor) / f_nd


def general_rho_upper_bound(topology: Topology) -> BoundReport:
    """Reduction bound from rate discrepancies and D2D in-degrees."""
    params = discrepancy_params(topology)
    comm = build_d2d_comm_graph(topology)
    r = max(params.intra_max, 1.0)
    load = r + params.inter_max * comm.max_in_degree
    return BoundReport(
        name="general_rho_upper_bound",
        bound=(load - 1.0) / load,
        inputs={
            "intra_max": params.intra_max,
            "inter_max": params.inter_max,
            "max_in_degree": comm.max_in_degree,
        },
    )


def intra_cell_bound(topology: Topology) -> BoundReport:
    """Reduction bound when only intra-cell D2D is available."""
    params = discrepancy_params(topology)
    r = max(params.intra_max, 1.0)
    return BoundReport(
        name="intra_cell_bound",
        bound=(r - 1.0) / r,
        inputs={"intra_max": params.intra_max},
    )


def inter_cell_bound(topology: Topology) -> BoundReport:
    """Reduction bound when only inter-cell D2D is available."""
    params = discrepancy_params(topology)
    comm = build_d2d_comm_graph(topology)
    load = params.inter_max * comm.max_in_degree
    return BoundReport(
        name="inter_cell_bound",
        bound=load / (1.0 + load),
        inputs={"inter_max": params.inter_max, "max_in_degree": comm.max_in_degree},
    )


def overhead_upper_bound(max_delay: int) -> float:
    """Every bit relays at most max_delay - 1 times before reaching a BS."""
    if max_delay < 1:
        raise ModelError("maximum delay must be >= 1")
    return (max_delay - 1) / max_delay


def frequency_reuse_adjusted(rho: float, reuse: float, reuse_d2d: float) -> float:
    """Reduction estimate when D2D degrades the frequency-reuse factor."""
    if not 0 < reuse_d2d <= reuse <= 1:
        raise ModelError(
            f"need 0 < reuse_d2d <= reuse <= 1, got reuse={reuse}, reuse_d2d={reuse_d2d}"
        )
    if not 0 <= rho < 1:
        raise ModelError(f"reduction must lie in [0, 1), got {rho}")
    return 1.0 - (reuse / reuse_d2d) * (1.0 - rho)


# ---------------------------------------------------------------------------
# Exact constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructedInstance:
    topology: Topology
    demands: DemandSet
    schedule: Schedule  # explicit relay schedule, exact rational values
    per_bs_spectrum: Fraction  # peak of every BS under the schedule
    spectrum_reduction: Fraction
    overhead_ratio: Fraction


def _singleton_ids(n: int) -> tuple[list[str], list[str]]:
    bs = [f"b{i}" for i in range(1, n + 1)]
    users = [f"u{i}" for i in range(1, n + 1)]
    return bs, users


def build_ring_instance(delay: int, volume: Number = 1) -> ConstructedInstance:
    """Ring of 2*delay - 1 cells, one user each, with the two-sided relay chains.

    Demand lifetimes are disjoint (user i is active in [delay*(i-1)+1,
    delay*i]), every link has rate 1, and the relay schedule gives every BS
    the same peak volume/(3*delay - 2).
    """
    if delay < 2:
        raise ModelError("ring construction needs delay >= 2")
    n = 2 * delay - 1
    vol = Fraction(volume)
    bs, users = _singleton_ids(n)
    links = [(users[i], bs[i], 1) for i in range(n)]
    for i in range(n):
        for k in (i - 1, i + 1):
            links.append((users[i], users[k % n], 1))
    topology = Topology(
        bs_ids=tuple(bs),
        user_ids=tuple(users),
        home_bs={users[i]: bs[i] for i in range(n)},
        links=tuple(dict.fromkeys(links)),
    )
    demands = DemandSet.build(
        n * delay,
        [(users[i], delay * i + 1, delay * (i + 1), vol) for i in range(n)],
    )
    peak = vol / (3 * delay - 2)

    transmissions: dict[tuple[int, str, str, int], Fraction] = {}

    def add(jid: int, src: str, dst: str, slot: int, amount: Fraction) -> None:
        transmissions[(jid, src, dst, slot)] = transmissions.get((jid, src, dst, slot), Fraction(0)) + amount

    for i in range(n):
        offset = delay * i
        u = lambda k: users[(i + k) % n]  # k hops counterclockwise from the source
        w = lambda k: users[(i - k) % n]  # k hops clockwise
        for t in range(1, delay + 1):
            add(i, users[i], bs[i], offset + t, peak)
        for side in (u, w):
            for leg in range(1, delay):
                # leg-th user of the chain forwards during slots [leg, delay-1]
                for t in range(leg, delay):
                    add(i, side(leg - 1), side(leg), offset + t, peak)
                add(i, side(leg), topology.home_bs[side(leg)], offset + delay, peak)
    schedule = fill_storage(Schedule(transmissions), topology, demands)

    rho = Fraction(2 * (delay - 1), 3 * delay - 2)
    eta = Fraction(delay * (delay - 1), delay * delay + 2 * delay - 2)
    return ConstructedInstance(topology, demands, schedule, peak, rho, eta)


def build_complete_instance(n_cells: int, delay: int, volume: Number = 1) -> ConstructedInstance:
    """Complete D2D graph over n_cells single-user cells with the fan-out relay.

    Every helper receives half the lifetime and forwards the other half; odd
    delays split the middle slot at half rate.  Per-BS peak is
    2*volume / ((n_cells + 1) * delay).
    """
    if n_cells < 2 or delay < 2:
        raise ModelError("complete construction needs n_cells >= 2 and delay >= 2")
    vol = Fraction(volume)
    bs, users = _singleton_ids(n_cells)
    links = [(users[i], bs[i], 1) for i in range(n_cells)]
    for i in range(n_cells):
        for k in range(n_cells):
            if i != k:
                links.append((users[i], users[k], 1))
    topology = Topology(
        bs_ids=tuple(bs),
        user_ids=tuple(users),
        home_bs={users[i]: bs[i] for i in range(n_cells)},
        links=tuple(links),
    )
    demands = DemandSet.build(
        n_cells * delay,
        [(users[i], delay * i + 1, delay * (i + 1), vol) for i in range(n_cells)],
    )
    peak = 2 * vol / ((n_cells + 1) * delay)

    transmissions: dict[tuple[int, str, str, int], Fraction] = {}

    def add(jid: int, src: str, dst: str, slot: int, amount: Fraction) -> None:
        transmissions[(jid, src, dst, slot)] = transmissions.get((jid, src, dst, slot), Fraction(0)) + amount

    half = delay // 2
    for i in range(n_cells):
        offset = delay * i
        for t in range(1, delay + 1):
            add(i, users[i], bs[i], offset + t, peak)
        for k in range(n_cells):
            if k == i:
                continue
            helper = users[k]
            if delay % 2 == 0:
                for t in range(1, half + 1):
                    add(i, users[i], helper, offset + t, peak)
                for t in range(half + 1, delay + 1):
                    add(i, helper, bs[k], offset + t, peak)
            else:
                for t in range(1, half + 1):
                    add(i, users[i], helper, offset + t, peak)
                add(i, users[i], helper, offset + half + 1, peak / 2)
                add(i, helper, bs[k], offset + half + 1, peak / 2)
                for t in range(half + 2, delay + 1):
                    add(i, helper, bs[k], offset + t, peak)
    schedule = fill_storage(Schedule(transmissions), topology, demands)

    rho = Fraction(n_cells - 1, n_cells + 1)
    eta = Fraction(n_cells - 1, 2 * n_cells)
    return ConstructedInstance(topology, demands, schedule, peak, rho, eta)


def construction_metrics(instance: ConstructedInstance) -> tuple[Fraction, Fraction]:
    """Recompute reduction and overhead of a construction from its schedule.

    Exact rational arithmetic end to end: per-BS peaks are measured from the
    schedule, the no-D2D reference is volume/delay per cell.
    """
    topo, demands = instance.topology, instance.demands
    loads = per_slot_loads(instance.schedule, topo)
    peaks = {b: Fraction(0) for b in topo.bs_ids}
    for (b, _t), load in loads.items():
        peaks[b] = max(peaks[b], load)
    f_d2d = sum(peaks.values())
    f_nd = sum(
        Fraction(j.volume) / j.delay for j in demands.demands
    )  # one demand per cell, rate 1
    v_d2d, v_bs = compute_volumes(instance.schedule, topo)
    metrics = compute_metrics(f_nd, f_d2d, v_d2d, v_bs)
    return metrics.spectrum_reduction, metrics.overhead_ratio
