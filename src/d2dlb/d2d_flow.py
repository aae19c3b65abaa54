"""Time-expanded flow LPs for spectrum minimization with D2D relaying.

A demand's traffic leaves its source user at the start slot, moves one hop
per slot over real links (or waits at a user on a virtual self-link), and
must be at a base station by the deadline.  Spectrum is billed to the
receiving side's BS (receiver takeover): uplink transmissions into b
(alpha_b(t)) plus transmissions into users of b (beta_b(t)) must stay under
the per-BS peak F_b being minimized, one ``<=`` row per billed (BS, slot)
with no alpha or beta column.

A BS is the sink of the time-expanded network (Ahuja, Magnanti and Orlin,
*Network Flows*, 1993): data that enters it in any slot up to the deadline
is delivered, so a BS has no self-link column and no conservation row.  A
demand has a source row and a conservation row per (user, slot) before its
deadline, and no arrival row.  None is needed: pruning (below) leaves no
column into a user in the deadline slot, so the user rows carry every bit of
the volume into some BS by then, and an arrival row would be the sum of the
others.  The equality rows thus have full row rank, and HiGHS's presolve
has no dependent row and no chain of BS storage to remove (Andersen and
Andersen, "Presolving in linear programming", 1995).  The schedule still
lists what a BS holds as self-link entries: ``extract_schedule`` rebuilds
each from the demand's arrivals there (``BsStorage``), so a schedule is
conserving at every node, as ``model.validate_schedule`` checks.

Variable pruning drops (link, slot) pairs a demand cannot use: the sender
must be reachable from the source within t - start hops and some BS must be
reachable from the receiver in the slots that remain.  The LP is always
built pruned.  Pruning never changes the optimum; the tests hold it to the
unpruned LP of their loop-built reference (``tests/flow_lp_reference.py``).

One deviation from the naive formulation: no variable lets a node other
than the source transmit at the start slot.  The flow equations alone leave
that slot unconstrained for non-source nodes, admitting sourceless
circulations that can fake cheaper deliveries on heterogeneous-rate
instances.

Each rule bounds a demand's usable slots from one side only, so the slots
demand j may use on a link (u, v), self-links included, form one interval:
[start_j + d_src_j(u), end_j - d_bs(v)], where d_src_j counts hops from j's
source and d_bs hops to the nearest BS.  The start-slot rule needs no term
of its own, because d_src_j(u) = 0 only at the source.  Enumerating columns
is therefore exact arithmetic: a (demand, link) pair gets hi - lo + 1
columns (none if that is not positive), one per slot of its interval, and
no (demand, link, slot) triple is tested on its own.

Every flow LP is solved by ``solve_flow_lp`` and yields one ``FlowSolve``.
There is one builder, for the full problem (``solve_min_spectrum_d2d``).
The heuristic's step III is that same LP with the columns of the demands it
keeps fixed at 0, their source rows at 0, and each billed
(BS, slot) peak row lowered by the kept load; ``TimeExpandedIndex`` names
those rows, and ``solve_flow_lp`` re-solves the changed LP from the full
optimum's basis.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .model import DemandSet, ModelError, Schedule, Topology

# compute_volumes and per_slot_loads are not called here, but benchmark/spans.py
# traces the model layer under these names (tests/test_benchmark_targets.py
# fails if they go)
from .model import compute_volumes, per_slot_loads  # noqa: F401


class InfeasibleDemandError(ModelError):
    """A demand cannot reach any BS within its lifetime."""


def hop_distances_from(topology: Topology, source: str) -> dict[str, int]:
    """BFS hop counts from a node along directed links."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in topology.out_neighbors.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def hop_distances_to_bs(topology: Topology) -> dict[str, int]:
    """Minimum hops from each node to any BS (multi-source BFS on reversed links)."""
    dist = {b: 0 for b in topology.bs_ids}
    queue = deque(topology.bs_ids)
    while queue:
        v = queue.popleft()
        for u in topology.in_neighbors.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


#: hop count standing for "no path"; large enough to empty any slot interval
UNREACHABLE = 10**9


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """lo[i], lo[i] + 1, ..., lo[i] + n[i] - 1 for each i, one run after another."""
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def hop_matrix(topology: Topology, sources: np.ndarray) -> np.ndarray:
    """Hop counts along directed links from each of ``sources`` to every node.

    ``sources`` and the columns index ``topology.arrays.nodes``; an
    unreachable node reads ``UNREACHABLE``.  Row i equals
    ``hop_distances_from(topology, nodes[sources[i]])``.  Every row's
    breadth-first search advances at once, one hop per step: the frontier is
    a set of (row, node) pairs, and the next one holds the ends of their
    out-links (``NodeArrays.link_key``, sorted by sender) that no earlier
    step reached.  No dense matrix product is formed.
    """
    n = len(topology.arrays.nodes)
    sender, receiver = np.divmod(topology.arrays.link_key, n)  # self-links reach nothing new
    first_out = np.searchsorted(sender, np.arange(n + 1))
    hops = np.full(len(sources) * n, UNREACHABLE, np.int64)  # flat: row * n + node
    frontier = np.arange(len(sources)) * n + sources
    step = 0
    while frontier.size:
        hops[frontier] = step
        step += 1
        row, u = np.divmod(frontier, n)
        count = first_out[u + 1] - first_out[u]
        link = _ranges(first_out[u], count)
        reached = np.repeat(row * n, count) + receiver[link]
        frontier = np.unique(reached[hops[reached] == UNREACHABLE])
    return hops.reshape(len(sources), n)


class BsStorage(NamedTuple):
    """What each demand holds at each BS, which the flow LP has no column for.

    Entry i is the self-link a BS would have in a slot of a demand's
    lifetime: ``key[:, i]`` is its (demand, BS, BS, slot) as schedule
    entries key them (nodes as positions in ``TimeExpandedIndex.nodes``),
    entries sorted by demand in instance order, then BS, then slot.  Its
    value is the sum, over the terms with ``entry == i`` in term (column)
    order, of ``rate * x[col]``: the bits the demand's columns bring into
    that BS in earlier slots.  In a schedule it goes after the entries of
    the flow columns below ``after[i]``, where its demand's columns end.
    """

    key: np.ndarray
    after: np.ndarray
    entry: np.ndarray
    col: np.ndarray
    rate: np.ndarray


@dataclass
class TimeExpandedIndex:
    """Column and row layout of one assembled flow LP.

    Flow column c carries demand ``flow_demand[c]`` over the link
    ``(nodes[flow_src[c]], nodes[flow_dst[c]])`` in slot ``flow_slot[c]``;
    flow columns come first in the LP, then one peak per BS
    (``peak_vars``).  Only users have self-links: a BS keeps what it
    receives, so it has no column out of it and no row, and what it holds
    is ``storage``.  ``relay_cost`` is the relayed-traffic cost over all
    columns: a flow column's rate when it relays into a user before the
    demand's deadline, else 0.  Demand k of the instance (in its order) has
    its source row ``source_row[k]``, and needs no arrival row: its user
    rows already carry every bit into a BS by the deadline.  A billed
    (BS, slot) has its peak row ``peak_row[(bs, slot)]``.

    The LP counts bits in units of ``unit``, a power of two (see
    ``build_flow_lp``): the peaks, the relayed traffic and the schedule are
    read back multiplied by it, which is exact.
    """

    problem: lp.LpProblem
    nodes: tuple[str, ...]
    flow_demand: np.ndarray
    flow_src: np.ndarray
    flow_dst: np.ndarray
    flow_slot: np.ndarray
    relay_cost: np.ndarray
    peak_vars: dict[str, int]
    source_row: np.ndarray
    peak_row: dict[tuple[str, int], int]
    storage: BsStorage
    unit: float

    @property
    def n_flow_variables(self) -> int:
        return len(self.flow_slot)

    def peaks(self, solution: lp.LpSolution) -> dict[str, float]:
        return {b: solution.value(col) * self.unit for b, col in self.peak_vars.items()}

    def relayed_traffic(self, solution: lp.LpSolution) -> float:
        return lp.ordered_dot(self.relay_cost, solution.x) * self.unit

    def extract_schedule(self, solution: lp.LpSolution) -> Schedule:
        """The free flow columns' nonzero values in column order, and the nonzero BS storage.

        HiGHS can return a basic fixed column a few ulps off its bound, so
        fixed columns are left out rather than trusted to read 0, and add
        nothing to the storage.  A demand's storage entries (``BsStorage``)
        follow its flow entries, by BS and then slot, where BS self-link
        columns would sit; an entry is nonzero from the slot after the
        demand's first arrival at that BS to the deadline.
        """
        if solution.x is None:
            raise lp.LpError("no solution values available")
        n_flow, store = self.n_flow_variables, self.storage
        x = np.where(self.problem.upper[:n_flow] > 0, solution.x[:n_flow] * self.unit, 0.0)
        used = np.flatnonzero(x != 0.0)
        held = np.bincount(store.entry, store.rate * x[store.col], store.after.size)
        kept = np.flatnonzero(held != 0.0)
        # flow entry c sorts as c, storage just below where its demand's columns end
        order = np.argsort(np.concatenate([used, store.after[kept] - 0.5]), kind="stable")
        flows = [a[used] for a in (self.flow_demand, self.flow_src, self.flow_dst, self.flow_slot)]
        keys = np.concatenate([np.stack(flows), np.take(store.key, kept, axis=1)], axis=1)
        value = np.concatenate([x[used], held[kept]])[order]
        return Schedule(self.nodes, *np.take(keys, order, axis=1), value)


def _expand(
    pair_k: np.ndarray, pair_l: np.ndarray, pair_lo: np.ndarray, pair_n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(demand, link, slot) of each slot of each (demand, link) pair's interval, pair by pair."""
    return np.repeat(pair_k, pair_n), np.repeat(pair_l, pair_n), _ranges(pair_lo, pair_n)


def build_flow_lp(topology: Topology, demands: DemandSet) -> TimeExpandedIndex:
    """Assemble the pruned flow-over-time LP minimizing the sum of per-BS peaks.

    Columns: per demand, per link (real links in
    ``topology.rate_map`` order, then one self-link per user in
    ``user_ids`` order), one column per slot of the link's interval; then
    one peak per BS.  Rows: per demand its source row and its nonempty
    conservation rows by (user, slot), all ``=``; then per billed (BS, slot),
    in (BS id, slot) order, its ``<=`` peak row: billed flows minus the
    peak at most 0.  No row is implied by the others and no column restates
    a sum of others.

    The source rows' right-hand sides are the volumes in units of 2**e
    bits (``TimeExpandedIndex.unit``), e the ``math.frexp`` exponent of the
    largest volume, so the largest lies in [0.5, 1) at any input scale and
    HiGHS's absolute tolerances mean the same thing at every scale.
    Dividing by a power of two is exact.
    """
    demands.check_users(topology)
    table, dem = topology.arrays, demands.arrays
    nodes, node_index, n_users = table.nodes, table.index, table.n_users  # users, then BSs
    n_nodes, n_bs = len(nodes), len(topology.bs_ids)
    to_bs = hop_distances_to_bs(topology)
    d_bs = np.array([to_bs.get(v, UNREACHABLE) for v in nodes], dtype=np.int64)

    # links: the real ones, then one self-link per node; a BS's self-link
    # gets no column, as a BS keeps what it receives, but is its storage
    real = list(topology.rate_map.items())
    n_real = len(real)
    link_u = np.array([node_index[u] for (u, _), _ in real] + list(range(n_nodes)), np.int64)
    link_v = np.array([node_index[v] for (_, v), _ in real] + list(range(n_nodes)), np.int64)
    link_rate = np.array([float(r) for _, r in real] + [1.0] * n_nodes)

    source = np.array([node_index[u] for u in dem.users], dtype=np.int64)
    start, end, volume = dem.start, dem.end, dem.volume
    late = np.flatnonzero(d_bs[source] > end - start + 1)
    if late.size:
        j = demands.demands[late[0]]
        raise InfeasibleDemandError(
            f"demand {j.id}: user {j.user!r} cannot reach any BS within its"
            f" lifetime [{j.start}, {j.end}]"
        )

    # (demand, link) pairs whose slot interval [lo, hi] is nonempty; demands
    # sharing a source share the hop distances, so they go in one block
    blocks = [np.zeros((4, 0), dtype=np.int64)]  # rows: demand, link, lo, count
    sources = np.unique(source)
    for s, d_src in zip(sources, hop_matrix(topology, sources)):
        ks = np.flatnonzero(source == s)
        lo = start[ks, None] + d_src[link_u]
        count = end[ks, None] - d_bs[link_v] - lo + 1
        kk, ll = np.nonzero(count > 0)
        blocks.append(np.stack([ks[kk], ll, lo[kk, ll], count[kk, ll]]))
    pairs = np.concatenate(blocks, axis=1)
    pairs = pairs[:, np.lexsort((pairs[1], pairs[0]))]
    at_bs = pairs[1] >= n_real + n_users

    # one column per (demand, link, slot), BS self-links apart
    k, link, t = _expand(*pairs[:, ~at_bs])
    n_flow = len(k)
    u, v, rate = link_u[link], link_v[link], link_rate[link]
    col = np.arange(n_flow)

    # flow rows, numbered by sorting integer keys:
    # per demand: 0 source, 1 + user * horizon + (slot - 1) conservation
    horizon = demands.horizon
    stride = 1 + n_users * horizon
    n_active = len(source)
    demand_key = np.arange(n_active, dtype=np.int64) * stride
    is_source = (u == source[k]) & (t == start[k])
    inflow = (t < end[k]) & (v < n_users)  # +rate into (v, t); a BS absorbs what it receives
    outflow = t > start[k]  # -rate out of (u, t - 1); only users send
    keys = np.concatenate(
        [
            demand_key,
            demand_key[k[inflow]] + 1 + v[inflow] * horizon + t[inflow] - 1,
            demand_key[k[outflow]] + 1 + u[outflow] * horizon + t[outflow] - 2,
        ]
    )
    flow_keys, row_of = np.unique(keys, return_inverse=True)
    n_flow_rows = len(flow_keys)
    n_in = int(inflow.sum())
    flow_rhs = np.zeros(n_flow_rows)
    unit = math.ldexp(1.0, math.frexp(float(volume.max(initial=0.0)))[1])
    flow_rhs[row_of[:n_active]] = volume / unit

    # billing (``NodeArrays.billed``): a real link into a BS, or into a user
    # of that BS, counts toward the BS's load in its slot; billed (BS, slot)
    # pairs are keyed by the BS id's rank in sorted order
    billed_rank = table.bs_rank[table.billed]
    real_col = col[link < n_real]
    bill_key = billed_rank[v[real_col]] * (horizon + 1) + t[real_col]
    billed = np.unique(bill_key)
    n_billed = len(billed)
    billed_bs = [topology.bs_ids[b] for b in table.bs_by_name[billed // (horizon + 1)].tolist()]
    billed_keys = list(zip(billed_bs, (billed % (horizon + 1)).tolist()))

    # BS storage, one entry per slot of a BS self-link's interval: what
    # demand k holds at BS b in slot s is the bits of its columns into b in
    # slots t < s, each column adding to the entries (k, b, t + 1..end_k)
    store_k, store_link, store_t = _expand(*pairs[:, at_bs])
    store_b = link_v[store_link]
    store_key = (store_k * n_nodes + store_b) * (horizon + 1) + store_t
    into_bs = col[(v >= n_users) & (t < end[k])]
    held_for = end[k[into_bs]] - t[into_bs]
    arrival_key = (k[into_bs] * n_nodes + v[into_bs]) * (horizon + 1) + t[into_bs]
    first = np.searchsorted(store_key, arrival_key + 1)
    storage = BsStorage(
        key=np.stack([dem.ids[store_k], store_b, store_b, store_t]),
        after=np.searchsorted(k, store_k, side="right"),
        entry=_ranges(first, held_for),
        col=np.repeat(into_bs, held_for),
        rate=np.repeat(rate[into_bs], held_for),
    )

    # columns: flows, then the peaks; one peak row per billed slot
    n_variables = n_flow + n_bs
    peak_vars = {b: n_flow + i for i, b in enumerate(topology.bs_ids)}
    peak_row = n_flow_rows + np.arange(n_billed)
    entries = [  # (rows, cols, values), one block per kind of nonzero
        (row_of[k[is_source]], col[is_source], rate[is_source]),
        (row_of[n_active : n_active + n_in], col[inflow], rate[inflow]),
        (row_of[n_active + n_in :], col[outflow], -rate[outflow]),
        (peak_row[np.searchsorted(billed, bill_key)], real_col, np.ones(len(real_col))),
        (peak_row, np.array([peak_vars[b] for b in billed_bs], np.int64), -np.ones(n_billed)),
    ]
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    cost = np.zeros(n_variables)
    cost[n_flow:] = 1.0
    problem = lp.LpProblem(
        name="min-spectrum-d2d",
        objective=cost,
        lower=np.zeros(n_variables),
        upper=np.full(n_variables, np.inf),
        rows=rows,
        cols=cols,
        vals=vals,
        rhs=np.concatenate([flow_rhs, np.zeros(n_billed)]),
        equality=np.arange(n_flow_rows + n_billed) < n_flow_rows,
    )

    return TimeExpandedIndex(
        problem=problem,
        nodes=nodes,
        flow_demand=dem.ids[k],
        flow_src=u,
        flow_dst=v,
        flow_slot=t,
        relay_cost=np.concatenate([np.where((link < n_real) & inflow, rate, 0.0), np.zeros(n_bs)]),
        peak_vars=peak_vars,
        source_row=row_of[:n_active],
        peak_row=dict(zip(billed_keys, peak_row.tolist())),
        storage=storage,
        unit=unit,
    )


@dataclass(frozen=True)
class FlowSolve:
    """One solved flow LP: its layout, its lexicographic optimum and the schedule it carries.

    ``total`` is the least sum of peaks; among the schedules reaching it,
    ``schedule`` relays the least traffic, ``relayed_traffic``.
    """

    index: TimeExpandedIndex
    solution: lp.LpSolution
    schedule: Schedule

    @property
    def total(self) -> float:
        return float(self.solution.objective) * self.index.unit

    @property
    def per_bs_peak(self) -> dict[str, float]:
        return self.index.peaks(self.solution)

    @property
    def relayed_traffic(self) -> float:
        return self.index.relayed_traffic(self.solution)

    @property
    def n_variables(self) -> int:
        """Flow columns the solve was free to use: those not fixed at 0 by their bound."""
        index = self.index
        return int(np.count_nonzero(index.problem.upper[: index.n_flow_variables] > 0))


def solve_flow_lp(index: TimeExpandedIndex, basis: lp.Basis | None = None) -> FlowSolve:
    """Solve a flow LP lexicographically: least total spectrum, then least relaying.

    One ``lp.solve_lexicographic`` call yields both numbers, started from
    ``basis`` when given (the ``solution.basis`` of a solve of the same LP
    under other bounds and right-hand sides).  Raises ``LpError`` naming the
    problem when the solve is not optimal.
    """
    solution = lp.solve_lexicographic(index.problem, index.relay_cost, basis)
    if not solution.optimal:
        raise lp.LpError(f"{index.problem.name} terminated with status {solution.status}")
    return FlowSolve(index, solution, index.extract_schedule(solution))


def solve_min_spectrum_d2d(topology: Topology, demands: DemandSet) -> FlowSolve:
    """Minimum total spectrum with D2D, and at it a schedule relaying the least traffic."""
    return solve_flow_lp(build_flow_lp(topology, demands))


def solve_min_overhead(
    topology: Topology, outcome: FlowSolve
) -> tuple[Schedule, float, FlowSolve]:
    """The least relayed traffic at the spectrum optimum of ``outcome``.

    ``solve_min_spectrum_d2d`` already minimized it, so nothing is solved
    here.  Returns the schedule, the relayed traffic, and ``outcome``.
    """
    return outcome.schedule, outcome.relayed_traffic, outcome
