"""Time-expanded flow LPs for spectrum minimization with D2D relaying.

A demand's traffic leaves its source user at the start slot, moves one hop
per slot over real links (or waits on a virtual self-link), and must be at a
base station by the deadline.  Spectrum is billed to the receiving side's BS
(receiver takeover): uplink transmissions into b count toward alpha_b(t),
transmissions into users of b toward beta_b(t), and alpha + beta must stay
under the per-BS peak being minimized.

Variable pruning drops (link, slot) pairs a demand cannot use: the sender
must be reachable from the source within t - start hops and some BS must be
reachable from the receiver in the slots that remain.  Pruning never changes
the optimum; `prune_equivalence_check` verifies that on concrete instances.

One deviation from the naive formulation, applied with or without pruning:
no variable lets a node other than the source transmit at the start slot.
The flow equations alone leave that slot unconstrained for non-source nodes,
admitting sourceless circulations that can fake cheaper deliveries on
heterogeneous-rate instances.

Each rule bounds a demand's usable slots from one side only, so the slots
demand j may use on a link (u, v), self-links included, form one interval:
[start_j + d_src_j(u), end_j - d_bs(v)] with pruning, where d_src_j counts
hops from j's source and d_bs hops to the nearest BS, and
[start_j + (u != source_j), end_j] without.  The start-slot rule needs no
term of its own under pruning, because d_src_j(u) = 0 only at the source.
Enumerating columns is therefore exact arithmetic: a (demand, link) pair gets
hi - lo + 1 columns (none if that is not positive), one per slot of its
interval, and no (demand, link, slot) triple is tested on its own.

Every flow LP is solved by ``solve_flow_lp`` and yields one ``FlowSolve``.
There is one builder, for the full problem (``solve_min_spectrum_d2d``).
The heuristic's step III is that same LP with the columns of the demands it
keeps fixed at 0, their source and arrival rows at 0, and each billed
(BS, slot) peak row lowered by the kept load; ``TimeExpandedIndex`` names
those rows, and ``solve_flow_lp`` re-solves the changed LP from the full
optimum's basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


@dataclass
class TimeExpandedIndex:
    """Column layout of one assembled flow LP.

    Flow column c carries demand ``flow_demand[c]`` over the link
    ``(nodes[flow_src[c]], nodes[flow_dst[c]])`` in slot ``flow_slot[c]``;
    flow columns come first in the LP, then the peaks, then the per-slot
    alpha/beta pairs.  ``relay_cost`` is the relayed-traffic cost over all
    columns: a flow column's rate when it relays into a user before the
    demand's deadline, else 0.  Demand k of the instance (in its order) has
    its source row ``source_row[k]`` and its arrival row ``arrival_row[k]``;
    a billed (BS, slot) has its peak row ``peak_row[(bs, slot)]``.
    """

    problem: lp.LpProblem
    nodes: tuple[str, ...]
    flow_demand: np.ndarray
    flow_src: np.ndarray
    flow_dst: np.ndarray
    flow_slot: np.ndarray
    relay_cost: np.ndarray
    alpha_vars: dict[tuple[str, int], int]
    beta_vars: dict[tuple[str, int], int]
    peak_vars: dict[str, int]
    source_row: np.ndarray
    arrival_row: np.ndarray
    peak_row: dict[tuple[str, int], int]

    @property
    def n_flow_variables(self) -> int:
        return len(self.flow_slot)

    def peaks(self, solution: lp.LpSolution) -> dict[str, float]:
        return {b: solution.value(col) for b, col in self.peak_vars.items()}

    def relayed_traffic(self, solution: lp.LpSolution) -> float:
        return float(self.relay_cost @ solution.x)

    def extract_schedule(self, solution: lp.LpSolution) -> Schedule:
        """The flow columns' nonzero values, in column order; a column fixed at 0 carries no flow.

        HiGHS can return a basic fixed column a few ulps off its bound, so
        fixed columns are left out rather than trusted to read 0.
        """
        if solution.x is None:
            raise lp.LpError("no solution values available")
        x = solution.x[: self.n_flow_variables]
        used = np.flatnonzero((x != 0.0) & (self.problem.upper[: self.n_flow_variables] > 0))
        return Schedule(
            self.nodes,
            self.flow_demand[used],
            self.flow_src[used],
            self.flow_dst[used],
            self.flow_slot[used],
            x[used],
        )


def build_flow_lp(
    topology: Topology, demands: DemandSet, pruning: bool = True, name: str = "min-spectrum-d2d"
) -> TimeExpandedIndex:
    """Assemble the flow-over-time LP minimizing the sum of per-BS peaks.

    Columns: per demand, per link (real links in
    ``topology.rate_map`` order, then one self-link per node in
    ``all_nodes()`` order), one column per slot of the link's interval; then
    one peak per BS; then an (alpha, beta) pair per billed (BS, slot), in
    (BS id, slot) order.  Rows: per demand its source row, its arrival row
    and its nonempty conservation rows by (node, slot); then per billed
    (BS, slot) its alpha, beta and peak rows.
    """
    demands.check_users(topology)
    active = demands.demands

    nodes, node_index = topology.arrays.nodes, topology.arrays.index
    n_nodes, n_users = len(nodes), len(topology.user_ids)  # users first, then BSs
    to_bs = hop_distances_to_bs(topology)
    d_bs = np.array([to_bs.get(v, UNREACHABLE) for v in nodes], dtype=np.int64)

    # links: the real ones, then one self-link per node
    real = list(topology.rate_map.items())
    n_real = len(real)
    link_u = np.array([node_index[u] for (u, _), _ in real] + list(range(n_nodes)), np.int64)
    link_v = np.array([node_index[v] for (_, v), _ in real] + list(range(n_nodes)), np.int64)
    link_rate = np.array([float(r) for _, r in real] + [1.0] * n_nodes)

    source = np.array([node_index[j.user] for j in active], dtype=np.int64)
    start = np.array([j.start for j in active], dtype=np.int64)
    end = np.array([j.end for j in active], dtype=np.int64)
    volume = np.array([float(j.volume) for j in active])
    late = np.flatnonzero(d_bs[source] > end - start + 1)
    if late.size:
        j = active[late[0]]
        raise InfeasibleDemandError(
            f"demand {j.id}: user {j.user!r} cannot reach any BS within its"
            f" lifetime [{j.start}, {j.end}]"
        )

    # (demand, link) pairs whose slot interval [lo, hi] is nonempty; demands
    # sharing a source share the hop distances, so they go in one block
    if not pruning:
        d_bs = np.zeros(n_nodes, dtype=np.int64)
    blocks = [np.zeros((4, 0), dtype=np.int64)]  # rows: demand, link, lo, count
    for s in np.unique(source):
        ks = np.flatnonzero(source == s)
        if pruning:
            from_src = hop_distances_from(topology, nodes[s])
            d_src = np.array([from_src.get(v, UNREACHABLE) for v in nodes], dtype=np.int64)
        else:
            d_src = (np.arange(n_nodes) != s).astype(np.int64)
        lo = start[ks, None] + d_src[link_u]
        count = end[ks, None] - d_bs[link_v] - lo + 1
        kk, ll = np.nonzero(count > 0)
        blocks.append(np.stack([ks[kk], ll, lo[kk, ll], count[kk, ll]]))
    pairs = np.concatenate(blocks, axis=1)
    pair_k, pair_l, pair_lo, pair_n = pairs[:, np.lexsort((pairs[1], pairs[0]))]

    # one column per (demand, link, slot)
    n_flow = int(pair_n.sum())
    k = np.repeat(pair_k, pair_n)
    link = np.repeat(pair_l, pair_n)
    t = np.repeat(pair_lo - (np.cumsum(pair_n) - pair_n), pair_n) + np.arange(n_flow)
    u, v, rate = link_u[link], link_v[link], link_rate[link]
    col = np.arange(n_flow)

    # flow rows, numbered by sorting integer keys:
    # per demand: 0 source, 1 arrival, 2 + node * horizon + (slot - 1) conservation
    horizon = demands.horizon
    stride = 2 + n_nodes * horizon
    n_active = len(active)
    demand_key = np.arange(n_active, dtype=np.int64) * stride
    is_source = (u == source[k]) & (t == start[k])
    is_arrival = (v >= n_users) & (t == end[k])
    inflow = t < end[k]  # +rate into (v, t)
    outflow = t > start[k]  # -rate out of (u, t - 1)
    keys = np.concatenate(
        [
            demand_key,
            demand_key + 1,
            demand_key[k[inflow]] + 2 + v[inflow] * horizon + t[inflow] - 1,
            demand_key[k[outflow]] + 2 + u[outflow] * horizon + t[outflow] - 2,
        ]
    )
    flow_keys, row_of = np.unique(keys, return_inverse=True)
    n_flow_rows = len(flow_keys)
    n_in = int(inflow.sum())
    flow_rhs = np.zeros(n_flow_rows)
    flow_rhs[row_of[:n_active]] = volume
    flow_rhs[row_of[n_active : 2 * n_active]] = volume

    # billing: a real link into a BS counts toward its alpha, into a user
    # toward the beta of the user's home BS
    bs_sorted = sorted(topology.bs_ids)
    bs_rank = {b: i for i, b in enumerate(bs_sorted)}
    billed_rank = np.array(
        [bs_rank[topology.home_bs[x]] for x in topology.user_ids]
        + [bs_rank[b] for b in topology.bs_ids],
        dtype=np.int64,
    )
    real_col = col[link < n_real]
    bill_key = billed_rank[v[real_col]] * (horizon + 1) + t[real_col]
    billed = np.unique(bill_key)
    n_billed = len(billed)
    billed_bs = [bs_sorted[r] for r in (billed // (horizon + 1)).tolist()]
    billed_slot = (billed % (horizon + 1)).tolist()
    billed_keys = list(zip(billed_bs, billed_slot))

    problem = lp.LpProblem(name)
    problem.add_variables(n_flow)
    peak0 = problem.add_variables(len(topology.bs_ids))
    pair0 = problem.add_variables(2 * n_billed)
    peak_vars = {b: peak0 + i for i, b in enumerate(topology.bs_ids)}
    alpha_col = pair0 + 2 * np.arange(n_billed)
    peak_col = np.array([peak_vars[b] for b in billed_bs], dtype=np.int64)

    # per billed slot i: alpha row 3i, beta row 3i + 1, peak row 3i + 2
    bill_row = n_flow_rows + 3 * np.arange(n_billed)
    into_user = v[real_col] < n_users  # billed to beta, one row below alpha
    members_row = bill_row[np.searchsorted(billed, bill_key)] + into_user
    ones = np.ones(n_billed)
    first_in = 2 * n_active
    entries = [  # (rows, cols, values), one block per kind of nonzero
        (row_of[k[is_source]], col[is_source], rate[is_source]),
        (row_of[n_active + k[is_arrival]], col[is_arrival], rate[is_arrival]),
        (row_of[first_in : first_in + n_in], col[inflow], rate[inflow]),
        (row_of[first_in + n_in :], col[outflow], -rate[outflow]),
        (members_row, real_col, np.ones(len(real_col))),
        (bill_row, alpha_col, -ones),
        (bill_row + 1, alpha_col + 1, -ones),
        (bill_row + 2, alpha_col, ones),
        (bill_row + 2, alpha_col + 1, ones),
        (bill_row + 2, peak_col, -ones),
    ]
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    problem.add_constraints(
        rows,
        cols,
        vals,
        np.concatenate([flow_rhs, np.zeros(3 * n_billed)]),
        np.concatenate([np.ones(n_flow_rows, bool), np.tile([True, True, False], n_billed)]),
    )

    c = np.zeros(problem.n_variables)
    c[list(peak_vars.values())] = 1.0
    problem.set_objective(c)

    alpha_vars = {key: pair0 + 2 * i for i, key in enumerate(billed_keys)}
    beta_vars = {key: pair0 + 2 * i + 1 for i, key in enumerate(billed_keys)}
    return TimeExpandedIndex(
        problem=problem,
        nodes=nodes,
        flow_demand=np.array([j.id for j in active], dtype=np.int64)[k],
        flow_src=u,
        flow_dst=v,
        flow_slot=t,
        relay_cost=np.concatenate(
            [
                np.where((link < n_real) & (v < n_users) & inflow, rate, 0.0),
                np.zeros(problem.n_variables - n_flow),
            ]
        ),
        alpha_vars=alpha_vars,
        beta_vars=beta_vars,
        peak_vars=peak_vars,
        source_row=row_of[:n_active],
        arrival_row=row_of[n_active : 2 * n_active],
        peak_row=dict(zip(billed_keys, (bill_row + 2).tolist())),
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
        return float(self.solution.objective)

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


def solve_min_spectrum_d2d(
    topology: Topology, demands: DemandSet, pruning: bool = True
) -> FlowSolve:
    """Minimum total spectrum with D2D, and at it a schedule relaying the least traffic."""
    return solve_flow_lp(build_flow_lp(topology, demands, pruning))


def solve_min_overhead(
    topology: Topology, outcome: FlowSolve
) -> tuple[Schedule, float, FlowSolve]:
    """The least relayed traffic at the spectrum optimum of ``outcome``.

    ``solve_min_spectrum_d2d`` already minimized it, so nothing is solved
    here.  Returns the schedule, the relayed traffic, and ``outcome``.
    """
    return outcome.schedule, outcome.relayed_traffic, outcome


@dataclass(frozen=True)
class PruneReport:
    optimum_pruned: float
    optimum_unpruned: float
    n_vars_pruned: int
    n_vars_unpruned: int
    rel_gap: float

    @property
    def equal(self) -> bool:
        return self.rel_gap <= 1e-6

    @property
    def variable_reduction(self) -> float:
        if self.n_vars_unpruned == 0:
            return 0.0
        return 1.0 - self.n_vars_pruned / self.n_vars_unpruned


def prune_equivalence_check(topology: Topology, demands: DemandSet) -> PruneReport:
    """Solve with and without pruning and compare optima and variable counts."""
    pruned = solve_min_spectrum_d2d(topology, demands, pruning=True)
    unpruned = solve_min_spectrum_d2d(topology, demands, pruning=False)
    f_p, f_u = pruned.total, unpruned.total
    gap = abs(f_p - f_u) / max(1.0, abs(f_u))
    return PruneReport(
        optimum_pruned=f_p,
        optimum_unpruned=f_u,
        n_vars_pruned=pruned.n_variables,
        n_vars_unpruned=unpruned.n_variables,
        rel_gap=gap,
    )
