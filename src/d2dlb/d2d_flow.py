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
Andersen, "Presolving in linear programming", 1995).  Schedules keep the
same rule: a schedule has self-links at users only (``model.Schedule``).

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

The builder then does the substitutions HiGHS's presolve would otherwise
spend most of its time on (Andersen and Andersen, on doubleton and
implied-free columns).  A conservation row with exactly one departing
column e reads rate_e * x_e = sum of rate_i * x_i over its arriving
columns, so x_e is a nonnegative combination of them, its bound of 0 is
implied, and the substitution is exact.  Every such row goes, e with it,
and e's entries in its head row, its peak row and the relayed-traffic cost
move onto the columns of its sum; a column of the sum that is itself
substituted is replaced by its own sum, in rounds.  Source rows and peak
rows always stay, since step III changes only their right-hand sides.
On the benchmark's pinned day this takes the LP from 15,998 x 34,296 to
11,885 x 30,183.  ``TimeExpandedIndex.flow_values`` rebuilds every
substituted column from the LP's optimum, so the schedule keeps one entry
per used (demand, link, slot).  (Substituting a row's single *arriving*
column instead raises the pinned day's HiGHS iterations by a fifth.)

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


#: hop count standing for "no path"; large enough to empty any slot interval
UNREACHABLE = 10**9


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """lo[i], lo[i] + 1, ..., lo[i] + n[i] - 1 for each i, one run after another."""
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())


def hop_matrix(topology: Topology, sources: np.ndarray) -> np.ndarray:
    """Hop counts along directed links from each of ``sources`` to every node.

    ``sources`` and the columns index ``topology.arrays.nodes``; an
    unreachable node reads ``UNREACHABLE``.  Row i is a breadth-first search
    from node ``sources[i]``, and every row's search advances at once, one
    hop per step: the frontier is a set of (row, node) pairs, and the next
    one holds the ends of their out-links (``NodeArrays.link_key``, sorted
    by sender) that no earlier step reached.  No dense matrix product is
    formed.
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


class Substitution(NamedTuple):
    """The flow columns the LP has no column for, each a sum of LP columns.

    Flow column ``col[i]`` carries ``coef[i]`` times LP column ``lp_col[i]``,
    summed over the terms with that ``col``.
    """

    col: np.ndarray
    lp_col: np.ndarray
    coef: np.ndarray


@dataclass
class TimeExpandedIndex:
    """Column and row layout of one assembled flow LP.

    Flow column c carries demand ``flow_demand[c]`` over the link
    ``(nodes[flow_src[c]], nodes[flow_dst[c]])`` in slot ``flow_slot[c]``.
    The LP has a column for the flow columns ``lp_flow`` (LP column i is
    flow column ``lp_flow[i]``), then one peak per BS (``peak_vars``); every
    other flow column left its conservation row as a sum of LP columns
    (``substitution``).  Only users have self-links: a BS absorbs what it
    receives, so it has no column out of it and no row.  ``relay_cost`` is
    the relayed-traffic cost over the LP's columns: a flow column's rate
    when it relays into a user before the demand's deadline, else 0, with
    each substituted column's cost moved onto its sum.  Demand k of the
    instance (in its order) has its source row ``source_row[k]``, and needs
    no arrival row: its user rows already carry every bit into a BS by the
    deadline.  A billed (BS, slot) has its peak row ``peak_row[(bs, slot)]``.

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
    lp_flow: np.ndarray
    substitution: Substitution
    relay_cost: np.ndarray
    peak_vars: dict[str, int]
    source_row: np.ndarray
    peak_row: dict[tuple[str, int], int]
    unit: float

    @property
    def n_flow_variables(self) -> int:
        return len(self.flow_slot)

    def free_flow(self) -> np.ndarray:
        """Per flow column, whether the LP leaves it free of a bound at 0.

        An LP column is free when its upper bound is positive, and a
        substituted column when some LP column of its sum is.
        """
        free_lp = self.problem.upper[: self.lp_flow.size] > 0
        free = np.zeros(self.n_flow_variables, bool)
        free[self.lp_flow] = free_lp
        sub = self.substitution
        free[sub.col[free_lp[sub.lp_col]]] = True
        return free

    def peaks(self, solution: lp.LpSolution) -> dict[str, float]:
        return {b: solution.value(col) * self.unit for b, col in self.peak_vars.items()}

    def relayed_traffic(self, solution: lp.LpSolution) -> float:
        return lp.ordered_dot(self.relay_cost, solution.x) * self.unit

    def flow_values(self, solution: lp.LpSolution) -> np.ndarray:
        """The value of every flow column, in bits: the LP's, and each substituted column's sum.

        HiGHS can return a basic fixed column a few ulps off its bound, so
        the LP's fixed columns read 0 rather than trusted to, first; the
        substituted columns are then rebuilt from the rest, and a column
        all of whose terms are fixed comes out exactly 0.
        """
        if solution.x is None:
            raise lp.LpError("no solution values available")
        n_lp, sub = self.lp_flow.size, self.substitution
        x_lp = np.where(self.problem.upper[:n_lp] > 0, solution.x[:n_lp], 0.0)
        x = np.bincount(sub.col, sub.coef * x_lp[sub.lp_col], self.n_flow_variables)
        x = x.astype(float, copy=False)  # bincount of no terms counts in integers
        x[self.lp_flow] = x_lp
        return x * self.unit

    def extract_schedule(self, solution: lp.LpSolution) -> Schedule:
        """The flow columns' nonzero values, in column order; fixed columns read 0 (``flow_values``)."""
        x = self.flow_values(solution)
        used = np.flatnonzero(x != 0.0)
        flows = (self.flow_demand, self.flow_src, self.flow_dst, self.flow_slot)
        return Schedule(self.nodes, *(a[used] for a in flows), x[used])


def _expand(
    pair_k: np.ndarray, pair_l: np.ndarray, pair_lo: np.ndarray, pair_n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(demand, link, slot) of each slot of each (demand, link) pair's interval, pair by pair."""
    return np.repeat(pair_k, pair_n), np.repeat(pair_l, pair_n), _ranges(pair_lo, pair_n)


class _SingleExits(NamedTuple):
    """The conservation rows with one departing column, and that column of each as a sum.

    ``removed_row`` marks the rows and ``removed`` their departing columns.
    Removed column ``col[i]`` carries ``coef[i]`` times the value of column
    ``term[i]``, summed over its terms, which are sorted by ``col``; no
    ``term`` is a removed column.
    """

    removed_row: np.ndarray
    removed: np.ndarray
    col: np.ndarray
    term: np.ndarray
    coef: np.ndarray


def _single_exits(
    in_row: np.ndarray,
    in_col: np.ndarray,
    out_row: np.ndarray,
    out_col: np.ndarray,
    rate: np.ndarray,
    n_rows: int,
) -> _SingleExits:
    """Substitute out the one departing column of each conservation row that has one.

    Column ``in_col[i]`` brings ``rate`` into row ``in_row[i]`` and
    ``out_col[i]`` takes ``rate`` out of ``out_row[i]``.  A row with one
    departing column e reads rate_e * x_e = sum of rate_i * x_i over its
    arriving columns i, so x_e = sum of (rate_i / rate_e) * x_i.  An
    arriving column that is itself removed is replaced by its own sum, in
    rounds, until every term is a kept column; each round goes one slot
    back, so there are at most a demand's lifetime of them.  Every column
    arrives at one row, so no column appears twice in a sum.
    """
    removed_row = np.bincount(out_row, minlength=n_rows) == 1
    single = removed_row[out_row]
    exit_col = np.full(n_rows, -1, np.int64)
    exit_col[out_row[single]] = out_col[single]
    removed = np.zeros(rate.size, bool)
    removed[out_col[single]] = True
    base = np.flatnonzero(removed_row[in_row])
    base_col, base_term = exit_col[in_row[base]], in_col[base]
    base_coef = rate[base_term] / rate[base_col]
    # sorted by column, removed column c's base terms are the count[c] from first[c] on
    order = np.argsort(base_col, kind="stable")
    base_col, base_term, base_coef = base_col[order], base_term[order], base_coef[order]
    first = np.searchsorted(base_col, np.arange(rate.size))
    count = np.bincount(base_col, minlength=rate.size)
    col, term, coef = base_col, base_term, base_coef
    while (pending := removed[term]).any():
        p, done = np.flatnonzero(pending), np.flatnonzero(~pending)
        n = count[term[p]]
        expanded = _ranges(first[term[p]], n)
        col = np.concatenate([col[done], np.repeat(col[p], n)])
        coef = np.concatenate([coef[done], np.repeat(coef[p], n) * base_coef[expanded]])
        term = np.concatenate([term[done], base_term[expanded]])
    order = np.argsort(col, kind="stable")
    return _SingleExits(removed_row, removed, col[order], term[order], coef[order])


def _substitute(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    sub: _SingleExits,
    row_kept: np.ndarray,
    col_kept: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (rows, cols, vals) in kept rows, each removed column's sum in its place.

    An entry a of removed column e in a kept row becomes the entries
    a * ``coef`` on e's terms.
    """
    rows, cols, vals = entries
    kept = row_kept[rows]
    stay = np.flatnonzero(kept & col_kept[cols])
    move = np.flatnonzero(kept & ~col_kept[cols])
    first = np.searchsorted(sub.col, cols[move])
    n = np.searchsorted(sub.col, cols[move], side="right") - first
    expanded = _ranges(first, n)
    return (
        np.concatenate([rows[stay], np.repeat(rows[move], n)]),
        np.concatenate([cols[stay], sub.term[expanded]]),
        np.concatenate([vals[stay], np.repeat(vals[move], n) * sub.coef[expanded]]),
    )


def build_flow_lp(topology: Topology, demands: DemandSet) -> TimeExpandedIndex:
    """Assemble the pruned flow-over-time LP minimizing the sum of per-BS peaks.

    Flow columns: per demand, per link (real links in
    ``topology.rate_map`` order, then one self-link per user in
    ``user_ids`` order), one column per slot of the link's interval.  Flow
    rows: per demand its source row and its nonempty conservation rows by
    (user, slot), all ``=``; then per billed (BS, slot), in (BS id, slot)
    order, its ``<=`` peak row: billed flows minus the peak at most 0.  No
    row is implied by the others and no column restates a sum of others.

    Each conservation row with one departing column then goes, and that
    column with it (``_single_exits``).  The LP's columns are the other
    flow columns in order, then one peak per BS; its rows are the source
    rows, the other conservation rows and the peak rows, in order.

    The source rows' right-hand sides are the volumes in units of 2**e
    bits (``TimeExpandedIndex.unit``), e the ``math.frexp`` exponent of the
    largest volume, so the largest lies in [0.5, 1) at any input scale and
    HiGHS's absolute tolerances mean the same thing at every scale.
    Dividing by a power of two is exact.
    """
    demands.check_users(topology)
    table, dem = topology.arrays, demands.arrays
    nodes, node_index, n_users = table.nodes, table.index, table.n_users  # users, then BSs
    n_bs = len(topology.bs_ids)
    # hops from every user, and each node's hops to the nearest BS (0 at a BS)
    hops = hop_matrix(topology, np.arange(n_users))
    to_bs = hops[:, n_users:].min(axis=1, initial=UNREACHABLE)
    d_bs = np.concatenate([to_bs, np.zeros(n_bs, np.int64)])

    # links: the real ones, then one self-link per user; a BS absorbs what it
    # receives, so it has none
    real = list(topology.rate_map.items())
    n_real = len(real)
    link_u = np.array([node_index[u] for (u, _), _ in real] + list(range(n_users)), np.int64)
    link_v = np.array([node_index[v] for (_, v), _ in real] + list(range(n_users)), np.int64)
    link_rate = np.array([float(r) for _, r in real] + [1.0] * n_users)

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
    for s in np.unique(source).tolist():
        ks = np.flatnonzero(source == s)
        lo = start[ks, None] + hops[s, link_u]
        count = end[ks, None] - d_bs[link_v] - lo + 1
        kk, ll = np.nonzero(count > 0)
        blocks.append(np.stack([ks[kk], ll, lo[kk, ll], count[kk, ll]]))
    pairs = np.concatenate(blocks, axis=1)
    pairs = pairs[:, np.lexsort((pairs[1], pairs[0]))]

    # one column per (demand, link, slot)
    k, link, t = _expand(*pairs)
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

    # the time-expanded LP's entries, columns flows then peaks, rows the flow
    # rows then one peak row per billed slot
    peak_row = n_flow_rows + np.arange(n_billed)
    peak_col = n_flow + table.bs_by_name[billed // (horizon + 1)]
    in_row, out_row = row_of[n_active : n_active + n_in], row_of[n_active + n_in :]
    entries = [  # (rows, cols, values), one block per kind of nonzero
        (row_of[k[is_source]], col[is_source], rate[is_source]),
        (in_row, col[inflow], rate[inflow]),
        (out_row, col[outflow], -rate[outflow]),
        (peak_row[np.searchsorted(billed, bill_key)], real_col, np.ones(len(real_col))),
        (peak_row, peak_col, -np.ones(n_billed)),
    ]
    relay = np.where((link < n_real) & inflow, rate, 0.0)
    sub = _single_exits(in_row, col[inflow], out_row, col[outflow], rate, n_flow_rows)
    lp_flow = np.flatnonzero(~sub.removed)
    n_lp_flow = lp_flow.size
    col_kept = np.concatenate([~sub.removed, np.ones(n_bs, bool)])
    row_kept = np.concatenate([~sub.removed_row, np.ones(n_billed, bool)])
    lp_col, lp_row = np.cumsum(col_kept) - 1, np.cumsum(row_kept) - 1
    merged = tuple(np.concatenate(part) for part in zip(*entries))
    rows, cols, vals = _substitute(merged, sub, row_kept, col_kept)
    relay += np.bincount(sub.term, relay[sub.col] * sub.coef, n_flow)
    n_variables, n_lp_rows = n_lp_flow + n_bs, int(row_kept.sum())
    cost = np.zeros(n_variables)
    cost[n_lp_flow:] = 1.0
    problem = lp.LpProblem(
        name="min-spectrum-d2d",
        objective=cost,
        lower=np.zeros(n_variables),
        upper=np.full(n_variables, np.inf),
        rows=lp_row[rows],
        cols=lp_col[cols],
        vals=vals,
        rhs=np.concatenate([flow_rhs[~sub.removed_row], np.zeros(n_billed)]),
        equality=np.arange(n_lp_rows) < n_lp_rows - n_billed,
    )

    return TimeExpandedIndex(
        problem=problem,
        nodes=nodes,
        flow_demand=dem.ids[k],
        flow_src=u,
        flow_dst=v,
        flow_slot=t,
        lp_flow=lp_flow,
        substitution=Substitution(sub.col, lp_col[sub.term], sub.coef),
        relay_cost=np.concatenate([relay[lp_flow], np.zeros(n_bs)]),
        peak_vars={b: n_lp_flow + i for i, b in enumerate(topology.bs_ids)},
        source_row=lp_row[row_of[:n_active]],
        peak_row=dict(zip(billed_keys, lp_row[peak_row].tolist())),
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
        return int(np.count_nonzero(self.index.free_flow()))


def solve_flow_lp(index: TimeExpandedIndex, basis: lp.Basis | None = None) -> FlowSolve:
    """Solve a flow LP lexicographically: least total spectrum, then least relaying.

    One ``lp.solve`` call yields both numbers, started from
    ``basis`` when given (the ``solution.basis`` of a solve of the same LP
    under other bounds and right-hand sides).  Raises ``LpError`` naming the
    problem when the solve is not optimal, or when its optimum's duality gap
    (``LpSolution.dual_gap``) exceeds ``lp.gap_tolerance``.
    """
    solution = lp.solve(index.problem, index.relay_cost, basis)
    if not solution.optimal:
        raise lp.LpError(f"{index.problem.name} terminated with status {solution.status}")
    tolerance = lp.gap_tolerance(solution.objective)
    if solution.dual_gap > tolerance:
        raise lp.LpError(
            f"{index.problem.name}: duality gap {solution.dual_gap} exceeds tolerance {tolerance}"
        )
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
