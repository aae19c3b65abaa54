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
others.  The equality rows thus have full row rank, with no dependent row
and no chain of BS storage for a presolve to remove (Andersen and Andersen,
"Presolving in linear programming", 1995).  Schedules keep the
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
implied-free columns), in two passes (``_single_entries``).  A conservation
row with exactly one departing column e reads rate_e * x_e = sum of
rate_i * x_i over its arriving columns, so x_e is a nonnegative
combination of them, its bound of 0 is implied, and the substitution is
exact.  Every such row goes, e with it, and e's entries in its head row,
its peak row and the relayed-traffic cost move onto the columns of its sum;
a column of the sum that is itself substituted is replaced by its own sum,
in rounds, back in time.  The second pass is the mirror image: a
conservation row left with exactly one positive entry k (its one arriving
column, once each removed column is its sum) makes x_k a nonnegative
combination of the row's departing columns, and k goes the same way, its
entries in its tail row, its source row and its peak rows moving onto its
sum, composed forward in time.  Each column has at most one positive entry
among the conservation rows the first pass leaves (where it arrives, or
where the chain of sums it joined arrives), and substituting k turns only
negative entries into negative ones, so the second pass removes the same
rows in any order.  Source rows and peak rows always stay, since step III
changes only their right-hand sides.  On the benchmark's pinned day the
passes take the LP from 15,998 x 34,296 to 11,885 x 30,183 and then to
6,666 x 24,964, the size HiGHS's presolve reached from the first, so HiGHS
solves it without presolve (``lp.HIGHS_OPTIONS``).
``TimeExpandedIndex.flow_values`` rebuilds every substituted column from
the LP's optimum, so the schedule keeps one entry per used (demand, link,
slot).

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
keeps fixed at 0, their source rows at 0, and each billed (BS, slot) peak
row lowered by the kept load; ``TimeExpandedIndex.restricted`` sets those
bounds and right-hand sides by array assignment, and ``solve_flow_lp``
re-solves it from the full optimum's basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
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
    deadline; LP flow column i carries demand ``lp_demand[i]``, a position in
    that order.  A billed (BS, slot) has its peak row ``peak_rows[b, slot]``,
    b the BS's position in ``bs_ids`` (-1 where no such row exists), and
    ``peak_row`` maps (BS id, slot) to it.

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
    lp_demand: np.ndarray
    peak_rows: np.ndarray
    unit: float

    @property
    def peak_row(self) -> dict[tuple[str, int], int]:
        """(BS id, slot) -> peak row, in row order."""
        bs, slot = np.nonzero(self.peak_rows >= 0)
        rows = self.peak_rows[bs, slot]
        order = np.argsort(rows)
        ids = list(self.peak_vars)
        keys = zip(bs[order].tolist(), slot[order].tolist())
        return {(ids[b], t): r for (b, t), r in zip(keys, rows[order].tolist())}

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

    def restricted(
        self,
        fixed: np.ndarray,
        kept_loads: tuple[np.ndarray, np.ndarray, np.ndarray],
        name: str,
    ) -> TimeExpandedIndex:
        """This LP, named ``name``, with the ``fixed`` demands' allocations kept out of it.

        ``fixed`` masks the demands, in the instance's order, whose no-D2D
        allocations are kept: their columns get upper bound 0 and their
        source rows right-hand side 0.  ``kept_loads`` are the kept
        allocations' loads per billed (BS, slot) as ``model.slot_loads``
        gives them (BS positions in ``bs_ids``, slots, loads); each one's
        peak row gets the right-hand side minus its load, in the LP's unit,
        by one array assignment through ``peak_rows``.  Every kept (BS, slot)
        of a demand's own no-D2D allocation has a peak row, since its direct
        uplink is a column in every slot of its lifetime; a kept load with no
        peak row raises ``LpError``.
        """
        bs, slot, load = kept_loads
        row = np.full(len(bs), -1, np.int64)
        inside = (slot >= 0) & (slot < self.peak_rows.shape[1])
        row[inside] = self.peak_rows[bs[inside], slot[inside]]
        if (row < 0).any():
            i = int(np.argmax(row < 0))
            key = (list(self.peak_vars)[bs[i]], int(slot[i]))
            raise lp.LpError(f"kept load at {key} has no peak row in the flow LP")
        upper = self.problem.upper.copy()
        upper[: self.lp_flow.size][fixed[self.lp_demand]] = 0.0
        rhs = self.problem.rhs.copy()
        rhs[self.source_row[fixed]] = 0.0
        rhs[row] = -load / self.unit
        return replace(self, problem=self.problem.with_bounds(upper, rhs, name))


def _expand(
    pair_k: np.ndarray, pair_l: np.ndarray, pair_lo: np.ndarray, pair_n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(demand, link, slot) of each slot of each (demand, link) pair's interval, pair by pair."""
    return np.repeat(pair_k, pair_n), np.repeat(pair_l, pair_n), _ranges(pair_lo, pair_n)


class _Sums(NamedTuple):
    """Removed columns, each a sum of the columns that stay.

    Removed column ``col[i]`` carries ``coef[i]`` times the value of column
    ``term[i]``, summed over its terms, which are sorted by ``col``.
    """

    col: np.ndarray
    term: np.ndarray
    coef: np.ndarray


def _substitute(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray], sums: _Sums, removed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (rows, cols, vals), each removed column's sum in its place.

    An entry a of removed column e becomes the entries a * ``coef`` on e's
    terms; the other entries come first, in order.  ``removed`` masks the
    removed columns.
    """
    rows, cols, vals = entries
    gone = removed[cols]
    stay, move = np.flatnonzero(~gone), np.flatnonzero(gone)
    terms = np.bincount(sums.col, minlength=removed.size)  # per column, its count of terms
    first, n = (np.cumsum(terms) - terms)[cols[move]], terms[cols[move]]
    expanded = _ranges(first, n)
    return (
        np.concatenate([rows[stay], np.repeat(rows[move], n)]),
        np.concatenate([cols[stay], sums.term[expanded]]),
        np.concatenate([vals[stay], np.repeat(vals[move], n) * sums.coef[expanded]]),
    )


def _single_entries(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    conservation: np.ndarray,
    sign: float,
    n_cols: int,
) -> tuple[np.ndarray, np.ndarray, _Sums]:
    """Substitute out each ``conservation`` row's one entry of sign ``sign``, where it has one.

    Such a row reads a_k * x_k + sum of a_i * x_i = 0 with every a_i of the
    other sign, so x_k = sum of (-a_i / a_k) * x_i, a nonnegative
    combination: k's bound of 0 is implied and the substitution is exact.
    A term that is itself removed is replaced by its own sum, in rounds,
    until every term is a column that stays; each round goes one slot
    further, so there are at most a demand's lifetime of them.  Returns the
    removed rows and columns, as masks, and the removed columns' sums.
    """
    rows, cols, vals = entries
    signed = conservation[rows] & (np.sign(vals) == sign)
    removed_row = conservation & (np.bincount(rows[signed], minlength=conservation.size) == 1)
    single = signed & removed_row[rows]
    single_col = np.zeros(conservation.size, np.int64)
    single_val = np.ones(conservation.size)
    single_col[rows[single]], single_val[rows[single]] = cols[single], vals[single]
    removed = np.zeros(n_cols, bool)
    removed[cols[single]] = True
    base = np.flatnonzero(removed_row[rows] & ~single)
    row = rows[base]
    col, term, coef = single_col[row], cols[base], -vals[base] / single_val[row]
    order = np.argsort(col, kind="stable")
    base_sums = _Sums(col[order], term[order], coef[order])
    sums = base_sums
    while removed[sums.term].any():
        sums = _Sums(*_substitute(sums, base_sums, removed))
    order = np.argsort(sums.col, kind="stable")
    return removed_row, removed, _Sums(*(a[order] for a in sums))


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
    column with it; then each conservation row left with one arriving
    column, and that column (``_single_entries``).  The LP's columns are
    the other flow columns in order, then one peak per BS; its rows are the
    source rows, the other conservation rows and the peak rows, in order.

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

    # (demand, link) pairs whose slot interval [lo, hi] is nonempty.  The
    # interval has delay - need slots, where a link's need from a user is
    # the hops from the user to the sender plus the receiver's hops to a BS;
    # so a demand's links are those its source needs fewer hops than its
    # delay for, a prefix of the source's links sorted by need.  Only the
    # links out of senders a user reaches within its demands' longest delay
    # are looked at.
    delay = end - start + 1
    longest = np.zeros(n_users, np.int64)
    np.maximum.at(longest, source, delay)
    user, sender = np.nonzero(hops < longest[:, None])
    by_sender = np.argsort(link_u, kind="stable")
    first_out = np.searchsorted(link_u[by_sender], np.arange(len(nodes) + 1))
    n_out = first_out[sender + 1] - first_out[sender]
    near = by_sender[_ranges(first_out[sender], n_out)]
    user = np.repeat(user, n_out)
    need = hops[user, link_u[near]] + d_bs[link_v[near]]
    within = np.flatnonzero(need < longest[user])
    by_need = within[np.lexsort((need[within], user[within]))]
    span = int(delay.max(initial=0)) + 1
    key = user[by_need] * span + need[by_need]
    first = np.searchsorted(key, source * span)
    count = np.searchsorted(key, source * span + delay) - first
    picked = by_need[_ranges(first, count)]
    pair_k = np.repeat(np.arange(len(source)), count)
    by_pair = np.lexsort((near[picked], pair_k))
    pair_k, picked = pair_k[by_pair], picked[by_pair]
    pair_l = near[picked]
    pair_lo = start[pair_k] + hops[user[picked], link_u[pair_l]]
    pair_n = delay[pair_k] - need[picked]

    # one column per (demand, link, slot)
    k, link, t = _expand(pair_k, pair_l, pair_lo, pair_n)
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
    relay = np.concatenate([np.where((link < n_real) & inflow, rate, 0.0), np.zeros(n_bs)])
    n_rows, n_cols = n_flow_rows + n_billed, n_flow + n_bs
    conservation = np.arange(n_rows) < n_flow_rows
    conservation[row_of[:n_active]] = False
    row_kept, col_kept = np.ones(n_rows, bool), np.ones(n_cols, bool)
    merged = tuple(np.concatenate(part) for part in zip(*entries))
    sums: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (col, term, coef) per pass
    for sign in (-1.0, 1.0):  # the single exits, then the single arrivals
        removed_row, removed, new = _single_entries(merged, conservation, sign, n_cols)
        stay = ~removed_row[merged[0]]
        merged = _substitute(tuple(a[stay] for a in merged), new, removed)
        relay += np.bincount(new.term, relay[new.col] * new.coef, n_cols)
        sums = [_substitute(old, new, removed) for old in sums] + [new]
        row_kept &= ~removed_row
        col_kept &= ~removed
    lp_col, lp_row = np.cumsum(col_kept) - 1, np.cumsum(row_kept) - 1
    lp_flow = np.flatnonzero(col_kept[:n_flow])
    peak_rows = np.full((n_bs, horizon + 1), -1, np.int64)
    peak_rows[table.bs_by_name[billed // (horizon + 1)], billed % (horizon + 1)] = lp_row[peak_row]
    n_lp_flow = lp_flow.size
    rows, cols, vals = merged
    sub_col, sub_term, sub_coef = (np.concatenate(part) for part in zip(*sums))
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
        rhs=np.concatenate([flow_rhs[row_kept[:n_flow_rows]], np.zeros(n_billed)]),
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
        substitution=Substitution(sub_col, lp_col[sub_term], sub_coef),
        relay_cost=relay[col_kept],
        peak_vars={b: n_lp_flow + i for i, b in enumerate(topology.bs_ids)},
        source_row=lp_row[row_of[:n_active]],
        lp_demand=k[lp_flow],
        peak_rows=peak_rows,
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

    @cached_property
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
