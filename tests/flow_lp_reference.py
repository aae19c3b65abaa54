"""Loop-built flow LPs: the reference builder, pruning's exactness, heuristic step III.

``loop_flow_lp`` enumerates every (demand, link, slot) and tests it one at a
time, the way the flow LP was first written.  It also builds what the
library no longer builds on its own:

- the unpruned LP (``pruning=False``), which ``prune_equivalence_check``
  solves against the library's pruned one;
- the formulation before the LP had full row rank (``full_rank=False``):
  an arrival row per demand, and per billed (BS, slot) an alpha and a beta
  column, each equal to its share of the billed flows, under the peak;
- the formulation before BSs absorbed what they receive (``bs_rows=True``):
  a self-link at every BS and a conservation row per (BS, slot), so that
  delivered data is carried to the deadline in BS storage;
- step III as a reduced LP over the D2D-eligible demands only, with the
  kept load as a floor under each peak.  ``step3_reference`` solves that
  reduced LP cold, and ``assert_level_matches_reduced`` holds a step III
  solved as the full LP with fixed columns, warm-started, to its numbers.

Its pruning reads hop counts from ``hop_distances_from`` and
``hop_distances_to_bs``, one dict breadth-first search each, which the
tests also hold ``d2d_flow.hop_matrix`` to.  The instances the flow-LP
exactness tests share are here too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import pytest
from lp_builder import LpBuilder
from two_stage_reference import plain_solve

from d2dlb import lp
from d2dlb.d2d_flow import InfeasibleDemandError, build_flow_lp, solve_min_spectrum_d2d
from d2dlb.heuristic import HeuristicOutcome, SplitResult
from d2dlb.model import Demand, DemandSet, ModelError, Topology
from d2dlb.scenario import (
    GeoParams,
    generate_topology,
    random_multicell_instance,
    synthesize_demands,
    synthesize_trace,
)

#: agreement required between a warm step III and the cold reduced LP
LEVEL_REL_TOL = 1e-9
#: largest duality gap accepted on flow-LP optima
GAP_TOL = 1e-9

#: the named instances, as ``scenario.fixture`` names, under their test ids
NAMED_INSTANCES = {"toy-fig1": "toy-fig1", "ring3": "ring(3,1.0)", "complete2x2": "complete(2,2,6)"}
#: runs a test once per named instance, passing its fixture name as ``instance``
over_named_instances = pytest.mark.parametrize(
    "instance", list(NAMED_INSTANCES.values()), ids=list(NAMED_INSTANCES)
)


def neighbors(topology: Topology) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(out-neighbors, in-neighbors) of every node along the real links, in link order."""
    outs: dict[str, list[str]] = {v: [] for v in topology.all_nodes()}
    ins: dict[str, list[str]] = {v: [] for v in topology.all_nodes()}
    for u, v, _ in topology.links:
        outs[u].append(v)
        ins[v].append(u)
    return outs, ins


def hop_distances_from(topology: Topology, source: str) -> dict[str, int]:
    """BFS hop counts from a node along directed links."""
    out_real = neighbors(topology)[0]
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in out_real[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def hop_distances_to_bs(topology: Topology) -> dict[str, int]:
    """Minimum hops from each node to any BS (multi-source BFS on reversed links)."""
    in_real = neighbors(topology)[1]
    dist = {b: 0 for b in topology.bs_ids}
    queue = deque(topology.bs_ids)
    while queue:
        v = queue.popleft()
        for u in in_real[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def random_instance(seed: int) -> tuple[Topology, DemandSet]:
    """2-4 cells of 1-3 users with 1-19 demands over 4-15 slots, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return random_multicell_instance(
        rng,
        n_cells=int(rng.integers(2, 5)),
        users_per_cell=int(rng.integers(1, 4)),
        n_demands=int(rng.integers(1, 20)),
        horizon=int(rng.integers(4, 16)),
        delays=(1, 2, 3, 4),
        d2d_link_prob=float(rng.uniform(0.1, 0.6)),
    )


def step3_instance(seed: int) -> tuple[Topology, DemandSet]:
    """3 cells of 3 users with 18 demands over 14 slots: a heuristic step III's instance."""
    return random_multicell_instance(
        np.random.default_rng(seed),
        n_cells=3,
        users_per_cell=3,
        n_demands=18,
        horizon=14,
        delays=(1, 2, 3, 4),
    )


def pinned_day() -> tuple[Topology, DemandSet]:
    """The benchmark's pinned day: 6 cells x 40 users, 48 windows of 8 demands."""
    seed = 2027
    topology = generate_topology(
        [(300.0 * i, 0.0) for i in range(6)],
        GeoParams(users_per_cell=40, seed=seed),
        np.random.default_rng(seed),
    )
    records = synthesize_trace(
        [f"b{i}" for i in range(1, 7)],
        days=1,
        profile="diurnal-offset",
        rng=np.random.default_rng(seed + 1),
        windows_per_day=48,
        base_volume=60.0,
    )
    demands = synthesize_demands(
        records,
        topology,
        np.random.default_rng(seed + 2),
        delays=(3, 4, 5),
        splits=8,
        slot_seconds=300.0,
    )
    return topology, demands


def lp_unit(demands: DemandSet) -> float:
    """The bits per LP unit: 2**e, e the ``math.frexp`` exponent of the largest volume."""
    largest = max((float(j.volume) for j in demands.demands), default=0.0)
    return math.ldexp(1.0, math.frexp(largest)[1])


def loop_flow_lp(
    topology: Topology,
    demands: DemandSet,
    demand_subset: Sequence[Demand] | None = None,
    pruning: bool = True,
    residual_load: Mapping[tuple[str, int], float] | None = None,
    objective: str = "spectrum",
    spectrum_cap: float | None = None,
    full_rank: bool = True,
    bs_rows: bool = False,
) -> tuple[lp.LpProblem, dict, dict, dict]:
    """Reference builder: returns (problem, flow_vars, peak_vars, peak_rows).

    ``peak_rows`` maps each billed (BS, slot) to its ``<=`` peak row.  With
    ``full_rank`` a demand's arrival row is left out where it is implied,
    when the LP is pruned (without pruning, flow may end at a user in the
    deadline slot), and each peak row holds the billed flows themselves.
    Without ``bs_rows`` a BS has no self-link and no conservation row, and
    an arrival row counts the data entering BSs in any slot; with it, the
    data entering BSs in the deadline slot.  Volumes and kept loads are in
    units of ``lp_unit(demands)``; ``spectrum_cap`` is in the LP's units.
    """
    if objective not in ("spectrum", "d2d_traffic"):
        raise ModelError(f"unknown objective {objective!r}")
    demands.check_users(topology)
    active = tuple(demand_subset) if demand_subset is not None else demands.demands
    unit = lp_unit(demands)
    residual_load = {key: load / unit for key, load in (residual_load or {}).items()}
    user_set = set(topology.user_ids)
    dist_to_bs = hop_distances_to_bs(topology)

    problem = LpBuilder("reference")
    flow_vars: dict[tuple[int, str, str, int], int] = {}
    real_links = list(topology.rate_map.items())

    for j in active:
        dist_src = hop_distances_from(topology, j.user)
        span = j.end - j.start + 1
        if dist_to_bs.get(j.user, 10**9) > span:
            raise InfeasibleDemandError(f"demand {j.id}")

        def admissible(u: str, v: str, t: int) -> bool:
            if t == j.start and u != j.user:
                return False  # only the source holds the data at the start slot
            if not pruning:
                return True
            if dist_src.get(u, 10**9) > t - j.start:
                return False
            return dist_to_bs.get(v, 10**9) <= j.end - t

        for (u, v), _rate in real_links:
            for t in range(j.start, j.end + 1):
                if admissible(u, v, t):
                    flow_vars[(j.id, u, v, t)] = problem.add_variable(f"x_j{j.id}_{u}_{v}_t{t}")
        for node in topology.all_nodes() if bs_rows else topology.user_ids:
            for t in range(j.start, j.end + 1):
                if admissible(node, node, t):
                    flow_vars[(j.id, node, node, t)] = problem.add_variable(
                        f"x_j{j.id}_{node}_{node}_t{t}"
                    )

    def rate(u: str, v: str) -> float:
        return 1.0 if u == v else float(topology.rate_map[(u, v)])

    out_real, in_real = neighbors(topology)
    for j in active:
        source_terms = {}
        for v in (*out_real.get(j.user, ()), j.user):
            col = flow_vars.get((j.id, j.user, v, j.start))
            if col is not None:
                source_terms[col] = rate(j.user, v)
        problem.add_constraint(source_terms, "=", float(j.volume) / unit, f"source_j{j.id}")

        if not (full_rank and pruning):
            arrival_terms = {}
            for b in topology.bs_ids:
                for v in (*in_real.get(b, ()), b):
                    for t in (j.end,) if bs_rows else range(j.start, j.end + 1):
                        col = flow_vars.get((j.id, v, b, t))
                        if col is not None:
                            arrival_terms[col] = rate(v, b)
            problem.add_constraint(arrival_terms, "=", float(j.volume) / unit, f"arrival_j{j.id}")

        for node in topology.all_nodes() if bs_rows else topology.user_ids:
            for t in range(j.start, j.end):
                terms: dict[int, float] = {}
                for w in (*in_real.get(node, ()), node):
                    col = flow_vars.get((j.id, w, node, t))
                    if col is not None:
                        terms[col] = terms.get(col, 0.0) + rate(w, node)
                for w in (*out_real.get(node, ()), node):
                    col = flow_vars.get((j.id, node, w, t + 1))
                    if col is not None:
                        terms[col] = terms.get(col, 0.0) - rate(node, w)
                if terms:
                    problem.add_constraint(terms, "=", 0.0, f"conserve_j{j.id}_{node}_t{t}")

    alpha_members: dict[tuple[str, int], dict[int, float]] = {}
    beta_members: dict[tuple[str, int], dict[int, float]] = {}
    for (_jid, u, v, t), col in flow_vars.items():
        if u == v:
            continue
        if v in user_set:
            beta_members.setdefault((topology.home_bs[v], t), {})[col] = 1.0
        else:
            alpha_members.setdefault((v, t), {})[col] = 1.0

    peak_vars = {b: problem.add_variable(f"peak_{b}") for b in topology.bs_ids}
    billed_slots = sorted(set(alpha_members) | set(beta_members) | set(residual_load))
    peak_rows: dict[tuple[str, int], int] = {}
    for b, t in billed_slots:
        alpha, beta = alpha_members.get((b, t), {}), beta_members.get((b, t), {})
        if not full_rank:
            a_col = problem.add_variable(f"alpha_{b}_t{t}")
            b_col = problem.add_variable(f"beta_{b}_t{t}")
            problem.add_constraint({**alpha, a_col: -1.0}, "=", 0.0)
            problem.add_constraint({**beta, b_col: -1.0}, "=", 0.0)
            alpha, beta = {a_col: 1.0}, {b_col: 1.0}
        peak_rows[(b, t)] = problem.add_constraint(
            {**alpha, **beta, peak_vars[b]: -1.0}, "<=", -float(residual_load.get((b, t), 0.0))
        )

    if spectrum_cap is not None:
        problem.add_constraint(
            {col: 1.0 for col in peak_vars.values()}, "<=", float(spectrum_cap), "total_cap"
        )

    if objective == "spectrum":
        problem.set_objective({col: 1.0 for col in peak_vars.values()})
    else:
        demand_end = {j.id: j.end for j in active}
        obj: dict[int, float] = {}
        for (jid, u, v, t), col in flow_vars.items():
            if u != v and v in user_set and t <= demand_end[jid] - 1:
                obj[col] = rate(u, v)
        problem.set_objective(obj)
    return problem.build(), flow_vars, peak_vars, peak_rows


@dataclass(frozen=True)
class SingleExitLp:
    """A flow LP with its single-exit rows substituted out, written one row at a time.

    ``problem`` keeps the other rows and columns in order; ``kept`` are the
    original columns it keeps, ``removed_rows`` the rows it drops and
    ``sums`` each removed column as {kept original column: coefficient}.
    """

    problem: lp.LpProblem
    kept: list[int]
    removed_rows: list[int]
    sums: dict[int, dict[int, float]]
    secondary: np.ndarray | None


def substitute_single_exits(
    problem: lp.LpProblem, secondary: np.ndarray | None = None
) -> SingleExitLp:
    """Remove each ``=`` row with exactly one negative entry, and that entry's column.

    In a flow LP built by ``loop_flow_lp`` (pruned, full rank, BSs as sinks)
    these are the conservation rows with one departing column e:
    a_e * x_e + sum of a_i * x_i = 0 with a_e < 0, so x_e is the sum of
    (a_i / -a_e) * x_i.  A sum term that is itself removed is replaced by
    its own sum, one level per pass, each new coefficient the old one times
    the term's.  Every other row, the objective and ``secondary`` get the
    sum in place of x_e; a column's own cost comes first, then what its
    sums add, in removed-column order.  Every column arrives at one row, so
    no column appears twice in a row once the sums are in.
    """
    row_terms: list[dict[int, float]] = [{} for _ in range(problem.n_constraints)]
    for r, c, v in zip(problem.rows.tolist(), problem.cols.tolist(), problem.vals.tolist()):
        row_terms[r][c] = row_terms[r].get(c, 0.0) + v
    base: dict[int, dict[int, float]] = {}
    removed_rows = []
    for r, terms in enumerate(row_terms):
        exits = [c for c, v in terms.items() if v < 0]
        if problem.equality[r] and len(exits) == 1:
            (e,) = exits
            base[e] = {c: v / -terms[e] for c, v in terms.items() if c != e}
            removed_rows.append(r)
    sums = {}
    for e, terms in base.items():
        while any(c in base for c in terms):
            expanded: dict[int, float] = {}
            for c, coef in terms.items():
                if c in base:
                    expanded.update({d: coef * inner for d, inner in base[c].items()})
                else:
                    expanded[c] = coef
            terms = expanded
        sums[e] = terms
    kept = [c for c in range(problem.n_variables) if c not in base]
    position = {c: i for i, c in enumerate(kept)}

    def substituted(cost: np.ndarray) -> np.ndarray:
        out = cost[kept].copy()
        added = np.zeros(problem.n_variables)
        for e in sorted(sums):
            for c, coef in sums[e].items():
                added[c] += cost[e] * coef
        return out + added[kept]

    builder = LpBuilder(problem.name)
    for c in kept:
        builder.add_variable("", problem.lower[c], problem.upper[c])
    dropped = set(removed_rows)
    for r, terms in enumerate(row_terms):
        if r in dropped:
            continue
        new: dict[int, float] = {}
        for c, v in terms.items():
            if c in sums:
                new.update({position[d]: v * coef for d, coef in sums[c].items()})
            else:
                new[position[c]] = v
        builder.add_constraint(new, "=" if problem.equality[r] else "<=", problem.rhs[r])
    builder.set_objective(substituted(problem.objective))
    return SingleExitLp(
        builder.build(),
        kept,
        removed_rows,
        sums,
        None if secondary is None else substituted(np.asarray(secondary, float)),
    )


def flow_model(
    topology: Topology, demands: DemandSet, pruning: bool
) -> tuple[lp.LpProblem, np.ndarray]:
    """(spectrum model, relayed-traffic cost): the library's LP, or the unpruned reference's."""
    if pruning:
        index = build_flow_lp(topology, demands)
        return index.problem, index.relay_cost
    problem = loop_flow_lp(topology, demands, pruning=False)[0]
    relay = loop_flow_lp(topology, demands, pruning=False, objective="d2d_traffic")[0]
    return problem, relay.objective


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
    """The library's pruned optimum and flow columns against the unpruned reference LP's."""
    pruned = solve_min_spectrum_d2d(topology, demands)
    problem, flow_vars, *_ = loop_flow_lp(topology, demands, pruning=False)
    unpruned = plain_solve(problem)
    assert unpruned.optimal, unpruned.status
    f_p, f_u = pruned.total, unpruned.objective * lp_unit(demands)
    return PruneReport(
        optimum_pruned=f_p,
        optimum_unpruned=f_u,
        n_vars_pruned=pruned.n_variables,
        n_vars_unpruned=len(flow_vars),
        rel_gap=abs(f_p - f_u) / max(1.0, abs(f_u)),
    )


def step3_lp(
    topology: Topology, demands: DemandSet, split: SplitResult, pruning: bool = True, **kwargs
) -> tuple[lp.LpProblem, dict, dict, dict]:
    """The reduced step-III LP of ``split``: eligible demands only, kept load under the peaks."""
    subset = tuple(j for j in demands.demands if j.id in split.d2d_demand_ids)
    return loop_flow_lp(
        topology,
        demands,
        demand_subset=subset,
        pruning=pruning,
        residual_load=split.residual_load,
        **kwargs,
    )


def step3_reference(
    topology: Topology, demands: DemandSet, split: SplitResult, pruning: bool = True
) -> tuple[float, dict[str, float], float]:
    """(F, per-BS peaks, R) of the reduced step-III LP, solved lexicographically from cold."""
    problem, _, peak_vars, _ = step3_lp(topology, demands, split, pruning)
    relay_cost = step3_lp(topology, demands, split, pruning, objective="d2d_traffic")[0].objective
    solution = lp.solve(problem, relay_cost)
    assert solution.optimal, solution.status
    unit = lp_unit(demands)
    peaks = {b: solution.value(col) * unit for b, col in peak_vars.items()}
    return solution.objective * unit, peaks, float(relay_cost @ solution.x) * unit


def assert_level_matches_reduced(
    outcome: HeuristicOutcome, topology: Topology, demands: DemandSet, pruning: bool = True
) -> None:
    """A solved level's F, per-BS peaks and R equal the cold reduced LP's."""
    total, peaks, relayed = step3_reference(topology, demands, outcome.split, pruning)
    assert outcome.total_spectrum == pytest.approx(total, rel=LEVEL_REL_TOL, abs=1e-12)
    assert outcome.per_bs_peak == pytest.approx(peaks, rel=LEVEL_REL_TOL, abs=1e-12)
    assert outcome.relayed_traffic == pytest.approx(relayed, rel=LEVEL_REL_TOL, abs=1e-12)
