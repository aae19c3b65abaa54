"""The array-built flow LP against a loop-built reference, entry for entry.

``loop_flow_lp`` enumerates every (demand, link, slot) and tests it one at a
time, the way the flow LP was first written; ``build_flow_lp`` derives the
same columns from one slot interval per (demand, link).  Both must hand the
solver the same model: the same matrices, right-hand sides, costs and bounds,
with columns and rows in the same order.  ``TimeExpandedIndex.relay_cost``,
the secondary cost of the lexicographic solve, must equal the reference's
relayed-traffic objective: the two-stage reference's overhead model (the
spectrum model with the cap row and that cost) must equal the reference's
direct build with the relayed-traffic objective and the spectrum cap.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linprog_reference import reference_arguments
from two_stage_reference import overhead_model

from d2dlb import lp
from d2dlb.bounds import build_complete_instance, build_ring_instance
from d2dlb.d2d_flow import (
    InfeasibleDemandError,
    build_flow_lp,
    hop_distances_from,
    hop_distances_to_bs,
    solve_min_spectrum_d2d,
)
from d2dlb.heuristic import split_demands
from d2dlb.model import Demand, DemandSet, ModelError, Topology
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import random_multicell_instance, toy_two_cell


def loop_flow_lp(
    topology: Topology,
    demands: DemandSet,
    demand_subset: Sequence[Demand] | None = None,
    pruning: bool = True,
    residual_load: Mapping[tuple[str, int], float] | None = None,
    objective: str = "spectrum",
    spectrum_cap: float | None = None,
) -> tuple[lp.LpProblem, dict, dict, dict, dict]:
    """Reference builder: returns (problem, flow_vars, alpha_vars, beta_vars, peak_vars)."""
    if objective not in ("spectrum", "d2d_traffic"):
        raise ModelError(f"unknown objective {objective!r}")
    demands.check_users(topology)
    active = tuple(demand_subset) if demand_subset is not None else demands.demands
    residual_load = dict(residual_load or {})
    user_set = set(topology.user_ids)
    dist_to_bs = hop_distances_to_bs(topology)

    problem = lp.LpProblem("reference")
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
        for node in topology.all_nodes():
            for t in range(j.start, j.end + 1):
                if admissible(node, node, t):
                    flow_vars[(j.id, node, node, t)] = problem.add_variable(
                        f"x_j{j.id}_{node}_{node}_t{t}"
                    )

    def rate(u: str, v: str) -> float:
        return 1.0 if u == v else float(topology.rate_map[(u, v)])

    in_real = topology.in_neighbors
    out_real = topology.out_neighbors
    for j in active:
        source_terms = {}
        for v in (*out_real.get(j.user, ()), j.user):
            col = flow_vars.get((j.id, j.user, v, j.start))
            if col is not None:
                source_terms[col] = rate(j.user, v)
        problem.add_constraint(source_terms, "=", float(j.volume), f"source_j{j.id}")

        arrival_terms = {}
        for b in topology.bs_ids:
            for v in (*in_real.get(b, ()), b):
                col = flow_vars.get((j.id, v, b, j.end))
                if col is not None:
                    arrival_terms[col] = rate(v, b)
        problem.add_constraint(arrival_terms, "=", float(j.volume), f"arrival_j{j.id}")

        for node in topology.all_nodes():
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
    alpha_vars: dict[tuple[str, int], int] = {}
    beta_vars: dict[tuple[str, int], int] = {}
    for b, t in billed_slots:
        a_col = problem.add_variable(f"alpha_{b}_t{t}")
        b_col = problem.add_variable(f"beta_{b}_t{t}")
        alpha_vars[(b, t)] = a_col
        beta_vars[(b, t)] = b_col
        problem.add_constraint({**alpha_members.get((b, t), {}), a_col: -1.0}, "=", 0.0)
        problem.add_constraint({**beta_members.get((b, t), {}), b_col: -1.0}, "=", 0.0)
        problem.add_constraint(
            {a_col: 1.0, b_col: 1.0, peak_vars[b]: -1.0},
            "<=",
            -float(residual_load.get((b, t), 0.0)),
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
    return problem, flow_vars, alpha_vars, beta_vars, peak_vars


def assert_same_problem(got: lp.LpProblem, want: lp.LpProblem) -> None:
    got, want = reference_arguments(got), reference_arguments(want)
    for name in ("c", "b_ub", "b_eq", "bounds"):
        assert (got[name] is None) == (want[name] is None), name
        if want[name] is not None:
            assert got[name].shape == want[name].shape, name
            assert np.array_equal(got[name], want[name]), name
    for name in ("A_ub", "A_eq"):
        assert (got[name] is None) == (want[name] is None), name
        if want[name] is not None:
            a, b = got[name], want[name]
            assert a.shape == b.shape, name
            assert np.array_equal(a.indptr, b.indptr), name
            assert np.array_equal(a.indices, b.indices), name
            assert np.array_equal(a.data, b.data), name


def assert_same_model(topology: Topology, demands: DemandSet, **kwargs) -> None:
    index = build_flow_lp(topology, demands, **kwargs)
    ref, flow_vars, alpha_vars, beta_vars, peak_vars = loop_flow_lp(topology, demands, **kwargs)

    nodes = index.nodes
    keys = list(
        zip(
            index.flow_demand.tolist(),
            [nodes[i] for i in index.flow_src.tolist()],
            [nodes[i] for i in index.flow_dst.tolist()],
            index.flow_slot.tolist(),
        )
    )
    assert keys == list(flow_vars), "flow columns differ in set or order"
    assert list(flow_vars.values()) == list(range(len(flow_vars)))
    assert index.alpha_vars == alpha_vars
    assert index.beta_vars == beta_vars
    assert index.peak_vars == peak_vars
    assert_same_problem(index.problem, ref)


def assert_same_overhead_model(
    topology: Topology,
    demands: DemandSet,
    total_spectrum: float,
    slack: float = lp.FALLBACK_CAP_SLACK,
    **kwargs,
) -> None:
    """The overhead model on the array-built spectrum model equals a direct build of it."""
    problem = overhead_model(build_flow_lp(topology, demands, **kwargs), total_spectrum, slack)
    cap = total_spectrum + slack * max(1.0, abs(total_spectrum))
    ref, *_ = loop_flow_lp(
        topology, demands, objective="d2d_traffic", spectrum_cap=cap, **kwargs
    )
    assert_same_problem(problem, ref)


def ring3() -> tuple[Topology, DemandSet]:
    inst = build_ring_instance(3, volume=1.0)
    return inst.topology, inst.demands


def complete2x2() -> tuple[Topology, DemandSet]:
    inst = build_complete_instance(2, 2, volume=6)
    return inst.topology, inst.demands


@pytest.mark.parametrize("pruning", [True, False])
@pytest.mark.parametrize(
    "instance", [toy_two_cell, ring3, complete2x2], ids=["toy-fig1", "ring3", "complete2x2"]
)
def test_named_instances(instance, pruning):
    topology, demands = instance()
    assert_same_model(topology, demands, pruning=pruning)


def test_d2d_traffic_objective_with_cap(toy_instance):
    # the relayed-traffic cost and the cap row on the spectrum model,
    # against the direct build
    topology, demands = toy_instance
    for pruning in (True, False):
        for slack in (0.0, lp.FALLBACK_CAP_SLACK):
            assert_same_overhead_model(topology, demands, 4.0, slack, pruning=pruning)


def test_overhead_stage_at_the_solved_optimum(toy_instance):
    topology, demands = toy_instance
    outcome = solve_min_spectrum_d2d(topology, demands)
    assert_same_overhead_model(topology, demands, outcome.solution.objective)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_multicell(seed, pruning):
    rng = np.random.default_rng(seed)
    topology, demands = random_multicell_instance(
        rng,
        n_cells=int(rng.integers(2, 5)),
        users_per_cell=int(rng.integers(1, 4)),
        n_demands=int(rng.integers(1, 20)),
        horizon=int(rng.integers(4, 16)),
        delays=(1, 2, 3, 4),
        d2d_link_prob=float(rng.uniform(0.1, 0.6)),
    )
    assert_same_model(topology, demands, pruning=pruning)
    assert_same_overhead_model(topology, demands, 3.5, pruning=pruning)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0.0, 0.25, 0.5, 0.9]))
@settings(max_examples=15, deadline=None)
def test_heuristic_step3_subset_with_residual(seed, level):
    rng = np.random.default_rng(seed)
    topology, demands = random_multicell_instance(
        rng, n_cells=3, users_per_cell=3, n_demands=18, horizon=14, delays=(1, 2, 3, 4)
    )
    _, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    split = split_demands(topology, demands, nd_schedule, level)
    subset = tuple(j for j in demands.demands if j.id in split.d2d_demand_ids)
    for pruning in (True, False):
        assert_same_model(
            topology,
            demands,
            demand_subset=subset,
            pruning=pruning,
            residual_load=split.residual_load,
        )
        assert_same_overhead_model(
            topology,
            demands,
            10.0,
            demand_subset=subset,
            pruning=pruning,
            residual_load=split.residual_load,
        )


def test_bs_ids_out_of_string_order():
    # b10 and b11 sort before b2: the billed (BS, slot) pairs follow the ids'
    # string order, the peaks follow the topology's BS order
    rng = np.random.default_rng(12)
    topology, demands = random_multicell_instance(
        rng, n_cells=11, users_per_cell=1, n_demands=12, horizon=6, d2d_link_prob=0.3
    )
    assert list(topology.bs_ids) != sorted(topology.bs_ids)
    assert_same_model(topology, demands)
    assert_same_model(topology, demands, pruning=False, residual_load={("b10", 2): 0.5})
