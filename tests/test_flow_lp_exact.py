"""The array-built flow LP against a loop-built reference, entry for entry.

``flow_lp_reference.loop_flow_lp`` enumerates every (demand, link, slot) and
tests it one at a time, the way the flow LP was first written;
``build_flow_lp`` derives the same columns from one slot interval per
(demand, link).  Both must hand the solver the same model: the same
matrices, right-hand sides, costs and bounds, with columns and rows in the
same order, once the single-exit rows and then the single-arrival rows are
substituted out of the reference one row at a time (``substitute_flow_lp``),
and the same sums for the flow columns that leaves out.
``TimeExpandedIndex.relay_cost``, the secondary cost of the
lexicographic solve, must equal the reference's relayed-traffic objective:
the two-stage reference's overhead model (the spectrum model with the cap
row and that cost) must equal the reference's direct build with the
relayed-traffic objective and the spectrum cap.

The library builds the pruned LP only; its flow columns must be some of
the unpruned reference's columns, in the same order.

Heuristic step III is the full model with the kept demands' columns fixed
at 0: its free columns must be the reference's reduced model's columns, in
the same order, and its optimum the reduced model's.  Its upper bounds and
right-hand sides, set by array assignment (``TimeExpandedIndex.restricted``),
must equal bit for bit those of a walk over the kept loads by (BS, slot) key
(``flow_lp_reference.restricted_bounds``).
"""

from __future__ import annotations

import numpy as np
import pytest
from flow_lp_reference import (
    assert_level_matches_reduced,
    loop_flow_lp,
    over_named_instances,
    random_instance,
    restricted_bounds,
    step3_instance,
    step3_lp,
    substitute_flow_lp,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from linprog_reference import reference_arguments
from two_stage_reference import CAP_SLACK, overhead_model

from d2dlb import lp
from d2dlb.d2d_flow import TimeExpandedIndex, build_flow_lp, solve_min_spectrum_d2d
from d2dlb.heuristic import SweepLevel, heuristic_min_spectrum, split_context, split_demands
from d2dlb.model import DemandSet, Topology, per_slot_loads
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import fixture, random_multicell_instance


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


def column_keys(index: TimeExpandedIndex, columns: np.ndarray) -> list[tuple]:
    """(demand, src, dst, slot) of the given flow columns, in their order."""
    nodes = index.nodes
    return list(
        zip(
            index.flow_demand[columns].tolist(),
            [nodes[i] for i in index.flow_src[columns].tolist()],
            [nodes[i] for i in index.flow_dst[columns].tolist()],
            index.flow_slot[columns].tolist(),
        )
    )


def assert_same_model(topology: Topology, demands: DemandSet) -> None:
    index = build_flow_lp(topology, demands)
    ref, flow_vars, peak_vars, peak_rows = loop_flow_lp(topology, demands)

    keys = column_keys(index, np.arange(index.n_flow_variables))
    assert keys == list(flow_vars), "flow columns differ in set or order"
    assert list(flow_vars.values()) == list(range(len(flow_vars)))
    reduced = substitute_flow_lp(ref)
    n_lp_flow = index.lp_flow.size
    assert index.lp_flow.tolist() == reduced.kept[:n_lp_flow]
    lp_col = {c: i for i, c in enumerate(reduced.kept)}
    assert index.peak_vars == {b: lp_col[col] for b, col in peak_vars.items()}
    lp_row = np.cumsum(~np.isin(np.arange(ref.n_constraints), reduced.removed_rows)) - 1
    assert index.peak_row == {key: int(lp_row[row]) for key, row in peak_rows.items()}
    assert_same_problem(index.problem, reduced.problem)
    sub = index.substitution
    got = {}
    for col, at, coef in zip(sub.col.tolist(), sub.lp_col.tolist(), sub.coef.tolist()):
        got.setdefault(col, {})[reduced.kept[at]] = coef
    assert got == reduced.sums


def assert_same_overhead_model(
    topology: Topology,
    demands: DemandSet,
    total_spectrum: float,
    slack: float = CAP_SLACK,
) -> None:
    """The overhead model on the array-built spectrum model equals a direct build of it."""
    problem = overhead_model(build_flow_lp(topology, demands), total_spectrum, slack)
    cap = total_spectrum + slack * max(1.0, abs(total_spectrum))
    ref, *_ = loop_flow_lp(topology, demands, objective="d2d_traffic", spectrum_cap=cap)
    assert_same_problem(problem, substitute_flow_lp(ref).problem)


def assert_prunes_the_unpruned_layout(topology: Topology, demands: DemandSet) -> None:
    """The flow columns are fewer than the unpruned reference's, and among them in order."""
    index = build_flow_lp(topology, demands)
    unpruned = list(loop_flow_lp(topology, demands, pruning=False)[1])
    at = [unpruned.index(key) for key in column_keys(index, np.arange(index.n_flow_variables))]
    assert at == sorted(at) and len(at) < len(unpruned)


@pytest.mark.parametrize("pruning", [True, False])
@over_named_instances
def test_named_instances(instance, pruning):
    # the library builds only the pruned LP: against the pruned reference
    # entry for entry, and against the unpruned reference column for column
    if pruning:
        assert_same_model(*fixture(instance))
    else:
        assert_prunes_the_unpruned_layout(*fixture(instance))


def test_d2d_traffic_objective_with_cap(toy_instance):
    # the relayed-traffic cost and the cap row on the spectrum model,
    # against the direct build
    topology, demands = toy_instance
    for slack in (0.0, CAP_SLACK):
        assert_same_overhead_model(topology, demands, 4.0, slack)


def test_overhead_stage_at_the_solved_optimum(toy_instance):
    topology, demands = toy_instance
    outcome = solve_min_spectrum_d2d(topology, demands)
    assert_same_overhead_model(topology, demands, outcome.solution.objective)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_multicell(seed):
    topology, demands = random_instance(seed)
    assert_same_model(topology, demands)
    assert_same_overhead_model(topology, demands, 3.5)


def assert_step3_is_reduced_model(
    topology: Topology, demands: DemandSet, level: float
) -> SweepLevel:
    """A level's free columns are the reduced model's, and its optimum is the reduced model's."""
    outcome = heuristic_min_spectrum(topology, demands, level)
    _, flow_vars, _, _ = step3_lp(topology, demands, outcome.split)
    assert outcome.step3_variables == len(flow_vars)
    if outcome.flow is not None:
        index = outcome.flow.index
        free = np.flatnonzero(index.free_flow())
        assert column_keys(index, free) == list(flow_vars), "free columns differ"
    for pruning in (True, False):
        assert_level_matches_reduced(outcome, topology, demands, pruning)
    return outcome


@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0.0, 0.25, 0.5, 0.9]))
@settings(max_examples=15, deadline=None)
def test_heuristic_step3_subset_with_residual(seed, level):
    topology, demands = step3_instance(seed)
    assert_step3_is_reduced_model(topology, demands, level)


def assert_restricted_bounds_are_the_dict_walk(topology: Topology, demands: DemandSet) -> None:
    index = build_flow_lp(topology, demands)
    nd_schedule = min_spectrum_no_d2d(topology, demands)[1]
    context = split_context(topology, demands, nd_schedule)
    for level in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        split = split_demands(topology, demands, nd_schedule, level, context=context)
        got = index.restricted(split.fixed, split.kept_loads, "step3").problem
        upper, rhs = restricted_bounds(index, topology, demands, split.kept)
        assert got.upper.tobytes() == upper.tobytes(), level
        assert got.rhs.tobytes() == rhs.tobytes(), level


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_restricted_bounds_are_the_dict_walk(seed):
    assert_restricted_bounds_are_the_dict_walk(*step3_instance(seed))


def test_bs_ids_out_of_string_order():
    # b10 and b11 sort before b2: the billed (BS, slot) pairs follow the ids'
    # string order, the peaks follow the topology's BS order
    rng = np.random.default_rng(12)
    topology, demands = random_multicell_instance(
        rng, n_cells=11, users_per_cell=1, n_demands=12, horizon=6, d2d_link_prob=0.3
    )
    assert list(topology.bs_ids) != sorted(topology.bs_ids)
    assert_same_model(topology, demands)
    # a split keeping load on b11: its peak row is found by key, not by position
    rng = np.random.default_rng(15)
    topology, demands = random_multicell_instance(
        rng, n_cells=11, users_per_cell=2, n_demands=24, horizon=6, d2d_link_prob=0.3
    )
    outcome = assert_step3_is_reduced_model(topology, demands, 0.75)
    assert ("b11", 4) in per_slot_loads(outcome.split.kept, topology)
    assert_restricted_bounds_are_the_dict_walk(topology, demands)
