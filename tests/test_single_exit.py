"""The flow LP with its single-entry columns substituted out, against the LP that keeps them.

``build_flow_lp`` drops each conservation row with exactly one departing
column, and that column with it: the row defines the column as a
nonnegative combination of the row's arriving columns.  It then drops
each conservation row left with exactly one positive entry, its single
arriving column once the removed columns are sums, and that column with
it: a nonnegative combination of the row's departing columns.  The
loop-built reference ``loop_flow_lp`` keeps every row and column.  The
rows that go must be exactly those conservation rows, and no column may
have two positive entries among the conservation rows the first pass
leaves (so the second pass removes the same rows in any order); source
rows and peak rows stay.  Both LPs must reach the same least spectrum F
and, at it, the same least relayed traffic R, on the full problem and on
heuristic step III, and the flow values the library rebuilds for the
columns it dropped must satisfy every row of the reference LP.  A line of
users forces sums of sums backward in time, and a chain of users with long
lifetimes forward in time; no benchmark instance has the first.
"""

from __future__ import annotations

import numpy as np
import pytest
from certificate_reference import dual_certificate_gap
from flow_lp_reference import (
    NAMED_INSTANCES,
    loop_flow_lp,
    lp_unit,
    pinned_day,
    random_instance,
    step3_instance,
    step3_lp,
    substitute_flow_lp,
    substitute_single_arrivals,
    substitute_single_exits,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb import lp
from d2dlb.d2d_flow import FlowSolve, build_flow_lp, solve_flow_lp
from d2dlb.heuristic import heuristic_min_spectrum
from d2dlb.model import DemandSet, Topology, validate_schedule
from d2dlb.scenario import fixture

#: agreement required between the optima of the two LPs
REL_TOL = 1e-12

over_instances = pytest.mark.parametrize(
    "instance",
    [*NAMED_INSTANCES.values(), "heuristic-appF"],
    ids=[*NAMED_INSTANCES, "heuristic-appF"],
)


def line_instance() -> tuple[Topology, DemandSet]:
    """Users u2 -> u1 -> u -> BS b, where only u has an uplink, at three rates."""
    topology = Topology(
        bs_ids=("b",),
        user_ids=("u2", "u1", "u"),
        home_bs={"u2": "b", "u1": "b", "u": "b"},
        links=(("u2", "u1", 2.0), ("u1", "u", 3.0), ("u", "b", 5.0)),
    )
    demands = DemandSet.build(
        6, [("u2", 1, 3, 6.0), ("u2", 2, 6, 4.0), ("u1", 1, 2, 3.0), ("u", 3, 4, 1.0)]
    )
    return topology, demands


def chain_instance() -> tuple[Topology, DemandSet]:
    """Users u3 -> u2 -> u1 -> u -> BS b, each with a direct uplink too, and long lifetimes.

    A user reached in the slot the data left the source has that one
    arriving column and, before the deadline, two departing ones: its
    self-link and the next link of the chain.  So the single arrivals come
    one after another along the chain, and their sums hold sums.
    """
    users = ("u3", "u2", "u1", "u")
    topology = Topology(
        bs_ids=("b",),
        user_ids=users,
        home_bs=dict.fromkeys(users, "b"),
        links=(
            ("u3", "u2", 4.0), ("u2", "u1", 3.0), ("u1", "u", 5.0),
            *((user, "b", 0.5 + i) for i, user in enumerate(users)),
        ),
    )
    demands = DemandSet.build(
        10, [("u3", 1, 8, 6.0), ("u3", 2, 9, 2.0), ("u2", 1, 7, 3.0), ("u1", 4, 10, 1.0)]
    )
    return topology, demands


def column_keys(index) -> list[tuple]:
    nodes = index.nodes
    return list(
        zip(
            index.flow_demand.tolist(),
            [nodes[i] for i in index.flow_src.tolist()],
            [nodes[i] for i in index.flow_dst.tolist()],
            index.flow_slot.tolist(),
        )
    )


def reference_point(flow: FlowSolve, flow_vars: dict, peak_vars: dict, n: int) -> np.ndarray:
    """The library's optimum on the reference LP's columns, in LP units.

    Flow columns the reference does not have (those of demands step III
    keeps) must read exactly 0.
    """
    index = flow.index
    values = index.flow_values(flow.solution) / index.unit
    x = np.zeros(n)
    for key, value in zip(column_keys(index), values.tolist()):
        if key in flow_vars:
            x[flow_vars[key]] = value
        else:
            assert value == 0.0, key
    for b, col in peak_vars.items():
        x[col] = flow.solution.x[index.peak_vars[b]]
    return x


def assert_same_as_unreduced(
    flow: FlowSolve, problem: lp.LpProblem, relay: np.ndarray, flow_vars, peak_vars, unit
) -> None:
    """F and R agree with the reference LP's optimum; the rebuilt flows satisfy its rows."""
    old = lp.solve(problem, relay)
    assert old.optimal, old.status
    assert flow.total == pytest.approx(old.objective * unit, rel=REL_TOL)
    old_relayed = lp.ordered_dot(relay, old.x) * unit
    assert flow.relayed_traffic == pytest.approx(old_relayed, rel=REL_TOL, abs=1e-12)
    x = reference_point(flow, flow_vars, peak_vars, problem.n_variables)
    assert problem.max_residual(x) <= lp.RESULT_CHECK_TOL
    assert problem.objective_value(x) * unit == pytest.approx(flow.total, rel=REL_TOL)
    assert lp.ordered_dot(relay, x) * unit == pytest.approx(
        flow.relayed_traffic, rel=1e-9, abs=1e-12
    )


def assert_certified(flow: FlowSolve) -> None:
    solution = flow.solution
    assert solution.dual_gap <= lp.gap_tolerance(solution.objective)
    assert dual_certificate_gap(flow.index.problem, solution) == solution.dual_gap


def assert_removed_rows(topology: Topology, demands: DemandSet) -> int:
    """The LP lost exactly the reference's single-exit rows, then its single-arrival rows.

    Returns the number of single-arrival rows.
    """
    index = build_flow_lp(topology, demands)
    ref, flow_vars, _, peak_rows = loop_flow_lp(topology, demands)
    key_of = {col: key for key, col in flow_vars.items()}
    source_of = {j.id: (j.user, j.start) for j in demands.demands}
    rows: dict[int, dict[int, float]] = {}
    for r, c, v in zip(ref.rows.tolist(), ref.cols.tolist(), ref.vals.tolist()):
        rows.setdefault(r, {})[c] = v
    sources, single_exit = [], []
    for r in np.flatnonzero(ref.equality).tolist():
        keys = [key_of[c] for c in rows[r]]
        if all((u, t) == source_of[j] for j, u, _, t in keys):
            sources.append(r)
            continue
        # a conservation row of (node, t): arrivals into node at t, departures
        # from node at t + 1, the last with negative coefficients
        departing = [c for c, v in rows[r].items() if key_of[c][3] == max(k[3] for k in keys)]
        assert all(rows[r][c] < 0 for c in departing)
        assert len({key_of[c][1] for c in departing}) == 1
        if len(departing) == 1:
            single_exit.append(r)
    exits = substitute_single_exits(ref)
    assert exits.removed_rows == single_exit
    # what the first pass leaves: conservation rows are its rows of rhs 0
    left = exits.problem
    conservation = left.equality & (left.rhs == 0)
    positive = conservation[left.rows] & (left.vals > 0)
    assert np.bincount(left.cols[positive], minlength=left.n_variables).max() <= 1
    arrivals = np.bincount(left.rows[positive], minlength=left.n_constraints)
    single_arrival = np.flatnonzero(conservation & (arrivals == 1))
    assert substitute_single_arrivals(left).removed_rows == single_arrival.tolist()
    kept_rows = np.setdiff1d(np.arange(ref.n_constraints), single_exit)
    removed = sorted(single_exit + kept_rows[single_arrival].tolist())
    assert substitute_flow_lp(ref).removed_rows == removed
    assert index.problem.n_constraints == ref.n_constraints - len(removed)
    assert index.n_flow_variables - index.lp_flow.size == len(removed)
    lp_row = np.cumsum(~np.isin(np.arange(ref.n_constraints), removed)) - 1
    assert index.source_row.tolist() == lp_row[sources].tolist()
    assert not set(removed) & (set(peak_rows.values()) | set(sources))
    return int(single_arrival.size)


def assert_full_problem(topology: Topology, demands: DemandSet) -> FlowSolve:
    flow = solve_flow_lp(build_flow_lp(topology, demands))
    problem, flow_vars, peak_vars, _ = loop_flow_lp(topology, demands)
    relay = loop_flow_lp(topology, demands, objective="d2d_traffic")[0].objective
    assert_same_as_unreduced(flow, problem, relay, flow_vars, peak_vars, flow.index.unit)
    assert_certified(flow)
    report = validate_schedule(flow.schedule, topology, demands, flow_abs_tol=1e-9)
    assert report.ok, report.summary()
    return flow


@over_instances
def test_removed_rows_named_instances(instance):
    assert_removed_rows(*fixture(instance))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_removed_rows_random_multicell(seed):
    assert_removed_rows(*random_instance(seed))


@over_instances
def test_named_instances(instance):
    assert_full_problem(*fixture(instance))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_random_multicell(seed):
    assert_full_problem(*random_instance(seed))


@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=15, deadline=None)
def test_heuristic_step3(seed, level):
    # the library's step III (warm, with the kept demands' LP columns fixed
    # at 0) against the reference's reduced LP over the eligible demands
    topology, demands = step3_instance(seed)
    outcome = heuristic_min_spectrum(topology, demands, level)
    if outcome.flow is None:
        return
    split = outcome.split
    problem, flow_vars, peak_vars, _ = step3_lp(topology, demands, split)
    relay = step3_lp(topology, demands, split, objective="d2d_traffic")[0].objective
    unit = lp_unit(demands)
    assert_same_as_unreduced(outcome.flow, problem, relay, flow_vars, peak_vars, unit)
    assert_certified(outcome.flow)
    report = validate_schedule(outcome.schedule, topology, demands, flow_abs_tol=1e-9)
    assert report.ok, report.summary()


def test_line_forces_sums_of_sums():
    topology, demands = line_instance()
    assert_removed_rows(topology, demands)
    flow = assert_full_problem(topology, demands)
    index = flow.index
    sub = index.substitution
    depth = index.flow_slot[sub.col] - index.flow_slot[index.lp_flow[sub.lp_col]]
    assert depth.max() >= 2


def test_chain_forces_sums_of_sums_forward():
    topology, demands = chain_instance()
    assert assert_removed_rows(topology, demands) > 0
    # some single-arrival row departs into a column that is itself a single
    # arrival, so that column's sum goes into the first one's
    ref = loop_flow_lp(topology, demands)[0]
    left = substitute_single_exits(ref).problem
    arrivals = substitute_single_arrivals(left)
    removed_rows = np.isin(left.rows, arrivals.removed_rows)
    departing = left.cols[removed_rows & (left.vals < 0)]
    assert np.isin(departing, list(arrivals.sums)).any()
    # the library composes the same sums, to the last bit
    sub = assert_full_problem(topology, demands).index.substitution
    reduced = substitute_flow_lp(ref)
    got: dict[int, dict[int, float]] = {}
    for col, at, coef in zip(sub.col.tolist(), sub.lp_col.tolist(), sub.coef.tolist()):
        got.setdefault(col, {})[reduced.kept[at]] = coef
    assert got == reduced.sums


def test_pinned_day():
    flow = assert_full_problem(*pinned_day())
    problem = flow.index.problem
    assert (problem.n_constraints, problem.n_variables) == (6_666, 24_964)
    assert flow.total == pytest.approx(7.559901967521046, rel=REL_TOL)
    assert not flow.solution.fallback
