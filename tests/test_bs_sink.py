"""BSs as sinks against the formulation that carried delivered data in BS storage.

``build_flow_lp`` gives a BS no self-link and no conservation row: a column
into a BS in any slot up to the deadline delivers.  ``loop_flow_lp(bs_rows=True)``
builds the LP that kept both, so delivered data waited at the BS on its
self-link until the deadline.  Both must reach the same least spectrum F
and, at it, the same least relayed traffic R, on the full problem and on
heuristic step III.  A schedule has no BS self-link either: applied to the
old LP's optimum, ``TimeExpandedIndex.extract_schedule`` must give that
optimum's value on every other key.
"""

from __future__ import annotations

import pytest
from flow_lp_reference import (
    NAMED_INSTANCES,
    loop_flow_lp,
    lp_unit,
    pinned_day,
    random_instance,
    step3_instance,
    step3_lp,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dlb import lp
from d2dlb.d2d_flow import TimeExpandedIndex, build_flow_lp, solve_flow_lp
from d2dlb.heuristic import heuristic_min_spectrum
from d2dlb.model import FLOW_ABS_TOL, DemandSet, Topology, validate_schedule
from d2dlb.scenario import fixture

#: agreement required between the optima of the two formulations
REL_TOL = 1e-12

over_instances = pytest.mark.parametrize(
    "instance",
    [*NAMED_INSTANCES.values(), "heuristic-appF"],
    ids=[*NAMED_INSTANCES, "heuristic-appF"],
)


def solve_bs_rows(problem: lp.LpProblem, relay: lp.LpProblem) -> lp.LpSolution:
    solution = lp.solve(problem, relay.objective)
    assert solution.optimal, solution.status
    return solution


def assert_same_numbers(total: float, relayed: float, old: lp.LpSolution, relay_cost, unit):
    assert total == pytest.approx(old.objective * unit, rel=REL_TOL)
    old_relayed = lp.ordered_dot(relay_cost, old.x) * unit
    assert relayed == pytest.approx(old_relayed, rel=REL_TOL, abs=1e-12)


def assert_flows_rebuilt(
    index: TimeExpandedIndex,
    topology: Topology,
    demands: DemandSet,
    old: lp.LpSolution,
    flow_vars,
    peak_vars,
) -> None:
    """The schedule extracted from the old optimum's values has its flows, and no BS self-link.

    The LP's own columns keep the old optimum's values exactly; a
    substituted column is rebuilt from flow equations the old optimum meets
    to its residual.  The old optimum's BS self-links carry what a BS holds,
    which a schedule does not list.
    """
    nodes = index.nodes
    keys = list(
        zip(
            index.flow_demand.tolist(),
            [nodes[i] for i in index.flow_src.tolist()],
            [nodes[i] for i in index.flow_dst.tolist()],
            index.flow_slot.tolist(),
        )
    )
    at = [flow_vars[keys[c]] for c in index.lp_flow.tolist()] + list(peak_vars.values())
    x = old.x[at]
    schedule = index.extract_schedule(lp.LpSolution("optimal", old.objective, x, 0.0))
    exact = {keys[c] for c in index.lp_flow.tolist()}

    got = schedule.allocations
    want = {
        key: old.x[col] * index.unit
        for key, col in flow_vars.items()
        if old.x[col] != 0.0 and not (key[1] == key[2] and key[2] in topology.bs_set)
    }
    assert {key for key in got if key in exact} == {key for key in want if key in exact}
    volume = {j.id: float(j.volume) for j in demands.demands}
    for key in got.keys() | want.keys():
        if key in exact:
            assert got[key] == want[key], key
        else:
            tol = FLOW_ABS_TOL * max(1.0, volume[key[0]])
            assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=tol), key


def assert_same_as_bs_rows(topology: Topology, demands: DemandSet) -> None:
    index = build_flow_lp(topology, demands)
    flow = solve_flow_lp(index)
    problem, flow_vars, peak_vars, _ = loop_flow_lp(topology, demands, bs_rows=True)
    relay = loop_flow_lp(topology, demands, objective="d2d_traffic", bs_rows=True)[0]
    bs_storage = sum(u == v and v in topology.bs_set for _, u, v, _ in flow_vars)
    assert problem.n_variables - index.n_flow_variables - len(index.peak_vars) == bs_storage
    old = solve_bs_rows(problem, relay)
    assert_same_numbers(flow.total, flow.relayed_traffic, old, relay.objective, index.unit)
    report = validate_schedule(flow.schedule, topology, demands)
    assert report.ok, report.summary()
    assert_flows_rebuilt(index, topology, demands, old, flow_vars, peak_vars)


@over_instances
def test_named_instances(instance):
    assert_same_as_bs_rows(*fixture(instance))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@example(618)  # a weighted point 4.6e-14 off its rows: R 2.5e-12 above the least unless recomputed
@settings(max_examples=20, deadline=None)
def test_random_multicell(seed):
    assert_same_as_bs_rows(*random_instance(seed))


@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=15, deadline=None)
def test_heuristic_step3(seed, level):
    # the library's step III (the sink LP, warm, with fixed columns) against
    # the reduced LP of the old formulation, solved cold
    topology, demands = step3_instance(seed)
    outcome = heuristic_min_spectrum(topology, demands, level)
    if outcome.flow is None:
        return
    split = outcome.split
    problem = step3_lp(topology, demands, split, bs_rows=True)[0]
    relay = step3_lp(topology, demands, split, objective="d2d_traffic", bs_rows=True)[0]
    old = solve_bs_rows(problem, relay)
    unit = lp_unit(demands)
    assert_same_numbers(outcome.total_spectrum, outcome.relayed_traffic, old, relay.objective, unit)
    report = validate_schedule(outcome.schedule, topology, demands)
    assert report.ok, report.summary()


def test_pinned_day():
    assert_same_as_bs_rows(*pinned_day())
