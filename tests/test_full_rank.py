"""The full-rank flow LP against the formulation it replaced.

``build_flow_lp`` gives a demand no arrival row and a billed (BS, slot) no
alpha or beta column.  ``loop_flow_lp(full_rank=False)`` builds the LP with
them, over the same flow columns.  Both must reach the same least spectrum
F and, at it, the same least relayed traffic R.  The full-rank LP's
optimum must still deliver each demand's volume to the BSs by its
deadline, and its equality rows must be independent.
"""

from __future__ import annotations

import numpy as np
import pytest
from flow_lp_reference import NAMED_INSTANCES, loop_flow_lp, pinned_day, random_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb import lp
from d2dlb.d2d_flow import TimeExpandedIndex, build_flow_lp, solve_flow_lp
from d2dlb.model import DemandSet, Topology
from d2dlb.scenario import fixture

#: agreement required between the optima of the two formulations
REL_TOL = 1e-9

over_instances = pytest.mark.parametrize(
    "instance",
    [*NAMED_INSTANCES.values(), "heuristic-appF"],
    ids=[*NAMED_INSTANCES, "heuristic-appF"],
)


def delivered(index: TimeExpandedIndex, x: np.ndarray, topology: Topology, demands: DemandSet):
    """Per demand, in instance order: the data its columns carry into BSs, in any slot."""
    table, dem = topology.arrays, demands.arrays
    order = np.argsort(dem.ids)
    k = order[np.searchsorted(dem.ids[order], index.flow_demand)]
    last = np.flatnonzero(index.flow_slot == dem.end[k])
    assert (index.flow_dst[last] >= table.n_users).all(), "a deadline-slot column ends at a user"
    into_bs = np.flatnonzero(index.flow_dst >= table.n_users)
    src, dst = index.flow_src[into_bs], index.flow_dst[into_bs]
    assert (src < table.n_users).all(), "a column leaves a BS"
    nodes = index.nodes
    pairs = zip(src.tolist(), dst.tolist())
    rate = [float(topology.rate_map[(nodes[u], nodes[v])]) for u, v in pairs]
    return np.bincount(k[into_bs], np.array(rate) * x[into_bs], len(dem.ids))


def assert_same_optimum(topology: Topology, demands: DemandSet) -> TimeExpandedIndex:
    """Both formulations' F and R agree, and every demand is delivered; returns the new LP."""
    index = build_flow_lp(topology, demands)
    flow = solve_flow_lp(index)
    n_flow = index.n_flow_variables
    previous, flow_vars, peak_vars, _ = loop_flow_lp(topology, demands, full_rank=False)
    assert len(flow_vars) == n_flow
    n_lp_flow = index.lp_flow.size  # the peaks follow the flow columns in both
    assert {b: c - n_flow for b, c in peak_vars.items()} == {
        b: c - n_lp_flow for b, c in index.peak_vars.items()
    }
    dropped = len(demands.demands) + 2 * len(index.peak_row)  # arrival, alpha and beta rows
    substituted = n_flow - n_lp_flow  # single-exit rows, one per column
    assert previous.n_constraints - index.problem.n_constraints == dropped + substituted
    relay = loop_flow_lp(topology, demands, objective="d2d_traffic", full_rank=False)[0]
    relay_cost = relay.objective
    old = lp.solve(previous, relay_cost)
    assert old.optimal, old.status
    assert flow.total == pytest.approx(old.objective * index.unit, rel=REL_TOL)
    assert flow.relayed_traffic == pytest.approx(
        lp.ordered_dot(relay_cost, old.x) * index.unit, rel=REL_TOL, abs=1e-12
    )
    volume = demands.arrays.volume.astype(float)
    got = delivered(index, index.flow_values(flow.solution), topology, demands)
    assert got == pytest.approx(volume, rel=REL_TOL)
    return index


def assert_independent_equality_rows(problem: lp.LpProblem) -> None:
    eq = np.flatnonzero(problem.equality)
    dense = np.zeros((problem.n_constraints, problem.n_variables))
    np.add.at(dense, (problem.rows, problem.cols), problem.vals)
    assert np.linalg.matrix_rank(dense[eq]) == eq.size


@over_instances
def test_named_instances(instance):
    assert_independent_equality_rows(assert_same_optimum(*fixture(instance)).problem)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_random_multicell(seed):
    assert_independent_equality_rows(assert_same_optimum(*random_instance(seed)).problem)


def test_previous_formulation_has_dependent_rows():
    # the check above tells the two formulations apart
    previous = loop_flow_lp(*fixture("toy-fig1"), full_rank=False)[0]
    with pytest.raises(AssertionError):
        assert_independent_equality_rows(previous)


def test_pinned_day():
    problem = assert_same_optimum(*pinned_day()).problem
    assert (problem.n_constraints, problem.n_variables) == (11_885, 30_183)
