"""The flow LP's one lexicographic solve against the two-stage reference.

``solve_flow_lp`` solves the flow LP once with the relayed traffic as a
weighted secondary cost and certifies the result on the spectrum cost from
HiGHS's final factorization: one transposed solve for the row duals, then a
dual-feasibility check of the reduced costs (``tests/test_factor_certificate.py``
holds it to the zero-iteration re-run it replaced, which now runs only when
that check fails).  The reference solves the spectrum model, caps the sum
of peaks at its optimum F and minimizes the relayed traffic R in a second
solve.  Both must give the same F (rel 1e-9) and R (rel 1e-6), every
certified optimum must pass the duality certificate on the spectrum model,
and none of these instances may need the fallback.  The one known day that
does, a benchmark day, must still reach the spectrum optimum of a plain
solve, with R at its lexicographic optimum.  Heuristic step III,
solved as the full model with fixed columns from the full optimum's basis,
is held to the two-stage answer of the reference's reduced model, and it must be
certified without a re-run that iterates (``certificate_iterations`` 0).
"""

from __future__ import annotations

import pytest
from certificate_reference import dual_certificate_gap
from conftest import load_benchmark_module
from hypothesis import given, settings
from flow_lp_reference import (
    GAP_TOL,
    assert_level_matches_reduced,
    flow_model,
    lp_unit,
    over_named_instances,
    random_instance,
    step3_instance,
    step3_lp,
)
from hypothesis import strategies as st
from two_stage_reference import flow_two_stage, plain_solve, solve_two_stage

from d2dlb import lp
from d2dlb.d2d_flow import build_flow_lp, solve_flow_lp, solve_min_spectrum_d2d
from d2dlb.heuristic import heuristic_min_spectrum
from d2dlb.model import DemandSet, Topology
from d2dlb.scenario import fixture


def assert_matches_two_stage(topology: Topology, demands: DemandSet, pruning: bool = True) -> None:
    """The library's solve, or the unpruned reference LP's lexicographic solve, against two stages."""
    if pruning:
        flow = solve_min_spectrum_d2d(topology, demands)
        problem, relay_cost, solution = flow.index.problem, flow.index.relay_cost, flow.solution
    else:
        problem, relay_cost = flow_model(topology, demands, pruning=False)
        solution = lp.solve(problem, relay_cost)
    assert solution.optimal and not solution.fallback
    assert dual_certificate_gap(problem, solution) <= GAP_TOL
    f_ref, r_ref = flow_two_stage(problem, relay_cost)
    assert solution.objective == pytest.approx(f_ref, rel=1e-9, abs=1e-12)
    assert relay_cost @ solution.x == pytest.approx(r_ref, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("pruning", [True, False])
@over_named_instances
def test_named_instances(instance, pruning):
    assert_matches_two_stage(*fixture(instance), pruning=pruning)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
@settings(max_examples=20, deadline=None)
def test_random_multicell(seed, pruning):
    assert_matches_two_stage(*random_instance(seed), pruning=pruning)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=15, deadline=None)
def test_heuristic_step3_subset_with_residual(seed, level):
    topology, demands = step3_instance(seed)
    outcome = heuristic_min_spectrum(topology, demands, level)
    if outcome.flow is not None:
        flow = outcome.flow
        assert flow.solution.certificate_iterations == 0 and not flow.solution.fallback
        assert dual_certificate_gap(flow.index.problem, flow.solution) <= GAP_TOL
    problem = step3_lp(topology, demands, outcome.split)[0]
    relay_cost = step3_lp(topology, demands, outcome.split, objective="d2d_traffic")[0].objective
    primary, secondary = solve_two_stage(problem, relay_cost)
    assert primary.optimal and secondary.optimal, (primary.status, secondary.status)
    unit = lp_unit(demands)
    assert outcome.total_spectrum == pytest.approx(primary.objective * unit, rel=1e-9, abs=1e-12)
    assert outcome.relayed_traffic == pytest.approx(secondary.objective * unit, rel=1e-6, abs=1e-9)
    assert_level_matches_reduced(outcome, topology, demands)


def test_fallback_day_keeps_the_spectrum_optimum():
    # the benchmark's day-d2d day of traffic seed 46694: its weighted basis
    # fails the certificate and the re-run on the spectrum cost iterates, so
    # the face stage minimizes R on the spectrum cost's optimal face
    workloads = load_benchmark_module("workloads")
    index = build_flow_lp(*workloads.synth_day(workloads.FULL, 46694))
    solution = solve_flow_lp(index).solution
    assert solution.fallback
    assert solution.objective == plain_solve(index.problem).objective
    assert solution.dual_gap <= lp.gap_tolerance(solution.objective)
    relayed = lp.ordered_dot(index.relay_cost, solution.x)
    assert relayed == pytest.approx(19.821682514839523, rel=1e-9)
