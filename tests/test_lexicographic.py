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
and none of these instances may need the fallback.  A benchmark day that
once needed it is certified now; at ten times the secondary weight it needs
the fallback again, and must still reach the spectrum optimum of a plain
solve, to a few ulps, with R at its lexicographic optimum.  Heuristic step III,
solved as the full model with fixed columns from the full optimum's basis,
is held to the two-stage answer of the reference's reduced model, and it must be
certified without a re-run that iterates (``certificate_iterations`` 0).
Two drawn instances pin the checks that follow a weighted solve: one whose
certified point is not the least R on the spectrum cost's optimal face, and
one whose weighted point HiGHS reports with a residual of 1.5e-12.
"""

from __future__ import annotations

import numpy as np
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


def test_fallback_day_keeps_the_spectrum_optimum(monkeypatch):
    # the benchmark's day-d2d day of traffic seed 46694, whose weighted basis
    # failed the certificate under HiGHS's presolve and default scaling; the
    # presolved LP under max-value scaling is certified at the default weight
    workloads = load_benchmark_module("workloads")
    index = build_flow_lp(*workloads.synth_day(workloads.FULL, 46694))
    plain = plain_solve(index.problem).objective
    solution = solve_flow_lp(index).solution
    assert not solution.fallback
    assert solution.objective == plain
    relayed = lp.ordered_dot(index.relay_cost, solution.x)
    assert relayed == pytest.approx(19.821682514839523, rel=1e-9)
    # at ten times the weight the certificate fails and the re-run iterates,
    # so the face stage minimizes R on the spectrum cost's optimal face; its
    # vertex is another optimum of the spectrum cost, a few ulps from the
    # plain solve's, and certified
    monkeypatch.setattr(lp, "LEXICO_WEIGHT", 1e-4)
    solution = solve_flow_lp(index).solution
    assert solution.fallback
    assert abs(solution.objective - plain) <= 4 * np.spacing(plain)
    assert solution.dual_gap <= lp.gap_tolerance(solution.objective)
    relayed = lp.ordered_dot(index.relay_cost, solution.x)
    assert relayed == pytest.approx(19.821682514839523, rel=1e-9)


def test_certified_on_c_but_not_least_on_its_face():
    # the weighted basis of step3_instance(21477)'s full LP passes the check
    # on c, but eps times r's reduced costs on c's optimal face are within
    # HiGHS's 1e-9 tolerance while r's are not, and that point relays 8e-6
    # (relative) more than the least; the check on r sends it to the face stage
    topology, demands = step3_instance(21477)
    flow = solve_min_spectrum_d2d(topology, demands)
    solution, problem, relay_cost = flow.solution, flow.index.problem, flow.index.relay_cost
    assert solution.certificate_iterations == 0 and solution.fallback
    assert solution.dual_gap <= lp.gap_tolerance(solution.objective)
    f_ref, r_ref = flow_two_stage(problem, relay_cost)
    assert solution.objective == pytest.approx(f_ref, rel=1e-12)
    assert lp.ordered_dot(relay_cost, solution.x) == pytest.approx(r_ref, rel=1e-12)


def test_inexact_weighted_point_is_recomputed(monkeypatch):
    # HiGHS's weighted point for random_instance(452) sits 1.5e-12 below a
    # lower bound, and its R is 1.4e-12 (relative) above the two-stage one;
    # recomputed from a fresh factorization of the same basis, it meets its
    # rows and bounds to rounding and its R is the two-stage R
    index = build_flow_lp(*random_instance(452))
    solution = solve_flow_lp(index).solution
    assert solution.max_primal_residual <= lp.REFACTOR_RESIDUAL and not solution.fallback
    _, r_ref = flow_two_stage(index.problem, index.relay_cost)
    assert lp.ordered_dot(index.relay_cost, solution.x) == pytest.approx(r_ref, rel=1e-14)
    monkeypatch.setattr(lp, "REFACTOR_RESIDUAL", np.inf)
    raw = solve_flow_lp(index).solution
    assert raw.max_primal_residual > 1e-12
    assert raw.iterations == solution.iterations
