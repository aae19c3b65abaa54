"""The HiGHS driver against ``scipy.optimize.linprog``.

``lp.solve`` with a zero secondary cost (``plain_solve``) hands HiGHS the
model and settings ``linprog(method="highs")`` builds, on the same engine,
so on every model it must end where ``linprog`` ends: the same status and
iteration count, the same point bit for bit, the same objective and the
same row duals.  The second half checks the duality certificate that those
duals carry on flow-LP optima.  Heuristic step III is
checked both as the reference's reduced model and as the full model with
fixed columns that the heuristic solves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from certificate_reference import dual_certificate_gap
from hypothesis import given, settings
from flow_lp_reference import (
    GAP_TOL,
    assert_level_matches_reduced,
    flow_model,
    over_named_instances,
    pinned_day,
    random_instance,
    step3_instance,
    step3_lp,
)
from hypothesis import strategies as st
from linprog_reference import STATUS, reference_solve
from lp_builder import LpBuilder
from no_d2d_reference import build_min_spectrum_nd_lp
from two_stage_reference import CAP_SLACK, cap_and_recost, overhead_model, plain_solve

from d2dlb import lp
from d2dlb.d2d_flow import build_flow_lp, solve_min_spectrum_d2d
from d2dlb.heuristic import SweepLevel, heuristic_min_spectrum
from d2dlb.model import DemandSet, Topology, per_slot_loads
from d2dlb.no_d2d import CellInstance
from d2dlb.scenario import fixture, random_multicell_instance, toy_two_cell


def assert_same_as_linprog(problem: lp.LpProblem) -> str:
    """Solve with both paths, require the same outcome; returns the status."""
    ref = reference_solve(problem, lp.HIGHS_OPTIONS["simplex_iteration_limit"])
    got = plain_solve(problem)
    assert got.status == STATUS[ref.status]
    assert got.iterations == ref.nit
    if not got.optimal:
        assert got.x is None
        return got.status
    assert np.array_equal(got.x, ref.x)
    assert got.objective == problem.objective_value(ref.x)
    assert got.objective == pytest.approx(ref.fun, rel=1e-12, abs=1e-12)
    duals = np.empty(problem.n_constraints)
    duals[~problem.equality] = ref.ineqlin.marginals
    duals[problem.equality] = ref.eqlin.marginals
    assert np.array_equal(got.duals, duals)
    return got.status


def assert_both_stages_same(topology: Topology, demands: DemandSet, pruning: bool) -> None:
    """The spectrum model and the two-stage reference's overhead model at its optimum.

    The model is the library's, or without pruning the reference's.
    """
    problem, relay_cost = flow_model(topology, demands, pruning)
    assert assert_same_as_linprog(problem) == "optimal"
    total = plain_solve(problem).objective
    overhead = cap_and_recost(problem, total, relay_cost, CAP_SLACK)
    assert assert_same_as_linprog(overhead) == "optimal"


def step3_subset(seed: int, level: float) -> tuple[Topology, DemandSet, SweepLevel]:
    """An instance and its heuristic step III at ``level``."""
    topology, demands = step3_instance(seed)
    return topology, demands, heuristic_min_spectrum(topology, demands, level)


@pytest.mark.parametrize("pruning", [True, False])
@over_named_instances
def test_named_instances(instance, pruning):
    assert_both_stages_same(*fixture(instance), pruning=pruning)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
@settings(max_examples=20, deadline=None)
def test_random_multicell(seed, pruning):
    assert_both_stages_same(*random_instance(seed), pruning=pruning)


@pytest.mark.parametrize("pruning", [True, False])
@pytest.mark.parametrize("seed,level", [(0, 0.25), (8, 0.5), (6, 0.9)])
def test_heuristic_step3_subset_with_residual(seed, level, pruning):
    # the reference's reduced model, both stages, and the fixed-column model
    # the heuristic solves warm: cold, each ends where linprog ends
    topology, demands, outcome = step3_subset(seed, level)
    split = outcome.split
    assert split.d2d_demand_ids and per_slot_loads(split.kept, topology)
    problem = step3_lp(topology, demands, split, pruning)[0]
    assert assert_same_as_linprog(problem) == "optimal"
    total = plain_solve(problem).objective
    cap = total + CAP_SLACK * max(1.0, abs(total))
    overhead = step3_lp(
        topology, demands, split, pruning, objective="d2d_traffic", spectrum_cap=cap
    )[0]
    assert assert_same_as_linprog(overhead) == "optimal"
    assert assert_same_as_linprog(outcome.flow.index.problem) == "optimal"
    assert_level_matches_reduced(outcome, topology, demands, pruning)


def test_no_d2d_cell_lp():
    rng = np.random.default_rng(17)
    topology, demands = random_multicell_instance(
        rng, n_cells=3, users_per_cell=3, n_demands=30, horizon=20
    )
    for bs in topology.bs_ids:
        cell = CellInstance.from_instance(topology, demands, bs)
        problem, _ = build_min_spectrum_nd_lp(cell)
        assert assert_same_as_linprog(problem) == "optimal"


def test_infeasible_lp():
    p = LpBuilder("empty_interval")
    x = p.add_variable("x")
    p.set_objective({x: 1.0})
    p.add_constraint({x: 1.0}, "<=", 1.0)
    p.add_constraint({x: -1.0}, "<=", -2.0)
    assert assert_same_as_linprog(p.build()) == "infeasible"


def test_unbounded_lp():
    p = LpBuilder("ray")
    x = p.add_variable("x")
    y = p.add_variable("y")
    p.set_objective({x: -1.0})
    p.add_constraint({x: 1.0, y: -1.0}, "=", 0.5)
    assert assert_same_as_linprog(p.build()) == "unbounded"


def test_iteration_limited_lp(monkeypatch):
    topology, demands = fixture("complete(2,2,6)")
    problem = build_flow_lp(topology, demands).problem
    monkeypatch.setitem(lp.HIGHS_OPTIONS, "simplex_iteration_limit", 3)
    assert assert_same_as_linprog(problem) == "iteration_limit"
    limited = plain_solve(problem)
    assert limited.iterations == 3
    assert limited.x is None


@pytest.mark.parametrize(
    "name,value",
    [("primal_feasibility_tolerance", 1e-12), ("simplex_iteration_limit", -1)],
    ids=["tolerance-1e-12", "max_iterations-1"],
)
def test_refused_option_raises(monkeypatch, name, value):
    # HiGHS takes no feasibility tolerance below 1e-10 and no negative
    # limit; the settings are constants, so a refused one is a solver error
    monkeypatch.setitem(lp.HIGHS_OPTIONS, name, value)
    topology, demands = toy_two_cell()
    with pytest.raises(lp.LpError, match=f"refused option {name}"):
        plain_solve(build_flow_lp(topology, demands).problem)


def units_instance(k: int, scale: float, seed: int = 0) -> tuple[Topology, DemandSet]:
    """Instance ``k`` of the unit-invariance family (run seed ``seed``), volumes times ``scale``."""
    sizes = np.random.default_rng(5000 + k)
    n_cells = int(sizes.integers(3, 7))
    users = int(sizes.integers(2, 5))
    horizon = int(sizes.integers(18, 32))
    n_demands = int(sizes.integers(20, 55))
    topology, demands = random_multicell_instance(
        np.random.default_rng([seed, 3, k]),
        n_cells=n_cells,
        users_per_cell=users,
        n_demands=n_demands,
        horizon=horizon,
        delays=(1, 2, 3, 4),
        d2d_link_prob=0.3,
    )
    scaled = DemandSet.build(
        demands.horizon,
        [(j.user, j.start, j.end, float(j.volume) * scale) for j in demands.demands],
    )
    return topology, scaled


@pytest.mark.parametrize(
    "k,weighted",
    [(4, False), (10, False), (10, True)],
    ids=["4-optimal", "10-optimal", "10-weighted-optimal"],
)
def test_units_at_1e9(k, weighted):
    # the flow LP counts volumes in a power-of-two unit near the largest
    # volume, so HiGHS's absolute tolerances mean the same at every scale:
    # at 1e9 the spectrum LP and the weighted cost that lp.solve
    # passes first both solve, the same way on both paths (the weighted
    # one read "unbounded" with volumes in bits)
    topology, demands = units_instance(k, 1e9)
    index = build_flow_lp(topology, demands)
    problem = index.problem
    if weighted:
        cost = problem.objective + lp.secondary_weight(index.relay_cost) * index.relay_cost
        problem = dataclasses.replace(problem, objective=cost)
    assert assert_same_as_linprog(problem) == "optimal"


@pytest.mark.parametrize("seed", [0, 1])
def test_units_family_at_1e9(seed):
    # every instance of the benchmark's unit-invariance family solves at
    # 1e9 with scale 1's least spectrum, to rounding
    for k in range(20):
        at_1 = solve_min_spectrum_d2d(*units_instance(k, 1.0, seed))
        at_1e9 = solve_min_spectrum_d2d(*units_instance(k, 1e9, seed))
        assert at_1e9.total / 1e9 == pytest.approx(at_1.total, rel=1e-12)


@dataclasses.dataclass(frozen=True, eq=False)
class ReportedResidual(lp.LpProblem):
    """An LP whose residual at any point reads ``residual``."""

    residual: float = 0.0

    def max_residual(self, x: np.ndarray) -> float:
        return self.residual


@pytest.mark.parametrize(
    "residual,status",
    [
        (lp.RESULT_CHECK_TOL, "optimal"),
        (np.nextafter(lp.RESULT_CHECK_TOL, 1.0), "error"),
        (np.nan, "error"),
    ],
)
def test_post_solve_check(residual, status):
    # linprog's _check_result: an optimum off by more than 10 * sqrt(1e-9)
    # in a bound or a row, or with a NaN, is reported as an error
    assert lp.RESULT_CHECK_TOL == 10 * np.sqrt(1e-9)
    # min x subject to -x <= -3
    p = ReportedResidual(
        "checked", [1.0], [0.0], [np.inf], [0], [0], [-1.0], [-3.0], [False], residual
    )
    s = plain_solve(p)
    assert s.status == status
    assert (s.x is not None) == (status == "optimal")


def test_empty_problem_rejected():
    # linprog refuses a model without columns; so does the driver
    with pytest.raises(lp.LpError, match="no variables"):
        plain_solve(LpBuilder("empty").build())


# ---------------------------------------------------------------------------
# Duality certificate of HiGHS optima
# ---------------------------------------------------------------------------


def assert_certified(problem: lp.LpProblem) -> lp.LpSolution:
    solution = plain_solve(problem)
    assert solution.optimal and solution.duals.shape == (problem.n_constraints,)
    assert dual_certificate_gap(problem, solution) <= GAP_TOL
    return solution


def assert_both_stages_certified(index) -> None:
    spectrum = assert_certified(index.problem)
    assert_certified(overhead_model(index, spectrum.objective, CAP_SLACK))


@pytest.mark.parametrize("instance", ["toy-fig1", "ring(3,1.0)"], ids=["toy-fig1", "ring3"])
def test_certificate_named_instances(instance):
    assert_both_stages_certified(build_flow_lp(*fixture(instance)))


def test_certificate_heuristic_subset():
    topology, demands, outcome = step3_subset(8, 0.5)
    flow = outcome.flow
    assert dual_certificate_gap(flow.index.problem, flow.solution) <= GAP_TOL
    assert not flow.solution.fallback
    problem = step3_lp(topology, demands, outcome.split)[0]
    spectrum = assert_certified(problem)
    cap = spectrum.objective + CAP_SLACK * max(1.0, abs(spectrum.objective))
    overhead = step3_lp(
        topology, demands, outcome.split, objective="d2d_traffic", spectrum_cap=cap
    )[0]
    assert_certified(overhead)
    assert_level_matches_reduced(outcome, topology, demands)


def test_certificate_pinned_day():
    outcome = solve_min_spectrum_d2d(*pinned_day())
    assert outcome.total == pytest.approx(7.559901967521047, rel=1e-9)  # its f_d2d
    assert dual_certificate_gap(outcome.index.problem, outcome.solution) <= GAP_TOL
    assert not outcome.solution.fallback
    assert_certified(
        overhead_model(outcome.index, outcome.solution.objective, CAP_SLACK)
    )


def test_certificate_rejects_a_wrong_dual():
    topology, demands = toy_two_cell()
    problem = build_flow_lp(topology, demands).problem
    solution = assert_certified(problem)
    le_rows = np.flatnonzero(~problem.equality)
    duals = solution.duals.copy()
    duals[le_rows[0]] = 1.0  # a <= row's multiplier must be nonpositive
    with pytest.raises(lp.LpError, match="positive"):
        dual_certificate_gap(problem, dataclasses.replace(solution, duals=duals))
