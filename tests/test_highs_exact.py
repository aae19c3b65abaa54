"""The HiGHS driver against ``scipy.optimize.linprog``.

``lp.run_highs`` hands HiGHS the model and options ``linprog(method="highs")``
builds, on the same engine, so on every model it must end where ``linprog``
ends: the same status and iteration count, the same point bit for bit, the
same objective and the same row duals.  The second half checks the duality
certificate that those duals carry on flow-LP optima.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linprog_reference import STATUS, reference_solve
from scipy.optimize import OptimizeWarning
from two_stage_reference import overhead_model

from d2dlb import lp
from d2dlb.bounds import build_complete_instance, build_ring_instance
from d2dlb.d2d_flow import build_flow_lp, solve_min_spectrum_d2d
from d2dlb.heuristic import split_demands
from d2dlb.model import DemandSet, Topology
from d2dlb.no_d2d import CellInstance, build_min_spectrum_nd_lp, min_spectrum_no_d2d
from d2dlb.scenario import (
    GeoParams,
    generate_topology,
    random_multicell_instance,
    synthesize_demands,
    synthesize_trace,
    toy_two_cell,
)

OPTIONS = lp.LpOptions()


def assert_same_as_linprog(problem: lp.LpProblem, options: lp.LpOptions = OPTIONS) -> str:
    """Solve with both paths, require the same outcome; returns the status."""
    ref = reference_solve(problem, options)
    got = lp.run_highs(problem, options)
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


def assert_both_stages_same(topology: Topology, demands: DemandSet, **kwargs) -> None:
    """The spectrum model and the two-stage reference's overhead model at its optimum."""
    index = build_flow_lp(topology, demands, **kwargs)
    assert assert_same_as_linprog(index.problem) == "optimal"
    total = lp.run_highs(index.problem, OPTIONS).objective
    assert assert_same_as_linprog(overhead_model(index, total, lp.FALLBACK_CAP_SLACK)) == "optimal"


def ring3() -> tuple[Topology, DemandSet]:
    inst = build_ring_instance(3, volume=1.0)
    return inst.topology, inst.demands


def complete2x2() -> tuple[Topology, DemandSet]:
    inst = build_complete_instance(2, 2, volume=6)
    return inst.topology, inst.demands


def step3_subset(seed: int, level: float) -> dict:
    """Keyword arguments of ``build_flow_lp`` for a heuristic step III."""
    rng = np.random.default_rng(seed)
    topology, demands = random_multicell_instance(
        rng, n_cells=3, users_per_cell=3, n_demands=18, horizon=14, delays=(1, 2, 3, 4)
    )
    _, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    split = split_demands(topology, demands, nd_schedule, level)
    subset = tuple(j for j in demands.demands if j.id in split.d2d_demand_ids)
    return dict(
        topology=topology,
        demands=demands,
        demand_subset=subset,
        residual_load=split.residual_load,
    )


@pytest.mark.parametrize("pruning", [True, False])
@pytest.mark.parametrize(
    "instance", [toy_two_cell, ring3, complete2x2], ids=["toy-fig1", "ring3", "complete2x2"]
)
def test_named_instances(instance, pruning):
    topology, demands = instance()
    assert_both_stages_same(topology, demands, pruning=pruning)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
@settings(max_examples=20, deadline=None)
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
    assert_both_stages_same(topology, demands, pruning=pruning)


@pytest.mark.parametrize("pruning", [True, False])
@pytest.mark.parametrize("seed,level", [(0, 0.25), (8, 0.5), (6, 0.9)])
def test_heuristic_step3_subset_with_residual(seed, level, pruning):
    kwargs = step3_subset(seed, level)
    assert kwargs["demand_subset"] and kwargs["residual_load"]
    assert_both_stages_same(pruning=pruning, **kwargs)


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
    p = lp.LpProblem("empty_interval")
    x = p.add_variable("x")
    p.set_objective({x: 1.0})
    p.add_constraint({x: 1.0}, "<=", 1.0)
    p.add_constraint({x: -1.0}, "<=", -2.0)
    assert assert_same_as_linprog(p) == "infeasible"


def test_unbounded_lp():
    p = lp.LpProblem("ray")
    x = p.add_variable("x")
    y = p.add_variable("y")
    p.set_objective({x: -1.0})
    p.add_constraint({x: 1.0, y: -1.0}, "=", 0.5)
    assert assert_same_as_linprog(p) == "unbounded"


def test_iteration_limited_lp():
    topology, demands = complete2x2()
    problem = build_flow_lp(topology, demands).problem
    limited = lp.LpOptions(max_iterations=3)
    assert assert_same_as_linprog(problem, limited) == "iteration_limit"
    assert lp.run_highs(problem, limited).iterations == 3


@pytest.mark.parametrize(
    "options",
    [lp.LpOptions(tolerance=1e-12), lp.LpOptions(max_iterations=-1)],
    ids=["tolerance-1e-12", "max_iterations-1"],
)
def test_refused_option_keeps_highs_default(options):
    # HiGHS takes no feasibility tolerance below 1e-10 and no negative
    # limit; linprog warns and leaves HiGHS's default, and so does the driver
    topology, demands = toy_two_cell()
    with pytest.warns(OptimizeWarning):
        assert assert_same_as_linprog(build_flow_lp(topology, demands).problem, options) == "optimal"


def units_instance(k: int, scale: float) -> tuple[Topology, DemandSet]:
    """Instance ``k`` of the unit-invariance family (run seed 0), volumes times ``scale``."""
    sizes = np.random.default_rng(5000 + k)
    n_cells = int(sizes.integers(3, 7))
    users = int(sizes.integers(2, 5))
    horizon = int(sizes.integers(18, 32))
    n_demands = int(sizes.integers(20, 55))
    topology, demands = random_multicell_instance(
        np.random.default_rng([0, 3, k]),
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


@pytest.mark.parametrize("k,status", [(4, "infeasible"), (10, "error")])
def test_units_at_1e9(k, status):
    # HiGHS's absolute tolerances against 1e9-bit volumes: the spectrum LP
    # fails at this scale (ROADMAP item 1), the same way on both paths
    topology, demands = units_instance(k, 1e9)
    assert assert_same_as_linprog(build_flow_lp(topology, demands).problem) == status


class ReportedResidual(lp.LpProblem):
    """An LP whose residual at any point reads ``residual``."""

    residual = 0.0

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
    p = ReportedResidual("checked")
    x = p.add_variable("x")
    p.set_objective({x: 1.0})
    p.add_constraint({x: -1.0}, "<=", -3.0)
    p.residual = residual
    s = lp.run_highs(p, OPTIONS)
    assert s.status == status
    assert (s.x is not None) == (status == "optimal")


def test_empty_problem_rejected():
    # linprog refuses a model without columns; so does the driver
    with pytest.raises(lp.LpError, match="no variables"):
        lp.run_highs(lp.LpProblem("empty"), OPTIONS)


# ---------------------------------------------------------------------------
# Duality certificate of HiGHS optima
# ---------------------------------------------------------------------------

#: largest duality gap accepted on these flow LPs
GAP_TOL = 1e-9


def assert_certified(problem: lp.LpProblem) -> lp.LpSolution:
    solution = lp.solve(problem, OPTIONS)
    assert solution.optimal and solution.duals.shape == (problem.n_constraints,)
    assert lp.dual_certificate_gap(problem, solution) <= GAP_TOL
    return solution


def assert_both_stages_certified(index) -> None:
    spectrum = assert_certified(index.problem)
    assert_certified(overhead_model(index, spectrum.objective, lp.FALLBACK_CAP_SLACK))


@pytest.mark.parametrize("instance", [toy_two_cell, ring3], ids=["toy-fig1", "ring3"])
def test_certificate_named_instances(instance):
    topology, demands = instance()
    assert_both_stages_certified(build_flow_lp(topology, demands))


def test_certificate_heuristic_subset():
    assert_both_stages_certified(build_flow_lp(**step3_subset(8, 0.5)))


def test_certificate_pinned_day():
    # the benchmark's pinned day: 6 cells x 40 users, 48 windows of 8 demands
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
    outcome = solve_min_spectrum_d2d(topology, demands)
    assert outcome.solution.objective == pytest.approx(7.559901967521047, rel=1e-9)  # its f_d2d
    assert lp.dual_certificate_gap(outcome.index.problem, outcome.solution) <= GAP_TOL
    assert not outcome.solution.fallback
    assert_certified(
        overhead_model(outcome.index, outcome.solution.objective, lp.FALLBACK_CAP_SLACK)
    )


def test_certificate_rejects_a_wrong_dual():
    topology, demands = toy_two_cell()
    problem = build_flow_lp(topology, demands).problem
    solution = assert_certified(problem)
    le_rows = np.flatnonzero(~problem.equality)
    duals = solution.duals.copy()
    duals[le_rows[0]] = 1.0  # a <= row's multiplier must be nonpositive
    with pytest.raises(lp.LpError, match="positive"):
        lp.dual_certificate_gap(problem, dataclasses.replace(solution, duals=duals))
