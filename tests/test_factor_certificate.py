"""The factorization certificate of ``lp.solve`` against the re-run it replaces.

``lp.solve`` certifies its weighted optimum on the primary cost
from the factorization HiGHS ends with: one transposed solve for the row
duals, then a dual-feasibility check of the reduced costs.  Before it, the
certificate was a re-run of the weighted basis on the primary cost, which
certifies when it takes no iteration; ``rerun_certificate`` keeps that
re-run.  On the pinned day and on drawn instances with their step-III levels,
both must reach the same decision, and a certified solve must return the
re-run's point and row duals bit for bit, after one HiGHS run.  Each
optimum's ``dual_gap`` is held to ``dual_certificate_gap``.
"""

from __future__ import annotations

import numpy as np
import pytest
from certificate_reference import dual_certificate_gap
from conftest import draw_instance
from flow_lp_reference import pinned_day

from d2dlb import lp
from d2dlb.d2d_flow import TimeExpandedIndex, build_flow_lp, solve_flow_lp
from d2dlb.heuristic import _step3_index, split_demands
from d2dlb.no_d2d import min_spectrum_no_d2d

LEVELS = (0.25, 0.5, 0.75)


def rerun_certificate(
    problem: lp.LpProblem, secondary: np.ndarray, basis: lp.Basis | None = None
) -> tuple[bool, bool, np.ndarray, np.ndarray]:
    """The weighted run as ``lp.solve`` makes it, then its basis re-run on c alone.

    Returns whether the factorization certifies the weighted basis, whether
    the re-run does (it takes no iteration), and the re-run's point and row
    duals in problem row order.
    """
    c = problem.objective
    weight = lp.LEXICO_WEIGHT / np.abs(secondary).max()
    highs, position = lp._pass_model(problem, c + weight * secondary)
    if basis is not None:
        assert highs.setBasis(basis) == lp._highs.HighsStatus.kOk
    assert lp._run(highs)[0] == "optimal"
    weighted_x = np.array(highs.getSolution().col_value)
    factor = lp._factor_certificate(problem, highs, position, weighted_x)
    columns = np.arange(problem.n_variables, dtype=np.int32)
    highs.changeColsCost(columns.size, columns, c)
    status, rerun = lp._run(highs)
    assert status == "optimal"
    x, duals = lp._read(highs, position)
    if factor is not None:
        assert np.array_equal(factor[0], duals)
        assert np.array_equal(weighted_x, x)
    return factor is not None, rerun == 0, x, duals


def assert_certified_alike(
    problem: lp.LpProblem, secondary: np.ndarray, runs: list, basis: lp.Basis | None = None
) -> lp.LpSolution:
    """The factorization and the re-run agree on ``problem``, and a certified solve runs once."""
    factor, rerun, x, duals = rerun_certificate(problem, secondary, basis)
    assert factor == rerun, problem.name
    runs.clear()
    solution = lp.solve(problem, secondary, basis)
    assert solution.optimal
    assert np.array_equal(solution.x, x) and np.array_equal(solution.duals, duals)
    if factor:
        assert len(runs) == 1 and solution.certificate_iterations == 0
    assert solution.dual_gap == dual_certificate_gap(problem, solution)
    return solution


def levels_of(topology, demands, full) -> list[TimeExpandedIndex]:
    """Step III's LP at each of ``LEVELS`` that keeps some demands and makes others eligible."""
    nd_schedule = min_spectrum_no_d2d(topology, demands)[1]
    indexes = []
    for level in LEVELS:
        split = split_demands(topology, demands, nd_schedule, level)
        if split.d2d_demand_ids and split.nd_demand_ids:
            indexes.append(_step3_index(full.index, demands, split))
    return indexes


@pytest.mark.parametrize("seed", range(20))
def test_drawn_instance_and_its_levels(seed, highs_runs):
    topology, demands = draw_instance(np.random.default_rng(seed))
    index = build_flow_lp(topology, demands)
    full = assert_certified_alike(index.problem, index.relay_cost, highs_runs)
    assert full.fallback is False
    flow = solve_flow_lp(index)
    for level in levels_of(topology, demands, flow):
        solution = assert_certified_alike(
            level.problem, level.relay_cost, highs_runs, flow.solution.basis
        )
        assert solution.dual_gap <= 1e-6 * (1.0 + abs(solution.objective))


def test_pinned_day(highs_runs):
    index = build_flow_lp(*pinned_day())
    solution = assert_certified_alike(index.problem, index.relay_cost, highs_runs)
    assert len(highs_runs) == 1 and not solution.fallback
    assert solution.objective * index.unit == pytest.approx(7.559901967521047, rel=1e-9)
    assert solution.iterations == 4482
    assert solution.dual_gap <= 1e-6 * (1.0 + abs(solution.objective))


def test_a_basis_that_is_not_c_optimal_is_refused(highs_runs):
    # the weighted optimum y = 1 of min x + (1 + 1e-7) y, x + y = 1, with the
    # secondary cost 1e3 x, is not optimal for the primary cost: the
    # factorization refuses it, and the re-run iterates
    problem = lp.LpProblem(
        "not c-optimal",
        objective=[1.0, 1.0 + 1e-7],
        lower=[0.0, 0.0],
        upper=[np.inf, np.inf],
        rows=[0, 0],
        cols=[0, 1],
        vals=[1.0, 1.0],
        rhs=[1.0],
        equality=[True],
    )
    assert rerun_certificate(problem, np.array([1e3, 0.0]))[:2] == (False, False)
    highs_runs.clear()
    assert lp.solve(problem, np.array([1e3, 0.0])).fallback
    assert len(highs_runs) == 3  # weighted, re-run, face


def test_a_column_at_its_upper_bound_needs_a_nonpositive_reduced_cost():
    # min -2x + y with x <= 1 and x - y <= 0.5: the optimum x = 1, y = 0.5
    # has x nonbasic at its upper bound, the row's dual -1 and x's reduced
    # cost -2 + 1 = -1, which is optimal there
    def boxed(cost_of_x: float) -> lp.LpProblem:
        return lp.LpProblem(
            f"boxed {cost_of_x}",
            objective=[cost_of_x, 1.0],
            lower=[0.0, 0.0],
            upper=[1.0, np.inf],
            rows=[0, 0],
            cols=[0, 1],
            vals=[1.0, -1.0],
            rhs=[0.5],
            equality=[False],
        )

    problem = boxed(-2.0)
    highs, position = lp._pass_model(problem, problem.objective)
    assert lp._run(highs)[0] == "optimal"
    x = np.array(highs.getSolution().col_value)
    assert x.tolist() == [1.0, 0.5]
    y, reduced = lp._factor_certificate(problem, highs, position, x)
    assert y.tolist() == [-1.0] and reduced.tolist() == [-1.0, 0.0]
    # at a cost of 1 on x, the same basis leaves x a reduced cost of 2 at its
    # upper bound: not optimal
    assert lp._factor_certificate(boxed(1.0), highs, position, x) is None
