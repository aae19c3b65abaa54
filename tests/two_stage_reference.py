"""Two-stage reference for lexicographic solves: two HiGHS solves and a cap row.

``lp.solve_lexicographic`` answers "the least secondary cost among the
minimizers of the primary cost" with one model and a certificate.  The
reference answers it the long way: solve the primary model, append the row
``c'x <= F* + slack * max(1, |F*|)`` and swap in the secondary cost, then
solve again.  Tests compare the two.
"""

from __future__ import annotations

import numpy as np

from d2dlb import lp
from d2dlb.d2d_flow import TimeExpandedIndex


def cap_and_recost(
    problem: lp.LpProblem, optimum: float, secondary_cost: np.ndarray, slack: float = 0.0
) -> lp.LpProblem:
    """Turn ``problem`` into its second stage, in place, and return it.

    The appended row (named ``primary_cap``) caps the current objective at
    ``optimum`` plus ``slack`` (relative, absolute below 1), and
    ``secondary_cost`` becomes the objective; the columns and the other rows
    keep their layout.
    """
    c = problem.objective
    used = np.flatnonzero(c)
    cap = optimum + slack * max(1.0, abs(optimum))
    problem.add_constraint(dict(zip(used.tolist(), c[used].tolist())), "<=", cap, "primary_cap")
    problem.set_objective(np.asarray(secondary_cost, dtype=float))
    return problem


def solve_two_stage(
    problem: lp.LpProblem,
    secondary_cost: np.ndarray,
    slack: float = 0.0,
    options: lp.LpOptions | None = None,
) -> tuple[lp.LpSolution, lp.LpSolution]:
    """(primary solution, secondary solution); ``problem`` ends as the second stage."""
    primary = lp.solve(problem, options)
    if not primary.optimal:
        return primary, primary
    cap_and_recost(problem, primary.objective, secondary_cost, slack)
    return primary, lp.solve(problem, options)


def overhead_model(
    index: TimeExpandedIndex, total_spectrum: float, slack: float = 0.0
) -> lp.LpProblem:
    """The flow LP's overhead stage at ``total_spectrum``, built on ``index.problem`` in place."""
    return cap_and_recost(index.problem, total_spectrum, index.relay_cost, slack)


def flow_two_stage(index: TimeExpandedIndex, slack: float = 0.0) -> tuple[float, float]:
    """(least total spectrum F, least relayed traffic R at F) of a freshly built flow LP."""
    primary, secondary = solve_two_stage(index.problem, index.relay_cost, slack)
    assert primary.optimal and secondary.optimal, (primary.status, secondary.status)
    return primary.objective, secondary.objective
