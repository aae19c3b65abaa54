"""Two-stage reference for lexicographic solves: two HiGHS solves and a cap row.

``lp.solve`` answers "the least secondary cost among the minimizers of the
primary cost" with one model and a certificate.  The reference answers it
the long way: solve the primary model, then solve a copy of it with the row
``c'x <= F* + slack * max(1, |F*|)`` appended and the secondary cost swapped
in.  Tests compare the two; those that cap with a slack pass ``CAP_SLACK``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from d2dlb import lp
from d2dlb.d2d_flow import TimeExpandedIndex

#: relative slack (absolute below 1) on the primary optimum in the cap row
CAP_SLACK = 1e-9


def plain_solve(problem: lp.LpProblem) -> lp.LpSolution:
    """``problem`` solved for its own cost alone: ``lp.solve`` with a zero secondary cost."""
    return lp.solve(problem, np.zeros(problem.n_variables))


def cap_and_recost(
    problem: lp.LpProblem, optimum: float, secondary_cost: np.ndarray, slack: float = 0.0
) -> lp.LpProblem:
    """The second stage of ``problem``: a new record, ``problem`` itself is left as it is.

    One row appended after the others caps the current objective at
    ``optimum`` plus ``slack`` (relative, absolute below 1), and
    ``secondary_cost`` becomes the objective; the columns and the other rows
    keep their layout.
    """
    c = problem.objective
    used = np.flatnonzero(c)
    cap = optimum + slack * max(1.0, abs(optimum))
    return dataclasses.replace(
        problem,
        objective=secondary_cost,
        rows=np.concatenate([problem.rows, np.full(used.size, problem.n_constraints)]),
        cols=np.concatenate([problem.cols, used]),
        vals=np.concatenate([problem.vals, c[used]]),
        rhs=np.append(problem.rhs, cap),
        equality=np.append(problem.equality, False),
    )


def solve_two_stage(
    problem: lp.LpProblem,
    secondary_cost: np.ndarray,
    slack: float = 0.0,
) -> tuple[lp.LpSolution, lp.LpSolution]:
    """(primary solution, secondary solution) of ``problem`` and its second stage."""
    primary = plain_solve(problem)
    if not primary.optimal:
        return primary, primary
    return primary, plain_solve(cap_and_recost(problem, primary.objective, secondary_cost, slack))


def overhead_model(
    index: TimeExpandedIndex, total_spectrum: float, slack: float = 0.0
) -> lp.LpProblem:
    """The flow LP's overhead stage at ``total_spectrum``."""
    return cap_and_recost(index.problem, total_spectrum, index.relay_cost, slack)


def flow_two_stage(
    problem: lp.LpProblem, relay_cost: np.ndarray, slack: float = 0.0
) -> tuple[float, float]:
    """(least total spectrum F, least relayed traffic R at F) of a flow LP."""
    primary, secondary = solve_two_stage(problem, relay_cost, slack)
    assert primary.optimal and secondary.optimal, (primary.status, secondary.status)
    return primary.objective, secondary.objective
