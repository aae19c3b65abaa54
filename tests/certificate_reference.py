"""The full weak-duality certificate of an LP optimum, from its row duals alone.

The library certifies every optimum through ``LpSolution.dual_gap`` held to
``lp.gap_tolerance``.  ``dual_certificate_gap`` checks the same optimum
from scratch: the duals' signs, every reduced cost, and the gap, so tests
can hold a solution's ``dual_gap`` and its duals to it.
"""

from __future__ import annotations

import numpy as np

from d2dlb.lp import LpError, LpProblem, LpSolution, duality_gap, gap_tolerance, reduced_costs


def dual_certificate_gap(problem: LpProblem, solution: LpSolution) -> float:
    """Weak-duality certificate from a solution's row multipliers.

    Checks that the multipliers are dual feasible (nonpositive on <= rows,
    reduced costs >= 0 taking bounds into account) and returns the absolute
    gap |c'x - dual objective| (``duality_gap``).  Raises LpError if the
    certificate fails.
    """
    if solution.duals is None or solution.x is None:
        raise LpError("solution carries no dual multipliers")
    y = solution.duals
    tol = gap_tolerance(solution.objective)
    positive = np.flatnonzero(~problem.equality & (y > 1e-7))
    if positive.size:
        r = int(positive[0])
        raise LpError(f"dual multiplier of <= row {r} is positive: {y[r]}")
    reduced = reduced_costs(problem, y)
    negative = np.flatnonzero(np.isinf(problem.upper) & (reduced < -1e-6))
    if negative.size:
        i = int(negative[0])
        raise LpError(f"reduced cost of variable {i} negative: {reduced[i]}")
    gap = duality_gap(problem, solution.x, y, reduced)
    if gap > tol:
        raise LpError(f"duality gap {gap} exceeds tolerance {tol}")
    return gap
