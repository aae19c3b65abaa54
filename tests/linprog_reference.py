"""The path HiGHS used to be reached by: ``scipy.optimize.linprog``.

``reference_arguments`` turns an ``LpProblem`` into ``linprog`` keyword
arguments, and ``reference_solve`` runs ``linprog(method="highs")`` with the
settings ``lp.HIGHS_OPTIONS`` gives HiGHS, written out as ``linprog`` takes
them.  Tests hold the driver to this path: same status, iterations, point
and objective.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.optimize
import scipy.sparse

from d2dlb.lp import HIGHS_OPTIONS, LpProblem


def reference_arguments(problem: LpProblem) -> dict:
    """This LP as keyword arguments of ``scipy.optimize.linprog``.

    ``A_ub``/``b_ub`` and ``A_eq``/``b_eq`` hold the ``<=`` and ``=`` rows
    in problem order, the matrices in CSR form (both None when there is
    no row of that sense); ``bounds`` is an (n, 2) array.
    """
    n = problem.n_variables
    rows, cols, vals = problem.rows, problem.cols, problem.vals
    eq = problem.equality

    def block(mask: np.ndarray) -> tuple:
        if not mask.any():
            return None, None
        renumber = np.cumsum(mask) - 1
        keep = mask[rows]
        matrix = scipy.sparse.csr_matrix(
            (vals[keep], (renumber[rows[keep]], cols[keep])), shape=(int(mask.sum()), n)
        )
        return matrix, problem.rhs[mask]

    a_ub, b_ub = block(~eq)
    a_eq, b_eq = block(eq)
    return {
        "c": problem.objective.copy(),
        "A_ub": a_ub,
        "b_ub": b_ub,
        "A_eq": a_eq,
        "b_eq": b_eq,
        "bounds": np.column_stack([problem.lower, problem.upper]),
    }


def reference_solve(problem: LpProblem, max_iterations: int = 100_000):
    """``linprog``'s result for ``problem`` under the settings of ``lp.HIGHS_OPTIONS``.

    ``linprog`` has no option of its own for HiGHS's scaling strategy; it
    passes ``simplex_scale_strategy`` to HiGHS as it is, with an
    ``OptimizeWarning`` for the unknown option, which is silenced here.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "Unrecognized options", scipy.optimize.OptimizeWarning
        )
        return scipy.optimize.linprog(
            **reference_arguments(problem),
            method="highs",
            options={
                "presolve": HIGHS_OPTIONS["presolve"] == "on",
                "simplex_scale_strategy": HIGHS_OPTIONS["simplex_scale_strategy"],
                "primal_feasibility_tolerance": 1e-9,
                "dual_feasibility_tolerance": 1e-9,
                "maxiter": max_iterations,
                "time_limit": HIGHS_OPTIONS["time_limit"],
            },
        )


#: ``linprog``'s integer statuses in the backend's words
STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded", 4: "error"}
