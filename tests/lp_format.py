"""LP text dumps of ``LpProblem``s, for tests and debugging.

``to_lp_format`` renders a problem in the fixed LP text format (CPLEX
dialect), which external solvers and editors read.  Names come from the
caller, such as an ``lp_builder.LpBuilder``'s; an unnamed variable prints
as ``x<i>``, an unnamed row as ``c<i>``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse

from d2dlb.lp import LpProblem


def to_lp_format(
    problem: LpProblem, var_names: Sequence[str] = (), row_names: Mapping[int, str] = {}
) -> str:
    """Render ``problem`` in the fixed LP text format (CPLEX dialect)."""

    def term(c: float, name: str) -> str:
        sign = "-" if c < 0 else "+"
        return f"{sign} {abs(c):.17g} {name}"

    n, m = problem.n_variables, problem.n_constraints
    names = list(var_names) + [f"x{i}" for i in range(len(var_names), n)]
    lines = [f"\\ Problem: {problem.name}", "Minimize", " obj:"]
    c = problem.objective
    used = np.flatnonzero(c)
    if used.size:
        body = " ".join(term(c[i], names[i]) for i in used)
        lines[-1] += " " + body.lstrip("+ ")
    else:
        lines[-1] += " 0 " + (names[0] if names else "x0")
    lines.append("Subject To")
    matrix = scipy.sparse.csr_matrix((problem.vals, (problem.rows, problem.cols)), shape=(m, n))
    for r in range(m):
        lo, hi = matrix.indptr[r], matrix.indptr[r + 1]
        body = " ".join(
            term(coef, names[i]) for i, coef in zip(matrix.indices[lo:hi], matrix.data[lo:hi])
        )
        op = "=" if problem.equality[r] else "<="
        lines.append(f" {row_names.get(r, f'c{r}')}: {body.lstrip('+ ')} {op} {problem.rhs[r]:.17g}")
    lines.append("Bounds")
    for name, lo, hi in zip(names, problem.lower, problem.upper):
        if math.isinf(hi):
            if lo != 0.0:
                lines.append(f" {name} >= {lo:.17g}")
            else:
                lines.append(f" 0 <= {name}")
        else:
            lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
    lines.append("End")
    return "\n".join(lines) + "\n"
