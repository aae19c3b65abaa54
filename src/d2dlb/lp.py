"""Solver-agnostic linear programs with a reference simplex implementation.

The problem container holds arrays: nonnegative (boxed) variables, a dense
minimization objective, and ``=`` / ``<=`` rows whose matrix is kept as
sparse (row, column, value) triplets.  Two backends ship with the package:

  * ``reference``: a revised simplex written here (two phases, dense numpy
    basis handling, Bland's anti-cycling rule once degeneracy is detected),
    suitable for desk-scale instances and used to cross-check the other
    backend;
  * ``scipy``: scipy.optimize.linprog with the HiGHS engine, the default for
    larger instances.  ``external`` is accepted as an alias so callers can
    swap in an industrial solver via register_backend without code changes.

Problems can be dumped to the fixed LP text format for external debugging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.optimize
import scipy.sparse


class LpError(ValueError):
    """Raised for malformed problems or misused solver APIs."""


@dataclass
class LpOptions:
    tolerance: float = 1e-9  # primal feasibility
    optimality_tolerance: float = 1e-7
    max_iterations: int = 100_000
    backend: str = "scipy"


#: relative slack applied to the primary optimum in lexicographic solves
DEFAULT_LEXICO_SLACK = 1e-9


class _Vector:
    """Append-only 1-D array: scalars and arrays go in, one numpy array comes out."""

    __slots__ = ("_dtype", "_parts", "_tail", "size")

    def __init__(self, dtype: type, values: np.ndarray | None = None):
        self._dtype = dtype
        self._parts = [np.zeros(0, dtype) if values is None else np.asarray(values, dtype)]
        self._tail: list = []
        self.size = self._parts[0].size

    def append(self, value) -> None:
        self._tail.append(value)
        self.size += 1

    def extend(self, values: list | np.ndarray) -> None:
        if isinstance(values, list):
            self._tail.extend(values)
        else:
            self._flush()
            self._parts.append(np.asarray(values, self._dtype))
        self.size += len(values)

    def _flush(self) -> None:
        if self._tail:
            self._parts.append(np.array(self._tail, self._dtype))
            self._tail = []

    def array(self) -> np.ndarray:
        self._flush()
        if len(self._parts) != 1:
            self._parts = [np.concatenate(self._parts)]
        return self._parts[0]


class LpProblem:
    """Minimization LP ``min c'x  s.t.  A x (= or <=) b,  lower <= x <= upper``.

    The problem is held as arrays: the constraint matrix as sparse
    (row, column, value) triplets, one rhs and one sense per row, a dense
    objective vector and per-variable bounds.  Variables and rows are
    numbered in the order they are added; variables default to [0, +inf).
    ``add_variable``/``add_constraint`` append one at a time,
    ``add_variables``/``add_constraints`` append whole blocks.  Names are
    optional and only used by ``to_lp_format``: an unnamed variable prints as
    ``x<i>``, an unnamed row as ``c<i>``.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.var_names: dict[int, str] = {}
        self.row_names: dict[int, str] = {}
        self._lower = _Vector(float)
        self._upper = _Vector(float)
        self._cost = _Vector(float)
        self._rows = _Vector(np.int64)
        self._cols = _Vector(np.int64)
        self._vals = _Vector(float)
        self._rhs = _Vector(float)
        self._eq = _Vector(bool)

    @property
    def n_variables(self) -> int:
        return self._lower.size

    @property
    def n_constraints(self) -> int:
        return self._rhs.size

    @property
    def lower(self) -> np.ndarray:
        return self._lower.array()

    @property
    def upper(self) -> np.ndarray:
        return self._upper.array()

    @property
    def objective(self) -> np.ndarray:
        """Dense cost vector, one entry per variable."""
        return self._cost.array()

    @property
    def rhs(self) -> np.ndarray:
        return self._rhs.array()

    @property
    def equality(self) -> np.ndarray:
        """Per row: True for ``=``, False for ``<=``."""
        return self._eq.array()

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, value) arrays of the constraint matrix's entries."""
        return self._rows.array(), self._cols.array(), self._vals.array()

    def var_name(self, i: int) -> str:
        return self.var_names.get(i, f"x{i}")

    def row_name(self, r: int) -> str:
        return self.row_names.get(r, f"c{r}")

    @staticmethod
    def _check_bounds(name: str, lower: float, upper: float) -> None:
        if lower < 0:
            raise LpError(f"variable {name!r}: lower bound must be >= 0")
        if upper < lower:
            raise LpError(f"variable {name!r}: empty bound interval")

    def add_variable(self, name: str, lower: float = 0.0, upper: float = math.inf) -> int:
        self._check_bounds(name, lower, upper)
        i = self.n_variables
        self._lower.append(lower)
        self._upper.append(upper)
        self._cost.append(0.0)
        self.var_names[i] = name
        return i

    def add_variables(self, count: int, lower: float = 0.0, upper: float = math.inf) -> int:
        """Append ``count`` unnamed variables with common bounds; returns the first index."""
        first = self.n_variables
        self._check_bounds(f"x{first}..", lower, upper)
        self._lower.extend(np.full(count, lower))
        self._upper.extend(np.full(count, upper))
        self._cost.extend(np.zeros(count))
        return first

    def set_objective(self, coeffs: Mapping[int, float] | np.ndarray) -> None:
        """Replace the objective by a {variable: cost} map or a dense cost vector."""
        n = self.n_variables
        if isinstance(coeffs, np.ndarray):
            if coeffs.shape != (n,):
                raise LpError(f"objective vector has shape {coeffs.shape}, expected ({n},)")
            c = coeffs.astype(float)
        else:
            c = np.zeros(n)
            for i, coef in coeffs.items():
                if not (0 <= i < n):
                    raise LpError(f"objective references unknown variable index {i}")
                c[i] = coef
        self._cost = _Vector(float, c)

    def add_constraint(
        self, coeffs: Mapping[int, float], sense: str, rhs: float, name: str = ""
    ) -> int:
        if sense not in ("=", "<="):
            raise LpError(f"unsupported sense {sense!r}")
        r = self.n_constraints
        terms = [(int(i), float(c)) for i, c in coeffs.items() if c != 0.0]
        self._rows.extend([r] * len(terms))
        self._cols.extend([i for i, _ in terms])
        self._vals.extend([c for _, c in terms])
        self._rhs.append(float(rhs))
        self._eq.append(sense == "=")
        if name:
            self.row_names[r] = name
        return r

    def add_constraints(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        rhs: np.ndarray,
        equality: np.ndarray,
    ) -> int:
        """Append a block of unnamed rows given as triplets; returns the first row index.

        ``rows`` numbers the block's rows from 0; ``rhs`` and ``equality``
        hold one entry per row of the block.
        """
        first = self.n_constraints
        m = len(rhs)
        if len(equality) != m:
            raise LpError("rhs and equality differ in length")
        if len(rows) and not (0 <= rows.min() and rows.max() < m):
            raise LpError("constraint block references a row outside the block")
        keep = vals != 0.0
        self._rows.extend(rows[keep] + first)
        self._cols.extend(cols[keep])
        self._vals.extend(vals[keep])
        self._rhs.extend(rhs)
        self._eq.extend(equality)
        return first

    def validate(self) -> None:
        n = self.n_variables
        if not np.isfinite(self.objective).all():
            raise LpError("objective has non-finite coefficient")
        rows, cols, vals = self.triplets()
        bad_rhs = np.flatnonzero(~np.isfinite(self.rhs))
        if bad_rhs.size:
            raise LpError(f"constraint {self.row_name(int(bad_rhs[0]))}: non-finite rhs")
        bad = np.flatnonzero((cols < 0) | (cols >= n))
        if bad.size:
            k = int(bad[0])
            raise LpError(
                f"constraint {self.row_name(int(rows[k]))}: unknown variable index {cols[k]}"
            )
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise LpError(
                f"constraint {self.row_name(int(rows[bad[0]]))}: non-finite coefficient"
            )

    def copy(self) -> "LpProblem":
        other = LpProblem(self.name)
        other.var_names = dict(self.var_names)
        other.row_names = dict(self.row_names)
        for attr in ("_lower", "_upper", "_cost", "_rows", "_cols", "_vals", "_rhs", "_eq"):
            vec = getattr(self, attr)
            setattr(other, attr, _Vector(vec._dtype, vec.array().copy()))
        return other

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective @ x)

    def max_residual(self, x: np.ndarray) -> float:
        """Largest constraint/bound violation at x."""
        x = np.asarray(x, dtype=float)
        worst = 0.0
        if self.n_variables:
            worst = max(worst, float(np.max(self.lower - x)), float(np.max(x - self.upper)))
        if self.n_constraints:
            rows, cols, vals = self.triplets()
            activity = np.bincount(rows, weights=vals * x[cols], minlength=self.n_constraints)
            excess = activity - self.rhs
            excess = np.where(self.equality, np.abs(excess), excess)
            worst = max(worst, float(np.max(excess)))
        return worst

    def linprog_arguments(self) -> dict:
        """This LP as keyword arguments of ``scipy.optimize.linprog``.

        ``A_ub``/``b_ub`` and ``A_eq``/``b_eq`` hold the ``<=`` and ``=`` rows
        in problem order, the matrices in CSR form (both None when there is
        no row of that sense); ``bounds`` is an (n, 2) array.
        """
        n = self.n_variables
        rows, cols, vals = self.triplets()
        eq = self.equality

        def block(mask: np.ndarray) -> tuple:
            if not mask.any():
                return None, None
            renumber = np.cumsum(mask) - 1
            keep = mask[rows]
            matrix = scipy.sparse.csr_matrix(
                (vals[keep], (renumber[rows[keep]], cols[keep])), shape=(int(mask.sum()), n)
            )
            return matrix, self.rhs[mask]

        a_ub, b_ub = block(~eq)
        a_eq, b_eq = block(eq)
        return {
            "c": self.objective.copy(),
            "A_ub": a_ub,
            "b_ub": b_ub,
            "A_eq": a_eq,
            "b_eq": b_eq,
            "bounds": np.column_stack([self.lower, self.upper]),
        }

    def to_lp_format(self) -> str:
        """Render in the fixed LP text format (CPLEX dialect)."""

        def term(c: float, name: str) -> str:
            sign = "-" if c < 0 else "+"
            return f"{sign} {abs(c):.17g} {name}"

        n, m = self.n_variables, self.n_constraints
        names = [self.var_name(i) for i in range(n)]
        lines = [f"\\ Problem: {self.name}", "Minimize", " obj:"]
        c = self.objective
        used = np.flatnonzero(c)
        if used.size:
            body = " ".join(term(c[i], names[i]) for i in used)
            lines[-1] += " " + body.lstrip("+ ")
        else:
            lines[-1] += " 0 " + (names[0] if names else "x0")
        lines.append("Subject To")
        rows, cols, vals = self.triplets()
        matrix = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, n))
        for r in range(m):
            lo, hi = matrix.indptr[r], matrix.indptr[r + 1]
            body = " ".join(
                term(coef, names[i]) for i, coef in zip(matrix.indices[lo:hi], matrix.data[lo:hi])
            )
            op = "=" if self.equality[r] else "<="
            lines.append(f" {self.row_name(r)}: {body.lstrip('+ ')} {op} {self.rhs[r]:.17g}")
        lines.append("Bounds")
        for name, lo, hi in zip(names, self.lower, self.upper):
            if math.isinf(hi):
                if lo != 0.0:
                    lines.append(f" {name} >= {lo:.17g}")
                else:
                    lines.append(f" 0 <= {name}")
            else:
                lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit | error
    objective: float | None
    x: np.ndarray | None
    max_primal_residual: float | None
    duals: np.ndarray | None = None  # row multipliers (reference backend)
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, index: int) -> float:
        if self.x is None:
            raise LpError("no solution values available")
        return float(self.x[index])


# ---------------------------------------------------------------------------
# Reference backend: two-phase revised simplex
# ---------------------------------------------------------------------------


class _Simplex:
    """Dense two-phase simplex on the standard form min c'x, Ax = b, x >= 0.

    The basis inverse is kept explicitly and updated with rank-1 pivots,
    refactorized periodically for stability.  Dantzig pricing by default;
    Bland's rule takes over after a run of degenerate pivots to rule out
    cycling.
    """

    DEGENERATE_STREAK = 40
    REFACTOR_EVERY = 60

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray, options: LpOptions):
        self.A = A
        self.b = b
        self.c = c
        self.m, self.n = A.shape
        self.opt = options
        self.iterations = 0

    def solve(self) -> tuple[str, np.ndarray | None, np.ndarray | None]:
        """Returns (status, x over original columns, duals per original row)."""
        m, n = self.m, self.n
        # Phase 1: artificial variables form the initial identity basis.
        A1 = np.hstack([self.A, np.eye(m)])
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        basis = list(range(n, n + m))
        status, basis = self._iterate(A1, self.b, c1, basis)
        if status != "optimal":
            return status, None, None
        xB = np.linalg.solve(A1[:, basis], self.b) if m else np.zeros(0)
        phase1_obj = float(c1[basis] @ xB)
        scale = 1.0 + (float(np.abs(self.b).max()) if m else 0.0)
        if phase1_obj > max(self.opt.tolerance, 1e-7) * scale:
            return "infeasible", None, None
        A2, b2, basis, keep_rows = self._drop_artificials(A1, basis, n)
        status, basis = self._iterate(A2, b2, self.c, basis)
        if status != "optimal":
            return status, None, None
        x = np.zeros(n)
        if basis:
            x[basis] = np.linalg.solve(A2[:, basis], b2)
            y_kept = np.linalg.solve(A2[:, basis].T, self.c[basis])
        else:
            y_kept = np.zeros(0)
        duals = np.zeros(m)
        duals[keep_rows] = y_kept
        return "optimal", x, duals

    def _drop_artificials(
        self, A1: np.ndarray, basis: list[int], n: int
    ) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
        """Pivot zero-level artificials out; rows where none of the original
        columns can replace them are redundant and dropped."""
        m = self.m
        if all(idx < n for idx in basis):
            return self.A, self.b, basis, list(range(m))
        Binv = np.linalg.inv(A1[:, basis])
        in_basis = set(basis)
        for pos in range(m):
            if basis[pos] < n:
                continue
            row = Binv[pos] @ A1[:, :n]
            candidates = [int(p) for p in np.nonzero(np.abs(row) > 1e-9)[0] if p not in in_basis]
            if not candidates:
                continue  # redundant row, removed below
            enter = candidates[0]
            d = Binv @ A1[:, enter]
            pivot = d[pos]
            Binv[pos] /= pivot
            for r in range(m):
                if r != pos and d[r] != 0.0:
                    Binv[r] -= d[r] * Binv[pos]
            in_basis.discard(basis[pos])
            in_basis.add(enter)
            basis[pos] = enter
        keep_rows = [p for p in range(m) if basis[p] < n]
        new_basis = [basis[p] for p in keep_rows]
        return self.A[keep_rows, :], self.b[keep_rows], new_basis, keep_rows

    def _iterate(
        self, A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int]
    ) -> tuple[str, list[int]]:
        m = A.shape[0]
        if m == 0:
            # no rows: optimal iff no improving ray exists
            if any(c[i] < -self.opt.optimality_tolerance for i in range(A.shape[1])):
                return "unbounded", basis
            return "optimal", basis
        Binv = np.linalg.inv(A[:, basis])
        bland = False
        degenerate_streak = 0
        since_refactor = 0
        opt_tol = self.opt.optimality_tolerance
        while True:
            if self.iterations >= self.opt.max_iterations:
                return "iteration_limit", basis
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= self.REFACTOR_EVERY:
                Binv = np.linalg.inv(A[:, basis])
                since_refactor = 0
            xB = Binv @ b
            y = c[basis] @ Binv
            reduced = c - y @ A
            reduced[basis] = 0.0
            if bland:
                entering_candidates = np.nonzero(reduced < -opt_tol)[0]
                if entering_candidates.size == 0:
                    return "optimal", basis
                enter = int(entering_candidates[0])
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -opt_tol:
                    return "optimal", basis
            d = Binv @ A[:, enter]
            positive = d > 1e-11
            if not positive.any():
                return "unbounded", basis
            ratios = np.full(m, np.inf)
            ratios[positive] = xB[positive] / d[positive]
            theta = ratios.min()
            if bland:
                # smallest basic variable index among the ties
                tie_rows = np.nonzero(ratios <= theta + 1e-12)[0]
                leave_row = min(tie_rows, key=lambda r: basis[r])
            else:
                leave_row = int(np.argmin(ratios))
            if theta <= 1e-11:
                degenerate_streak += 1
                if degenerate_streak >= self.DEGENERATE_STREAK:
                    bland = True
            else:
                degenerate_streak = 0
                bland = False
            # rank-1 update of the basis inverse
            pivot = d[leave_row]
            Binv[leave_row] /= pivot
            for r in range(m):
                if r != leave_row and d[r] != 0.0:
                    Binv[r] -= d[r] * Binv[leave_row]
            basis[leave_row] = enter


def _to_standard_form(
    problem: LpProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Shift lower bounds out, add rows for finite upper bounds and slacks.

    Returns (A, b, c, row_signs, n_original); row_signs[i] is +-1 recording
    rhs sign flips so duals can be mapped back.
    """
    n, m0 = problem.n_variables, problem.n_constraints
    lower, upper = problem.lower, problem.upper
    rows, cols, vals = problem.triplets()
    boxed = np.flatnonzero(np.isfinite(upper))
    m = m0 + boxed.size
    # every <= row, bound rows included, gets its own slack column
    has_slack = np.concatenate([~problem.equality, np.ones(boxed.size, dtype=bool)])
    n_slack = int(has_slack.sum())
    A = np.zeros((m, n + n_slack))
    np.add.at(A, (rows, cols), vals)
    A[m0 + np.arange(boxed.size), boxed] = 1.0
    A[np.flatnonzero(has_slack), n + np.arange(n_slack)] = 1.0
    shift = np.bincount(rows, weights=vals * lower[cols], minlength=m0)
    b = np.concatenate([problem.rhs - shift, upper[boxed] - lower[boxed]])
    c = np.concatenate([problem.objective, np.zeros(n_slack)])
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    return A, b, c, np.where(flip, -1.0, 1.0), n


def _solve_reference(problem: LpProblem, options: LpOptions) -> LpSolution:
    problem.validate()
    A, b, c, row_signs, n = _to_standard_form(problem)
    simplex = _Simplex(A, b, c, options)
    status, x_std, duals = simplex.solve()
    if status != "optimal":
        return LpSolution(status, None, None, None, iterations=simplex.iterations)
    x = x_std[:n] + problem.lower
    # undo rhs sign flips; drop rows added for upper bounds
    y = (duals * row_signs)[: problem.n_constraints]
    return LpSolution(
        status="optimal",
        objective=problem.objective_value(x),
        x=x,
        max_primal_residual=problem.max_residual(x),
        duals=y,
        iterations=simplex.iterations,
    )


def dual_certificate_gap(problem: LpProblem, solution: LpSolution) -> float:
    """Weak-duality certificate from the reference solver's row multipliers.

    Checks that the multipliers are dual feasible (nonpositive on <= rows,
    reduced costs >= 0 taking bounds into account) and returns the absolute
    gap |c'x - dual objective|.  Raises LpError if the certificate fails.
    """
    if solution.duals is None or solution.x is None:
        raise LpError("solution carries no dual multipliers")
    y = solution.duals
    tol = 1e-6 * (1.0 + abs(solution.objective or 0.0))
    positive = np.flatnonzero(~problem.equality & (y > 1e-7))
    if positive.size:
        r = int(positive[0])
        raise LpError(f"dual multiplier of <= row {r} is positive: {y[r]}")
    rows, cols, vals = problem.triplets()
    col_dual = np.bincount(cols, weights=y[rows] * vals, minlength=problem.n_variables)
    reduced = problem.objective - col_dual
    lower, upper = problem.lower, problem.upper
    free_above = np.isinf(upper)
    negative = np.flatnonzero(free_above & (reduced < -1e-6))
    if negative.size:
        i = int(negative[0])
        raise LpError(f"reduced cost of variable {i} negative: {reduced[i]}")
    # the binding bound absorbs the reduced cost: the lower one unless a
    # boxed variable's reduced cost is negative
    bound_terms = np.where(
        free_above,
        np.maximum(reduced, 0.0) * lower,
        reduced * np.where(reduced >= 0, lower, upper),
    )
    dual_obj = float(y @ problem.rhs) + float(bound_terms.sum())
    gap = abs((solution.objective or 0.0) - dual_obj)
    if gap > tol:
        raise LpError(f"duality gap {gap} exceeds tolerance {tol}")
    return gap


# ---------------------------------------------------------------------------
# scipy backend
# ---------------------------------------------------------------------------


def _solve_scipy(problem: LpProblem, options: LpOptions) -> LpSolution:
    problem.validate()
    res = scipy.optimize.linprog(
        **problem.linprog_arguments(),
        method="highs",
        options={
            "primal_feasibility_tolerance": min(options.tolerance, 1e-9),
            "dual_feasibility_tolerance": min(options.optimality_tolerance, 1e-9),
            "maxiter": options.max_iterations,
        },
    )
    status = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}.get(
        res.status, "error"
    )
    if status != "optimal":
        return LpSolution(status, None, None, None, iterations=int(getattr(res, "nit", 0)))
    x = np.asarray(res.x)
    return LpSolution(
        status="optimal",
        objective=problem.objective_value(x),
        x=x,
        max_primal_residual=problem.max_residual(x),
        iterations=int(getattr(res, "nit", 0)),
    )


# ---------------------------------------------------------------------------
# Backend registry and entry points
# ---------------------------------------------------------------------------

Backend = Callable[[LpProblem, LpOptions], LpSolution]

_BACKENDS: dict[str, Backend] = {
    "reference": _solve_reference,
    "scipy": _solve_scipy,
    "external": _solve_scipy,  # shipped implementation of the external-solver interface
}


def register_backend(name: str, backend: Backend) -> None:
    _BACKENDS[name] = backend


def solve(problem: LpProblem, options: LpOptions | None = None) -> LpSolution:
    options = options or LpOptions()
    try:
        backend = _BACKENDS[options.backend]
    except KeyError:
        raise LpError(f"unknown backend {options.backend!r}") from None
    return backend(problem, options)


def secondary_problem(
    problem_primary: LpProblem,
    primary_optimum: float,
    objective_secondary: Mapping[int, float] | np.ndarray,
    slack: float = DEFAULT_LEXICO_SLACK,
) -> LpProblem:
    """The second stage of a lexicographic solve, on a copy of the primary model.

    The copy gains one row capping the primary objective at
    ``primary_optimum`` plus ``slack`` (relative, at least absolute), and
    ``objective_secondary`` replaces its cost; variables and the other rows
    are unchanged, so a primary solution's layout applies to it as well.
    """
    second = problem_primary.copy()
    second.name = problem_primary.name + "+secondary"
    cap = primary_optimum + slack * max(1.0, abs(primary_optimum))
    c = problem_primary.objective
    used = np.flatnonzero(c)
    second.add_constraint(dict(zip(used.tolist(), c[used].tolist())), "<=", cap, "primary_cap")
    second.set_objective(objective_secondary)
    return second


def solve_lexicographic(
    problem_primary: LpProblem,
    objective_secondary: Mapping[int, float],
    slack: float = DEFAULT_LEXICO_SLACK,
    options: LpOptions | None = None,
) -> tuple[LpSolution, LpSolution]:
    """Minimize the primary objective, then the secondary one subject to the
    primary staying within ``slack`` (relative) of its optimum.

    Returns (primary_solution, secondary_solution).
    """
    options = options or LpOptions()
    primary = solve(problem_primary, options)
    if not primary.optimal:
        return primary, primary
    second = secondary_problem(problem_primary, primary.objective, objective_secondary, slack)
    return primary, solve(second, options)
