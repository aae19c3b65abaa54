"""Linear programs and their one solver, HiGHS.

The problem container holds arrays: nonnegative (boxed) variables, a dense
minimization objective, and ``=`` / ``<=`` rows whose matrix is kept as
sparse (row, column, value) triplets.

``solve`` (``run_highs``) runs HiGHS on the engine scipy ships
(``scipy.optimize._highspy._core``), with the model and options
``scipy.optimize.linprog(method="highs")`` would build and ``linprog``'s
reading of the result, without ``linprog``'s input cleaning and
bound-marginal copies.  ``solve_lexicographic`` minimizes a second cost
among the minimizers of the first with one model on one HiGHS object: a
weighted solve, then a re-run of its basis on the first cost alone as the
certificate, and, only if that re-run iterates, a capped second stage.

Every optimum carries row duals, so ``dual_certificate_gap`` certifies it,
and problems can be dumped to the fixed LP text format for external
debugging.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse
from scipy.optimize import OptimizeWarning
from scipy.optimize._highspy import _core as _highs


class LpError(ValueError):
    """Raised for malformed problems or misused solver APIs."""


@dataclass
class LpOptions:
    tolerance: float = 1e-9  # primal feasibility
    optimality_tolerance: float = 1e-7
    max_iterations: int = 100_000


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
    duals: np.ndarray | None = None  # row multipliers y, reduced costs c - A'y
    iterations: int = 0
    fallback: bool = False  # solve_lexicographic's certificate failed; the capped stage ran

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, index: int) -> float:
        if self.x is None:
            raise LpError("no solution values available")
        return float(self.x[index])


def dual_certificate_gap(problem: LpProblem, solution: LpSolution) -> float:
    """Weak-duality certificate from a solution's row multipliers.

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
# HiGHS, run on the engine scipy ships
# ---------------------------------------------------------------------------

#: HiGHS model statuses as ``linprog`` reports them; any other is an error
_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kTimeLimit: "iteration_limit",
    _highs.HighsModelStatus.kIterationLimit: "iteration_limit",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kModelError: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}

#: an "optimal" point violating a bound or row by more than this is an error
#: (``linprog``'s post-solve check: ten times the square root of its 1e-9 tol)
RESULT_CHECK_TOL = 10.0 * math.sqrt(1e-9)


def _highs_options(options: LpOptions) -> dict:
    """The HiGHS options ``linprog(method="highs")`` sets for these LpOptions."""
    return {
        "output_flag": False,
        "log_to_console": False,
        "highs_debug_level": int(_highs.HighsDebugLevel.kHighsDebugLevelNone),
        "presolve": "on",
        "simplex_strategy": int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        "primal_feasibility_tolerance": min(options.tolerance, 1e-9),
        "dual_feasibility_tolerance": min(options.optimality_tolerance, 1e-9),
        "simplex_iteration_limit": options.max_iterations,
        "ipm_iteration_limit": options.max_iterations,
    }


def _pass_model(
    problem: LpProblem, options: LpOptions, cost: np.ndarray
) -> tuple[_highs._Highs | None, np.ndarray]:
    """One HiGHS object holding ``problem`` with objective ``cost``, set up as ``linprog`` would.

    Returns the object (None when HiGHS refuses the model, which ``linprog``
    reports as "infeasible") and, per problem row, its position in HiGHS's
    row order: ``linprog``'s, the ``<=`` rows above the ``=`` rows, each group
    in problem order.
    """
    problem.validate()
    n, m = problem.n_variables, problem.n_constraints
    if n == 0:
        raise LpError(f"{problem.name}: no variables")  # linprog refuses it too
    rows, cols, vals = problem.triplets()
    eq = problem.equality
    order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
    position = np.empty(m, np.int64)
    position[order] = np.arange(m)
    matrix = scipy.sparse.csc_array((vals, (position[rows], cols)), shape=(m, n))
    rhs = problem.rhs[order]
    highs = _highs._Highs()
    for name, value in _highs_options(options).items():
        # like linprog: a value outside the option's range warns and HiGHS
        # keeps its default
        if highs.setOptionValue(name, value) != _highs.HighsStatus.kOk:
            warnings.warn(f"HiGHS option {name}={value!r} refused", OptimizeWarning, stacklevel=3)
    passed = highs.passModel(
        n,
        m,
        matrix.nnz,
        int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize),
        0.0,  # objective offset
        cost,
        problem.lower,
        np.where(np.isinf(problem.upper), _highs.kHighsInf, problem.upper),
        np.where(eq[order], rhs, -_highs.kHighsInf),
        rhs,
        matrix.indptr.astype(np.int32, copy=False),
        matrix.indices.astype(np.int32, copy=False),
        matrix.data,
        np.zeros(n, np.int32),  # every column continuous: an LP, as in linprog
    )
    return (None if passed == _highs.HighsStatus.kError else highs), position


def _run(highs: _highs._Highs) -> tuple[str, int]:
    """Run HiGHS from wherever it stands; returns the status and this run's iterations."""
    if highs.run() == _highs.HighsStatus.kError:
        return _HIGHS_STATUS.get(highs.getModelStatus(), "error"), 0
    info = highs.getInfo()
    iterations = info.simplex_iteration_count or info.ipm_iteration_count
    return _HIGHS_STATUS.get(highs.getModelStatus(), "error"), iterations


def _read(highs: _highs._Highs, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The primal point and the row duals of the problem's rows, in problem row order."""
    solution = highs.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)[position]


def _checked(
    problem: LpProblem, x: np.ndarray, duals: np.ndarray, iterations: int, fallback: bool = False
) -> LpSolution:
    """``linprog``'s post-solve check: a NaN or a residual above ``RESULT_CHECK_TOL`` errs."""
    residual = problem.max_residual(x)
    if not residual <= RESULT_CHECK_TOL:  # a NaN in x makes the residual NaN
        return LpSolution("error", None, None, None, iterations=iterations)
    return LpSolution(
        status="optimal",
        objective=problem.objective_value(x),
        x=x,
        max_primal_residual=residual,
        duals=duals,
        iterations=iterations,
        fallback=fallback,
    )


def run_highs(problem: LpProblem, options: LpOptions | None = None) -> LpSolution:
    """Solve ``problem`` with HiGHS as ``scipy.optimize.linprog(method="highs")`` would.

    HiGHS runs on ``scipy.optimize._highspy._core``, the engine ``linprog``
    calls, with the same model and options, so it takes the same path; only
    the primal point, the row duals and the iteration count are read back.
    Statuses map as in ``linprog``, and an optimum that fails its post-solve
    check (a NaN, or a residual above ``RESULT_CHECK_TOL``) is an "error".
    ``duals`` are the row duals in problem row order (``c - A'y`` are the
    reduced costs).
    """
    options = options or LpOptions()
    highs, position = _pass_model(problem, options, problem.objective)
    if highs is None:
        return LpSolution("infeasible", None, None, None)
    status, iterations = _run(highs)
    if status != "optimal":
        return LpSolution(status, None, None, None, iterations=iterations)
    return _checked(problem, *_read(highs, position), iterations)


solve = run_highs

#: weight of the secondary cost in ``solve_lexicographic``'s one solve,
#: relative to the secondary cost's largest coefficient
LEXICO_WEIGHT = 1e-5
#: relative slack (absolute below 1) on the primary optimum in the fallback's cap row
FALLBACK_CAP_SLACK = 1e-9


def solve_lexicographic(
    problem: LpProblem, secondary_cost: np.ndarray, options: LpOptions | None = None
) -> LpSolution:
    """Minimize ``problem``'s cost c, then ``secondary_cost`` s among the minimizers of c.

    The model goes to one HiGHS object once, with the cost c + eps*s, where
    eps = ``LEXICO_WEIGHT`` / max|s|.  The optimal basis is then re-run on c
    alone.  A re-run that takes no iteration certifies x: the basis is
    optimal for c, so c'x is the optimum F*, and any x' with c'x' = F* and
    s'x' < s'x would beat x on c + eps*s, so x is lexicographically optimal
    (Sherali, "Equivalent weights for lexicographic multi-objective
    programs", EJOR 1982).  A re-run that iterates ends at F*; the fallback
    then adds the row c'x <= F* + ``FALLBACK_CAP_SLACK`` * max(1, |F*|) to
    the same object and minimizes s, the two-stage answer, and the solution's
    ``fallback`` is set.

    ``objective`` is c'x, ``duals`` are the row duals of ``problem`` at its
    c-optimum (so ``dual_certificate_gap`` certifies F* on either path), and
    ``iterations`` counts every run.
    """
    options = options or LpOptions()
    c = problem.objective
    s = np.asarray(secondary_cost, dtype=float)
    if s.shape != c.shape:
        raise LpError(f"secondary cost has shape {s.shape}, expected {c.shape}")
    largest = float(np.abs(s).max(initial=0.0))
    weight = LEXICO_WEIGHT / largest if largest > 0 else 0.0
    highs, position = _pass_model(problem, options, c + weight * s)
    if highs is None:
        return LpSolution("infeasible", None, None, None)
    status, iterations = _run(highs)
    rerun = 0
    if status == "optimal":
        columns = np.arange(problem.n_variables, dtype=np.int32)
        highs.changeColsCost(columns.size, columns, c)
        status, rerun = _run(highs)
        iterations += rerun
    if status != "optimal":
        return LpSolution(status, None, None, None, iterations=iterations)
    x, duals = _read(highs, position)
    if rerun:
        optimum = problem.objective_value(x)
        cap = optimum + FALLBACK_CAP_SLACK * max(1.0, abs(optimum))
        used = np.flatnonzero(c)
        added = highs.addRow(-_highs.kHighsInf, cap, used.size, used.astype(np.int32), c[used])
        if added != _highs.HighsStatus.kOk:
            return LpSolution("error", None, None, None, iterations=iterations)
        highs.changeColsCost(columns.size, columns, s)
        status, capped = _run(highs)
        iterations += capped
        if status != "optimal":
            return LpSolution(status, None, None, None, iterations=iterations)
        x = _read(highs, position)[0]
    return _checked(problem, x, duals, iterations, fallback=rerun > 0)
