"""Linear programs and their one solver, HiGHS.

A problem, ``LpProblem``, is a frozen record of arrays built in one call:
nonnegative (boxed) variables, a dense minimization objective, and ``=`` /
``<=`` rows whose matrix is kept as sparse (row, column, value) triplets.
Its constructor checks it once, so the solver passes it to HiGHS as it is.

``solve`` runs HiGHS on the engine scipy ships
(``scipy.optimize._highspy._core``), with the model and the settings
``scipy.optimize.linprog(method="highs")`` would build and ``linprog``'s
reading of the result, without ``linprog``'s input cleaning and
bound-marginal copies.  The engine is loaded from its file
(``_load_engine``) and the column-wise matrix is built with numpy
(``column_wise``), so ``scipy``, ``scipy.optimize`` and ``scipy.sparse`` are
never imported.  The settings are one constant, ``HIGHS_OPTIONS``:
the formulation is solved one fixed way.  ``solve`` minimizes a second cost
among the minimizers of the first with one model on one HiGHS object: a
weighted solve, certified on the first cost alone from the factorization
HiGHS ends with (one transposed solve for the row duals, then a
dual-feasibility check of the reduced costs), so a certified optimum costs
one HiGHS run; with a zero second cost it is a plain solve.  Only when that
check fails is the basis re-run on the first cost, and, only if that re-run
iterates, a face stage follows: the columns and rows the re-run's duals
price are fixed at their bounds, and the second cost is minimized on what
is left, the optimal face of the first.
It can start from a given basis and returns the basis of the optimum it
certifies, so a problem that differs from a solved one only in bounds and
right-hand sides (``LpProblem.with_bounds``) is re-solved by dual simplex
from where the solved one ended; such a problem shares HiGHS's layout of the
matrix (``HighsLayout``) with the one it came from.

Every optimum carries row duals and their duality gap (``dual_gap``,
``duality_gap``), which callers hold to ``gap_tolerance``.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

#: the full import name of the HiGHS engine scipy ships
ENGINE = "scipy.optimize._highspy._core"


def _load_engine(directory: str) -> ModuleType:
    """The HiGHS extension module ``ENGINE``, loaded from its file in ``directory``.

    Loading the file directly skips ``scipy/optimize/__init__.py`` (linprog,
    minimize, scipy.linalg, scipy.sparse and the rest), which costs far more
    start-up time and memory than the engine itself.  The module is
    registered under its full name, and an entry already there, from an
    earlier ``import scipy.optimize`` or an earlier call, is reused: pybind11
    cannot register the engine's types twice in one process, and with one
    module object ``linprog`` and this module share them.
    """
    spec = importlib.machinery.PathFinder.find_spec(ENGINE, [directory])
    if spec is None:
        raise ImportError(f"no HiGHS engine {ENGINE} in {directory}; d2dlb needs scipy>=1.15")
    if ENGINE in sys.modules:
        return sys.modules[ENGINE]
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[ENGINE] = module
    return module


_scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]  # not imported
_highs = _load_engine(os.path.join(_scipy_dir, "optimize", "_highspy"))


#: a simplex basis as HiGHS reports it: one status per column and per row
Basis = _highs.HighsBasis


class LpError(ValueError):
    """Raised for malformed problems or misused solver APIs."""


#: the dtype of each array of an ``LpProblem``
_DTYPES = dict(
    objective=float, lower=float, upper=float, rows=np.int64, cols=np.int64, vals=float,
    rhs=float, equality=bool,
)


def ordered_sum(terms: np.ndarray) -> float:
    """The terms added one after another from 0, in array order."""
    return float(np.bincount(np.zeros(terms.size, np.intp), terms, 1)[0])


def ordered_dot(cost: np.ndarray, x: np.ndarray) -> float:
    """cost'x over the nonzero costs, added one after another in column order from 0."""
    used = np.flatnonzero(cost)
    return ordered_sum(cost[used] * x[used])


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Minimization LP ``min c'x  s.t.  A x (= or <=) b,  lower <= x <= upper``.

    A record of arrays, built in one call: the objective c and the bounds,
    one entry per variable; the constraint matrix A as (``rows``, ``cols``,
    ``vals``) triplets; and ``rhs`` and ``equality`` (True for ``=``, False
    for ``<=``), one entry per row.  The constructor checks the shapes, that
    every bound interval is ``0 <= lower <= upper`` with ``lower`` finite,
    that every triplet names an existing row and variable, and that the
    objective, the matrix values and the right-hand sides are finite.
    """

    name: str
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray
    equality: np.ndarray
    #: HiGHS's layout of the matrix, once ``with_bounds`` has shared it
    _layout: HighsLayout | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        for field, dtype in _DTYPES.items():
            object.__setattr__(self, field, np.asarray(getattr(self, field), dtype))
        n, m, nnz = self.objective.size, self.equality.size, self.rows.size
        sizes = dict(objective=n, lower=n, rows=nnz, cols=nnz, vals=nnz, equality=m)
        for field, size in sizes.items():
            shape = getattr(self, field).shape
            if shape != (size,):
                raise LpError(f"{self.name}: {field} of shape {shape}, expected ({size},)")
        if not np.isfinite(self.objective).all():
            raise LpError(f"{self.name}: objective has non-finite coefficient")
        if not (np.isfinite(self.lower) & (self.lower >= 0)).all():
            raise LpError(f"{self.name}: lower bound must be finite and >= 0")
        if nnz and not (0 <= self.cols.min() and self.cols.max() < n):
            raise LpError(f"{self.name}: constraint references unknown variable index")
        if nnz and not (0 <= self.rows.min() and self.rows.max() < m):
            raise LpError(f"{self.name}: constraint references unknown row index")
        if not np.isfinite(self.vals).all():
            raise LpError(f"{self.name}: constraint has non-finite coefficient")
        self._check_upper_and_rhs()

    def _check_upper_and_rhs(self) -> None:
        """The checks of the two arrays ``with_bounds`` replaces."""
        for field, size in (("upper", self.objective.size), ("rhs", self.equality.size)):
            shape = getattr(self, field).shape
            if shape != (size,):
                raise LpError(f"{self.name}: {field} of shape {shape}, expected ({size},)")
        if not (self.upper >= self.lower).all():
            raise LpError(f"{self.name}: empty bound interval")
        if not np.isfinite(self.rhs).all():
            raise LpError(f"{self.name}: constraint has non-finite rhs")

    @property
    def n_variables(self) -> int:
        return len(self.objective)

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)

    @property
    def highs_layout(self) -> HighsLayout:
        """The matrix in HiGHS's row order (``HighsLayout``).

        A record and its ``with_bounds`` copies share one layout, built by
        the first copy.  A record without copies builds it on each call and
        keeps none, so a lone solve holds nothing new while HiGHS runs.
        """
        return self._layout if self._layout is not None else HighsLayout.of(self)

    def with_bounds(self, upper: np.ndarray, rhs: np.ndarray, name: str) -> "LpProblem":
        """The same matrix, costs and lower bounds under new upper bounds and right-hand sides.

        The new record shares every array but ``upper`` and ``rhs`` with this
        one, and its ``highs_layout``; only ``upper`` and ``rhs`` are checked.
        """
        if self._layout is None:
            object.__setattr__(self, "_layout", HighsLayout.of(self))
        bounded = copy.copy(self)
        object.__setattr__(bounded, "name", name)
        object.__setattr__(bounded, "upper", np.asarray(upper, float))
        object.__setattr__(bounded, "rhs", np.asarray(rhs, float))
        bounded._check_upper_and_rhs()
        return bounded

    def objective_value(self, x: np.ndarray) -> float:
        return ordered_dot(self.objective, x)

    def max_residual(self, x: np.ndarray) -> float:
        """Largest constraint/bound violation at x."""
        x = np.asarray(x, dtype=float)
        worst = 0.0
        if self.n_variables:
            worst = max(worst, float(np.max(self.lower - x)), float(np.max(x - self.upper)))
        if self.n_constraints:
            activity = np.bincount(
                self.rows, weights=self.vals * x[self.cols], minlength=self.n_constraints
            )
            excess = activity - self.rhs
            excess = np.where(self.equality, np.abs(excess), excess)
            worst = max(worst, float(np.max(excess)))
        return worst


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit | time_limit | error
    objective: float | None
    x: np.ndarray | None
    max_primal_residual: float | None
    duals: np.ndarray | None = None  # row multipliers y, reduced costs c - A'y
    dual_gap: float | None = None  # |c'x - dual objective| of duals (``duality_gap``)
    iterations: int = 0
    # solve's re-run on the primary cost, which runs only when the
    # factorization certificate fails
    certificate_iterations: int = 0
    basis: Basis | None = None  # solve's primary-cost optimum

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def fallback(self) -> bool:
        """solve's certificate re-run iterated, so the face stage ran."""
        return self.certificate_iterations > 0

    def value(self, index: int) -> float:
        if self.x is None:
            raise LpError("no solution values available")
        return float(self.x[index])


def reduced_costs(problem: LpProblem, y: np.ndarray) -> np.ndarray:
    """c - A'y for row multipliers y in problem row order."""
    col_dual = np.bincount(
        problem.cols, weights=y[problem.rows] * problem.vals, minlength=problem.n_variables
    )
    return problem.objective - col_dual


def duality_gap(problem: LpProblem, x: np.ndarray, y: np.ndarray, reduced: np.ndarray) -> float:
    """|c'x - dual objective| for multipliers y with reduced costs ``reduced`` = c - A'y.

    The dual objective is y'b plus one bound term per column: the binding
    bound absorbs the reduced cost, the lower one unless a boxed variable's
    reduced cost is negative.  c'x, -y'b and the negated bound terms are
    added as one ordered sum (``ordered_sum``).
    """
    lower, upper = problem.lower, problem.upper
    free_above = np.isinf(upper)
    bound_terms = np.where(
        free_above,
        np.maximum(reduced, 0.0) * lower,
        reduced * np.where(reduced >= 0, lower, upper),
    )
    used = np.flatnonzero(problem.objective)
    terms = [problem.objective[used] * x[used], -(y * problem.rhs), -bound_terms]
    return abs(ordered_sum(np.concatenate(terms)))


#: the duality gap an optimum may carry, relative to 1 + |c'x|
GAP_REL_TOL = 1e-6


def gap_tolerance(objective: float | None) -> float:
    """The largest duality gap certifying an optimum of value ``objective``."""
    return GAP_REL_TOL * (1.0 + abs(objective or 0.0))


# ---------------------------------------------------------------------------
# HiGHS, run on the engine scipy ships
# ---------------------------------------------------------------------------

#: HiGHS model statuses as ``linprog`` reports them, except that a time
#: limit has its own status (``linprog`` counts it as an iteration limit);
#: any other is an error
_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kTimeLimit: "time_limit",
    _highs.HighsModelStatus.kIterationLimit: "iteration_limit",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kModelError: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}

#: an "optimal" point violating a bound or row by more than this is an error
#: (``linprog``'s post-solve check: ten times the square root of its 1e-9 tol)
RESULT_CHECK_TOL = 10.0 * math.sqrt(1e-9)


#: every HiGHS setting, as ``linprog(method="highs")`` passes them: quiet,
#: presolve, dual simplex, 1e-9 feasibility tolerances, 100,000 iterations;
#: and a wall-clock limit of 600 s per run (the benchmark's largest solve
#: takes about 0.5 s), which ``linprog`` leaves unset
HIGHS_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": int(_highs.HighsDebugLevel.kHighsDebugLevelNone),
    "presolve": "on",
    "simplex_strategy": int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
    "simplex_iteration_limit": 100_000,
    "ipm_iteration_limit": 100_000,
    "time_limit": 600.0,
}


def column_wise(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m x n matrix with entries (row, column, value) in compressed column form.

    Returns ``indptr``, ``indices`` (both int32, as HiGHS takes them) and
    ``data`` as ``scipy.sparse.csc_array`` builds them from the same
    triplets: column by column, rows ascending within a column, entries with
    the same row and column summed in the order given (a sum that comes to 0
    stays, as an explicit 0).  One stable sort of the key ``column * m + row``
    orders the entries.
    """
    key = np.asarray(cols, np.int64) * m + rows
    order = np.argsort(key, kind="stable")
    key, indices, data = key[order], rows[order], vals[order]
    counted = cols
    repeat = key[1:] == key[:-1]
    if repeat.any():
        first = np.concatenate(([True], ~repeat))
        starts = np.flatnonzero(first)
        data = np.bincount(np.cumsum(first) - 1, data)  # adds in input order, as scipy does
        indices, counted = indices[starts], key[starts] // m
    indptr = np.concatenate(([0], np.cumsum(np.bincount(counted, minlength=n))))
    return indptr.astype(np.int32), indices.astype(np.int32), data


@dataclass(frozen=True, eq=False)
class HighsLayout:
    """A problem's matrix as HiGHS holds it, which bounds and right-hand sides do not change.

    HiGHS's row order is ``linprog``'s: the ``<=`` rows above the ``=`` rows,
    each group in problem order.  HiGHS row i is problem row ``order[i]``;
    problem row r is HiGHS row ``position[r]``.  ``indptr``, ``indices`` and
    ``data`` are the matrix in that row order, column-wise (``column_wise``).
    """

    order: np.ndarray
    position: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def of(cls, problem: LpProblem) -> "HighsLayout":
        n, m, eq = problem.n_variables, problem.n_constraints, problem.equality
        order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
        position = np.empty(m, np.int64)
        position[order] = np.arange(m)
        matrix = column_wise(position[problem.rows], problem.cols, problem.vals, m, n)
        return cls(order, position, *matrix)


def _pass_model(problem: LpProblem, cost: np.ndarray) -> tuple[_highs._Highs | None, np.ndarray]:
    """One HiGHS object holding ``problem`` with objective ``cost``, set up as ``linprog`` would.

    Every ``HIGHS_OPTIONS`` setting is applied; one that HiGHS refuses raises
    ``LpError``.  Returns the object (None when HiGHS refuses the model, which
    ``linprog`` reports as "infeasible") and, per problem row, its position in
    HiGHS's row order (``HighsLayout``).
    """
    n, m = problem.n_variables, problem.n_constraints
    if n == 0:
        raise LpError(f"{problem.name}: no variables")  # linprog refuses it too
    layout = problem.highs_layout
    rhs = problem.rhs[layout.order]
    highs = _highs._Highs()
    for name, value in HIGHS_OPTIONS.items():
        if highs.setOptionValue(name, value) != _highs.HighsStatus.kOk:
            raise LpError(f"HiGHS refused option {name}={value!r}")
    passed = highs.passModel(
        n,
        m,
        layout.data.size,
        int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize),
        0.0,  # objective offset
        cost,
        problem.lower,
        np.where(np.isinf(problem.upper), _highs.kHighsInf, problem.upper),
        np.where(problem.equality[layout.order], rhs, -_highs.kHighsInf),
        rhs,
        layout.indptr,
        layout.indices,
        layout.data,
        np.zeros(n, np.int32),  # every column continuous: an LP, as in linprog
    )
    return (None if passed == _highs.HighsStatus.kError else highs), layout.position


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
    problem: LpProblem,
    x: np.ndarray,
    duals: np.ndarray,
    reduced: np.ndarray,
    iterations: int,
    certificate_iterations: int,
    basis: Basis,
) -> LpSolution:
    """``linprog``'s post-solve check: a NaN or a residual above ``RESULT_CHECK_TOL`` errs.

    An optimum carries the duality gap of ``duals``, whose reduced costs are
    ``reduced``.
    """
    residual = problem.max_residual(x)
    if not residual <= RESULT_CHECK_TOL:  # a NaN in x makes the residual NaN
        return LpSolution("error", None, None, None, iterations=iterations)
    return LpSolution(
        status="optimal",
        objective=problem.objective_value(x),
        x=x,
        max_primal_residual=residual,
        duals=duals,
        dual_gap=duality_gap(problem, x, duals, reduced),
        iterations=iterations,
        certificate_iterations=certificate_iterations,
        basis=basis,
    )


#: weight of the secondary cost in ``solve``'s one solve, relative to the
#: secondary cost's largest coefficient
LEXICO_WEIGHT = 1e-5


def _factor_certificate(
    problem: LpProblem, highs: _highs._Highs, position: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Row duals and reduced costs of ``problem``'s cost c at HiGHS's final basis, if c-optimal.

    The row duals y solve B'y = c_B, one transposed solve on the
    factorization HiGHS holds from its last run, and are mapped to problem row
    order through ``position``.  The basis is c-optimal when y and the
    reduced costs d = c - A'y are dual feasible to HiGHS's
    ``dual_feasibility_tolerance``: d is at least -tol on each nonbasic
    column at its lower bound and at most tol at its upper bound (a fixed
    column may take either sign), and y is at most tol on each ``<=`` row.
    Returns (y, d), or None when the basis is not c-optimal or HiGHS holds no
    factorization.
    """
    status, basic = highs.getBasicVariables()
    if status != _highs.HighsStatus.kOk:
        return None
    basic = np.asarray(basic)
    structural = basic >= 0  # a basic row is -(1 + row), at cost 0
    c_basic = np.zeros(basic.size)
    c_basic[structural] = problem.objective[basic[structural]]
    status, y = highs.getBasisTransposeSolve(c_basic)
    if status != _highs.HighsStatus.kOk:
        return None
    y = np.asarray(y)[position]
    reduced = reduced_costs(problem, y)
    tol = HIGHS_OPTIONS["dual_feasibility_tolerance"]
    nonbasic = problem.upper > problem.lower
    nonbasic[basic[structural]] = False
    wrong_sign = np.where(x >= problem.upper, reduced > tol, reduced < -tol)
    if (nonbasic & wrong_sign).any() or (y[~problem.equality] > tol).any():
        return None
    return y, reduced


def _fix_optimal_face(
    problem: LpProblem,
    highs: _highs._Highs,
    position: np.ndarray,
    duals: np.ndarray,
    reduced: np.ndarray,
) -> bool:
    """Restrict ``highs`` to the optimal face of ``problem``'s cost c; False if HiGHS refuses.

    ``duals`` are c-optimal row duals y, with reduced costs ``reduced`` =
    c - A'y.  Every c-optimal point is complementary to them: a column whose
    reduced cost is beyond HiGHS's ``dual_feasibility_tolerance`` sits at
    the bound it prices (the lower one for a positive reduced cost), and a
    ``<=`` row with y below -tol is tight.  Those columns are fixed at that
    bound and those rows made equalities, one row at a time.  The point
    HiGHS holds already satisfies both, so its basis stays primal feasible.
    """
    tol = HIGHS_OPTIONS["dual_feasibility_tolerance"]
    fixed = np.flatnonzero(np.abs(reduced) > tol)
    at = np.where(reduced[fixed] > 0, problem.lower[fixed], problem.upper[fixed])
    ok = [highs.changeColsBounds(fixed.size, fixed.astype(np.int32), at, at)]
    for row in np.flatnonzero(~problem.equality & (duals < -tol)):
        ok.append(highs.changeRowBounds(int(position[row]), problem.rhs[row], problem.rhs[row]))
    return all(status == _highs.HighsStatus.kOk for status in ok)


def solve(
    problem: LpProblem, secondary_cost: np.ndarray, basis: Basis | None = None
) -> LpSolution:
    """Minimize ``problem``'s cost c, then ``secondary_cost`` s among the minimizers of c.

    The model goes to a new HiGHS object once, with the cost c + eps*s, where
    eps = ``LEXICO_WEIGHT`` / max|s| (0 when s is 0: then this is a plain
    solve of c, as ``linprog`` would make it).  The optimal basis B is then
    checked on c alone from the factorization HiGHS ends with
    (``_factor_certificate``): one solve of B'y = c_B gives the row duals y
    and the reduced costs c - A'y.  When they are dual feasible, B is optimal
    for c, so c'x is the optimum F*, and any x' with c'x' = F* and
    s'x' < s'x would beat x on c + eps*s, so x is lexicographically optimal
    (Sherali, "Equivalent weights for lexicographic multi-objective
    programs", EJOR 1982).  Such a solve costs one HiGHS run.

    Only when that check fails, or HiGHS holds no factorization, is the basis
    re-run on c alone, on a new HiGHS object started from it, and the re-run
    certifies x when it takes no iteration.  A re-run that iterates ends at
    F* with duals y; the face stage then fixes the columns and rows that y
    prices (``_fix_optimal_face``) on the re-run's object, so that what is
    left is the set of minimizers of c, and minimizes s there.  The
    solution's ``fallback`` is then set.

    ``basis``, the ``basis`` of an earlier solution of a problem with the
    same matrix and costs, starts the weighted solve there; HiGHS then skips
    presolve and its own initial basis.  When only bounds and right-hand sides
    differ, that basis stays dual feasible, and dual simplex goes on from it
    (Koberstein, "The dual simplex method, techniques for a fast and stable
    implementation", 2005).  The object is new either way, so the result
    depends only on the problem and the basis.

    Statuses map as in ``linprog``, and an optimum that fails its post-solve
    check (a NaN, or a residual above ``RESULT_CHECK_TOL``) is an "error".
    ``objective`` is c'x, ``duals`` are the row duals of ``problem`` at its
    c-optimum in problem row order (so they certify F* on either path) and
    ``dual_gap`` their duality gap, ``basis`` is the basis of that optimum,
    ``iterations`` counts every run and ``certificate_iterations`` the
    re-run on c (0 when the factorization certified x).
    """
    c = problem.objective
    s = np.asarray(secondary_cost, dtype=float)
    if s.shape != c.shape:
        raise LpError(f"secondary cost has shape {s.shape}, expected {c.shape}")
    largest = float(np.abs(s).max(initial=0.0))
    weight = LEXICO_WEIGHT / largest if largest > 0 else 0.0
    highs, position = _pass_model(problem, c + weight * s)
    if highs is None:
        return LpSolution("infeasible", None, None, None)
    if basis is not None and highs.setBasis(basis) != _highs.HighsStatus.kOk:
        raise LpError(f"{problem.name}: HiGHS refused the starting basis")
    status, iterations = _run(highs)
    if status != "optimal":
        return LpSolution(status, None, None, None, iterations=iterations)
    x = np.array(highs.getSolution().col_value)
    certified = _factor_certificate(problem, highs, position, x)
    if certified is not None:
        y, reduced = certified
        return _checked(problem, x, y, reduced, iterations, 0, highs.getBasis())
    # the re-run starts from the weighted basis on a new object: re-run on
    # the weighted one after a cost change, HiGHS can perturb the costs and
    # start over in dual phase 1 (8,713 iterations where a new object takes 1)
    weighted_basis = highs.getBasis()
    highs, position = _pass_model(problem, c)
    if highs.setBasis(weighted_basis) != _highs.HighsStatus.kOk:
        raise LpError(f"{problem.name}: HiGHS refused the weighted basis")
    status, rerun = _run(highs)
    iterations += rerun
    if status != "optimal":
        return LpSolution(status, None, None, None, iterations=iterations)
    x, duals = _read(highs, position)
    reduced = reduced_costs(problem, duals)
    optimum_basis = highs.getBasis()
    if rerun:
        if not _fix_optimal_face(problem, highs, position, duals, reduced):
            return LpSolution("error", None, None, None, iterations=iterations)
        columns = np.arange(problem.n_variables, dtype=np.int32)
        highs.changeColsCost(columns.size, columns, s)
        status, face = _run(highs)
        iterations += face
        if status != "optimal":
            return LpSolution(status, None, None, None, iterations=iterations)
        x = _read(highs, position)[0]
    return _checked(problem, x, duals, reduced, iterations, rerun, optimum_basis)
