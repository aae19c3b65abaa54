"""Dense two-phase revised simplex: the tests' independent LP oracle.

``solve_reference`` solves an ``LpProblem`` without HiGHS, in numpy, and
returns an ``LpSolution`` with row duals in problem row order, so tests can
compare HiGHS's optima and certificates against a solver that shares no code
with it.  Desk-scale only: the basis inverse is dense.
"""

from __future__ import annotations

import numpy as np

from d2dlb.lp import LpProblem, LpSolution

#: phase 1 declares a problem infeasible above this residual, relative to 1 + max|b|
FEASIBILITY_TOL = 1e-7
#: a reduced cost below minus this prices a column in
OPTIMALITY_TOL = 1e-7


class Simplex:
    """Dense two-phase simplex on the standard form min c'x, Ax = b, x >= 0.

    The basis inverse is kept explicitly and updated with rank-1 pivots,
    refactorized periodically for stability.  Dantzig pricing by default;
    Bland's rule takes over after a run of degenerate pivots to rule out
    cycling.
    """

    DEGENERATE_STREAK = 40
    REFACTOR_EVERY = 60

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray, max_iterations: int):
        self.A = A
        self.b = b
        self.c = c
        self.m, self.n = A.shape
        self.max_iterations = max_iterations
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
        if phase1_obj > FEASIBILITY_TOL * scale:
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
            if any(c[i] < -OPTIMALITY_TOL for i in range(A.shape[1])):
                return "unbounded", basis
            return "optimal", basis
        Binv = np.linalg.inv(A[:, basis])
        bland = False
        degenerate_streak = 0
        since_refactor = 0
        opt_tol = OPTIMALITY_TOL
        while True:
            if self.iterations >= self.max_iterations:
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


def to_standard_form(
    problem: LpProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Shift lower bounds out, add rows for finite upper bounds and slacks.

    Returns (A, b, c, row_signs, n_original); row_signs[i] is +-1 recording
    rhs sign flips so duals can be mapped back.
    """
    n, m0 = problem.n_variables, problem.n_constraints
    lower, upper = problem.lower, problem.upper
    rows, cols, vals = problem.rows, problem.cols, problem.vals
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


def solve_reference(problem: LpProblem, max_iterations: int = 100_000) -> LpSolution:
    """Solve ``problem`` with the dense simplex; duals are in problem row order."""
    A, b, c, row_signs, n = to_standard_form(problem)
    simplex = Simplex(A, b, c, max_iterations)
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
