"""Two independent routes to a cell's no-D2D optimum: the tests' oracles.

The library computes each cell's minimum spectrum by the interval search and
certifies it with an EDF witness.  ``min_spectrum_nd_lp`` gets the same number
from the per-cell LP (solved by HiGHS, or by ``simplex_reference`` on
``build_min_spectrum_nd_lp``'s model), and ``binary_search_min_spectrum``
from bisection over the EDF test, so tests can hold the interval search to
formulations that share none of its arithmetic.
"""

from __future__ import annotations

from d2dlb import lp
from d2dlb.model import Schedule
from d2dlb.no_d2d import CellInstance, edf_feasible


def binary_search_min_spectrum(
    cell: CellInstance, rel_width: float = 1e-9
) -> float:
    """Minimum feasible capacity by bisection over the EDF test."""
    if not cell.demands:
        return 0.0
    hi = sum(cell.work(j) for j in cell.demands)
    lo = 0.0
    target = rel_width * hi
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        feasible, _ = edf_feasible(cell, mid)
        if feasible:
            hi = mid
        else:
            lo = mid
    return hi


def build_min_spectrum_nd_lp(cell: CellInstance) -> tuple[lp.LpProblem, dict]:
    """LP with per-demand slot allocations, per-slot totals, and the peak."""
    problem = lp.LpProblem(f"min-spectrum-nd-{cell.bs}")
    x_vars: dict[tuple[int, int], int] = {}
    for j in cell.demands:
        for t in range(j.start, j.end + 1):
            x_vars[(j.id, t)] = problem.add_variable(f"x_j{j.id}_t{t}")
    active_slots = sorted({t for j in cell.demands for t in range(j.start, j.end + 1)})
    load_vars = {t: problem.add_variable(f"load_t{t}") for t in active_slots}
    peak = problem.add_variable("peak")
    for j in cell.demands:
        rate = float(cell.direct_rate[j.id])
        problem.add_constraint(
            {x_vars[(j.id, t)]: rate for t in range(j.start, j.end + 1)},
            "=",
            float(j.volume),
            f"volume_j{j.id}",
        )
    for t in active_slots:
        coeffs = {x_vars[(j.id, t)]: 1.0 for j in cell.demands if j.start <= t <= j.end}
        coeffs[load_vars[t]] = -1.0
        problem.add_constraint(coeffs, "=", 0.0, f"load_t{t}")
        problem.add_constraint({load_vars[t]: 1.0, peak: -1.0}, "<=", 0.0, f"peak_t{t}")
    problem.set_objective({peak: 1.0})
    index = {"x": x_vars, "load": load_vars, "peak": peak}
    return problem, index


def min_spectrum_nd_lp(cell: CellInstance) -> tuple[float, Schedule]:
    """Solve the per-cell LP; returns the optimum and the direct-link schedule."""
    if not cell.demands:
        return 0.0, Schedule.from_allocations({})
    problem, index = build_min_spectrum_nd_lp(cell)
    solution = lp.solve(problem)
    if not solution.optimal:
        raise lp.LpError(f"cell {cell.bs}: LP terminated with status {solution.status}")
    users = {j.id: j.user for j in cell.demands}
    alloc = {
        (jid, users[jid], cell.bs, t): solution.value(col)
        for (jid, t), col in index["x"].items()
        if solution.value(col) > 0.0
    }
    return float(solution.objective), Schedule.from_allocations(alloc)
