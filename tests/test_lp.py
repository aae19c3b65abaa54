"""Reference simplex against the scipy/HiGHS oracle, plus the LP plumbing."""

import math

import numpy as np
import pytest

from d2dlb.lp import (
    LpError,
    LpOptions,
    LpProblem,
    dual_certificate_gap,
    register_backend,
    solve,
    solve_lexicographic,
)

REFERENCE = LpOptions(backend="reference")
SCIPY = LpOptions(backend="scipy")


def lower_bounded_min() -> LpProblem:
    p = LpProblem("min_x_above_3")
    x = p.add_variable("x")
    p.set_objective({x: 1.0})
    p.add_constraint({x: -1.0}, "<=", -3.0)
    return p


def random_feasible_lp(rng: np.random.Generator, n_max: int = 200) -> LpProblem:
    """Feasible, bounded random LP: b comes from a known nonnegative point and
    nonnegative costs keep the objective bounded below."""
    m = int(rng.integers(2, 25))
    n = int(rng.integers(m, n_max + 1))
    density = rng.uniform(0.1, 0.7)
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    x0 = rng.random(n)
    b = A @ x0
    c = rng.random(n)
    p = LpProblem("random")
    for i in range(n):
        p.add_variable(f"x{i}")
    p.set_objective({i: float(c[i]) for i in range(n)})
    for r in range(m):
        row = {i: float(A[r, i]) for i in range(n) if A[r, i] != 0.0}
        if not row:
            continue
        if rng.random() < 0.5:
            p.add_constraint(row, "=", float(b[r]))
        else:
            p.add_constraint(row, "<=", float(b[r]) + float(rng.random()))
    return p


def loop_max_residual(p: LpProblem, x: np.ndarray) -> float:
    """Largest constraint/bound violation, one variable and one row at a time."""
    rows: list[dict[int, float]] = [{} for _ in range(p.n_constraints)]
    for r, i, c in zip(*p.triplets()):
        rows[r][int(i)] = float(c)
    worst = 0.0
    for i in range(p.n_variables):
        worst = max(worst, p.lower[i] - x[i], x[i] - p.upper[i])
    for row, eq, rhs in zip(rows, p.equality, p.rhs):
        lhs = sum(c * x[i] for i, c in row.items())
        worst = max(worst, abs(lhs - rhs) if eq else lhs - rhs)
    return float(worst)


class TestReferenceSolver:
    def test_minimize_above_bound(self):
        s = solve(lower_bounded_min(), REFERENCE)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0, abs=1e-9)
        assert s.max_primal_residual <= 1e-9

    def test_collapsed_single_cell_instance(self):
        # peak over two saturated slots of load 3 each
        p = LpProblem("single_cell_peak")
        g1 = p.add_variable("load1")
        g2 = p.add_variable("load2")
        peak = p.add_variable("peak")
        p.set_objective({peak: 1.0})
        p.add_constraint({g1: 1.0}, "=", 3.0)
        p.add_constraint({g2: 1.0}, "=", 3.0)
        p.add_constraint({g1: 1.0, peak: -1.0}, "<=", 0.0)
        p.add_constraint({g2: 1.0, peak: -1.0}, "<=", 0.0)
        s = solve(p, REFERENCE)
        assert s.objective == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        p = LpProblem("empty_interval")
        x = p.add_variable("x")
        p.set_objective({x: 1.0})
        p.add_constraint({x: 1.0}, "<=", 1.0)
        p.add_constraint({x: -1.0}, "<=", -2.0)
        assert solve(p, REFERENCE).status == "infeasible"

    def test_unbounded(self):
        p = LpProblem("ray")
        x = p.add_variable("x")
        p.set_objective({x: -1.0})
        assert solve(p, REFERENCE).status == "unbounded"


    @pytest.mark.parametrize("backend", ["reference", "scipy"])
    def test_iteration_limit_reported(self, backend):
        rng = np.random.default_rng(5)
        p = random_feasible_lp(rng, n_max=60)
        assert solve(p, LpOptions(backend=backend)).status == "optimal"
        s = solve(p, LpOptions(backend=backend, max_iterations=2))
        assert s.status == "iteration_limit"
        assert s.x is None
        assert s.iterations == 2

    def test_finite_upper_bounds(self):
        p = LpProblem("boxed")
        x = p.add_variable("x", lower=1.0, upper=2.0)
        y = p.add_variable("y")
        p.set_objective({x: -1.0, y: 1.0})
        p.add_constraint({x: 1.0, y: -1.0}, "<=", 0.5)
        s = solve(p, REFERENCE)
        assert s.status == "optimal"
        # x to its cap, y as small as the constraint allows
        assert s.x[0] == pytest.approx(2.0, abs=1e-9)
        assert s.objective == pytest.approx(-0.5, abs=1e-9)

    def test_redundant_equality_rows(self):
        # duplicated rows leave artificial variables basic at zero; the rows
        # must be dropped before phase 2, not priced back in
        p = LpProblem("redundant")
        x = p.add_variable("x")
        y = p.add_variable("y")
        p.set_objective({x: 2.0, y: 1.0})
        p.add_constraint({x: 1.0, y: 1.0}, "=", 1.0)
        p.add_constraint({x: 1.0, y: 1.0}, "=", 1.0)
        p.add_constraint({x: 2.0, y: 2.0}, "=", 2.0)
        s = solve(p, REFERENCE)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(1.0, abs=1e-9)
        assert dual_certificate_gap(p, s) <= 1e-6

    def test_degenerate_chain(self):
        p = LpProblem("degenerate")
        v = [p.add_variable(f"x{i}") for i in range(6)]
        p.set_objective({v[0]: 1.0, v[1]: 1.0, v[2]: -1.0})
        for i in range(5):
            p.add_constraint({v[i]: 1.0, v[i + 1]: -1.0}, "<=", 0.0)
        p.add_constraint({v[5]: 1.0}, "<=", 2.0)
        s = solve(p, REFERENCE)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(solve(p, SCIPY).objective, abs=1e-9)

    def test_matches_oracle_on_50_random_lps(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_feasible_lp(rng)
            ours = solve(p, REFERENCE)
            oracle = solve(p, SCIPY)
            assert ours.status == oracle.status == "optimal"
            rel = abs(ours.objective - oracle.objective) / max(1.0, abs(oracle.objective))
            assert rel <= 1e-6, f"objectives {ours.objective} vs {oracle.objective}"

    def test_dual_certificate_on_random_lps(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_feasible_lp(rng, n_max=80)
            s = solve(p, REFERENCE)
            assert s.status == "optimal"
            gap = dual_certificate_gap(p, s)
            assert gap <= 1e-6 * (1.0 + abs(s.objective))


class TestProblemContainer:
    def test_validate_rejects_unknown_index(self):
        p = LpProblem()
        p.add_variable("x")
        p.set_objective({0: 1.0})
        p.add_constraint({3: 1.0}, "<=", 1.0)
        with pytest.raises(LpError, match="unknown variable"):
            solve(p, SCIPY)

    def test_validate_rejects_nonfinite(self):
        p = LpProblem()
        p.add_variable("x")
        p.add_constraint({0: 1.0}, "<=", math.inf)
        with pytest.raises(LpError, match="non-finite"):
            solve(p, SCIPY)

    def test_negative_lower_bound_rejected(self):
        p = LpProblem()
        with pytest.raises(LpError, match="lower bound"):
            p.add_variable("x", lower=-1.0)

    def test_lp_format_dump(self):
        p = lower_bounded_min()
        text = p.to_lp_format()
        assert text.startswith("\\ Problem: min_x_above_3")
        assert "Minimize" in text and "Subject To" in text and text.rstrip().endswith("End")
        assert "- 1 x" in text  # the flipped >= constraint

    def test_max_residual_matches_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_feasible_lp(rng)
            for x in (rng.normal(size=p.n_variables), solve(p, SCIPY).x):
                assert p.max_residual(x) == loop_max_residual(p, x)

    def test_unknown_backend(self):
        with pytest.raises(LpError, match="unknown backend"):
            solve(lower_bounded_min(), LpOptions(backend="nope"))

    def test_register_backend(self):
        calls = []

        def fake(problem, options):
            calls.append(problem.name)
            return solve(problem, SCIPY)

        register_backend("fake", fake)
        s = solve(lower_bounded_min(), LpOptions(backend="fake"))
        assert s.status == "optimal" and calls == ["min_x_above_3"]


class TestLexicographic:
    def test_secondary_minimized_at_primary_optimum(self):
        p = LpProblem("lex")
        a = p.add_variable("a")
        b = p.add_variable("b")
        p.set_objective({a: 1.0, b: 1.0})
        p.add_constraint({a: -1.0, b: -1.0}, "<=", -2.0)
        primary, secondary = solve_lexicographic(p, {a: 1.0})
        assert primary.objective == pytest.approx(2.0, abs=1e-9)
        assert secondary.objective == pytest.approx(0.0, abs=1e-6)
        assert secondary.x[1] == pytest.approx(2.0, abs=1e-6)

    def test_zero_secondary_objective_keeps_primary(self):
        p = lower_bounded_min()
        primary, secondary = solve_lexicographic(p, {})
        assert secondary.status == "optimal"
        assert secondary.objective == pytest.approx(0.0, abs=1e-12)
        assert p.objective_value(secondary.x) == pytest.approx(primary.objective, rel=1e-9)

    def test_slack_zero_vs_tiny_slack_agree(self):
        rng = np.random.default_rng(11)
        p = random_feasible_lp(rng, n_max=60)
        secondary_obj = {0: 1.0, 1: 2.0}
        _, tight = solve_lexicographic(p, secondary_obj, slack=0.0)
        _, loose = solve_lexicographic(p, secondary_obj, slack=1e-6)
        assert tight.status == loose.status == "optimal"
        rel = abs(tight.objective - loose.objective) / max(1.0, abs(tight.objective))
        assert rel <= 1e-4
