"""The dense reference simplex against HiGHS, the LP plumbing, and the lexicographic solve."""

import math

import numpy as np
import pytest
from simplex_reference import solve_reference
from two_stage_reference import solve_two_stage

from d2dlb.lp import (
    FALLBACK_CAP_SLACK,
    LpError,
    LpOptions,
    LpProblem,
    dual_certificate_gap,
    solve,
    solve_lexicographic,
)


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
        s = solve_reference(lower_bounded_min())
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
        s = solve_reference(p)
        assert s.objective == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        p = LpProblem("empty_interval")
        x = p.add_variable("x")
        p.set_objective({x: 1.0})
        p.add_constraint({x: 1.0}, "<=", 1.0)
        p.add_constraint({x: -1.0}, "<=", -2.0)
        assert solve_reference(p).status == "infeasible"

    def test_unbounded(self):
        p = LpProblem("ray")
        x = p.add_variable("x")
        p.set_objective({x: -1.0})
        assert solve_reference(p).status == "unbounded"

    @pytest.mark.parametrize("solver", [solve_reference, solve], ids=["reference", "scipy"])
    def test_iteration_limit_reported(self, solver):
        rng = np.random.default_rng(5)
        p = random_feasible_lp(rng, n_max=60)
        assert solver(p, LpOptions()).status == "optimal"
        s = solver(p, LpOptions(max_iterations=2))
        assert s.status == "iteration_limit"
        assert s.x is None
        assert s.iterations == 2

    def test_finite_upper_bounds(self):
        p = LpProblem("boxed")
        x = p.add_variable("x", lower=1.0, upper=2.0)
        y = p.add_variable("y")
        p.set_objective({x: -1.0, y: 1.0})
        p.add_constraint({x: 1.0, y: -1.0}, "<=", 0.5)
        s = solve_reference(p)
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
        s = solve_reference(p)
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
        s = solve_reference(p)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(solve(p).objective, abs=1e-9)

    def test_matches_oracle_on_50_random_lps(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_feasible_lp(rng)
            ours = solve_reference(p)
            oracle = solve(p)
            assert ours.status == oracle.status == "optimal"
            rel = abs(ours.objective - oracle.objective) / max(1.0, abs(oracle.objective))
            assert rel <= 1e-6, f"objectives {ours.objective} vs {oracle.objective}"

    def test_dual_certificate_on_random_lps(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_feasible_lp(rng, n_max=80)
            s = solve_reference(p)
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
            solve(p)

    def test_validate_rejects_nonfinite(self):
        p = LpProblem()
        p.add_variable("x")
        p.add_constraint({0: 1.0}, "<=", math.inf)
        with pytest.raises(LpError, match="non-finite"):
            solve(p)

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
            for x in (rng.normal(size=p.n_variables), solve(p).x):
                assert p.max_residual(x) == loop_max_residual(p, x)


class TestLexicographic:
    def test_secondary_minimized_at_primary_optimum(self):
        p = LpProblem("lex")
        a = p.add_variable("a")
        b = p.add_variable("b")
        p.set_objective({a: 1.0, b: 1.0})
        p.add_constraint({a: -1.0, b: -1.0}, "<=", -2.0)
        s = solve_lexicographic(p, np.array([1.0, 0.0]))
        assert s.objective == pytest.approx(2.0, abs=1e-9)
        assert s.x[0] == pytest.approx(0.0, abs=1e-6)
        assert s.x[1] == pytest.approx(2.0, abs=1e-6)
        assert not s.fallback

    def test_zero_secondary_objective_keeps_primary(self):
        p = lower_bounded_min()
        s = solve_lexicographic(p, np.zeros(1))
        assert s.status == "optimal" and not s.fallback
        assert s.objective == pytest.approx(solve(p).objective, rel=1e-9)

    def test_slack_zero_vs_tiny_slack_agree(self):
        # the lexicographic optimum (no slack on the primary) against the
        # two-stage reference with a 1e-6 slack
        p = random_feasible_lp(np.random.default_rng(11), n_max=60)
        secondary = np.zeros(p.n_variables)
        secondary[:2] = (1.0, 2.0)
        tight = solve_lexicographic(p, secondary)
        reference = random_feasible_lp(np.random.default_rng(11), n_max=60)
        _, loose = solve_two_stage(reference, secondary, slack=1e-6)
        assert tight.status == loose.status == "optimal"
        rel = abs(secondary @ tight.x - loose.objective) / max(1.0, abs(loose.objective))
        assert rel <= 1e-4

    def test_matches_two_stage_on_random_lps(self):
        for seed in range(20):
            p = random_feasible_lp(np.random.default_rng(seed), n_max=80)
            secondary = np.random.default_rng(100 + seed).random(p.n_variables)
            got = solve_lexicographic(p, secondary)
            reference = random_feasible_lp(np.random.default_rng(seed), n_max=80)
            primary, second = solve_two_stage(reference, secondary)
            assert got.objective == pytest.approx(primary.objective, rel=1e-9, abs=1e-12)
            assert secondary @ got.x == pytest.approx(second.objective, rel=1e-6, abs=1e-9)
            assert dual_certificate_gap(p, got) <= 1e-6 * (1.0 + abs(got.objective))

    def test_fallback_when_the_rerun_iterates(self):
        # the weight 1e-5 / 1e3 on x outweighs y's extra 1e-7 of primary cost,
        # so the weighted optimum y = 1 is not optimal for the primary cost
        def problem() -> LpProblem:
            p = LpProblem("fallback")
            x, y = p.add_variable("x"), p.add_variable("y")
            p.set_objective(np.array([1.0, 1.0 + 1e-7]))
            p.add_constraint({x: 1.0, y: 1.0}, "=", 1.0)
            return p

        secondary = np.array([1e3, 0.0])
        got = solve_lexicographic(problem(), secondary)
        primary, second = solve_two_stage(problem(), secondary, slack=FALLBACK_CAP_SLACK)
        assert got.fallback and got.optimal
        assert primary.x.tolist() == [1.0, 0.0]
        # the cap row's 1e-7 slope leaves x determined to about 1e-9 / 1e-7
        assert got.x == pytest.approx(second.x, abs=1e-6)
        assert got.objective == pytest.approx(problem().objective_value(second.x), rel=1e-9)
        assert secondary @ got.x == pytest.approx(second.objective, rel=1e-6)
        assert dual_certificate_gap(problem(), got) <= 1e-6

    def test_secondary_cost_shape_checked(self):
        with pytest.raises(LpError, match="secondary cost has shape"):
            solve_lexicographic(lower_bounded_min(), np.zeros(2))
