"""The dense reference simplex against HiGHS, the LP plumbing, and the lexicographic solve."""

import numpy as np
import pytest
from certificate_reference import dual_certificate_gap
from lp_builder import LpBuilder
from lp_format import to_lp_format
from simplex_reference import solve_reference
from two_stage_reference import plain_solve, solve_two_stage

from d2dlb import lp
from d2dlb.lp import LpError, LpProblem, solve


def lower_bounded_min_builder() -> LpBuilder:
    p = LpBuilder("min_x_above_3")
    x = p.add_variable("x")
    p.set_objective({x: 1.0})
    p.add_constraint({x: -1.0}, "<=", -3.0)
    return p


def lower_bounded_min() -> LpProblem:
    return lower_bounded_min_builder().build()


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
    p = LpBuilder("random")
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
    return p.build()


def loop_max_residual(p: LpProblem, x: np.ndarray) -> float:
    """Largest constraint/bound violation, one variable and one row at a time."""
    rows: list[dict[int, float]] = [{} for _ in range(p.n_constraints)]
    for r, i, c in zip(p.rows, p.cols, p.vals):
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
        p = LpBuilder("single_cell_peak")
        g1 = p.add_variable("load1")
        g2 = p.add_variable("load2")
        peak = p.add_variable("peak")
        p.set_objective({peak: 1.0})
        p.add_constraint({g1: 1.0}, "=", 3.0)
        p.add_constraint({g2: 1.0}, "=", 3.0)
        p.add_constraint({g1: 1.0, peak: -1.0}, "<=", 0.0)
        p.add_constraint({g2: 1.0, peak: -1.0}, "<=", 0.0)
        s = solve_reference(p.build())
        assert s.objective == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        p = LpBuilder("empty_interval")
        x = p.add_variable("x")
        p.set_objective({x: 1.0})
        p.add_constraint({x: 1.0}, "<=", 1.0)
        p.add_constraint({x: -1.0}, "<=", -2.0)
        assert solve_reference(p.build()).status == "infeasible"

    def test_unbounded(self):
        p = LpBuilder("ray")
        x = p.add_variable("x")
        p.set_objective({x: -1.0})
        assert solve_reference(p.build()).status == "unbounded"

    @pytest.mark.parametrize("solver", ["reference", "scipy"])
    def test_iteration_limit_reported(self, solver, monkeypatch):
        rng = np.random.default_rng(5)
        p = random_feasible_lp(rng, n_max=60)
        if solver == "reference":
            assert solve_reference(p).status == "optimal"
            s = solve_reference(p, max_iterations=2)
        else:
            assert plain_solve(p).status == "optimal"
            monkeypatch.setitem(lp.HIGHS_OPTIONS, "simplex_iteration_limit", 2)
            s = plain_solve(p)
        assert s.status == "iteration_limit"
        assert s.x is None
        assert s.iterations == 2

    def test_time_limit_reported(self, monkeypatch):
        p = random_feasible_lp(np.random.default_rng(5), n_max=60)
        monkeypatch.setitem(lp.HIGHS_OPTIONS, "time_limit", 0.0)
        s = plain_solve(p)
        assert s.status == "time_limit"
        assert s.x is None

    def test_finite_upper_bounds(self):
        p = LpBuilder("boxed")
        x = p.add_variable("x", lower=1.0, upper=2.0)
        y = p.add_variable("y")
        p.set_objective({x: -1.0, y: 1.0})
        p.add_constraint({x: 1.0, y: -1.0}, "<=", 0.5)
        s = solve_reference(p.build())
        assert s.status == "optimal"
        # x to its cap, y as small as the constraint allows
        assert s.x[0] == pytest.approx(2.0, abs=1e-9)
        assert s.objective == pytest.approx(-0.5, abs=1e-9)

    def test_redundant_equality_rows(self):
        # duplicated rows leave artificial variables basic at zero; the rows
        # must be dropped before phase 2, not priced back in
        b = LpBuilder("redundant")
        x = b.add_variable("x")
        y = b.add_variable("y")
        b.set_objective({x: 2.0, y: 1.0})
        b.add_constraint({x: 1.0, y: 1.0}, "=", 1.0)
        b.add_constraint({x: 1.0, y: 1.0}, "=", 1.0)
        b.add_constraint({x: 2.0, y: 2.0}, "=", 2.0)
        p = b.build()
        s = solve_reference(p)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(1.0, abs=1e-9)
        assert dual_certificate_gap(p, s) <= 1e-6

    def test_degenerate_chain(self):
        b = LpBuilder("degenerate")
        v = [b.add_variable(f"x{i}") for i in range(6)]
        b.set_objective({v[0]: 1.0, v[1]: 1.0, v[2]: -1.0})
        for i in range(5):
            b.add_constraint({v[i]: 1.0, v[i + 1]: -1.0}, "<=", 0.0)
        b.add_constraint({v[5]: 1.0}, "<=", 2.0)
        p = b.build()
        s = solve_reference(p)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(plain_solve(p).objective, abs=1e-9)

    def test_matches_oracle_on_50_random_lps(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_feasible_lp(rng)
            ours = solve_reference(p)
            oracle = plain_solve(p)
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


def valid_fields() -> dict:
    """The arrays of min x0 + x1 s.t. x0 - x1 = 0, x1 <= 1, with 0 <= x0 <= 2."""
    return dict(
        name="valid", objective=[1.0, 1.0], lower=[0.0, 0.0], upper=[2.0, np.inf],
        rows=[0, 0, 1], cols=[0, 1, 1], vals=[1.0, -1.0, 1.0], rhs=[0.0, 1.0], equality=[True, False],
    )


class TestProblemContainer:
    def test_valid_record(self):
        p = LpProblem(**valid_fields())
        assert (p.n_variables, p.n_constraints) == (2, 2)
        assert p.rows.dtype == p.cols.dtype == np.int64 and p.equality.dtype == bool
        assert plain_solve(p).objective == 0.0

    @pytest.mark.parametrize(
        "field,value,message",
        [
            pytest.param("objective", [[1.0, 1.0]], "objective of shape", id="objective-2d"),
            pytest.param("lower", [0.0], "lower of shape", id="lower-short"),
            pytest.param("upper", [2.0, np.inf, 1.0], "upper of shape", id="upper-long"),
            pytest.param("cols", [0, 1], "cols of shape", id="cols-short"),
            pytest.param("vals", [1.0, -1.0], "vals of shape", id="vals-short"),
            pytest.param("rhs", [0.0], "rhs of shape", id="rhs-short"),
            pytest.param("objective", [1.0, np.nan], "objective has non-finite", id="nan-cost"),
            pytest.param("lower", [-1.0, 0.0], "lower bound", id="negative-lower"),
            pytest.param("lower", [0.0, np.inf], "lower bound", id="infinite-lower"),
            pytest.param("lower", [0.0, np.nan], "lower bound", id="nan-lower"),
            pytest.param("upper", [-1.0, np.inf], "empty bound interval", id="upper-below-lower"),
            pytest.param("upper", [np.nan, np.inf], "empty bound interval", id="nan-upper"),
            pytest.param("cols", [0, 1, 2], "unknown variable index", id="column-too-large"),
            pytest.param("cols", [0, -1, 1], "unknown variable index", id="negative-column"),
            pytest.param("rows", [0, 0, 2], "unknown row index", id="row-too-large"),
            pytest.param("vals", [1.0, np.inf, 1.0], "non-finite coefficient", id="inf-value"),
            pytest.param("rhs", [0.0, np.inf], "non-finite rhs", id="inf-rhs"),
        ],
    )
    def test_malformed_record_rejected(self, field, value, message):
        with pytest.raises(LpError, match=message):
            LpProblem(**{**valid_fields(), field: value})

    def test_lp_format_dump(self):
        p = lower_bounded_min_builder()
        text = to_lp_format(p.build(), p.var_names, p.row_names)
        assert text.startswith("\\ Problem: min_x_above_3")
        assert "Minimize" in text and "Subject To" in text and text.rstrip().endswith("End")
        assert "- 1 x" in text  # the flipped >= constraint

    def test_max_residual_matches_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_feasible_lp(rng)
            for x in (rng.normal(size=p.n_variables), plain_solve(p).x):
                assert p.max_residual(x) == loop_max_residual(p, x)

    def test_objective_value_adds_in_column_order(self):
        # c'x is F in d2d_result.json: its nonzero terms are added one after
        # another from 0, as a loop would, whatever the zero costs around them
        rng = np.random.default_rng(4)
        for n in (1, 7, 1000):
            cost = np.where(rng.random(n) < 0.3, rng.normal(size=n), 0.0)
            x = rng.normal(scale=1e8, size=n)
            want = 0.0
            for c, v in zip(cost.tolist(), x.tolist()):
                if c:
                    want += c * v
            assert lp.ordered_dot(cost, x) == want
        x = np.array([1e16, 1.0, -1e16, 1.0])
        assert lp.ordered_dot(np.array([1.0, 1.0, 1.0, 0.0]), x) == 0.0  # (1e16 + 1) - 1e16
        p = LpProblem(**valid_fields())
        assert p.objective_value(np.array([0.5, 0.25])) == 0.75


class TestLexicographic:
    def test_secondary_minimized_at_primary_optimum(self):
        p = LpBuilder("lex")
        a = p.add_variable("a")
        b = p.add_variable("b")
        p.set_objective({a: 1.0, b: 1.0})
        p.add_constraint({a: -1.0, b: -1.0}, "<=", -2.0)
        s = solve(p.build(), np.array([1.0, 0.0]))
        assert s.objective == pytest.approx(2.0, abs=1e-9)
        assert s.x[0] == pytest.approx(0.0, abs=1e-6)
        assert s.x[1] == pytest.approx(2.0, abs=1e-6)
        assert not s.fallback

    def test_zero_secondary_objective_keeps_primary(self):
        p = lower_bounded_min()
        s = solve(p, np.zeros(1))
        assert s.status == "optimal" and not s.fallback
        assert s.objective == pytest.approx(solve_reference(p).objective, rel=1e-9)

    def test_slack_zero_vs_tiny_slack_agree(self):
        # the lexicographic optimum (no slack on the primary) against the
        # two-stage reference with a 1e-6 slack
        p = random_feasible_lp(np.random.default_rng(11), n_max=60)
        secondary = np.zeros(p.n_variables)
        secondary[:2] = (1.0, 2.0)
        tight = solve(p, secondary)
        _, loose = solve_two_stage(p, secondary, slack=1e-6)
        assert tight.status == loose.status == "optimal"
        rel = abs(secondary @ tight.x - loose.objective) / max(1.0, abs(loose.objective))
        assert rel <= 1e-4

    def test_matches_two_stage_on_random_lps(self):
        for seed in range(20):
            p = random_feasible_lp(np.random.default_rng(seed), n_max=80)
            secondary = np.random.default_rng(100 + seed).random(p.n_variables)
            got = solve(p, secondary)
            primary, second = solve_two_stage(p, secondary)
            assert got.objective == pytest.approx(primary.objective, rel=1e-9, abs=1e-12)
            assert secondary @ got.x == pytest.approx(second.objective, rel=1e-6, abs=1e-9)
            assert dual_certificate_gap(p, got) <= 1e-6 * (1.0 + abs(got.objective))

    def test_fallback_when_the_rerun_iterates(self, highs_runs):
        # the weight 1e-5 / 1e3 on x outweighs y's extra 1e-7 of primary cost,
        # so the weighted optimum y = 1 is not optimal for the primary cost;
        # the re-run's duals price y at 1e-7, so the face stage fixes y at 0
        # and the answer is the primary optimum itself, with no slack
        b = LpBuilder("fallback")
        x, y = b.add_variable("x"), b.add_variable("y")
        b.set_objective(np.array([1.0, 1.0 + 1e-7]))
        b.add_constraint({x: 1.0, y: 1.0}, "=", 1.0)
        p = b.build()
        got = solve(p, np.array([1e3, 0.0]))
        assert len(highs_runs) == 3  # weighted, re-run, face
        assert got.fallback and got.optimal
        assert got.x.tolist() == [1.0, 0.0]
        assert got.objective == 1.0
        assert got.objective == plain_solve(p).objective
        assert dual_certificate_gap(p, got) <= 1e-6

    def test_warm_start_after_bound_changes_matches_cold(self):
        # fix a third of the columns at 0 and loosen the rows, as a heuristic
        # level changes the full flow LP: the solve started from the first
        # optimum's basis reaches the cold solve's optimum and is certified
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = random_feasible_lp(rng, n_max=80)
            secondary = rng.random(p.n_variables)
            first = solve(p, secondary)
            assert first.optimal and first.basis is not None
            upper = np.where(rng.random(p.n_variables) < 1 / 3, 0.0, p.upper)
            q = p.with_bounds(upper, p.rhs + np.where(p.equality, 0.0, 1.0), "changed")
            cold = solve(q, secondary)
            warm = solve(q, secondary, first.basis)
            assert warm.status == cold.status
            if cold.optimal:
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
                assert secondary @ warm.x == pytest.approx(secondary @ cold.x, rel=1e-6, abs=1e-9)
                assert warm.max_primal_residual <= lp.RESULT_CHECK_TOL
                assert np.all(warm.x[upper == 0.0] <= lp.RESULT_CHECK_TOL)
                assert dual_certificate_gap(q, warm) <= 1e-6 * (1.0 + abs(warm.objective))

    def test_basis_of_another_shape_refused(self):
        p = random_feasible_lp(np.random.default_rng(1), n_max=60)
        basis = solve(p, np.ones(p.n_variables)).basis
        with pytest.raises(LpError, match="refused the starting basis"):
            solve(lower_bounded_min(), np.zeros(1), basis)

    def test_with_bounds_keeps_the_matrix(self):
        p = random_feasible_lp(np.random.default_rng(2), n_max=30)
        rhs = p.rhs.copy()
        q = p.with_bounds(np.ones(p.n_variables), np.zeros(p.n_constraints), "boxed")
        assert q.name == "boxed"
        assert q.rows is p.rows and q.cols is p.cols and q.vals is p.vals  # shared, not copied
        assert q.objective is p.objective and q.lower is p.lower and q.equality is p.equality
        assert q.highs_layout is p.highs_layout  # HiGHS's row order and matrix, built once
        assert np.array_equal(q.upper, np.ones(p.n_variables))
        assert np.array_equal(q.rhs, np.zeros(p.n_constraints))
        assert np.isinf(p.upper).all() and np.array_equal(p.rhs, rhs)  # the original is untouched
        with pytest.raises(LpError, match="empty bound interval"):
            p.with_bounds(-np.ones(p.n_variables), p.rhs, "inverted")
        with pytest.raises(LpError, match="upper of shape"):
            p.with_bounds(np.ones(p.n_variables + 1), p.rhs, "too many")
        with pytest.raises(LpError, match="rhs of shape"):
            p.with_bounds(p.upper, np.zeros(p.n_constraints + 1), "too many rows")

    def test_secondary_cost_shape_checked(self):
        with pytest.raises(LpError, match="secondary cost has shape"):
            solve(lower_bounded_min(), np.zeros(2))
