"""Split-level heuristic: the six-task example, endpoints, and the sandwich."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb import lp
from d2dlb.d2d_flow import build_flow_lp, solve_min_spectrum_d2d
from d2dlb.heuristic import (
    check_heuristic_bounds,
    heuristic_min_overhead,
    heuristic_min_spectrum,
    heuristic_sweep,
    overhead_ratio,
    split_demands,
)
from d2dlb.model import ModelError, compute_volumes, validate_schedule
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import heuristic_six_task, random_multicell_instance, toy_two_cell

# demand ids in the six-task fixture, in build order
TASK_A, TASK_B, TASK_C, TASK_D, TASK_E, TASK_F = range(6)


class TestSplit:
    def test_six_task_split_at_half(self):
        topology, demands = heuristic_six_task()
        result, schedule, _ = min_spectrum_no_d2d(topology, demands)
        assert result.per_bs_peak == {"b1": 40.0, "b2": 40.0}
        split = split_demands(topology, demands, schedule, 0.5)
        assert split.d2d_demand_ids == {TASK_C, TASK_D}
        assert split.nd_demand_ids == {TASK_A, TASK_B, TASK_E, TASK_F}
        # kept load vanishes on hot slots and never exceeds the original
        loads = {}
        for (jid, u, v, t), x in schedule.allocations.items():
            if u != v:
                loads[(topology.home_bs[u], t)] = loads.get((topology.home_bs[u], t), 0.0) + x
        for (b, t), kept in split.residual_load.items():
            assert t not in split.hot_slots[b]
            assert kept <= loads[(b, t)] + 1e-12

    def test_level_one_keeps_everything_local(self):
        topology, demands = heuristic_six_task()
        _, schedule, _ = min_spectrum_no_d2d(topology, demands)
        split = split_demands(topology, demands, schedule, 1.0)
        assert split.d2d_demand_ids == frozenset()
        assert all(not hot for hot in split.hot_slots.values())

    def test_level_zero_moves_everything(self):
        topology, demands = heuristic_six_task()
        _, schedule, _ = min_spectrum_no_d2d(topology, demands)
        split = split_demands(topology, demands, schedule, 0.0)
        assert split.d2d_demand_ids == {j.id for j in demands.demands}
        assert split.residual_load == {}

    def test_level_outside_range_rejected(self):
        topology, demands = heuristic_six_task()
        _, schedule, _ = min_spectrum_no_d2d(topology, demands)
        with pytest.raises(ModelError):
            split_demands(topology, demands, schedule, 1.5)

    def test_eligible_set_shrinks_with_level(self):
        topology, demands = heuristic_six_task()
        _, schedule, _ = min_spectrum_no_d2d(topology, demands)
        sizes = [
            len(split_demands(topology, demands, schedule, lvl).d2d_demand_ids)
            for lvl in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestThreeSteps:
    def test_six_task_reduced_optimum(self):
        topology, demands = heuristic_six_task()
        outcome = heuristic_min_spectrum(topology, demands, 0.5)
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        assert nd_result.total == pytest.approx(80.0)
        # regression value, first computed by this LP: peaks of 100/3 per BS
        assert outcome.total_spectrum == pytest.approx(200.0 / 3.0, rel=1e-9)
        report = validate_schedule(outcome.schedule, topology, demands, flow_abs_tol=1e-7)
        assert report.ok, report.summary()

    def test_level_one_equals_no_d2d(self):
        topology, demands = heuristic_six_task()
        outcome = heuristic_min_spectrum(topology, demands, 1.0)
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        assert outcome.total_spectrum == pytest.approx(nd_result.total, rel=1e-9)
        _, v_d2d = heuristic_min_overhead(topology, demands, outcome)
        assert v_d2d == pytest.approx(0.0, abs=1e-12)

    def test_level_zero_equals_full_problem(self):
        # every demand is eligible and nothing is kept, so HiGHS gets the
        # full problem's model
        topology, demands = heuristic_six_task()
        outcome = heuristic_min_spectrum(topology, demands, 0.0)
        full = solve_min_spectrum_d2d(topology, demands)
        assert outcome.total_spectrum == full.total
        assert outcome.per_bs_peak == full.per_bs_peak

    def test_toy_level_zero_overhead_is_four(self, toy_instance):
        topology, demands = toy_instance
        outcome = heuristic_min_spectrum(topology, demands, 0.0)
        schedule, v_d2d = heuristic_min_overhead(topology, demands, outcome)
        assert v_d2d == pytest.approx(4.0, rel=1e-6)
        report = validate_schedule(schedule, topology, demands, flow_abs_tol=1e-7)
        assert report.ok, report.summary()

    def test_step3_size_tracks_eligible_set(self):
        topology, demands = heuristic_six_task()
        sizes = {}
        for level in (0.0, 0.5, 1.0):
            outcome = heuristic_min_spectrum(topology, demands, level)
            sizes[level] = (len(outcome.split.d2d_demand_ids), outcome.step3_variables)
        assert sizes[1.0][1] == 0
        assert sizes[0.5][1] < sizes[0.0][1]


class TestBounds:
    def test_sandwich_on_random_instance(self):
        rng = np.random.default_rng(77)
        topology, demands = random_multicell_instance(
            rng, n_cells=3, users_per_cell=3, n_demands=18, horizon=15
        )
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        full = solve_min_spectrum_d2d(topology, demands)
        f_nd = float(nd_result.total)
        rho = (f_nd - full.total) / f_nd
        for level in (0.0, 0.5, 1.0):
            outcome = heuristic_min_spectrum(topology, demands, level)
            schedule, _ = heuristic_min_overhead(topology, demands, outcome)
            v_d2d, v_bs = compute_volumes(schedule, topology)
            rho_h = (f_nd - outcome.total_spectrum) / f_nd
            eta_h = float(v_d2d / (v_d2d + v_bs))
            report = check_heuristic_bounds(
                demands, level, rho, rho_h, eta_h, outcome.split.d2d_demand_ids
            )
            assert report.ok, report.violations

    def test_level_one_bounds_trivial(self):
        topology, demands = heuristic_six_task()
        report = check_heuristic_bounds(demands, 1.0, 0.3, 0.0, 0.0, frozenset())
        assert report.ok
        assert report.eta_bound == 0.0

    def test_level_zero_bound_reaches_global_cap(self):
        # with every demand eligible the refined bound equals (d_max - 1) / d_max
        topology, demands = heuristic_six_task()
        all_ids = frozenset(j.id for j in demands.demands)
        report = check_heuristic_bounds(demands, 0.0, 0.3, 0.3, 0.1, all_ids)
        d_max = demands.max_delay
        assert report.eta_bound == pytest.approx((d_max - 1) / d_max)

    def test_violation_reported_not_raised(self):
        topology, demands = heuristic_six_task()
        report = check_heuristic_bounds(demands, 0.5, 0.4, 0.1, 0.0, frozenset())
        assert not report.ok  # 0.1 < (1 - 0.5) * 0.4
        assert any("below sandwich" in v for v in report.violations)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_spectrum_sandwich_property(self, seed):
        rng = np.random.default_rng(seed)
        topology, demands = random_multicell_instance(
            rng, n_cells=2, users_per_cell=2, n_demands=8, horizon=10
        )
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        full = solve_min_spectrum_d2d(topology, demands)
        for level in (0.3, 0.7):
            outcome = heuristic_min_spectrum(topology, demands, level)
            assert (
                full.total - 1e-6
                <= outcome.total_spectrum
                <= float(nd_result.total) + 1e-6
            )


SWEEP_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


def level_alone(topology, demands, level) -> tuple:
    """A sweep row's numbers, from the level solved on its own with nothing reused."""
    nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
    f_nd = float(nd_result.total)
    outcome = heuristic_min_spectrum(topology, demands, level)
    schedule, _ = heuristic_min_overhead(topology, demands, outcome)
    return (
        outcome.total_spectrum,
        (f_nd - outcome.total_spectrum) / f_nd,
        overhead_ratio(*compute_volumes(schedule, topology)),
        len(outcome.split.d2d_demand_ids),
        outcome.step3_variables,
    )


def assert_sweep_equals_levels_alone(topology, demands, levels=SWEEP_LEVELS):
    sweep = heuristic_sweep(topology, demands, levels)
    for row in sweep.levels:
        got = (row.total_spectrum, row.rho, row.eta, row.n_d2d_demands, row.step3_variables)
        assert got == level_alone(topology, demands, row.level), row.level


class TestSweep:
    @pytest.mark.parametrize("instance", [heuristic_six_task, toy_two_cell])
    def test_rows_equal_levels_solved_alone(self, instance):
        assert_sweep_equals_levels_alone(*instance())

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rows_equal_levels_solved_alone_property(self, seed):
        rng = np.random.default_rng(seed)
        topology, demands = random_multicell_instance(
            rng,
            n_cells=int(rng.integers(2, 4)),
            users_per_cell=int(rng.integers(2, 4)),
            n_demands=int(rng.integers(6, 18)),
            horizon=int(rng.integers(8, 14)),
            delays=(1, 2, 3, 4),
        )
        assert_sweep_equals_levels_alone(topology, demands)

    def test_toy_sweep_solves_one_lp(self, monkeypatch):
        # levels 0-0.75 make every demand eligible, so they share the full
        # problem's lexicographic solve; level 1 makes none eligible and
        # needs no LP
        calls = []
        solve_lexicographic = lp.solve_lexicographic

        def counting_solve(problem, secondary_cost):
            calls.append(problem.name)
            return solve_lexicographic(problem, secondary_cost)

        monkeypatch.setattr(lp, "solve_lexicographic", counting_solve)
        monkeypatch.setattr(lp, "solve", lambda *args: pytest.fail("a second LP was solved"))
        topology, demands = toy_two_cell()
        sweep = heuristic_sweep(topology, demands, SWEEP_LEVELS)
        assert [row.n_d2d_demands for row in sweep.levels] == [4, 4, 4, 4, 0]
        assert [row.reused for row in sweep.levels] == [False, True, True, True, False]
        assert calls == ["min-spectrum-d2d"]

    @pytest.mark.parametrize("instance", [heuristic_six_task, toy_two_cell])
    def test_empty_eligible_set_matches_its_lp(self, instance):
        # with no flow to place, the reduced LP's optimum is the kept load's peaks
        topology, demands = instance()
        outcome = heuristic_min_spectrum(topology, demands, 1.0)
        assert outcome.step3_variables == 0
        index = build_flow_lp(
            topology, demands, demand_subset=(), residual_load=outcome.split.residual_load
        )
        solution = lp.solve(index.problem)
        assert solution.objective == pytest.approx(outcome.total_spectrum, rel=1e-12)
        for b, col in index.peak_vars.items():
            assert solution.value(col) == pytest.approx(
                outcome.per_bs_peak[b], rel=1e-12, abs=1e-12
            )
