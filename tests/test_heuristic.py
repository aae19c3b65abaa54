"""Split-level heuristic: the six-task example, endpoints, and the sandwich."""

import numpy as np
import pytest
from conftest import draw_instance
from hypothesis import given, settings
from flow_lp_reference import loop_flow_lp, lp_unit
from hypothesis import strategies as st
from two_stage_reference import plain_solve

from d2dlb import heuristic, lp
from d2dlb.d2d_flow import solve_min_spectrum_d2d
from d2dlb.heuristic import (
    HOT_SLOT_TOL,
    check_heuristic_bounds,
    heuristic_min_overhead,
    heuristic_min_spectrum,
    heuristic_sweep,
    split_demands,
)
from d2dlb.model import (
    DemandSet,
    ModelError,
    Schedule,
    compute_volumes,
    per_slot_loads,
    slot_loads,
    validate_schedule,
)
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
        peak = result.per_bs_peak
        for (b, t), kept in per_slot_loads(split.kept, topology).items():
            assert loads[(b, t)] <= 0.5 * peak[b] + HOT_SLOT_TOL * peak[b]  # not hot
            assert kept <= loads[(b, t)] + 1e-12

    def test_level_one_keeps_everything_local(self):
        topology, demands = heuristic_six_task()
        _, schedule, _ = min_spectrum_no_d2d(topology, demands)
        split = split_demands(topology, demands, schedule, 1.0)
        assert split.d2d_demand_ids == frozenset()
        assert split.kept.allocations == schedule.allocations

    def test_level_zero_moves_everything(self):
        topology, demands = heuristic_six_task()
        _, schedule, _ = min_spectrum_no_d2d(topology, demands)
        split = split_demands(topology, demands, schedule, 0.0)
        assert split.d2d_demand_ids == {j.id for j in demands.demands}
        assert split.kept.value.size == 0

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


def eligible_sets(topology, demands, scale: float, levels=(0.25, 0.5, 0.75)) -> list:
    """The split's eligible set at each level, with every volume times ``scale``."""
    scaled = DemandSet.build(
        demands.horizon,
        [(j.user, j.start, j.end, float(j.volume) * scale) for j in demands.demands],
    )
    nd_schedule = min_spectrum_no_d2d(topology, scaled)[1]
    return [split_demands(topology, scaled, nd_schedule, v).d2d_demand_ids for v in levels]


@pytest.mark.parametrize("seed", range(20))
def test_split_does_not_depend_on_the_volume_unit(seed):
    # the hot-slot and allocation thresholds are relative to the cell's
    # peak and the demand's volume, so bits and gigabits split alike
    topology, demands = draw_instance(np.random.default_rng(seed))
    at_1 = eligible_sets(topology, demands, 1.0)
    for scale in (1e-6, 1e3, 1e6, 1e9):
        assert eligible_sets(topology, demands, scale) == at_1, scale


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

    def test_no_demands_leave_the_reduction_undefined(self):
        # a level alone is the sweep of that level, so it refuses a no-D2D
        # total of 0 as the sweep does rather than report a total of 0
        topology, _ = heuristic_six_task()
        empty = DemandSet(5, ())
        with pytest.raises(ModelError, match="no-D2D total is zero"):
            heuristic_sweep(topology, empty, (0.5,))
        with pytest.raises(ModelError, match="no-D2D total is zero"):
            heuristic_min_spectrum(topology, empty, 0.5)

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
    v_d2d, v_bs = compute_volumes(schedule, topology)
    return (
        outcome.total_spectrum,
        (f_nd - outcome.total_spectrum) / f_nd,
        v_d2d / (v_d2d + v_bs),
        len(outcome.split.d2d_demand_ids),
        outcome.step3_variables,
    )


def assert_sweep_equals_levels_alone(topology, demands, levels=SWEEP_LEVELS):
    sweep = heuristic_sweep(topology, demands, levels)
    for row in sweep.levels:
        got = (row.total_spectrum, row.rho, row.eta, row.n_d2d_demands, row.step3_variables)
        assert got == level_alone(topology, demands, row.level), row.level


def recorded_solves(topology, demands, levels) -> list[tuple[str, bool, lp.LpSolution]]:
    """(LP name, started from a basis, solution) of each lexicographic solve of a sweep."""
    solves = []
    solve = lp.solve

    def recording(problem, secondary_cost, basis=None):
        solution = solve(problem, secondary_cost, basis)
        solves.append((problem.name, basis is not None, solution))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve", recording)
        heuristic_sweep(topology, demands, levels)
    return solves


def assert_warm_levels_certified(topology, demands, levels=SWEEP_LEVELS) -> int:
    """Every step III of the sweep starts from a basis and passes its certificate
    re-run without an iteration; returns how many there were."""
    solves = recorded_solves(topology, demands, levels)
    assert [(name, warm) for name, warm, _ in solves[:1]] == [("min-spectrum-d2d", False)]
    for name, warm, solution in solves[1:]:
        assert warm and name.startswith("heuristic-spectrum-level"), name
        assert solution.certificate_iterations == 0 and not solution.fallback, name
    return len(solves) - 1


def random_instance(seed):
    rng = np.random.default_rng(seed)
    return random_multicell_instance(
        rng,
        n_cells=int(rng.integers(2, 4)),
        users_per_cell=int(rng.integers(2, 4)),
        n_demands=int(rng.integers(6, 18)),
        horizon=int(rng.integers(8, 14)),
        delays=(1, 2, 3, 4),
    )


#: a grid out of order, and the same levels in order
SHUFFLED_LEVELS = (0.75, 0.25, 1.0, 0.5, 0.0, 0.9)


def assert_grid_order_irrelevant(topology, demands):
    def numbers(levels):
        sweep = heuristic_sweep(topology, demands, levels)
        return {
            row.level: (row.total_spectrum, row.rho, row.eta, row.n_d2d_demands, row.step3_variables)
            for row in sweep.levels
        }

    assert numbers(SHUFFLED_LEVELS) == numbers(sorted(SHUFFLED_LEVELS))


class TestSweep:
    @pytest.mark.parametrize("instance", [heuristic_six_task, toy_two_cell])
    def test_rows_equal_levels_solved_alone(self, instance):
        assert_sweep_equals_levels_alone(*instance())

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rows_equal_levels_solved_alone_property(self, seed):
        assert_sweep_equals_levels_alone(*random_instance(seed))

    def test_grid_out_of_order_gives_the_same_rows(self):
        # seed 77: three distinct partial eligible sets, each solved warm
        rng = np.random.default_rng(77)
        topology, demands = random_multicell_instance(
            rng, n_cells=3, users_per_cell=3, n_demands=18, horizon=15
        )
        assert assert_warm_levels_certified(topology, demands, SHUFFLED_LEVELS) == 3
        assert_grid_order_irrelevant(topology, demands)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_grid_out_of_order_gives_the_same_rows_property(self, seed):
        assert_grid_order_irrelevant(*random_instance(seed))

    def test_sweep_computes_the_no_d2d_loads_once(self, monkeypatch):
        # the hot slots of every level come from one set of loads and peaks,
        # the sweep's split context
        calls = []
        billed = heuristic.billed_slots
        monkeypatch.setattr(heuristic, "billed_slots", lambda *a: calls.append(a) or billed(*a))
        heuristic_sweep(*heuristic_six_task(), SWEEP_LEVELS)
        assert len(calls) == 1

    def test_sweep_builds_the_full_lps_layout_once(self, monkeypatch):
        # the cold full solve and every warm step III share one HighsLayout
        built = []
        of = lp.HighsLayout.of
        monkeypatch.setattr(lp.HighsLayout, "of", lambda problem: built.append(problem) or of(problem))
        rng = np.random.default_rng(77)  # three warm step-III levels
        topology, demands = random_multicell_instance(
            rng, n_cells=3, users_per_cell=3, n_demands=18, horizon=15
        )
        sweep = heuristic_sweep(topology, demands, SHUFFLED_LEVELS)
        names = {row.flow.index.problem.name for row in sweep.levels if row.flow is not None}
        assert len(names - {"min-spectrum-d2d"}) == 3
        assert len(built) == 1 and built[0].name == "min-spectrum-d2d"

    def test_toy_sweep_solves_one_lp(self):
        # levels 0-0.75 make every demand eligible, so they share the full
        # problem's lexicographic solve; level 1 makes none eligible and
        # needs no LP
        topology, demands = toy_two_cell()
        sweep = heuristic_sweep(topology, demands, SWEEP_LEVELS)
        assert [row.n_d2d_demands for row in sweep.levels] == [4, 4, 4, 4, 0]
        assert [row.reused for row in sweep.levels] == [False, True, True, True, False]
        solves = recorded_solves(topology, demands, SWEEP_LEVELS)
        assert [(name, warm) for name, warm, _ in solves] == [("min-spectrum-d2d", False)]

    def test_six_task_sweep_solves_one_warm_level(self):
        # levels 0.5 and 0.75 share the eligible set {C, D}: one step III,
        # started from the full optimum's basis
        topology, demands = heuristic_six_task()
        solves = recorded_solves(topology, demands, SWEEP_LEVELS)
        assert [(name, warm) for name, warm, _ in solves] == [
            ("min-spectrum-d2d", False),
            ("heuristic-spectrum-level0.5", True),
        ]

    def test_warm_levels_certified_on_six_task(self):
        assert assert_warm_levels_certified(*heuristic_six_task()) == 1

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_warm_levels_certified_property(self, seed):
        assert_warm_levels_certified(*random_instance(seed))

    def test_kept_load_without_peak_row_is_refused(self):
        # every kept (BS, slot) has a peak row in the full LP; one that does
        # not is refused, not dropped
        topology, demands = heuristic_six_task()
        _, schedule, _ = min_spectrum_no_d2d(topology, demands)
        split = split_demands(topology, demands, schedule, 0.5)
        user = demands.demands[TASK_A].user
        outside = {(TASK_A, user, topology.home_bs[user], demands.horizon + 1): 1.0}
        kept = Schedule.concatenate([split.kept, Schedule.from_allocations(outside)])
        index = solve_min_spectrum_d2d(topology, demands).index
        with pytest.raises(lp.LpError, match="no peak row"):
            index.restricted(split.fixed, slot_loads(kept, topology), "outside")

    @pytest.mark.parametrize("instance", [heuristic_six_task, toy_two_cell])
    def test_empty_eligible_set_matches_its_lp(self, instance):
        # with no flow to place, the reduced LP's optimum is the kept load's peaks
        topology, demands = instance()
        outcome = heuristic_min_spectrum(topology, demands, 1.0)
        assert outcome.step3_variables == 0
        problem, _, peak_vars, _ = loop_flow_lp(
            topology,
            demands,
            demand_subset=(),
            residual_load=per_slot_loads(outcome.split.kept, topology),
        )
        solution, unit = plain_solve(problem), lp_unit(demands)
        assert solution.objective * unit == pytest.approx(outcome.total_spectrum, rel=1e-12)
        for b, col in peak_vars.items():
            assert solution.value(col) * unit == pytest.approx(
                outcome.per_bs_peak[b], rel=1e-12, abs=1e-12
            )
