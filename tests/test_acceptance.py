"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable.  Random suites are seeded and
the regression baselines were produced by the first run of this code on the
pinned seeds.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from flow_lp_reference import hop_distances_from, prune_equivalence_check

from d2dlb.bounds import (
    BOUND_TOL,
    build_complete_instance,
    build_ring_instance,
    construction_metrics,
    general_rho_upper_bound,
    overhead_upper_bound,
    simple_rho_upper_bound,
)
from d2dlb.d2d_flow import solve_min_overhead, solve_min_spectrum_d2d
from d2dlb.heuristic import (
    check_heuristic_bounds,
    heuristic_min_overhead,
    heuristic_min_spectrum,
    split_demands,
)
from d2dlb.model import Topology, DemandSet, compute_volumes, validate_schedule
from d2dlb.no_d2d import CellInstance, edf_feasible, min_spectrum_no_d2d, yds_min_spectrum
from d2dlb.scenario import (
    GeoParams,
    generate_topology,
    heuristic_six_task,
    random_multicell_instance,
    synthesize_demands,
    synthesize_trace,
    toy_two_cell,
)

from conftest import get_bound_suite
from no_d2d_reference import min_spectrum_nd_lp


class Criterion:
    """Context manager printing one PASS/FAIL line with the elapsed time."""

    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {verdict} in {elapsed:.2f}s"
              f" (budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_toy_example():
    with Criterion(1, "toy two-cell pipeline", 1.0):
        topology, demands = toy_two_cell()
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        assert float(nd_result.total) == pytest.approx(6.0, abs=1e-9)
        outcome = solve_min_spectrum_d2d(topology, demands)
        assert outcome.total == pytest.approx(4.0, abs=1e-9)
        rho = (float(nd_result.total) - outcome.total) / float(nd_result.total)
        assert rho == pytest.approx(1 / 3, abs=1e-9)
        schedule, _, _ = solve_min_overhead(topology, outcome)
        v_d2d, v_bs = compute_volumes(schedule, topology)
        eta = float(v_d2d / (v_d2d + v_bs))
        assert eta == pytest.approx(0.25, abs=1e-6)


def test_criterion_2_interval_search_equals_lp():
    with Criterion(2, "interval search vs LP on 200 single cells", 30.0):
        rng = np.random.default_rng(424242)
        for k in range(200):
            horizon = int(rng.integers(10, 101))
            n_users = int(rng.integers(1, 6))
            rates = {f"u{i + 1}": float(rng.uniform(0.5, 4.0)) for i in range(n_users)}
            rows = []
            for _ in range(int(rng.integers(1, 51))):
                u = f"u{int(rng.integers(n_users)) + 1}"
                start = int(rng.integers(1, horizon + 1))
                end = min(horizon, start + int(rng.integers(0, 6)))
                rows.append((u, start, end, float(rng.uniform(0.2, 8.0))))
            topo = Topology(
                bs_ids=("b",),
                user_ids=tuple(rates),
                home_bs={u: "b" for u in rates},
                links=tuple((u, "b", r) for u, r in rates.items()),
            )
            cell = CellInstance.from_instance(topo, DemandSet.build(horizon, rows), "b")
            f_yds, _ = yds_min_spectrum(cell)
            f_lp, _ = min_spectrum_nd_lp(cell)
            assert f_lp == pytest.approx(f_yds, rel=1e-6), f"instance {k}"
            assert edf_feasible(cell, f_yds)[0], f"instance {k}: EDF at the optimum"
            assert f_yds > 0
            assert not edf_feasible(cell, 0.999 * f_yds)[0], f"instance {k}: EDF below"


def test_criterion_3_ring_construction():
    with Criterion(3, "ring construction vs LP", 120.0):
        for delay in (2, 3, 4, 5):
            inst = build_ring_instance(delay, volume=1)
            report = validate_schedule(inst.schedule, inst.topology, inst.demands)
            assert report.ok, report.summary()
            rho, eta = construction_metrics(inst)
            assert rho == Fraction(2 * (delay - 1), 3 * delay - 2)
            assert eta == Fraction(delay * (delay - 1), delay * delay + 2 * delay - 2)
            outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
            n = len(inst.topology.bs_ids)
            assert outcome.total <= n * 1.0 / (3 * delay - 2) + 1e-6


def test_criterion_4_complete_construction():
    with Criterion(4, "complete-graph construction vs LP", 120.0):
        for n_cells in (2, 3, 4, 5, 6):
            for delay in (2, 3):
                inst = build_complete_instance(n_cells, delay, volume=1)
                report = validate_schedule(inst.schedule, inst.topology, inst.demands)
                assert report.ok, report.summary()
                rho, eta = construction_metrics(inst)
                assert rho == Fraction(n_cells - 1, n_cells + 1)
                assert eta == Fraction(n_cells - 1, 2 * n_cells)
                nd_result, _, _ = min_spectrum_no_d2d(inst.topology, inst.demands)
                outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
                rho_lp = (float(nd_result.total) - outcome.total) / float(
                    nd_result.total
                )
                assert rho_lp >= float(rho) - 1e-6


def test_criterion_5_bound_suite():
    with Criterion(5, "bounds on 50 random instances", 600.0):
        bound_suite = get_bound_suite()
        for inst in bound_suite:
            _, simple_bound = simple_rho_upper_bound(
                inst.topology, inst.demands, f_nd=inst.f_nd
            )
            assert inst.rho <= simple_bound + 1e-6, f"seed {inst.seed}: free-relay bound"
            general = general_rho_upper_bound(inst.topology)
            assert inst.rho <= general.bound + 1e-6, f"seed {inst.seed}: discrepancy bound"
            eta_cap = overhead_upper_bound(inst.demands.max_delay)
            assert inst.eta <= eta_cap + 1e-6, f"seed {inst.seed}: overhead bound"


def test_criterion_6_heuristic_sandwich():
    with Criterion(6, "heuristic sandwich on the same 50 instances", 1800.0):
        assert BOUND_TOL == 1e-6  # the slack check_heuristic_bounds allows
        for inst in get_bound_suite():
            for level in (0.0, 0.25, 0.5, 0.75, 1.0):
                outcome = heuristic_min_spectrum(inst.topology, inst.demands, level)
                schedule, _ = heuristic_min_overhead(inst.topology, inst.demands, outcome)
                v_d2d, v_bs = compute_volumes(schedule, inst.topology)
                rho_h = (inst.f_nd - outcome.total_spectrum) / inst.f_nd
                eta_h = float(v_d2d / (v_d2d + v_bs))
                report = check_heuristic_bounds(
                    inst.demands, level, inst.rho, rho_h, eta_h,
                    outcome.split.d2d_demand_ids,
                )
                assert report.ok, f"seed {inst.seed} level {level}: {report.violations}"
                if level == 0.0:
                    assert rho_h == pytest.approx(inst.rho, abs=1e-6), f"seed {inst.seed}"
                if level == 1.0:
                    assert rho_h == pytest.approx(0.0, abs=1e-6), f"seed {inst.seed}"


def test_criterion_7_pruning_exactness():
    with Criterion(7, "pruning exactness on 20 instances", 600.0):
        for seed in range(2000, 2020):
            rng = np.random.default_rng(seed)
            topology, demands = random_multicell_instance(
                rng,
                n_cells=int(rng.integers(2, 5)),
                users_per_cell=int(rng.integers(2, 4)),
                n_demands=int(rng.integers(8, 25)),
                horizon=int(rng.integers(10, 20)),
            )
            report = prune_equivalence_check(topology, demands)
            assert report.rel_gap <= 1e-6, f"seed {seed}: optima differ"
            if _some_link_excluded(topology, demands):
                assert report.variable_reduction > 0, f"seed {seed}"


def _some_link_excluded(topology, demands) -> bool:
    """True when some demand's lifetime rules out some link entirely."""
    for j in demands.demands:
        dist = hop_distances_from(topology, j.user)
        span = j.end - j.start
        for (u, _v) in topology.rate_map:
            if dist.get(u, 10**9) > span:
                return True
    return False


# regression baselines from the first run of the pinned-seed scenario below
SYNTHETIC_SEED = 2027
SYNTHETIC_F_ND = 9.454959005926652
SYNTHETIC_F_H = {
    0.0: 9.159213782553056,
    0.25: 9.159213782553055,
    0.5: 9.159213782553055,
    0.75: 9.217597260728713,
    1.0: 9.454959005926652,
}
SYNTHETIC_ETA_H_AT_HALF = 0.005930737600594548


def test_criterion_8_synthetic_day():
    with Criterion(8, "six-cell synthetic day (proprietary-trace substitute)", 600.0):
        positions = [(300.0 * i, 0.0) for i in range(6)]
        topology = generate_topology(
            positions,
            GeoParams(users_per_cell=40, seed=SYNTHETIC_SEED),
            np.random.default_rng(SYNTHETIC_SEED),
        )
        records = synthesize_trace(
            [f"b{i}" for i in range(1, 7)],
            days=1,
            profile="diurnal-offset",
            rng=np.random.default_rng(SYNTHETIC_SEED + 1),
            windows_per_day=12,  # downscaled day so the full LP stays desk-scale
            base_volume=60.0,
        )
        demands = synthesize_demands(
            records,
            topology,
            np.random.default_rng(SYNTHETIC_SEED + 2),
            delays=(3, 4, 5),
            splits=4,
            slot_seconds=1200.0,
        )
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        f_nd = float(nd_result.total)
        assert f_nd == pytest.approx(SYNTHETIC_F_ND, rel=1e-6)

        curve = {}
        for level in (0.0, 0.25, 0.5, 0.75, 1.0):
            outcome = heuristic_min_spectrum(topology, demands, level)
            curve[level] = (f_nd - outcome.total_spectrum) / f_nd
            assert outcome.total_spectrum == pytest.approx(SYNTHETIC_F_H[level], rel=1e-6)
            if level == 0.5:
                schedule, _ = heuristic_min_overhead(topology, demands, outcome)
                v_d2d, v_bs = compute_volumes(schedule, topology)
                eta_h = float(v_d2d / (v_d2d + v_bs))
        # the headline behavior: positive reduction at tiny overhead
        assert curve[0.5] > 0.0
        assert eta_h < overhead_upper_bound(demands.max_delay)
        assert eta_h == pytest.approx(SYNTHETIC_ETA_H_AT_HALF, rel=1e-6)
        # reduction-vs-level curve is non-increasing in trend
        levels = sorted(curve)
        for a, b in zip(levels, levels[1:]):
            assert curve[b] <= curve[a] + 1e-6
        assert curve[1.0] == pytest.approx(0.0, abs=1e-9)


# Step-III optimum of the six-task example at level 0.5, first computed by
# this code: both peaks settle at 100/3
SIX_TASK_STEP3_OPTIMUM = 200.0 / 3.0


def test_criterion_9_six_task_regression():
    with Criterion(9, "six-task split regression", 60.0):
        topology, demands = heuristic_six_task()
        nd_result, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
        assert nd_result.per_bs_peak == {"b1": 40.0, "b2": 40.0}
        split = split_demands(topology, demands, nd_schedule, 0.5)
        assert split.d2d_demand_ids == {2, 3}  # tasks C and D
        assert split.nd_demand_ids == {0, 1, 4, 5}
        outcome = heuristic_min_spectrum(topology, demands, 0.5)
        assert outcome.total_spectrum == pytest.approx(SIX_TASK_STEP3_OPTIMUM, rel=1e-9)
