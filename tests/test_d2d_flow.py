"""Flow-over-time LPs: optima, schedules, billing, and pruning equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from simplex_reference import solve_reference
from two_stage_reference import overhead_model

from d2dlb.bounds import build_complete_instance, build_ring_instance
from d2dlb.d2d_flow import (
    InfeasibleDemandError,
    build_flow_lp,
    hop_distances_from,
    hop_distances_to_bs,
    prune_equivalence_check,
    solve_min_overhead,
    solve_min_spectrum_d2d,
)
from d2dlb.lp import solve
from d2dlb.model import (
    DemandSet,
    Topology,
    compute_volumes,
    per_slot_loads,
    split_loads,
    validate_schedule,
)
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import random_multicell_instance, toy_two_cell


def no_d2d_topology() -> tuple[Topology, DemandSet]:
    topo = Topology(
        bs_ids=("b1", "b2"),
        user_ids=("u", "w"),
        home_bs={"u": "b1", "w": "b2"},
        links=(("u", "b1", 1), ("w", "b2", 1)),
    )
    demands = DemandSet.build(6, [("u", 1, 2, 4.0), ("w", 1, 3, 3.0)])
    return topo, demands


class TestHopDistances:
    def test_from_source(self):
        topology, _ = toy_two_cell()
        dist = hop_distances_from(topology, "b")
        assert dist == {"b": 0, "alpha": 1, "c": 1, "beta": 2}

    def test_to_bs(self):
        topology, _ = toy_two_cell()
        dist = hop_distances_to_bs(topology)
        assert dist["alpha"] == 0 and dist["beta"] == 0
        assert dist["a"] == 1 and dist["b"] == 1 and dist["c"] == 1 and dist["d"] == 1


class TestMinSpectrumD2D:
    def test_toy_instance(self, toy_instance):
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        assert outcome.total == pytest.approx(4.0, abs=1e-9)
        assert outcome.per_bs_peak["alpha"] == pytest.approx(2.0, abs=1e-9)
        assert outcome.per_bs_peak["beta"] == pytest.approx(2.0, abs=1e-9)
        report = validate_schedule(outcome.schedule, topology, demands, flow_abs_tol=1e-7)
        assert report.ok, report.summary()

    def test_no_d2d_links_equals_no_d2d_total(self):
        topology, demands = no_d2d_topology()
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        outcome = solve_min_spectrum_d2d(topology, demands)
        assert outcome.total == pytest.approx(float(nd_result.total), rel=1e-9)

    def test_single_slot_demands_get_no_benefit(self, toy_instance):
        topology, _ = toy_instance
        demands = DemandSet.build(
            4, [("a", 1, 1, 3.0), ("b", 2, 2, 3.0), ("c", 3, 3, 3.0), ("d", 4, 4, 3.0)]
        )
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        outcome = solve_min_spectrum_d2d(topology, demands)
        assert outcome.total == pytest.approx(float(nd_result.total), rel=1e-9)

    def test_unreachable_demand_named_at_build_time(self):
        topo = Topology(
            bs_ids=("b1",),
            user_ids=("u", "w"),
            home_bs={"u": "b1", "w": "b1"},
            links=(("u", "b1", 1), ("u", "w", 1)),  # w has no path to any BS
        )
        demands = DemandSet.build(4, [("w", 1, 3, 1.0)])
        with pytest.raises(InfeasibleDemandError, match="demand 0"):
            build_flow_lp(topo, demands)

    def test_complete_two_cell_optimum_is_four(self):
        inst = build_complete_instance(2, 2, volume=6)
        outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
        bound = len(inst.topology.bs_ids) * 2 * 6.0 / ((2 + 1) * 2)
        assert outcome.total <= bound + 1e-6
        assert outcome.total == pytest.approx(4.0, abs=1e-8)  # exact optimum

    def test_ring_d2_reduction_at_least_half(self):
        inst = build_ring_instance(2, volume=1.0)
        nd_result, _, _ = min_spectrum_no_d2d(inst.topology, inst.demands)
        outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
        rho = (float(nd_result.total) - outcome.total) / float(nd_result.total)
        assert rho >= 0.5 - 1e-9
        assert rho == pytest.approx(0.5, abs=1e-8)  # the construction is optimal here

    def test_beta_variables_match_schedule_loads(self, toy_instance):
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        uplink, d2d = split_loads(outcome.schedule, topology)
        for (b, t), col in outcome.index.beta_vars.items():
            assert outcome.solution.value(col) == pytest.approx(
                float(d2d.get((b, t), 0.0)), abs=1e-9
            )
        for (b, t), col in outcome.index.alpha_vars.items():
            assert outcome.solution.value(col) == pytest.approx(
                float(uplink.get((b, t), 0.0)), abs=1e-9
            )

    def test_loads_respect_per_bs_peaks(self, toy_instance):
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        for (b, _t), load in per_slot_loads(outcome.schedule, topology).items():
            assert load <= outcome.per_bs_peak[b] + 1e-9

    def test_reference_backend_agrees_on_toy(self, toy_instance):
        # the dense simplex oracle on the toy's flow LP
        topology, demands = toy_instance
        solution = solve_reference(build_flow_lp(topology, demands).problem)
        assert solution.objective == pytest.approx(4.0, abs=1e-9)


class TestMinOverhead:
    def test_toy_overhead_is_four_packets(self, toy_instance):
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        schedule, v_d2d, second = solve_min_overhead(topology, outcome)
        assert v_d2d == pytest.approx(4.0, rel=1e-6)
        report = validate_schedule(schedule, topology, demands, flow_abs_tol=1e-7)
        assert report.ok, report.summary()
        # the spectrum budget binds
        assert second.total == pytest.approx(outcome.total, rel=1e-6)
        v_d2d2, v_bs = compute_volumes(schedule, topology)
        assert v_d2d2 == pytest.approx(v_d2d, rel=1e-9)
        assert float(v_bs) == pytest.approx(12.0, rel=1e-9)

    def test_no_d2d_topology_zero_overhead(self):
        topology, demands = no_d2d_topology()
        outcome = solve_min_spectrum_d2d(topology, demands)
        _, v_d2d, _ = solve_min_overhead(topology, outcome)
        assert v_d2d == pytest.approx(0.0, abs=1e-9)

    def test_complete_two_cell_overhead_ratio(self):
        inst = build_complete_instance(2, 2, volume=6)
        outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
        schedule, _, _ = solve_min_overhead(inst.topology, outcome)
        v_d2d, v_bs = compute_volumes(schedule, inst.topology)
        eta = float(v_d2d) / float(v_d2d + v_bs)
        assert eta == pytest.approx(0.25, abs=1e-6)


class TestPruning:
    def test_toy_equivalence(self, toy_instance):
        topology, demands = toy_instance
        report = prune_equivalence_check(topology, demands)
        assert report.equal
        assert report.n_vars_pruned < report.n_vars_unpruned

    def test_random_three_cell_equivalence(self):
        rng = np.random.default_rng(31)
        topology, demands = random_multicell_instance(
            rng, n_cells=3, users_per_cell=3, n_demands=15, horizon=15
        )
        report = prune_equivalence_check(topology, demands)
        assert report.equal, (report.optimum_pruned, report.optimum_unpruned)

    def test_ring_reduction_at_least_half(self):
        inst = build_ring_instance(3, volume=1.0)
        report = prune_equivalence_check(inst.topology, inst.demands)
        assert report.equal
        assert report.variable_reduction >= 0.5

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        topology, demands = random_multicell_instance(
            rng, n_cells=2, users_per_cell=2, n_demands=8, horizon=10
        )
        report = prune_equivalence_check(topology, demands)
        assert report.equal, (report.optimum_pruned, report.optimum_unpruned)


class TestStructuralProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_d2d_never_exceeds_no_d2d(self, seed):
        rng = np.random.default_rng(seed)
        topology, demands = random_multicell_instance(
            rng, n_cells=3, users_per_cell=2, n_demands=10, horizon=12
        )
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        outcome = solve_min_spectrum_d2d(topology, demands)
        assert outcome.total <= float(nd_result.total) * (1 + 1e-9) + 1e-9

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_optimal_schedules_validate(self, seed):
        rng = np.random.default_rng(seed)
        topology, demands = random_multicell_instance(
            rng, n_cells=3, users_per_cell=2, n_demands=10, horizon=12
        )
        outcome = solve_min_spectrum_d2d(topology, demands)
        report = validate_schedule(outcome.schedule, topology, demands, flow_abs_tol=1e-7)
        assert report.ok, report.summary()

    def test_min_overhead_lp_dump_smoke(self, toy_instance):
        topology, demands = toy_instance
        problem = overhead_model(build_flow_lp(topology, demands), 4.0)
        text = problem.to_lp_format()
        assert "primary_cap" in text
        solution = solve(problem)
        assert solution.status == "optimal"
