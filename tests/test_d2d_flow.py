"""Flow-over-time LPs: optima, schedules, billing, and pruning equivalence."""

import dataclasses

import numpy as np
import pytest
from conftest import draw_instance
from hypothesis import given, settings
from flow_lp_reference import pinned_day, prune_equivalence_check
from hypothesis import strategies as st
from lp_format import to_lp_format
from simplex_reference import solve_reference
from two_stage_reference import overhead_model

from d2dlb.bounds import build_complete_instance, build_ring_instance
from d2dlb.d2d_flow import (
    UNREACHABLE,
    InfeasibleDemandError,
    build_flow_lp,
    hop_distances_from,
    hop_distances_to_bs,
    hop_matrix,
    solve_min_overhead,
    solve_min_spectrum_d2d,
)
from d2dlb.lp import LpSolution, solve
from d2dlb.model import (
    DemandSet,
    Number,
    Schedule,
    Topology,
    compute_volumes,
    per_slot_loads,
    validate_schedule,
)
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import random_multicell_instance, toy_two_cell


def split_loads(
    schedule: Schedule, topology: Topology
) -> tuple[dict[tuple[str, int], Number], dict[tuple[str, int], Number]]:
    """Per-(BS, slot) uplink load (into the BS) and D2D load (into its users)."""
    user_set = set(topology.user_ids)
    uplink: dict[tuple[str, int], Number] = {}
    d2d: dict[tuple[str, int], Number] = {}
    for (j, u, v, t), x in schedule.allocations.items():
        if u == v:
            continue
        if v in user_set:
            key = (topology.home_bs[v], t)
            d2d[key] = d2d.get(key, 0) + x
        else:
            key = (v, t)
            uplink[key] = uplink.get(key, 0) + x
    return uplink, d2d


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

    @pytest.mark.parametrize(
        "instance",
        [
            pytest.param(toy_two_cell, id="toy"),
            pytest.param(lambda: (build_ring_instance(5).topology, None), id="ring5"),
            pytest.param(lambda: (build_complete_instance(3, 2).topology, None), id="complete3x2"),
            pytest.param(pinned_day, id="pinned-day"),
            *(
                pytest.param(
                    lambda seed=seed: draw_instance(np.random.default_rng(seed)), id=f"drawn{seed}"
                )
                for seed in range(10)
            ),
        ],
    )
    def test_hop_matrix_rows_are_breadth_first_searches(self, instance):
        topology, _ = instance()
        nodes = topology.arrays.nodes
        sources = np.arange(len(nodes))[::-1]  # every node, in an order of its own
        hops = hop_matrix(topology, sources)
        assert hops.shape == (len(nodes), len(nodes)) and hops.dtype == np.int64
        for source, row in zip(sources, hops):
            dist = hop_distances_from(topology, nodes[source])
            assert row.tolist() == [dist.get(v, UNREACHABLE) for v in nodes]
        assert (hops == UNREACHABLE).any()  # a BS reaches no user


class TestMinSpectrumD2D:
    def test_toy_instance(self, toy_instance):
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        assert outcome.total == pytest.approx(4.0, abs=1e-9)
        assert outcome.per_bs_peak["alpha"] == pytest.approx(2.0, abs=1e-9)
        assert outcome.per_bs_peak["beta"] == pytest.approx(2.0, abs=1e-9)
        report = validate_schedule(outcome.schedule, topology, demands, flow_abs_tol=1e-7)
        assert report.ok, report.summary()

    def test_schedule_leaves_out_columns_fixed_at_zero(self, toy_instance):
        # a basic column fixed at 0 can come back a few ulps off (-1.5e-14
        # on one suite-sweep level); it carries no flow into the schedule,
        # and no BS storage is rebuilt from it
        topology, demands = toy_instance
        index = build_flow_lp(topology, demands)
        problem = index.problem
        fixed = index.flow_demand[index.lp_flow] == demands.demands[0].id
        upper = np.where(np.arange(problem.n_variables) < fixed.size, 1.0, problem.upper)
        upper[: fixed.size][fixed] = 0.0
        level = dataclasses.replace(index, problem=problem.with_bounds(upper, problem.rhs, "l"))
        x = np.full(problem.n_variables, -1.5e-14)
        x[: fixed.size][~fixed] = 1.0
        schedule = level.extract_schedule(LpSolution("optimal", 0.0, x, 0.0))
        bs_storage = (schedule.src == schedule.dst) & (schedule.dst >= topology.arrays.n_users)
        # every flow column of the other demands, substituted ones included
        free = index.flow_demand != demands.demands[0].id
        assert int((~bs_storage).sum()) == int(free.sum()) > int((~fixed).sum())
        assert bs_storage.any()
        assert demands.demands[0].id not in schedule.demand

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

    def test_peak_rows_match_schedule_loads(self, toy_instance):
        # a peak row's activity is the billed load, uplink (alpha) plus D2D
        # (beta), less the BS's peak, in the LP's unit
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        problem, x = outcome.index.problem, outcome.solution.x * outcome.index.unit
        activity = np.bincount(problem.rows, problem.vals * x[problem.cols], problem.n_constraints)
        uplink, d2d = split_loads(outcome.schedule, topology)
        assert set(uplink) | set(d2d) <= set(outcome.index.peak_row)
        for (b, t), row in outcome.index.peak_row.items():
            load = float(uplink.get((b, t), 0.0) + d2d.get((b, t), 0.0))
            assert activity[row] + outcome.per_bs_peak[b] == pytest.approx(load, abs=1e-9)

    def test_loads_respect_per_bs_peaks(self, toy_instance):
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        for (b, _t), load in per_slot_loads(outcome.schedule, topology).items():
            assert load <= outcome.per_bs_peak[b] + 1e-9

    def test_reference_backend_agrees_on_toy(self, toy_instance):
        # the dense simplex oracle on the toy's flow LP
        topology, demands = toy_instance
        index = build_flow_lp(topology, demands)
        solution = solve_reference(index.problem)
        assert solution.objective * index.unit == pytest.approx(4.0, abs=1e-9)


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
        text = to_lp_format(problem)
        cap = text.split("Bounds")[0].splitlines()[-1]  # the last row: the peaks' sum capped at 4
        assert cap.startswith(f" c{problem.n_constraints - 1}: ") and cap.endswith(" <= 4")
        assert cap.count(" x") == len(topology.bs_ids)
        solution = solve(problem)
        assert solution.status == "optimal"
