"""Closed-form bounds, the exact constructions, and the reuse adjustment."""

from fractions import Fraction

import pytest

from d2dlb.bounds import (
    build_complete_instance,
    build_ring_instance,
    construction_metrics,
    frequency_reuse_adjusted,
    general_rho_upper_bound,
    inter_cell_bound,
    intra_cell_bound,
    overhead_upper_bound,
    relaxed_spectrum_floor,
    simple_rho_upper_bound,
)
from d2dlb.d2d_flow import solve_min_overhead, solve_min_spectrum_d2d
from d2dlb.model import (
    DemandSet,
    ModelError,
    Topology,
    compute_volumes,
    per_slot_loads,
    validate_schedule,
)
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import intra_cell_example


class TestFreeRelayBound:
    def test_toy_floor_and_bound(self, toy_instance):
        topology, demands = toy_instance
        floor, bound = simple_rho_upper_bound(topology, demands)
        assert floor == pytest.approx(3.0)
        assert bound == pytest.approx(0.5)
        assert bound >= 1 / 3 - 1e-9  # dominates the observed reduction

    def test_single_demand_bound_zero(self):
        topo = Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 1),))
        demands = DemandSet.build(4, [("u", 1, 2, 3.0)])
        floor, bound = simple_rho_upper_bound(topo, demands)
        assert floor == pytest.approx(1.5)
        assert bound == pytest.approx(0.0)

    def test_floor_lower_bounds_the_d2d_optimum(self, bound_suite):
        for inst in bound_suite[:10]:
            floor = relaxed_spectrum_floor(inst.topology, inst.demands)
            assert floor <= inst.f_d2d + 1e-6


class TestFormulaBounds:
    def test_general_bound_uniform_rates_ring(self):
        inst = build_ring_instance(3)
        report = general_rho_upper_bound(inst.topology)
        assert report.bound == pytest.approx(2 / 3)

    def test_general_bound_no_d2d(self):
        topo = Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 1),))
        assert general_rho_upper_bound(topo).bound == 0.0

    def test_general_bound_formula_substitution(self):
        # intra ratio 2, inter ratio 1, in-degree 1 -> (2 + 1 - 1) / (2 + 1)
        topo = Topology(
            ("b1", "b2"),
            ("u", "v", "w"),
            {"u": "b1", "v": "b1", "w": "b2"},
            (
                ("u", "b1", 1),
                ("v", "b1", 1),
                ("w", "b2", 1),
                ("u", "v", 2),
                ("u", "w", 1),
            ),
        )
        assert general_rho_upper_bound(topo).bound == pytest.approx(2 / 3)

    def test_intra_bound_is_zero_without_better_links(self, toy_instance):
        topology, _ = toy_instance
        assert intra_cell_bound(topology).bound == 0.0

    def test_intra_bound_ratio_two(self):
        topology, _ = intra_cell_example(rate_ratio=2.0, delay=3)
        assert intra_cell_bound(topology).bound == pytest.approx(0.5)

    def test_inter_bound(self):
        inst = build_ring_instance(2)
        assert inter_cell_bound(inst.topology).bound == pytest.approx(2 / 3)
        topo = Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 1),))
        assert inter_cell_bound(topo).bound == 0.0

    def test_inter_bound_complete_graph_looser_than_achieved(self):
        for n in (3, 4, 5):
            inst = build_complete_instance(n, 2)
            bound = inter_cell_bound(inst.topology).bound
            assert bound == pytest.approx((n - 1) / n)
            assert bound > float(inst.spectrum_reduction)  # (n-1)/(n+1)

    @pytest.mark.parametrize("d_max,expected", [(1, 0.0), (2, 0.5), (5, 0.8)])
    def test_overhead_bound(self, d_max, expected):
        assert overhead_upper_bound(d_max) == pytest.approx(expected)

    def test_overhead_bound_rejects_zero(self):
        with pytest.raises(ModelError):
            overhead_upper_bound(0)


class TestIntraCellExample:
    def test_achieved_reduction_matches_formula(self):
        ratio, delay = 3.0, 5
        topology, demands = intra_cell_example(ratio, delay, volume=30.0)
        nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
        outcome = solve_min_spectrum_d2d(topology, demands)
        rho = (float(nd_result.total) - outcome.total) / float(nd_result.total)
        expected = 1.0 - delay / ((delay - 1) * ratio)
        assert rho >= expected - 1e-6
        assert rho <= intra_cell_bound(topology).bound + 1e-6

    def test_limit_approaches_intra_bound(self):
        ratio = 4.0
        gaps = []
        for delay in (3, 6, 12):
            expected = 1.0 - delay / ((delay - 1) * ratio)
            gaps.append((ratio - 1) / ratio - expected)
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)  # shrinking toward the bound


class TestRingConstruction:
    @pytest.mark.parametrize("delay", [2, 3, 4, 5])
    def test_exact_metrics_and_validation(self, delay):
        inst = build_ring_instance(delay, volume=1)
        assert len(inst.topology.bs_ids) == 2 * delay - 1
        report = validate_schedule(inst.schedule, inst.topology, inst.demands)
        assert report.ok, report.summary()
        rho, eta = construction_metrics(inst)
        assert rho == Fraction(2 * (delay - 1), 3 * delay - 2)
        assert eta == Fraction(delay * (delay - 1), delay * delay + 2 * delay - 2)
        peaks = per_slot_loads(inst.schedule, inst.topology)
        assert max(peaks.values()) == inst.per_bs_spectrum  # exact rational equality

    def test_d3_values(self):
        inst = build_ring_instance(3)
        assert inst.spectrum_reduction == Fraction(4, 7)
        assert inst.overhead_ratio == Fraction(6, 13)

    def test_lp_at_most_closed_form(self):
        for delay in (2, 3):
            inst = build_ring_instance(delay, volume=1)
            outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
            n = len(inst.topology.bs_ids)
            assert outcome.total <= n / (3 * delay - 2) + 1e-6

    def test_reduction_increases_toward_two_thirds(self):
        values = [float(build_ring_instance(d).spectrum_reduction) for d in range(2, 13)]
        assert values == sorted(values)
        assert values[-1] < 2 / 3


class TestCompleteConstruction:
    @pytest.mark.parametrize("n_cells", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delay", [2, 3])
    def test_exact_metrics_and_validation(self, n_cells, delay):
        inst = build_complete_instance(n_cells, delay, volume=1)
        report = validate_schedule(inst.schedule, inst.topology, inst.demands)
        assert report.ok, report.summary()
        rho, eta = construction_metrics(inst)
        assert rho == Fraction(n_cells - 1, n_cells + 1)
        assert eta == Fraction(n_cells - 1, 2 * n_cells)
        peaks = per_slot_loads(inst.schedule, inst.topology)
        assert max(peaks.values()) == inst.per_bs_spectrum

    def test_two_cell_matches_toy_metrics(self):
        inst = build_complete_instance(2, 2, volume=6)
        assert inst.spectrum_reduction == Fraction(1, 3)
        assert inst.overhead_ratio == Fraction(1, 4)

    def test_odd_delay_uses_half_rate_middle_slot(self):
        inst = build_complete_instance(3, 3, volume=1)
        half_values = {
            x for (_j, u, v, t), x in inst.schedule.allocations.items() if u != v
        }
        assert inst.per_bs_spectrum / 2 in half_values

    def test_lp_achieves_at_least_construction_reduction(self):
        for n_cells in (2, 3):
            inst = build_complete_instance(n_cells, 2, volume=1)
            nd_result, _, _ = min_spectrum_no_d2d(inst.topology, inst.demands)
            outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
            rho_lp = (float(nd_result.total) - outcome.total) / float(nd_result.total)
            assert rho_lp >= float(inst.spectrum_reduction) - 1e-6

    def test_reduction_increases_toward_one(self):
        values = [float(build_complete_instance(n, 2).spectrum_reduction) for n in range(2, 13)]
        assert values == sorted(values)
        assert values[-1] < 1.0


class TestObservedAgainstBounds:
    def test_toy_overhead_under_bound(self, toy_instance):
        topology, demands = toy_instance
        outcome = solve_min_spectrum_d2d(topology, demands)
        schedule, _, _ = solve_min_overhead(topology, outcome)
        v_d2d, v_bs = compute_volumes(schedule, topology)
        eta = float(v_d2d / (v_d2d + v_bs))
        assert eta <= overhead_upper_bound(demands.max_delay) + 1e-6
        assert overhead_upper_bound(demands.max_delay) == pytest.approx(0.5)


class TestFrequencyReuse:
    def test_equal_factors_identity(self):
        assert frequency_reuse_adjusted(0.25, 1.0, 1.0) == pytest.approx(0.25)

    def test_factor_two_cancels_half(self):
        assert frequency_reuse_adjusted(0.5, 1.0, 0.5) == pytest.approx(0.0)

    def test_seven_vs_eight(self):
        adjusted = frequency_reuse_adjusted(0.25, 1 / 7, 1 / 8)
        assert adjusted == pytest.approx(1 - (8 / 7) * 0.75, abs=1e-12)
        assert adjusted == pytest.approx(0.142857, abs=1e-6)

    def test_rejects_degraded_above_baseline(self):
        with pytest.raises(ModelError):
            frequency_reuse_adjusted(0.25, 1 / 8, 1 / 7)
