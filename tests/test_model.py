"""Domain types, schedule validation, volumes, and the two headline metrics."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb.model import (
    DemandSet,
    ModelError,
    Schedule,
    Topology,
    build_d2d_comm_graph,
    compute_metrics,
    compute_volumes,
    discrepancy_params,
    fill_storage,
    instance_from_json,
    instance_to_json,
    per_slot_loads,
    validate_schedule,
)
from d2dlb.scenario import intra_cell_example, toy_two_cell


def ring_topology(n: int) -> Topology:
    bs = [f"b{i}" for i in range(n)]
    users = [f"u{i}" for i in range(n)]
    links = [(users[i], bs[i], 1) for i in range(n)]
    for i in range(n):
        links += [(users[i], users[(i + 1) % n], 1), (users[i], users[(i - 1) % n], 1)]
    return Topology(
        bs_ids=tuple(bs),
        user_ids=tuple(users),
        home_bs={users[i]: bs[i] for i in range(n)},
        links=tuple(links),
    )


class TestTopology:
    def test_rejects_duplicate_links(self):
        with pytest.raises(ModelError, match="duplicate link"):
            Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 1), ("u", "b", 2)))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ModelError, match="invalid rate"):
            Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 0),))

    def test_rejects_unknown_home(self):
        with pytest.raises(ModelError, match="unknown home"):
            Topology(("b",), ("u",), {"u": "nope"}, ())

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ModelError, match="not a declared"):
            Topology(("b",), ("u",), {"u": "b"}, (("u", "ghost", 1),))

    def test_json_round_trip(self):
        topology, demands = toy_two_cell()
        text = instance_to_json(topology, demands)
        topo2, dem2 = instance_from_json(text)
        assert topo2 == topology
        assert dem2 == demands
        # and the payload is plain JSON
        json.loads(text)


class TestDemandSet:
    def test_lifetime_inside_horizon(self):
        with pytest.raises(ModelError, match="outside"):
            DemandSet.build(3, [("u", 2, 4, 1.0)])

    def test_positive_volume(self):
        with pytest.raises(ModelError, match="positive"):
            DemandSet.build(3, [("u", 1, 2, 0.0)])

    def test_max_delay(self):
        dem = DemandSet.build(10, [("u", 1, 1, 1.0), ("u", 2, 6, 1.0)])
        assert dem.max_delay == 5


class TestD2DCommGraph:
    def test_toy_edges(self):
        topology, _ = toy_two_cell()
        graph = build_d2d_comm_graph(topology)
        assert graph.edges == {("alpha", "beta"), ("beta", "alpha")}
        assert graph.max_in_degree == 1

    def test_no_d2d_links(self):
        topo = Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 1),))
        graph = build_d2d_comm_graph(topo)
        assert graph.edges == frozenset()
        assert graph.max_in_degree == 0

    def test_ring_of_five(self):
        graph = build_d2d_comm_graph(ring_topology(5))
        assert all(d == 2 for d in graph.in_degree.values())
        assert graph.max_in_degree == 2

    @given(st.permutations(list(range(5))))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_user_relabeling(self, perm):
        base = ring_topology(5)
        mapping = {f"u{i}": f"w{perm[i]}" for i in range(5)}
        relabeled = Topology(
            bs_ids=base.bs_ids,
            user_ids=tuple(mapping[u] for u in base.user_ids),
            home_bs={mapping[u]: b for u, b in base.home_bs.items()},
            links=tuple((mapping[s], mapping.get(t, t), r) for s, t, r in base.links),
        )
        assert build_d2d_comm_graph(relabeled).edges == build_d2d_comm_graph(base).edges


class TestDiscrepancyParams:
    def test_unit_rates(self):
        topology, _ = toy_two_cell()
        params = discrepancy_params(topology)
        assert params.intra_max == 0.0  # the toy network has no intra-cell D2D
        assert params.inter_max == 1.0

    def test_single_user_no_d2d(self):
        topo = Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 2.5),))
        params = discrepancy_params(topo)
        assert params.intra_max == 0.0
        assert params.inter_max == 0.0

    def test_intra_cell_example_ratio(self):
        topology, _ = intra_cell_example(rate_ratio=3.0, delay=4)
        params = discrepancy_params(topology)
        assert params.per_user_intra["a"] == pytest.approx(3.0)
        assert params.intra_max == pytest.approx(3.0)

    def test_missing_home_link_names_user(self):
        topo = Topology(
            ("b1", "b2"),
            ("u", "w"),
            {"u": "b1", "w": "b2"},
            (("u", "b1", 1), ("u", "w", 1), ("w", "u", 1)),
        )
        with pytest.raises(ModelError, match="'w'"):
            discrepancy_params(topo)

    @given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_d2d_rate(self, rate, bump):
        def build(d2d_rate):
            return Topology(
                ("b1", "b2"),
                ("u", "w"),
                {"u": "b1", "w": "b2"},
                (("u", "b1", 1), ("w", "b2", 1), ("u", "w", d2d_rate)),
            )

        before = discrepancy_params(build(rate))
        after = discrepancy_params(build(rate + bump))
        assert after.intra_max >= before.intra_max
        assert after.inter_max >= before.inter_max


class TestValidateSchedule:
    def test_toy_relay_schedule_passes(self, toy_instance, toy_d2d_schedule):
        topology, demands = toy_instance
        report = validate_schedule(toy_d2d_schedule, topology, demands)
        assert report.ok, report.summary()

    def test_empty_schedule_misses_every_arrival(self, toy_instance):
        topology, demands = toy_instance
        report = validate_schedule(Schedule.from_allocations({}), topology, demands)
        arrivals = [v for v in report.violations if v.kind == "arrival"]
        assert len(arrivals) == len(demands.demands)
        assert {abs(v.residual) for v in arrivals} == {3.0}

    def test_unforwarded_volume_flags_conservation(self, toy_instance):
        topology, demands = toy_instance
        # b -> c in slot 1, then c never forwards nor stores
        schedule = Schedule.from_allocations(
            {
                (1, "b", "c", 1): 2.0,
                (1, "b", "b", 1): 1.0,
                (1, "b", "alpha", 2): 1.0,
            }
        )
        report = validate_schedule(schedule, topology, demands)
        kinds = {v.kind for v in report.violations}
        assert "conservation" in kinds

    def test_negative_allocation_flagged(self, toy_instance):
        topology, demands = toy_instance
        report = validate_schedule(Schedule.from_allocations({(0, "a", "alpha", 1): -1.0}), topology, demands)
        assert any(v.kind == "negative" for v in report.violations)

    def test_out_of_lifetime_flagged(self, toy_instance):
        topology, demands = toy_instance
        report = validate_schedule(Schedule.from_allocations({(0, "a", "alpha", 4): 3.0}), topology, demands)
        assert any(v.kind == "lifetime" for v in report.violations)


class TestVolumesAndLoads:
    def test_toy_volumes(self, toy_instance, toy_d2d_schedule):
        topology, _ = toy_instance
        v_d2d, v_bs = compute_volumes(toy_d2d_schedule, topology)
        assert v_d2d == 4.0
        assert v_bs == 12.0

    def test_complete_schedule_delivers_total_volume(self, toy_instance, toy_d2d_schedule):
        topology, demands = toy_instance
        _, v_bs = compute_volumes(toy_d2d_schedule, topology)
        assert v_bs == pytest.approx(float(demands.total_volume), rel=1e-9)

    def test_no_d2d_schedule_has_zero_overhead(self, toy_instance):
        topology, demands = toy_instance
        direct = fill_storage(
            Schedule.from_allocations({(0, "a", "alpha", 1): 3.0}),
            topology,
            DemandSet(4, (demands.demands[0],)),
        )
        v_d2d, v_bs = compute_volumes(direct, topology)
        assert v_d2d == 0.0
        assert v_bs == 3.0

    def test_toy_per_slot_loads_peak_two(self, toy_instance, toy_d2d_schedule):
        topology, _ = toy_instance
        loads = per_slot_loads(toy_d2d_schedule, topology)
        assert max(loads.values()) == 2.0
        peaks = {b: max(load for (c, _t), load in loads.items() if c == b) for b in topology.bs_ids}
        assert peaks == {"alpha": 2.0, "beta": 2.0}


class TestMetrics:
    def test_toy_numbers(self):
        m = compute_metrics(6, 4, 4, 12)
        assert m.spectrum_reduction == pytest.approx(1 / 3)
        assert m.overhead_ratio == pytest.approx(1 / 4)

    def test_no_benefit_no_overhead(self):
        m = compute_metrics(5.0, 5.0, 0.0, 10.0)
        assert m.spectrum_reduction == 0.0
        assert m.overhead_ratio == 0.0

    def test_three_cell_complete_values(self):
        # N = 3 complete graph: reduction (N-1)/(N+1), overhead (N-1)/(2N)
        f_nd, f_d2d = Fraction(3), Fraction(3, 2)
        v_d2d, v_bs = Fraction(3, 2), Fraction(3)
        m = compute_metrics(f_nd, f_d2d, v_d2d, v_bs)
        assert m.spectrum_reduction == Fraction(1, 2)
        assert m.overhead_ratio == Fraction(1, 3)

    def test_zero_reference_is_an_error(self):
        with pytest.raises(ModelError):
            compute_metrics(0, 0, 1, 1)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=50),
        st.floats(min_value=0.01, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_ranges(self, f_nd, shrink, v_d2d, v_bs):
        m = compute_metrics(f_nd, f_nd * shrink, v_d2d, v_bs)
        assert 0.0 <= m.spectrum_reduction <= 1.0
        assert 0.0 <= m.overhead_ratio < 1.0


class TestScheduleSerialization:
    def test_csv_round_trip(self, toy_instance, toy_d2d_schedule, tmp_path):
        topology, demands = toy_instance
        path = tmp_path / "schedule.csv"
        toy_d2d_schedule.to_csv(str(path), topology, ["test=1"])
        loaded = Schedule.from_csv(str(path))
        assert validate_schedule(loaded, topology, demands).ok
        assert set(loaded.allocations) == set(toy_d2d_schedule.allocations)

    def test_fill_storage_rejects_oversend(self, toy_instance):
        topology, demands = toy_instance
        with pytest.raises(ModelError, match="more than"):
            fill_storage(Schedule.from_allocations({(0, "a", "alpha", 1): 99.0}), topology, demands)
