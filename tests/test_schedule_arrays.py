"""The array schedule routines against their loop versions in ``schedule_reference``.

Volumes, loads, the heuristic's split and the CSV must be identical, since
both versions add the same floats in the same order; validation must flag
the same violations; ``fill_storage`` must fail on the same inputs and
otherwise agree to 1e-12 of each demand's volume, on random instances of the
criterion-6 family, their no-D2D and D2D schedules, and perturbed copies.
"""

from fractions import Fraction

import numpy as np
import pytest
import schedule_reference as ref
from conftest import draw_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb.bounds import build_complete_instance, build_ring_instance
from d2dlb.d2d_flow import solve_min_spectrum_d2d
from d2dlb.heuristic import heuristic_sweep, split_context, split_demands
from d2dlb.model import (
    DemandSet,
    FlowResidualError,
    ModelError,
    Schedule,
    Topology,
    compute_volumes,
    fill_storage,
    per_slot_loads,
    validate_schedule,
)
from d2dlb.no_d2d import min_spectrum_no_d2d

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def solved(seed: int):
    """A criterion-6 instance with its no-D2D and D2D schedules."""
    topology, demands = draw_instance(np.random.default_rng(seed))
    _, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    return topology, demands, nd_schedule, solve_min_spectrum_d2d(topology, demands).schedule


def scaled(schedule: Schedule, entry: int, factor: float) -> Schedule:
    value = schedule.value.copy()
    value[entry] *= factor
    return Schedule(schedule.nodes, schedule.demand, schedule.src, schedule.dst, schedule.slot, value)


def real_part(schedule: Schedule) -> Schedule:
    return schedule.select(schedule.src != schedule.dst)


def violation_keys(report):
    return [(v.kind, v.demand, v.node, v.slot) for v in report.violations]


def storage_or_failure(fill, schedule, topology, demands):
    try:
        return fill(schedule, topology, demands).allocations
    except FlowResidualError:
        return None


def assert_same_storage(got, want, demands):
    assert (got is None) == (want is None)
    if want is None:
        return
    volume = {j.id: float(j.volume) for j in demands.demands}
    assert got.keys() <= want.keys() | {k for k, x in got.items() if x <= 1e-12 * volume[k[0]]}
    for key in got.keys() | want.keys():
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-12 * volume[key[0]], key


@given(SEEDS)
@settings(max_examples=15, deadline=None)
def test_volumes_loads_and_split_are_identical(seed):
    topology, demands, nd_schedule, d2d_schedule = solved(seed)
    for schedule in (nd_schedule, d2d_schedule):
        assert compute_volumes(schedule, topology) == ref.compute_volumes(schedule, topology)
        assert per_slot_loads(schedule, topology) == ref.per_slot_loads(schedule, topology)
    for level in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        got = split_demands(topology, demands, nd_schedule, level)
        want = ref.split_demands(topology, demands, nd_schedule, level)
        assert got.d2d_demand_ids == want.d2d_demand_ids
        assert got.nd_demand_ids == want.nd_demand_ids
        assert per_slot_loads(got.kept, topology) == want.residual_load


#: split levels of a sweep grid: the benchmark's, arbitrary ones, and both ends
GRID_LEVELS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@given(SEEDS, st.lists(GRID_LEVELS, min_size=1, max_size=8))
@settings(max_examples=15, deadline=None)
def test_split_from_one_context_is_the_reference_split(seed, levels):
    # one split context serves a whole grid, levels repeated and in any order
    topology, demands, nd_schedule, _ = solved(seed)
    context = split_context(topology, demands, nd_schedule)
    bs_ids = topology.bs_ids
    for level in levels + levels[::-1]:
        got = split_demands(topology, demands, nd_schedule, level, context=context)
        want = ref.split_demands(topology, demands, nd_schedule, level)
        assert got.d2d_demand_ids == want.d2d_demand_ids
        assert got.nd_demand_ids == want.nd_demand_ids
        assert got.kept.allocations == {
            key: x for key, x in nd_schedule.allocations.items() if key[0] in want.nd_demand_ids
        }
        assert per_slot_loads(got.kept, topology) == want.residual_load
        bs, slot, load = got.kept_loads
        kept_loads = {(bs_ids[b], t): x for b, t, x in zip(bs.tolist(), slot.tolist(), load.tolist())}
        assert kept_loads == want.residual_load
        assert got.fixed.tolist() == [j.id in want.nd_demand_ids for j in demands.demands]


@given(seed=SEEDS)
@settings(max_examples=10, deadline=None)
def test_csv_bytes_are_identical(tmp_path_factory, seed):
    topology, _, nd_schedule, d2d_schedule = solved(seed)
    out = tmp_path_factory.mktemp("csv")
    for schedule in (nd_schedule, d2d_schedule):
        schedule.to_csv(str(out / "got.csv"), topology, ["seed=1"])
        ref.to_csv(schedule, str(out / "want.csv"), topology, ["seed=1"])
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
        loaded = Schedule.from_csv(str(out / "got.csv"))
        assert dict(loaded.allocations) == dict(schedule.allocations)


@given(SEEDS, st.integers(min_value=0, max_value=10**6), st.sampled_from([0.99, 1.01, -1.0, 0.0]))
@settings(max_examples=30, deadline=None)
def test_perturbed_schedule_has_the_same_violations(seed, pick, factor):
    topology, demands, nd_schedule, d2d_schedule = solved(seed)
    for schedule in (nd_schedule, d2d_schedule):
        assert validate_schedule(schedule, topology, demands).ok
        bad = scaled(schedule, pick % len(schedule), factor)
        for tol in (1e-9, 1e-6):
            got = validate_schedule(bad, topology, demands, flow_abs_tol=tol)
            want = ref.validate_schedule(bad, topology, demands, flow_abs_tol=tol)
            assert violation_keys(got) == violation_keys(want)
            assert [v.residual for v in got.violations] == pytest.approx(
                [v.residual for v in want.violations], rel=1e-9, abs=1e-12
            )


def test_entry_violations_match():
    topology, demands, _, d2d_schedule = solved(4)
    j = demands.demands[0]
    extra = {
        (10**6, j.user, topology.home_bs[j.user], j.start): 1.0,  # unknown demand
        (j.id, j.user, "nowhere", j.start): 1.0,  # unknown link
        (j.id, "ghost", "ghost", j.start): 1.0,  # storage at a node the topology lacks
        (j.id, j.user, topology.home_bs[j.user], j.end + 1): -1.0,  # negative, outside lifetime
    }
    bad = Schedule.concatenate([d2d_schedule, Schedule.from_allocations(extra)])
    got = validate_schedule(bad, topology, demands)
    want = ref.validate_schedule(bad, topology, demands)
    assert violation_keys(got) == violation_keys(want)
    assert {"unknown_demand", "unknown_link", "negative", "lifetime"} <= {
        v.kind for v in got.violations
    }


@given(SEEDS, st.integers(min_value=0, max_value=10**6), st.sampled_from([1.0, 0.999, 1.01, 1.0 + 1e-10]))
@settings(max_examples=30, deadline=None)
def test_fill_storage_fails_alike_and_agrees(seed, pick, factor):
    topology, demands, nd_schedule, d2d_schedule = solved(seed)
    for schedule in (nd_schedule, d2d_schedule):
        real = real_part(schedule)
        perturbed = scaled(real, pick % len(real), factor)
        got = storage_or_failure(fill_storage, perturbed, topology, demands)
        want = storage_or_failure(ref.fill_storage, perturbed, topology, demands)
        assert_same_storage(got, want, demands)
        if factor == 1.0:
            assert got is not None


def test_fill_storage_clamps_a_small_overdraw_at_zero():
    # relay w sends 1e-10 more than it received (within tolerance): its storage
    # is 0 from there on, not -1e-10, so a later hold is exactly what arrived
    topology = Topology(("b",), ("u", "w"), {"u": "b", "w": "b"}, (("u", "w", 1.0), ("w", "b", 1.0)))
    demands = DemandSet.build(4, [("u", 1, 4, 1.0)])
    real = Schedule.from_allocations(
        {
            (0, "u", "w", 1): 0.5,
            (0, "w", "b", 2): 0.5 + 1e-10,
            (0, "u", "w", 2): 0.5,
            (0, "w", "b", 3): 0.25,
            (0, "w", "b", 4): 0.25,
        }
    )
    got = fill_storage(real, topology, demands).allocations
    assert dict(got) == dict(ref.fill_storage(real, topology, demands).allocations)
    assert got[(0, "w", "w", 3)] == 0.25


def bs_self_links(schedule: Schedule, topology: Topology) -> list:
    return [key for key in schedule.allocations if key[1] == key[2] and key[2] in topology.bs_set]


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_a_bs_is_a_sink_without_a_self_link(seed):
    # bits into a BS are delivered: neither storage fill gives them a BS
    # self-link, no schedule has one, and both validations report one as an
    # unknown link and nothing else
    topology, demands, nd_schedule, d2d_schedule = solved(seed)
    for schedule in (nd_schedule, d2d_schedule):
        assert not bs_self_links(schedule, topology)
        for fill in (fill_storage, ref.fill_storage):
            assert not bs_self_links(fill(real_part(schedule), topology, demands), topology)
    j, b = demands.demands[0], topology.bs_ids[0]
    held = Schedule.from_allocations({(j.id, b, b, j.end): 1.0})
    for schedule in (nd_schedule, d2d_schedule):
        stored = Schedule.concatenate([schedule, held])
        for validate in (validate_schedule, ref.validate_schedule):
            got = violation_keys(validate(stored, topology, demands))
            assert got == [("unknown_link", j.id, f"{b}->{b}", j.end)]
    assert topology.has_link(j.user, j.user) and topology.rate(j.user, j.user) == 1
    assert not topology.has_link(b, b)
    with pytest.raises(ModelError, match="no link"):
        topology.rate(b, b)


@given(SEEDS)
@settings(max_examples=8, deadline=None)
def test_kept_demands_carry_the_storage_fill_of_their_transmissions(seed):
    # a sweep level takes the kept demands' entries, storage included, from
    # the filled no-D2D schedule instead of filling them again
    topology, demands = draw_instance(np.random.default_rng(seed))
    for row in heuristic_sweep(topology, demands, (0.25, 0.5, 0.9, 1.0)).levels:
        kept = row.split.nd_demand_ids
        nd_real = real_part(row.split.nd_schedule)
        want = ref.fill_storage(
            nd_real.select(np.isin(nd_real.demand, list(kept))),
            topology,
            DemandSet(demands.horizon, tuple(j for j in demands.demands if j.id in kept)),
        ).allocations
        got = {key: x for key, x in row.schedule.allocations.items() if key[0] in kept}
        assert got == want


@pytest.mark.parametrize(
    "build", [lambda: build_ring_instance(3), lambda: build_complete_instance(3, 3)]
)
def test_exact_schedules_stay_exact(build, tmp_path):
    inst = build()
    topology, demands, schedule = inst.topology, inst.demands, inst.schedule
    assert schedule.exact
    assert all(isinstance(x, Fraction) for x in schedule.allocations.values())
    real = real_part(schedule)
    got = fill_storage(real, topology, demands)
    assert dict(got.allocations) == dict(ref.fill_storage(real, topology, demands).allocations)
    volumes = compute_volumes(schedule, topology)
    assert volumes == ref.compute_volumes(schedule, topology)
    assert all(isinstance(v, Fraction) for v in volumes)
    loads = per_slot_loads(schedule, topology)
    assert loads == ref.per_slot_loads(schedule, topology)
    assert all(isinstance(x, Fraction) for x in loads.values())
    schedule.to_csv(str(tmp_path / "got.csv"), topology)
    ref.to_csv(schedule, str(tmp_path / "want.csv"), topology)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_quotes_each_node_name_alike(tmp_path):
    # names with a line break, a comma, a quote; a line break must not shift later names
    b, u, w = "b,1", "u\r\n1", 'w"2'
    topology = Topology((b,), (u, w), {u: b, w: b}, ((u, b, 2.0), (w, b, 3.0), (u, w, 1.5)))
    schedule = Schedule.from_allocations(
        {(0, u, w, 1): 0.5, (0, w, b, 2): 0.25, (1, u, b, 1): 1.0, (1, u, u, 1): 4.0}
    )
    schedule.to_csv(str(tmp_path / "got.csv"), topology, ["seed=1"])
    ref.to_csv(schedule, str(tmp_path / "want.csv"), topology, ["seed=1"])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert dict(Schedule.from_csv(str(tmp_path / "got.csv")).allocations) == dict(schedule.allocations)


def test_concatenate_sums_shared_keys_in_order():
    a = Schedule.from_allocations({(0, "u", "b", 1): 0.1, (1, "u", "b", 1): 1.0})
    b = Schedule.from_allocations({(0, "u", "b", 1): 0.2, (0, "w", "b", 2): 3.0})
    merged = Schedule.concatenate([a, b])
    assert dict(merged.allocations) == {
        (0, "u", "b", 1): 0.1 + 0.2,
        (1, "u", "b", 1): 1.0,
        (0, "w", "b", 2): 3.0,
    }
    assert list(merged.allocations) == [(0, "u", "b", 1), (1, "u", "b", 1), (0, "w", "b", 2)]
