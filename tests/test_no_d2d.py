"""Per-cell optimum: the interval search and its EDF witness, held to the
bisection and LP oracles of ``no_d2d_reference``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb.model import (
    DemandSet,
    ModelError,
    Schedule,
    Topology,
    fill_storage,
    per_slot_loads,
    validate_schedule,
)
from d2dlb.no_d2d import (
    EDF_COMPLETION_REL_TOL,
    CellInstance,
    edf_feasible,
    intensity,
    min_spectrum_no_d2d,
    yds_min_spectrum,
)
from d2dlb.scenario import toy_two_cell
from d2dlb.bounds import build_ring_instance

from conftest import draw_instance
from no_d2d_reference import (
    binary_search_min_spectrum,
    build_min_spectrum_nd_lp,
    min_spectrum_nd_lp,
)
from simplex_reference import solve_reference


def toy_cell_alpha() -> CellInstance:
    topology, demands = toy_two_cell()
    return CellInstance.from_instance(topology, demands, "alpha")


def single_cell(rows, horizon=20, rates=None) -> CellInstance:
    users = sorted({u for u, *_ in rows})
    rates = rates or {}
    topo = Topology(
        bs_ids=("b",),
        user_ids=tuple(users),
        home_bs={u: "b" for u in users},
        links=tuple((u, "b", rates.get(u, 1)) for u in users),
    )
    return CellInstance.from_instance(topo, DemandSet.build(horizon, rows), "b")


def random_cell(rng: np.random.Generator, n_demands=50, horizon=100) -> CellInstance:
    n_users = int(rng.integers(1, 6))
    rows = []
    for _ in range(int(rng.integers(1, n_demands + 1))):
        u = f"u{int(rng.integers(n_users)) + 1}"
        start = int(rng.integers(1, horizon + 1))
        end = min(horizon, start + int(rng.integers(0, 6)))
        rows.append((u, start, end, float(rng.uniform(0.2, 8.0))))
    rates = {f"u{k + 1}": float(rng.uniform(0.5, 4.0)) for k in range(n_users)}
    return single_cell(rows, horizon, rates)


class TestIntensity:
    def test_toy_cell_interval(self):
        cell = toy_cell_alpha()
        assert intensity(cell, 1, 2) == pytest.approx(3.0)

    def test_interval_without_complete_lifetimes(self):
        cell = toy_cell_alpha()
        assert intensity(cell, 2, 2) == 0.0

    def test_direct_substitution(self):
        cell = single_cell([("u", 1, 3, 6.0)], rates={"u": 2})
        assert intensity(cell, 1, 3) == pytest.approx(1.0)

    def test_invalid_interval(self):
        with pytest.raises(ModelError):
            intensity(toy_cell_alpha(), 3, 2)


class TestYds:
    def test_toy_cell_value_and_interval(self):
        value, interval = yds_min_spectrum(toy_cell_alpha())
        assert value == pytest.approx(3.0)
        assert interval == (1, 2)

    def test_single_demand(self):
        cell = single_cell([("u", 2, 5, 6.0)], rates={"u": 2})
        value, interval = yds_min_spectrum(cell)
        assert value == pytest.approx(6.0 / (2 * 4))
        assert interval == (2, 5)

    def test_empty_cell(self):
        cell = single_cell([("u", 1, 1, 1.0)])
        empty = CellInstance(cell.bs, cell.horizon, (), {})
        assert yds_min_spectrum(empty) == (0.0, (1, 1))

    def test_returned_value_is_intensity_of_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cell = random_cell(rng)
            value, (z, z2) = yds_min_spectrum(cell)
            assert value == intensity(cell, z, z2)  # identical arithmetic path

    def test_tie_break_smallest_interval(self):
        # both [1,2] and [3,4] have intensity 1; the earlier one is returned
        cell = single_cell([("u", 1, 2, 2.0), ("u", 3, 4, 2.0)])
        _, interval = yds_min_spectrum(cell)
        assert interval == (1, 2)


def scan_edf_feasible(cell: CellInstance, capacity: float) -> tuple[bool, Schedule | None]:
    """Reference EDF: every slot scans all demands in (deadline, id) order."""
    remaining = {j.id: cell.work(j) for j in cell.demands}
    tol = {j.id: EDF_COMPLETION_REL_TOL * max(cell.work(j), 1e-300) for j in cell.demands}
    alloc: dict[tuple[int, str, str, int], float] = {}
    slots = sorted({t for j in cell.demands for t in range(j.start, j.end + 1)})
    by_deadline = sorted(cell.demands, key=lambda j: (j.end, j.id))
    for t in slots:
        free = capacity
        for j in by_deadline:
            if free <= 0:
                break
            if not (j.start <= t <= j.end) or remaining[j.id] <= tol[j.id]:
                continue
            grant = min(free, remaining[j.id])
            if grant > 0:
                key = (j.id, j.user, cell.bs, t)
                alloc[key] = alloc.get(key, 0.0) + grant
                remaining[j.id] -= grant
                free -= grant
        for j in by_deadline:
            if j.end == t and remaining[j.id] > tol[j.id]:
                return False, None
    return True, Schedule(alloc)


class TestEdf:
    def test_toy_cell_feasible_at_three(self):
        feasible, schedule = edf_feasible(toy_cell_alpha(), 3.0)
        assert feasible
        loads = {}
        for (j, u, v, t), x in schedule.allocations.items():
            if u != v:  # self-links are free storage
                loads[t] = loads.get(t, 0.0) + x
        assert max(loads.values()) <= 3.0 + 1e-9

    def test_toy_cell_infeasible_below(self):
        feasible, schedule = edf_feasible(toy_cell_alpha(), 2.9)
        assert not feasible and schedule is None

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cell = random_cell(rng, n_demands=12, horizon=30)
            f_min, _ = yds_min_spectrum(cell)
            assert edf_feasible(cell, f_min)[0]
            assert edf_feasible(cell, f_min * 1.5 + 1.0)[0]
            if f_min > 0:
                assert not edf_feasible(cell, f_min * 0.999)[0]

    def test_schedule_validates_and_respects_peak(self):
        topology, demands = toy_two_cell()
        result, schedule, _ = min_spectrum_no_d2d(topology, demands)
        report = validate_schedule(schedule, topology, demands)
        assert report.ok, report.summary()
        for (b, _t), load in per_slot_loads(schedule, topology).items():
            assert load <= result.per_bs_peak[b] + 1e-9

    def test_witness_schedule_validates_as_returned(self):
        # the EDF witness is direct links only; fill_storage adds the storage
        topology, demands = toy_two_cell()
        cell = CellInstance.from_instance(topology, demands, "alpha")
        f_min, _ = yds_min_spectrum(cell)
        _, witness = edf_feasible(cell, f_min)
        assert all(u != v for (_j, u, v, _t) in witness.allocations)
        cell_demands = DemandSet(
            demands.horizon, tuple(j for j in demands.demands if j.user in ("a", "b"))
        )
        schedule = fill_storage(witness, topology, cell_demands)
        report = validate_schedule(schedule, topology, cell_demands)
        assert report.ok, report.summary()

    def test_rejects_negative_capacity(self):
        with pytest.raises(ModelError):
            edf_feasible(toy_cell_alpha(), -1.0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_heap_equals_scan(self, seed):
        rng = np.random.default_rng(seed)
        cell = random_cell(
            rng, n_demands=int(rng.integers(1, 40)), horizon=int(rng.integers(3, 40))
        )
        f_min, _ = yds_min_spectrum(cell)
        for capacity in (f_min, 0.999 * f_min, 1.5 * f_min + 1.0):
            feasible, witness = edf_feasible(cell, capacity)
            want_feasible, want_witness = scan_edf_feasible(cell, capacity)
            assert feasible == want_feasible, capacity
            if feasible:
                assert witness.allocations == want_witness.allocations, capacity


class TestLpRoute:
    def test_toy_cell(self):
        value, _ = min_spectrum_nd_lp(toy_cell_alpha())
        assert value == pytest.approx(3.0, abs=1e-9)

    def test_empty_cell_is_zero(self):
        cell = single_cell([("u", 1, 1, 1.0)])
        empty = CellInstance(cell.bs, cell.horizon, (), {})
        value, schedule = min_spectrum_nd_lp(empty)
        assert value == 0.0 and len(schedule) == 0

    def test_agrees_with_interval_search_on_100_random_cells(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            cell = random_cell(rng, n_demands=20, horizon=40)
            f_yds, _ = yds_min_spectrum(cell)
            f_lp, _ = min_spectrum_nd_lp(cell)
            assert f_lp == pytest.approx(f_yds, rel=1e-6, abs=1e-9)

    def test_reference_backend_agrees(self):
        # the dense simplex oracle on the cell LP
        problem, _ = build_min_spectrum_nd_lp(toy_cell_alpha())
        assert solve_reference(problem).objective == pytest.approx(3.0, abs=1e-9)


class TestBinarySearch:
    def test_matches_interval_search(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            cell = random_cell(rng, n_demands=10, horizon=30)
            f_yds, _ = yds_min_spectrum(cell)
            f_bin = binary_search_min_spectrum(cell)
            assert f_bin == pytest.approx(f_yds, rel=1e-6, abs=1e-7)


class TestPerNetworkTotals:
    def test_toy_network_total(self):
        topology, demands = toy_two_cell()
        result, _, intervals = min_spectrum_no_d2d(topology, demands)
        assert result.total == pytest.approx(6.0)
        assert result.per_bs_peak == {"alpha": 3.0, "beta": 3.0}
        assert intervals["alpha"] == (1, 2)

    def test_no_demands(self):
        topo = Topology(("b",), ("u",), {"u": "b"}, (("u", "b", 1),))
        result, schedule, _ = min_spectrum_no_d2d(topo, DemandSet(5, ()))
        assert result.total == 0.0 and len(schedule) == 0

    def test_ring_total_matches_closed_form(self):
        inst = build_ring_instance(3, volume=1.0)
        result, _, _ = min_spectrum_no_d2d(inst.topology, inst.demands)
        n = len(inst.topology.bs_ids)
        assert float(result.total) == pytest.approx(n * 1.0 / 3, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_yds_equals_lp_property(self, seed):
        cell = random_cell(np.random.default_rng(seed), n_demands=8, horizon=20)
        f_yds, _ = yds_min_spectrum(cell)
        f_lp, _ = min_spectrum_nd_lp(cell)
        assert f_lp == pytest.approx(f_yds, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("seed", range(1000, 1005))
def test_scaled_totals_scale_linearly(seed):
    # the storage fill judges "sends more than it holds" relative to the
    # demand's volume; an absolute tolerance trips on 1e9-bit demands
    topology, demands = draw_instance(np.random.default_rng(seed))
    base = float(min_spectrum_no_d2d(topology, demands)[0].total)
    for scale in (1e-6, 1e3, 1e6, 1e9):
        scaled = DemandSet.build(
            demands.horizon,
            [(j.user, j.start, j.end, float(j.volume) * scale) for j in demands.demands],
        )
        total = float(min_spectrum_no_d2d(topology, scaled)[0].total)
        assert total / scale == pytest.approx(base, rel=1e-9), scale
