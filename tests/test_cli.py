"""Command-line surface: outputs, exit codes, determinism, round-trips."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb import cli, lp, no_d2d
from d2dlb.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VIOLATION, main
from d2dlb.model import (
    DemandSet,
    Schedule,
    Topology,
    instance_to_json,
    per_slot_loads,
    validate_schedule,
)
from d2dlb.scenario import fixture, random_multicell_instance, synthesize_trace, write_trace_csv


def read_csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


class TestNd:
    def test_toy_rows(self, tmp_path):
        assert main(["nd", "--fixture", "toy-fig1", "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv_rows(tmp_path / "nd_cells.csv")
        values = {r["bs"]: (float(r["min_spectrum"]), r["interval_start"], r["interval_end"]) for r in rows}
        assert values == {"alpha": (3.0, "1", "2"), "beta": (3.0, "3", "4")}
        loads = read_csv_rows(tmp_path / "nd_loads.csv")
        assert max(float(r["load"]) for r in loads) <= 3.0 + 1e-9

    def test_empty_demand_total_zero(self, tmp_path, capsys):
        # a ring fixture stripped to one cell with no demands is not expressible
        # via --fixture; use --generate with zero demands instead
        code = main(["nd", "--generate", "cells=2,users=2,demands=0,T=5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "total=0.0" in capsys.readouterr().out

    def test_interval_search_equals_lp_on_random(self, tmp_path):
        code = main(["nd", "--generate", "cells=3,users=3,demands=25,T=20", "--seed", "42", "--out", str(tmp_path)])
        assert code == EXIT_OK


class TestD2D:
    def test_toy_json_and_schedule(self, tmp_path):
        assert main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "d2d_result.json").read_text())
        assert payload["f_nd"] == pytest.approx(6.0)
        assert payload["f_d2d"] == pytest.approx(4.0)
        assert payload["spectrum_reduction"] == pytest.approx(1 / 3)
        assert payload["overhead_ratio"] == pytest.approx(0.25, abs=1e-6)
        assert "config_hash" in payload["provenance"]
        # the emitted schedule re-validates after a round trip
        topology, demands = fixture("toy-fig1")
        schedule = Schedule.from_csv(str(tmp_path / "schedule.csv"))
        assert validate_schedule(schedule, topology, demands, flow_abs_tol=1e-6).ok

    def test_provenance_records_the_highs_tolerances(self, tmp_path):
        assert main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)]) == EXIT_OK
        provenance = json.loads((tmp_path / "d2d_result.json").read_text())["provenance"]
        tolerances = {k: float(v) for k, v in provenance.items() if k.endswith("tolerance")}
        assert tolerances == {
            "primal_feasibility_tolerance": lp.HIGHS_OPTIONS["primal_feasibility_tolerance"],
            "dual_feasibility_tolerance": lp.HIGHS_OPTIONS["dual_feasibility_tolerance"],
        }
        # the schedule's header carries the same record
        with open(tmp_path / "schedule.csv") as fh:
            header = [line[2:].rstrip("\n") for line in fh if line.startswith("# ")]
        assert dict(kv.split("=", 1) for kv in header) == provenance

    def test_no_d2d_instance_zero_metrics(self, tmp_path):
        code = main(
            ["d2d", "--fixture", "intra-fig3(0.5,3)", "--out", str(tmp_path)]
        )  # detour slower than uplink: no benefit
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "d2d_result.json").read_text())
        assert payload["spectrum_reduction"] == pytest.approx(0.0, abs=1e-9)
        assert payload["overhead_ratio"] == pytest.approx(0.0, abs=1e-9)

    @staticmethod
    def assert_peaks_are_schedule_maxima(out: Path, topology: Topology) -> None:
        # the peaks in d2d_result.json and schedule.csv come from one solution
        payload = json.loads((out / "d2d_result.json").read_text())
        loads = per_slot_loads(Schedule.from_csv(str(out / "schedule.csv")), topology)
        for b in topology.bs_ids:
            largest = max((load for (c, _t), load in loads.items() if c == b), default=0.0)
            assert payload["per_bs_d2d"][b] == pytest.approx(largest, rel=1e-9, abs=1e-12), b

    def test_toy_peaks_match_schedule(self, tmp_path):
        assert main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)]) == EXIT_OK
        self.assert_peaks_are_schedule_maxima(tmp_path, fixture("toy-fig1")[0])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_peaks_match_schedule(self, tmp_path_factory, seed):
        out = tmp_path_factory.mktemp("peaks")
        topology, demands = random_multicell_instance(
            np.random.default_rng(seed), n_cells=3, users_per_cell=3, n_demands=15, horizon=12
        )
        (out / "in.json").write_text(instance_to_json(topology, demands))
        assert main(["d2d", "--instance", str(out / "in.json"), "--out", str(out)]) == EXIT_OK
        self.assert_peaks_are_schedule_maxima(out, topology)

    def test_ring_reduction_reported(self, tmp_path):
        assert main(["d2d", "--fixture", "ring(3)", "--out", str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "d2d_result.json").read_text())
        assert payload["spectrum_reduction"] >= 4 / 7 - 1e-6


class TestHeuristic:
    def test_six_task_sweep(self, tmp_path):
        code = main(
            [
                "heuristic",
                "--fixture",
                "heuristic-appF",
                "--lambda-grid",
                "0,0.5,1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(tmp_path / "heuristic_sweep.csv")
        by_level = {float(r["lambda"]): r for r in rows}
        assert float(by_level[0.5]["total_spectrum"]) == pytest.approx(200 / 3, rel=1e-9)
        assert int(by_level[0.5]["n_d2d_demands"]) == 2
        assert float(by_level[1.0]["rho"]) == pytest.approx(0.0, abs=1e-9)
        # the level-0 row matches the full solve
        assert float(by_level[0.0]["rho"]) == pytest.approx(0.25, rel=1e-6)

    def test_zero_no_d2d_total_is_config_error(self, tmp_path, capsys):
        code = main(
            ["heuristic", "--generate", "cells=2,users=1,demands=0,T=5", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG
        assert "no-D2D total is zero" in capsys.readouterr().err

    def test_bad_lambda_grid_is_config_error(self, tmp_path):
        code = main(
            ["heuristic", "--fixture", "toy-fig1", "--lambda-grid", "0,2.5", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG


class TestBounds:
    def test_toy_bound_table(self, tmp_path):
        assert main(["bounds", "--fixture", "toy-fig1", "--out", str(tmp_path)]) == EXIT_OK
        rows = {r["bound"]: r for r in read_csv_rows(tmp_path / "bounds.csv")}
        assert float(rows["overhead_bound"]["value"]) == pytest.approx(0.5)
        assert float(rows["overhead_bound"]["observed"]) == pytest.approx(0.25, abs=1e-6)
        assert rows["overhead_bound"]["satisfied"] == "True"
        assert float(rows["free_relay_rho_bound"]["value"]) == pytest.approx(0.5)

    def test_reuse_adjustment_row(self, tmp_path):
        code = main(
            [
                "bounds", "--fixture", "toy-fig1", "--out", str(tmp_path),
                "--reuse", "0.142857", "--reuse-d2d", "0.125",
            ]
        )
        assert code == EXIT_OK
        rows = {r["bound"]: r for r in read_csv_rows(tmp_path / "bounds.csv")}
        assert "reuse_adjusted_rho" in rows


class TestConfigHandling:
    def test_unknown_fixture_is_config_error(self, tmp_path):
        assert main(["d2d", "--fixture", "bogus", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_two_sources_rejected(self, tmp_path):
        code = main(
            ["d2d", "--fixture", "toy-fig1", "--generate", "cells=2", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_no_source_rejected(self, tmp_path):
        assert main(["d2d", "--out", str(tmp_path)]) == EXIT_CONFIG


class TestErrorTaxonomy:
    def test_unreachable_demand_is_infeasible_instance(self, tmp_path, capsys, monkeypatch):
        # user w has no route to any BS.  The no-D2D stage needs a direct
        # link to the home BS and would stop first, so it is stubbed out and
        # the flow LP's builder meets the demand.
        topology = Topology(
            bs_ids=("b1",),
            user_ids=("u", "w"),
            home_bs={"u": "b1", "w": "b1"},
            links=(("u", "b1", 1), ("u", "w", 1)),
        )
        path = tmp_path / "instance.json"
        path.write_text(instance_to_json(topology, DemandSet.build(4, [("w", 1, 3, 1.0)])))
        monkeypatch.setattr(cli, "min_spectrum_no_d2d", lambda *args, **kwargs: (None, None, None))
        code = main(["d2d", "--instance", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("infeasible instance: demand 0: user 'w' cannot reach any BS")

    def test_storage_residual_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # an EDF witness granting 1 % more than each demand holds stands in
        # for a solve whose flow does not conserve volume
        edf_feasible = no_d2d.edf_feasible

        def overgranting(cell, capacity):
            feasible, schedule = edf_feasible(cell, capacity)
            return feasible, Schedule({k: 1.01 * x for k, x in schedule.allocations.items()})

        monkeypatch.setattr(no_d2d, "edf_feasible", overgranting)
        code = main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("numerical error: demand ")
        assert "sends more than" in err

    def test_edf_witness_failure_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # the interval search proves the cell's optimum feasible, so an EDF
        # witness missing a deadline there is a numerical failure
        monkeypatch.setattr(no_d2d, "edf_feasible", lambda cell, capacity: (False, None))
        code = main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("numerical error: cell alpha")

    def test_invalid_bounds_schedule_is_violation(self, tmp_path, capsys, monkeypatch):
        # a D2D schedule granting 1 % more than the solve found fails
        # validation before bounds derives eta from it
        solve_min_overhead = cli.solve_min_overhead

        def overgranting(*args, **kwargs):
            schedule, relayed, outcome = solve_min_overhead(*args, **kwargs)
            grants = {k: 1.01 * x for k, x in schedule.allocations.items()}
            return Schedule(grants), relayed, outcome

        monkeypatch.setattr(cli, "solve_min_overhead", overgranting)
        code = main(["bounds", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_VIOLATION
        assert capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()


class TestDeterminism:
    @staticmethod
    def strip_wall_time(path: Path) -> list[str]:
        lines = []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                lines.append(line)
            else:
                lines.append(",".join(line.split(",")[:-1]))  # drop wall_seconds
        return lines

    def test_heuristic_rerun_identical_modulo_timing(self, tmp_path):
        args = ["heuristic", "--fixture", "heuristic-appF", "--lambda-grid", "0,0.5,1"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert self.strip_wall_time(out1 / "heuristic_sweep.csv") == self.strip_wall_time(
            out2 / "heuristic_sweep.csv"
        )

    def test_d2d_rerun_identical(self, tmp_path):
        args = ["d2d", "--generate", "cells=3,users=2,demands=12,T=12", "--seed", "5"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "d2d_result.json").read_text() == (out2 / "d2d_result.json").read_text()
        assert (out1 / "schedule.csv").read_text() == (out2 / "schedule.csv").read_text()


class TestTraceIngestion:
    def test_trace_pipeline(self, tmp_path):
        records = synthesize_trace(
            ["cellA", "cellB"], 1, "diurnal-offset", np.random.default_rng(2),
            windows_per_day=4, base_volume=30.0,
        )
        trace_path = tmp_path / "trace.csv"
        write_trace_csv(records, str(trace_path))
        code = main(
            [
                "d2d", "--trace", str(trace_path), "--seed", "3",
                "--users-per-cell", "3", "--splits", "3",
                "--slot-seconds", "2700",  # 8 slots per 6-hour window
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "out" / "d2d_result.json").read_text())
        assert payload["f_nd"] > 0
