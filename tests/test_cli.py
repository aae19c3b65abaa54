"""Command-line surface: outputs, exit codes, determinism, round-trips."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import draw_instance
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

    def test_witness_certifies_interval_search_on_random(self, tmp_path):
        code = main(["nd", "--generate", "cells=3,users=3,demands=25,T=20", "--seed", "42", "--out", str(tmp_path)])
        assert code == EXIT_OK

    def test_witness_above_the_minimum_is_violation(self, tmp_path, capsys, monkeypatch):
        # EDF at 1.5x capacity delivers everything but front-loads: some slot
        # load exceeds the cell's minimum, so the witness certifies nothing
        edf_feasible = no_d2d.edf_feasible
        monkeypatch.setattr(
            no_d2d, "edf_feasible", lambda cell, capacity: edf_feasible(cell, 1.5 * capacity)
        )
        code = main(["nd", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_VIOLATION
        assert "nd: CERTIFICATE cell alpha" in capsys.readouterr().err
        assert not (tmp_path / "nd_cells.csv").exists()

    def test_makes_no_highs_call(self, tmp_path, monkeypatch):
        def no_highs(*args, **kwargs):
            raise AssertionError("nd called HiGHS")

        monkeypatch.setattr(lp, "_pass_model", no_highs)
        assert main(["nd", "--fixture", "toy-fig1", "--out", str(tmp_path)]) == EXIT_OK


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

    @pytest.mark.parametrize(
        "command,seed,output",
        [
            ("d2d", 0, "d2d_result.json"),
            ("d2d", 4, "d2d_result.json"),
            ("heuristic", 0, "heuristic_sweep.csv"),
        ],
    )
    def test_peak_its_schedule_contradicts_is_solver_error(
        self, tmp_path, capsys, command, seed, output
    ):
        # at rates x1e9 the LP's peaks are as small as HiGHS's feasibility
        # tolerance: the solve reports peaks the schedule's loads exceed, and
        # the schedule alone validates, so the peak check is what refuses it
        topology, demands = draw_instance(np.random.default_rng(seed))
        links = tuple((u, v, rate * 1e9) for u, v, rate in topology.links)
        fast = Topology(topology.bs_ids, topology.user_ids, topology.home_bs, links)
        (tmp_path / "in.json").write_text(instance_to_json(fast, demands))
        code = main([command, "--instance", str(tmp_path / "in.json"), "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith(f"solver error: {command}") and "largest slot load" in err, err
        assert not (tmp_path / output).exists()

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

    def test_grid_out_of_order_writes_the_same_rows(self, tmp_path):
        # every row but wall_seconds, keyed by level, as in the ordered grid
        args = ["heuristic", "--generate", "cells=3,users=3,demands=18,T=15", "--seed", "4"]
        shuffled, ordered = tmp_path / "shuffled", tmp_path / "ordered"
        assert main(args + ["--lambda-grid", "0.75,0.25,1,0.5,0,0.9", "--out", str(shuffled)]) == 0
        assert main(args + ["--lambda-grid", "0,0.25,0.5,0.75,0.9,1", "--out", str(ordered)]) == 0

        def rows(out):
            by_level = {r["lambda"]: r for r in read_csv_rows(out / "heuristic_sweep.csv")}
            for r in by_level.values():
                del r["wall_seconds"]
            return {float(level): r for level, r in by_level.items()}

        assert rows(shuffled) == rows(ordered)

    def test_invalid_level_schedule_is_violation(self, tmp_path, capsys, monkeypatch):
        # one level's combined schedule granting 1 % more than the solve
        # found fails validation before any row is written
        heuristic_sweep = cli.heuristic_sweep

        def overgranting(*args, **kwargs):
            sweep = heuristic_sweep(*args, **kwargs)
            first, *rest = sweep.levels
            grants = Schedule.from_allocations({k: 1.01 * x for k, x in first.schedule.allocations.items()})
            return dataclasses.replace(
                sweep, levels=(dataclasses.replace(first, schedule=grants), *rest)
            )

        monkeypatch.setattr(cli, "heuristic_sweep", overgranting)
        argv = ["heuristic", "--fixture", "heuristic-appF", "--lambda-grid", "0.5,1"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_VIOLATION
        assert capsys.readouterr().err.startswith("heuristic level=0.5: ")
        assert not (tmp_path / "heuristic_sweep.csv").exists()


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

    @pytest.mark.parametrize("flag", ["--reuse", "--reuse-d2d"])
    def test_one_reuse_flag_alone_is_config_error(self, tmp_path, capsys, flag):
        # either flag alone would drop the reuse_adjusted_rho row silently
        code = main(["bounds", "--fixture", "toy-fig1", "--out", str(tmp_path), flag, "0.5"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --reuse and --reuse-d2d")
        assert not (tmp_path / "bounds.csv").exists()


class TestConfigHandling:
    def test_unknown_fixture_is_config_error(self, tmp_path):
        assert main(["d2d", "--fixture", "bogus", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_two_sources_rejected(self, tmp_path):
        code = main(
            ["d2d", "--fixture", "toy-fig1", "--generate", "cells=2", "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["nd", "d2d", "heuristic", "bounds"])
    def test_out_that_cannot_be_created_is_config_error(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        code = main([command, "--fixture", "toy-fig1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: --out {out}: NotADirectoryError")

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
            return feasible, Schedule.from_allocations({k: 1.01 * x for k, x in schedule.allocations.items()})

        monkeypatch.setattr(no_d2d, "edf_feasible", overgranting)
        code = main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("numerical error: demand ")
        assert "sends more than" in err

    def test_storage_left_at_deadline_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # an EDF witness granting 1 % less than each demand holds leaves
        # volume at the user when the deadline comes: a computed schedule's
        # fault, not the input's
        edf_feasible = no_d2d.edf_feasible

        def undergranting(cell, capacity):
            feasible, schedule = edf_feasible(cell, capacity)
            return feasible, Schedule.from_allocations({k: 0.99 * x for k, x in schedule.allocations.items()})

        monkeypatch.setattr(no_d2d, "edf_feasible", undergranting)
        code = main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("numerical error: demand ")
        assert "at deadline" in err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--generate", "cells3"], "--generate"),
            (["--generate", "cells=x"], "--generate"),
            (["--generate", "cells=0"], "--generate"),
            (["--generate", "users=0"], "--generate"),
            (["--generate", "T=0"], "--generate"),
            (["--generate", "cells=2,demands=-1"], "--generate"),
            (["--generate", "cells=2,T=1"], "delay"),
            (["--fixture", "toy-fig1", "--lambda-grid", "a,b"], "--lambda-grid"),
            (["--instance", "{missing}"], "--instance"),
            (["--instance", "{not_json}"], "--instance"),
            (["--instance", "{no_users}"], "--instance"),
            (["--trace", "{missing}"], "--trace"),
            (["--trace", "{bad_timestamp}"], "--trace"),
            (["--fixture", "ring(x)"], "--fixture"),
            (["--fixture", "complete(2,y)"], "--fixture"),
        ],
        ids=[
            "generate-no-equals",
            "generate-not-integer",
            "generate-no-cells",
            "generate-no-users",
            "generate-no-slots",
            "generate-negative-demands",
            "generate-horizon-below-delay",
            "lambda-grid-not-numbers",
            "instance-missing",
            "instance-not-json",
            "instance-no-users",
            "trace-missing",
            "trace-bad-timestamp",
            "fixture-ring-not-integer",
            "fixture-complete-not-integer",
        ],
    )
    def test_malformed_input_is_config_error(self, tmp_path, capsys, args, flag):
        topology, demands = fixture("toy-fig1")
        no_users = json.loads(instance_to_json(topology, demands))
        del no_users["topology"]["users"]
        files = {
            "missing": tmp_path / "missing",
            "not_json": tmp_path / "not.json",
            "no_users": tmp_path / "no_users.json",
            "bad_timestamp": tmp_path / "trace.csv",
        }
        files["not_json"].write_text("{ not json")
        files["no_users"].write_text(json.dumps(no_users))
        files["bad_timestamp"].write_text("timestamp,cell_id,volume_bits\nyesterday,c1,5.0\n")
        argv = ["heuristic", *(a.format(**files) for a in args), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag in err, err

    def test_edf_witness_failure_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # the interval search proves the cell's optimum feasible, so an EDF
        # witness missing a deadline there is a numerical failure
        monkeypatch.setattr(no_d2d, "edf_feasible", lambda cell, capacity: (False, None))
        code = main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("numerical error: cell alpha")

    def test_time_limit_is_solver_error(self, tmp_path, capsys, monkeypatch):
        # HiGHS stops at its wall-clock limit before an optimum: exit 3, naming the status
        monkeypatch.setitem(lp.HIGHS_OPTIONS, "time_limit", 0.0)
        code = main(["d2d", "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and "status time_limit" in err, err

    @pytest.mark.parametrize("command", ["d2d", "heuristic", "bounds"])
    def test_uncertified_optimum_is_solver_error(self, tmp_path, capsys, monkeypatch, command):
        # an optimum whose duals leave a duality gap above the certificate's
        # tolerance is not written: exit 3, naming the gap
        monkeypatch.setattr(lp, "duality_gap", lambda *args: 1.0)
        code = main([command, "--fixture", "toy-fig1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and "duality gap 1.0 exceeds" in err, err
        assert not (tmp_path / "schedule.csv").exists()

    def test_invalid_bounds_schedule_is_violation(self, tmp_path, capsys, monkeypatch):
        # a D2D schedule granting 1 % more than the solve found fails
        # validation before bounds derives eta from it
        solve_min_overhead = cli.solve_min_overhead

        def overgranting(*args, **kwargs):
            schedule, relayed, outcome = solve_min_overhead(*args, **kwargs)
            grants = {k: 1.01 * x for k, x in schedule.allocations.items()}
            return Schedule.from_allocations(grants), relayed, outcome

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


class TestInstanceOutput:
    def test_instance_file_is_copied_byte_for_byte(self, tmp_path):
        topology, demands = fixture("toy-fig1")
        # compact JSON, unlike what instance_to_json writes
        text = json.dumps(json.loads(instance_to_json(topology, demands)), separators=(",", ":"))
        source = tmp_path / "compact.json"
        source.write_bytes(text.encode() + b"\n")
        for command in ("nd", "d2d"):
            out = tmp_path / command
            assert main([command, "--instance", str(source), "--out", str(out)]) == EXIT_OK
            assert (out / "instance.json").read_bytes() == source.read_bytes()

    def test_instance_file_is_read_once(self, tmp_path, monkeypatch):
        # the bytes written under --out are the bytes that were solved
        source = tmp_path / "instance.json"
        source.write_text(instance_to_json(*fixture("toy-fig1")))
        reads = []
        for name in ("read_bytes", "read_text"):
            read = getattr(Path, name)
            monkeypatch.setattr(
                Path, name, lambda self, *a, read=read, **k: reads.append(self) or read(self, *a, **k)
            )
        assert main(["d2d", "--instance", str(source), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert reads.count(source) == 1
        assert (tmp_path / "out" / "instance.json").read_bytes() == source.read_bytes()

    def test_instance_file_inside_out_is_kept(self, tmp_path):
        topology, demands = fixture("toy-fig1")
        source = tmp_path / "instance.json"
        source.write_text(json.dumps(json.loads(instance_to_json(topology, demands))))
        before = source.read_bytes()
        assert main(["nd", "--instance", str(source), "--out", str(tmp_path)]) == EXIT_OK
        assert source.read_bytes() == before

    @pytest.mark.parametrize(
        "source",
        [
            ["--fixture", "toy-fig1"],
            ["--generate", "cells=2,users=2,demands=6,T=8", "--seed", "4"],
            ["--trace", "{trace}", "--seed", "3", "--users-per-cell", "2", "--splits", "2"],
        ],
        ids=["fixture", "generate", "trace"],
    )
    def test_other_sources_write_their_json(self, tmp_path, source):
        records = synthesize_trace(
            ["cellA", "cellB"], 1, "diurnal-offset", np.random.default_rng(2),
            windows_per_day=2, base_volume=10.0,
        )
        write_trace_csv(records, str(tmp_path / "trace.csv"))
        argv = ["nd", *(a.format(trace=tmp_path / "trace.csv") for a in source)]
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        want = instance_to_json(*cli.load_instance(config))
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "instance.json").read_text() == want


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_successive_calls_parse_their_own_flags(self, tmp_path, capsys):
        sweep = tmp_path / "sweep"
        argv = ["heuristic", "--fixture", "heuristic-appF", "--lambda-grid", "0,1"]
        assert main(argv + ["--out", str(sweep)]) == EXIT_OK
        assert [r["lambda"] for r in read_csv_rows(sweep / "heuristic_sweep.csv")] == ["0.0", "1.0"]
        table = tmp_path / "bounds"
        argv = ["bounds", "--fixture", "toy-fig1", "--reuse", "0.5", "--reuse-d2d", "0.25"]
        assert main(argv + ["--out", str(table)]) == EXIT_OK
        assert "reuse_adjusted_rho" in [r["bound"] for r in read_csv_rows(table / "bounds.csv")]
        args = cli.build_parser().parse_args(["nd", "--fixture", "toy-fig1"])
        assert not hasattr(args, "lambda_grid") and not hasattr(args, "reuse")
        assert args.seed == 0 and args.out == "out"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["d2d", "--fixture", "toy-fig1", "--lambda-grid", "0,1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lambda-grid" in capsys.readouterr().err
        # the parser still works after argparse rejected a command line
        assert main(["nd", "--fixture", "toy-fig1", "--out", str(tmp_path / "nd")]) == EXIT_OK
