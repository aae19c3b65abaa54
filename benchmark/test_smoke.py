"""Smoke test of the benchmark itself, at tiny instance sizes.

    PYTHONPATH=src python -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC_LAYER_METRICS = {m["name"] for m in SPEC["per_layer"]}


def _run(name, tmp_path, trace):
    """Two cases at tiny size: a run always does at least two."""
    return run.run_workload(name, 0, 0.0, trace, workloads.TINY, tmp_path / "work")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_emits_every_metric(name, tmp_path):
    plain = _run(name, tmp_path, trace=False)
    assert set(plain["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    if name != "units":  # units records the known scale defect, see baseline.json
        assert plain["failed"] == 0, plain["failures"]
        assert all(v > 0 for v in plain["end_to_end"].values())

    traced = _run(name, tmp_path, trace=True)
    assert set(traced["per_layer"]) == SPEC_LAYER_METRICS
    assert traced["per_layer"]["lp.solve_calls"] > 0
    assert traced["per_layer"]["highs.cols"] > 0
    assert not (tmp_path / "work").exists()


def test_benchmark_json_lists_the_run_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def _perturb(monkeypatch, key, delta, spare=None):
    """Shift ``key`` in every d2d result except the one written to ``spare``."""
    read = workloads.read_d2d_result

    def perturbed(out_dir):
        out = read(out_dir)
        if out_dir.name != spare:
            out[key] += delta
        return out

    monkeypatch.setattr(workloads, "read_d2d_result", perturbed)


@pytest.mark.parametrize("key", ["spectrum_reduction", "overhead_ratio"])
@pytest.mark.parametrize("name", ["day-d2d", "units"])
def test_perturbed_rho_or_eta_is_a_failed_op(name, key, monkeypatch, tmp_path):
    # units compares every scale with scale 1, the first op of a case (out0)
    _perturb(monkeypatch, key, 1e-3, spare="out0" if name == "units" else None)
    record = _run(name, tmp_path, trace=False)
    if name == "day-d2d":
        assert record["failed"] == record["attempted"] == 2
    else:
        # every scale but the scale-1 reference now disagrees with it
        n = len(workloads.UNIT_SCALES)
        assert record["failed"] == record["attempted"] * (n - 1) // n
    assert record["fail_ratio"] > 0


def test_perturbed_sweep_rho_is_a_failed_op(monkeypatch, tmp_path):
    read = workloads.read_sweep

    def perturbed(out_dir, stdout):
        full, per_level = read(out_dir, stdout)
        per_level[1.0] += 1e-3
        return full, per_level

    monkeypatch.setattr(workloads, "read_sweep", perturbed)
    record = _run("suite-sweep", tmp_path, trace=False)
    assert record["failed"] == record["attempted"] == 2


def test_host_clock_rescales_to_nominal_speed(monkeypatch):
    monkeypatch.setattr(calibrate, "kernel", lambda: 2 * calibrate.NOMINAL_S)  # host at half speed
    clock = calibrate.HostClock()
    clock.reset()
    with clock:
        t_end = time.perf_counter() + 4 * calibrate.INTERVAL_S
        while time.perf_counter() < t_end:  # interpreted, so the alarms get handled
            pass
    assert len(clock.samples) >= 3  # the one before the op and those during it
    assert clock.normalise(1.0) == pytest.approx(0.5)


def test_percentile_tail():
    assert run.percentile_tail([3.0, 1.0, float("inf")]) == (float("inf"), 100.0, 0)
    lat = [float(i) for i in range(100)]
    assert run.percentile_tail(lat) == (89.0, 90.0, 10)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "day-d2d", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
