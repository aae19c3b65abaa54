"""The experiment scripts run end to end at small sizes."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_lambda_sweep_writes_one_row_per_level(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script(
        "lambda_sweep.py",
        "--cells", "2",
        "--users-per-cell", "3",
        "--windows", "2",
        "--levels", "0,0.5,1",
        "--out", str(out),
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["lambda"]) for r in rows] == [0.0, 0.5, 1.0]


def test_toy_walkthrough_prints_the_toy_numbers():
    stdout = run_script("toy_walkthrough.py").stdout
    assert "spectrum reduction 33.3%, overhead 25.0%" in stdout


def test_construction_sweep_writes_one_row_per_construction(tmp_path):
    out = tmp_path / "constructions.csv"
    run_script("construction_sweep.py", "--max-delay", "3", "--max-cells", "3", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["kind"], r["parameter"]) for r in rows] == [
        ("ring", "2"), ("ring", "3"), ("complete", "2"), ("complete", "3"),
    ]
    for r in rows:
        assert float(r["rho_lp"]) >= float(r["rho_construction"]) - 1e-6


def test_bench_pairs_summary_counts_wins_and_quartiles():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.parse_seeds("3,17,901-903") == [3, 17, 901, 902, 903]
    record = {"repeats_wall_s": {"a.0": [0.3, 0.2], "b.0": [0.5], "c.0": [0.1, 0.4]}}
    lines = ["workload", "record " + json.dumps(record), "{}"]
    assert bench_pairs.wall_op_p50(lines) == 0.2  # the median of the fastest repeats 0.2, 0.5, 0.1
    runs = [(1.0, 0.5), (1.0, 1.0), (0.8, 0.9), (1.2, 0.6)]  # (parent, change)
    pairs = [
        {"parent": {"metrics": {"solve_s": p, "x": p}}, "change": {"metrics": {"solve_s": c, "x": c}}}
        for p, c in runs
    ]
    summary = bench_pairs.summarise(pairs, {"solve_s": "lower", "x": "higher"})
    lower, higher = summary["solve_s"], summary["x"]
    assert (lower["change_wins"], lower["parent_wins"], lower["pairs"]) == (2, 1, 4)
    assert (higher["change_wins"], higher["parent_wins"]) == (1, 2)  # a tie counts for neither
    assert lower["parent"] == pytest.approx({"median": 1.0, "q1": 0.95, "q3": 1.05})
