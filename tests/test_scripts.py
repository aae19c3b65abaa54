"""The experiment scripts run end to end at small sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lambda_sweep_writes_one_row_per_level(tmp_path):
    out = tmp_path / "sweep.csv"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "lambda_sweep.py"),
            "--cells", "2",
            "--users-per-cell", "3",
            "--windows", "2",
            "--levels", "0,0.5,1",
            "--out", str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["lambda"]) for r in rows] == [0.0, 0.5, 1.0]
