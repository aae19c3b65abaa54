"""Golden outputs: five CLI runs reproduce the committed files byte for byte.

``tests/golden/<case>/`` holds every file the case's command wrote.  The
comparison leaves out only the provenance (the ``# `` header lines of a CSV
and the ``provenance`` object of ``d2d_result.json``) and the
``wall_seconds`` column of ``heuristic_sweep.csv``, which is a timing.
"""

import re
from pathlib import Path

import pytest

from d2dlb import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "d2d-toy-fig1": ["d2d", "--fixture", "toy-fig1"],
    "d2d-generate": ["d2d", "--generate", "cells=4,users=3,demands=60,T=30", "--seed", "7"],
    "nd-toy-fig1": ["nd", "--fixture", "toy-fig1"],
    "heuristic-appF": ["heuristic", "--fixture", "heuristic-appF"],
    "bounds-ring3": ["bounds", "--fixture", "ring(3)"],
}

PROVENANCE_OBJECT = re.compile(r'^  "provenance": \{\n(?:    .*\n)*  \},?\n', re.M)


def without_provenance(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".json":
        return PROVENANCE_OBJECT.sub("", data.decode()).encode()
    lines = [line for line in data.splitlines(keepends=True) if not line.startswith(b"# ")]
    if path.name == "heuristic_sweep.csv":
        timing = lines[0].rstrip(b"\r\n").split(b",").index(b"wall_seconds")
        for i, line in enumerate(lines):
            body = line.rstrip(b"\r\n")
            fields = body.split(b",")
            del fields[timing]
            lines[i] = b",".join(fields) + line[len(body) :]
    return b"".join(lines)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    assert cli.main(CASES[case] + ["--out", str(tmp_path)]) == cli.EXIT_OK
    want = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        got, expected = tmp_path / name, GOLDEN / case / name
        assert without_provenance(got) == without_provenance(expected), name


def test_comparison_keeps_everything_but_provenance_and_timing():
    # the stripping must leave the numbers in: a changed digit still differs
    sweep = GOLDEN / "heuristic-appF" / "heuristic_sweep.csv"
    stripped = without_provenance(sweep)
    assert b"config_hash" not in stripped and b"wall_seconds" not in stripped
    assert b"0.14285714285714285" in stripped
    result = without_provenance(GOLDEN / "d2d-toy-fig1" / "d2d_result.json")
    assert b"provenance" not in result and b'"spectrum_reduction": 0.3333333333333333' in result
