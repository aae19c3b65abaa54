"""Golden outputs: five CLI runs reproduce the committed files byte for byte.

``tests/golden/<case>/`` holds every file the case's command wrote.  The
comparison leaves out only the ``wall_seconds`` column of
``heuristic_sweep.csv``, which is a timing.  The provenance (the ``# ``
header lines of a CSV and the ``provenance`` object of ``d2d_result.json``)
is compared too, so a change to the config hash or to HiGHS's tolerances
shows here.
"""

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


def without_timing(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "heuristic_sweep.csv":
        return data
    lines = data.splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if not line.startswith(b"# ")]
    timing = lines[rows[0]].rstrip(b"\r\n").split(b",").index(b"wall_seconds")
    for i in rows:
        body = lines[i].rstrip(b"\r\n")
        fields = body.split(b",")
        del fields[timing]
        lines[i] = b",".join(fields) + lines[i][len(body) :]
    return b"".join(lines)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    assert cli.main(CASES[case] + ["--out", str(tmp_path)]) == cli.EXIT_OK
    want = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        got, expected = tmp_path / name, GOLDEN / case / name
        assert without_timing(got) == without_timing(expected), name


def test_comparison_keeps_everything_but_timing():
    # the stripping must leave the numbers and the provenance in: a changed
    # digit still differs
    stripped = without_timing(GOLDEN / "heuristic-appF" / "heuristic_sweep.csv")
    assert b"config_hash=" in stripped and b"wall_seconds" not in stripped
    assert b"0.14285714285714285" in stripped
    result = GOLDEN / "d2d-toy-fig1" / "d2d_result.json"
    assert without_timing(result) == result.read_bytes()
