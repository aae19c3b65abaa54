"""The HiGHS engine is loaded from its file, and the model reaches it column-wise.

``d2dlb.lp`` loads ``scipy.optimize._highspy._core`` without running
``scipy/optimize/__init__.py`` and builds the compressed-column matrix with
numpy instead of ``scipy.sparse``.  These tests hold it to both: a run of the
CLI imports neither package (importing the CLI does not even import
``scipy``), the engine is the one module ``linprog`` uses
in either import order, and HiGHS receives the arrays
``scipy.sparse.csc_array`` would build.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb import lp
from d2dlb.d2d_flow import build_flow_lp
from d2dlb.heuristic import heuristic_min_spectrum
from d2dlb.scenario import fixture

ROOT = Path(__file__).resolve().parent.parent
ENGINE_DIR = os.path.join(scipy.__path__[0], "optimize", "_highspy")


def run_python(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns the JSON its last output line holds."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


STARTUP = """
import json, sys
import d2dlb.cli
imported_scipy = "scipy" in sys.modules
out = sys.argv[1]
codes = [
    d2dlb.cli.main(["d2d", "--fixture", "toy-fig1", "--out", out + "/d2d"]),
    d2dlb.cli.main(["heuristic", "--fixture", "heuristic-appF", "--out", out + "/heuristic"]),
]
heavy = ("scipy.optimize", "scipy.sparse", "scipy.linalg")
loaded = [m for m in heavy if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded, "imported_scipy": imported_scipy}))
"""


def test_cli_runs_without_scipy_optimize_sparse_or_linalg(tmp_path):
    got = run_python(STARTUP, str(tmp_path))
    assert got["codes"] == [0, 0]
    assert got["loaded"] == []
    assert not got["imported_scipy"]  # scipy/__init__.py is not run either


IMPORT_ORDER = """
import json, sys
if sys.argv[1] == "scipy-first":
    import scipy.optimize
    import d2dlb.lp
else:
    import d2dlb.lp
    import scipy.optimize
from scipy.optimize._highspy import _core, _highs_wrapper
from d2dlb.d2d_flow import solve_min_spectrum_d2d
from d2dlb.scenario import toy_two_cell

res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
engines = {id(_core), id(_highs_wrapper._h), id(d2dlb.lp._highs),
           id(sys.modules["scipy.optimize._highspy._core"])}
print(json.dumps({
    "engines": len(engines),
    "basis_type": d2dlb.lp.Basis is _core.HighsBasis,
    "linprog": [res.status, res.fun],
    "toy": solve_min_spectrum_d2d(*toy_two_cell()).total,
}))
"""


@pytest.mark.parametrize("first", ["scipy-first", "d2dlb-first"])
def test_one_engine_in_either_import_order(first):
    got = run_python(IMPORT_ORDER, first)
    assert got["engines"] == 1
    assert got["basis_type"]
    assert got["linprog"] == [0, 1.0]
    assert got["toy"] == pytest.approx(4.0, abs=1e-8)


def test_loader_reuses_the_registered_engine():
    assert lp._load_engine(ENGINE_DIR) is lp._highs
    assert sys.modules[lp.ENGINE] is lp._highs


def test_loader_names_the_directory_without_the_engine(tmp_path):
    with pytest.raises(ImportError, match="scipy>=1.15") as err:
        lp._load_engine(str(tmp_path))
    assert str(tmp_path) in str(err.value)


def csc_arrays(rows, cols, vals, m: int, n: int) -> tuple[np.ndarray, ...]:
    matrix = scipy.sparse.csc_array((vals, (rows, cols)), shape=(m, n))
    return matrix.indptr, matrix.indices, matrix.data


def assert_same_arrays(got: tuple, want: tuple) -> None:
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(np.asarray(g), np.asarray(w))


def level_problem() -> lp.LpProblem:
    """A heuristic step III: the full LP with the kept demands' columns fixed at 0."""
    outcome = heuristic_min_spectrum(*fixture("heuristic-appF"), 0.5)
    assert outcome.flow is not None and outcome.split.nd_demand_ids
    return outcome.flow.index.problem


@pytest.mark.parametrize(
    "problem",
    [
        pytest.param(lambda: build_flow_lp(*fixture("toy-fig1")).problem, id="toy"),
        pytest.param(lambda: build_flow_lp(*fixture("ring(3)")).problem, id="ring3"),
        pytest.param(level_problem, id="heuristic-level"),
    ],
)
def test_highs_holds_the_csc_arrays(problem):
    problem = problem()
    highs, position = lp._pass_model(problem, problem.objective)
    held = highs.getLp().a_matrix_
    want = csc_arrays(
        position[problem.rows], problem.cols, problem.vals, problem.n_constraints, problem.n_variables
    )
    assert_same_arrays((held.start_, held.index_, held.value_), want)


def test_duplicates_empty_rows_and_columns():
    rows = np.array([3, 0, 3, 3, 1, 0, 0])
    cols = np.array([1, 4, 1, 1, 4, 4, 0])
    vals = np.array([2.0, 1.0, -1.0, 4.0, 7.0, -1.0, 3.0])
    got = lp.column_wise(rows, cols, vals, 5, 6)
    assert_same_arrays(got, csc_arrays(rows, cols, vals, 5, 6))
    assert got[0].dtype == got[1].dtype == np.int32
    assert 0.0 in got[2]  # (0, 4) sums to an explicit 0, as in scipy
    # repeated entries add up in the order given
    one = lp.column_wise(np.zeros(3, int), np.zeros(3, int), np.array([1e16, 1.0, 1.0]), 1, 1)
    assert one[2][0] == (1e16 + 1.0) + 1.0
    empty = lp.column_wise(np.zeros(0, int), np.zeros(0, int), np.zeros(0), 0, 3)
    assert_same_arrays(empty, ([0, 0, 0, 0], [], []))


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3)), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_column_wise_matches_csc_array(m, n, entries):
    # integer values, so every order of adding duplicates gives the same sum
    entries = [(r % m, c % n, v) for r, c, v in entries]
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=float)
    assert_same_arrays(lp.column_wise(rows, cols, vals, m, n), csc_arrays(rows, cols, vals, m, n))
