"""Unit invariance: the results do not depend on the unit volumes are counted in.

Bits or megabits, an instance must give the same spectrum reduction rho and
overhead ratio eta, and valid schedules.  Each drawn instance (the
criterion-6 family of ``conftest.draw_instance``) is solved with its volumes
at scale 1 and times each of ``SCALES``: through the library, and, on a few
instances, through ``d2dlb d2d`` with the schedule it writes read back.
"""

import json
import math

import numpy as np
from conftest import draw_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlb import cli
from d2dlb.d2d_flow import solve_min_spectrum_d2d
from d2dlb.model import (
    DemandSet,
    Schedule,
    Topology,
    compute_metrics,
    compute_volumes,
    instance_to_json,
    validate_schedule,
)
from d2dlb.no_d2d import min_spectrum_no_d2d

SCALES = (1e-6, 1e3, 1e6, 1e9)
#: agreement required between rho or eta at a scale and at scale 1, relative
#: to 1 at most: both are ratios in [0, 1], and rho = 1 - F_d2d / F_nd rounds
#: relative to 1 (a rho of 0 reads up to a few 1e-16 either side)
REL_TOL = 1e-12
#: the flow tolerance the library's schedules are validated with
LIBRARY_FLOW_TOL = 1e-9


def scaled(demands: DemandSet, scale: float) -> DemandSet:
    return DemandSet.build(
        demands.horizon,
        [(j.user, j.start, j.end, float(j.volume) * scale) for j in demands.demands],
    )


def same(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL)


def solve(topology: Topology, demands: DemandSet) -> tuple[float, float]:
    """rho and eta of an instance, once its no-D2D and D2D schedules validate."""
    nd, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    outcome = solve_min_spectrum_d2d(topology, demands)
    for schedule in (nd_schedule, outcome.schedule):
        report = validate_schedule(schedule, topology, demands, flow_abs_tol=LIBRARY_FLOW_TOL)
        assert report.ok, report.summary()
    metrics = compute_metrics(nd.total, outcome.total, *compute_volumes(outcome.schedule, topology))
    return float(metrics.spectrum_reduction), float(metrics.overhead_ratio)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_library_results_do_not_depend_on_units(seed):
    topology, demands = draw_instance(np.random.default_rng(seed))
    rho, eta = solve(topology, demands)
    for scale in SCALES:
        got_rho, got_eta = solve(topology, scaled(demands, scale))
        assert same(got_rho, rho) and same(got_eta, eta), (scale, got_rho, rho, got_eta, eta)


def run_d2d(topology: Topology, demands: DemandSet, out) -> tuple[float, float]:
    """rho and eta of ``d2dlb d2d`` on the instance, once its schedule.csv validates."""
    out.mkdir()
    instance = out / "given.json"
    instance.write_text(instance_to_json(topology, demands))
    assert cli.main(["d2d", "--instance", str(instance), "--out", str(out)]) == cli.EXIT_OK
    schedule = Schedule.from_csv(str(out / "schedule.csv"))
    report = validate_schedule(schedule, topology, demands, flow_abs_tol=cli.SCHEDULE_FLOW_TOL)
    assert report.ok, report.summary()
    result = json.loads((out / "d2d_result.json").read_text())
    return result["spectrum_reduction"], result["overhead_ratio"]


def test_cli_results_do_not_depend_on_units(tmp_path):
    for seed in (1, 2):
        topology, demands = draw_instance(np.random.default_rng(seed))
        rho, eta = run_d2d(topology, demands, tmp_path / f"{seed}-1")
        for scale in SCALES:
            out = tmp_path / f"{seed}-{scale}"
            got_rho, got_eta = run_d2d(topology, scaled(demands, scale), out)
            assert same(got_rho, rho) and same(got_eta, eta), (scale, got_rho, rho, got_eta, eta)
