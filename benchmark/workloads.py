"""Benchmark workloads: instance synthesis, CLI argument lists and per-op checks.

Every instance is generated here with ``d2dlb.scenario`` from the run seed and
written as instance JSON; the program under test only ever sees
``--instance <file>``.  A *case* is a group of ops whose outputs are checked
together (one op for ``day-d2d`` and ``suite-sweep``, one op per volume scale
for ``units``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from d2dlb.bounds import overhead_upper_bound
from d2dlb.model import (
    DemandSet,
    Schedule,
    Topology,
    compute_volumes,
    instance_to_json,
    validate_schedule,
)
from d2dlb.scenario import (
    GeoParams,
    generate_topology,
    random_multicell_instance,
    synthesize_demands,
    synthesize_trace,
)

#: relative agreement required between values that must be equal
REL_TOL = 1e-6
#: slack on inequalities between solver outputs (F_d2d <= F_nd, rho >= 0, ...)
INEQ_TOL = 1e-9
#: the flow tolerance ``d2dlb d2d`` itself validates its schedule with
CLI_FLOW_TOL = 1e-6

#: the pinned criterion-8 network and its pinned day of traffic
DAY_SEED = 2027
#: f_nd, f_d2d, rho and eta of ``d2dlb d2d`` on the pinned day, recorded from
#: commit fb8be2d (the commit this benchmark was defined on)
PINNED_DAY = {
    "f_nd": 8.168687274643041,
    "f_d2d": 7.559901967521047,
    "spectrum_reduction": 0.07452670014823119,
    "overhead_ratio": 0.019174759539638694,
}

SWEEP_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
UNIT_SCALES = (1.0, 1e-6, 1e3, 1e6, 1e9)  # scale 1 first: it is the reference


@dataclass(frozen=True)
class Size:
    """How much each workload synthesizes; ``FULL`` is what the benchmark runs."""

    day_cells: int = 6
    day_users: int = 40
    day_windows: int = 48
    day_splits: int = 8
    day_slots_per_window: int = 6
    suite_pool: int = 45
    units_pool: int = 20


FULL = Size()
TINY = Size(
    day_cells=3,
    day_users=6,
    day_windows=6,
    day_splits=2,
    day_slots_per_window=3,
    suite_pool=2,
    units_pool=2,
)


@dataclass
class Op:
    argv: list[str]  # without --out; the runner gives each op of a case its own
    scale: float = 1.0


@dataclass
class OpResult:
    op: Op
    exit_code: int | None  # None when the CLI raised instead of returning
    latency_s: float
    stdout: str
    out_dir: Path
    failures: list[str] = field(default_factory=list)
    norm_s: float = 0.0  # latency at the host's nominal speed, see calibrate.py

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.failures


@dataclass
class Case:
    label: str
    topology: Topology
    demands: DemandSet
    ops: list[Op]
    check: Callable[["Case", list[OpResult]], None]
    pinned: dict[str, float] | None = None

    @property
    def descriptor(self) -> dict:
        return {
            "label": self.label,
            "cells": len(self.topology.bs_ids),
            "users": len(self.topology.user_ids),
            "links": len(self.topology.links),
            "demands": len(self.demands.demands),
            "slots": self.demands.horizon,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_cases: Callable[[int, Size, Path], list[Case]]


# ---------------------------------------------------------------------------
# Reading CLI outputs (module-level so a test can perturb what the checks see)
# ---------------------------------------------------------------------------


def read_d2d_result(out_dir: Path) -> dict:
    return json.loads((out_dir / "d2d_result.json").read_text())


def read_sweep(out_dir: Path, stdout: str) -> tuple[float, dict[float, float]]:
    """Full-problem rho from the CLI summary line, and rho per sweep level."""
    match = re.search(r"rho\(full\)=(\S+)", stdout)
    if match is None:
        raise ValueError("heuristic summary line missing")
    rows = [
        line
        for line in (out_dir / "heuristic_sweep.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header = rows[0].split(",")
    lam, rho = header.index("lambda"), header.index("rho")
    per_level = {float(r.split(",")[lam]): float(r.split(",")[rho]) for r in rows[1:]}
    return float(match.group(1)), per_level


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_d2d_op(case: Case, res: OpResult) -> dict | None:
    """Checks every ``d2dlb d2d`` op gets; returns the parsed result when readable."""
    if res.exit_code != 0:
        res.failures.append(f"exit code {res.exit_code}")
        return None
    try:
        out = read_d2d_result(res.out_dir)
    except (OSError, ValueError) as exc:
        res.failures.append(f"d2d_result.json unreadable: {exc}")
        return None
    f_nd, f_d2d = out["f_nd"], out["f_d2d"]
    rho, eta = out["spectrum_reduction"], out["overhead_ratio"]
    if not f_d2d <= f_nd * (1 + INEQ_TOL):
        res.failures.append(f"F_d2d {f_d2d} exceeds F_nd {f_nd}")
    if not rho >= -INEQ_TOL:
        res.failures.append(f"rho {rho} negative")
    if not _close(rho, (f_nd - f_d2d) / f_nd):
        res.failures.append(f"rho {rho} disagrees with (F_nd - F_d2d) / F_nd")
    eta_bound = overhead_upper_bound(case.demands.max_delay)
    if not eta <= eta_bound + INEQ_TOL:
        res.failures.append(f"eta {eta} above bound {eta_bound}")
    return out


def check_day(case: Case, results: list[OpResult]) -> None:
    (res,) = results
    out = check_d2d_op(case, res)
    if out is None:
        return
    try:
        schedule = Schedule.from_csv(str(res.out_dir / "schedule.csv"))
    except (OSError, ValueError, KeyError) as exc:
        res.failures.append(f"schedule.csv unreadable: {exc}")
        return
    report = validate_schedule(schedule, case.topology, case.demands, flow_abs_tol=CLI_FLOW_TOL)
    if not report.ok:
        res.failures.append(f"reloaded schedule invalid: {report.summary()}")
    v_d2d, v_bs = compute_volumes(schedule, case.topology)
    eta = float(v_d2d / (v_d2d + v_bs)) if v_d2d + v_bs > 0 else 0.0
    if not _close(out["overhead_ratio"], eta):
        res.failures.append(f"eta {out['overhead_ratio']} disagrees with schedule.csv ({eta})")
    for key, want in (case.pinned or {}).items():
        if not _close(out[key], want):
            res.failures.append(f"{key} {out[key]} differs from pinned {want}")


def check_sweep(case: Case, results: list[OpResult]) -> None:
    (res,) = results
    if res.exit_code != 0:
        res.failures.append(f"exit code {res.exit_code}")
        return
    try:
        rho_full, per_level = read_sweep(res.out_dir, res.stdout)
    except (OSError, ValueError, IndexError) as exc:
        res.failures.append(f"sweep output unreadable: {exc}")
        return
    if sorted(per_level) != list(SWEEP_LEVELS):
        res.failures.append(f"levels {sorted(per_level)} != {list(SWEEP_LEVELS)}")
        return
    # same tolerances as acceptance criterion 6
    if abs(per_level[0.0] - rho_full) > 1e-6:
        res.failures.append(f"level 0 rho {per_level[0.0]} != full rho {rho_full}")
    if abs(per_level[1.0]) > 1e-6:
        res.failures.append(f"level 1 rho {per_level[1.0]} != 0")
    for lo, hi in zip(SWEEP_LEVELS, SWEEP_LEVELS[1:]):
        if per_level[hi] > per_level[lo] + 1e-6:
            res.failures.append(f"rho rises from level {lo} to {hi}")


def check_units(case: Case, results: list[OpResult]) -> None:
    outs = [check_d2d_op(case, res) for res in results]
    ref = outs[0]  # scale 1
    for res, out in zip(results[1:], outs[1:]):
        if out is None:
            continue
        if ref is None:
            res.failures.append("no scale-1 reference")
            continue
        for key in ("spectrum_reduction", "overhead_ratio"):
            if not _close(out[key], ref[key]):
                res.failures.append(f"{key} {out[key]} != scale-1 {ref[key]}")


# ---------------------------------------------------------------------------
# Instance synthesis
# ---------------------------------------------------------------------------


def _write(path: Path, topology: Topology, demands: DemandSet) -> Path:
    path.write_text(instance_to_json(topology, demands))
    return path


def _d2d_argv(path: Path) -> list[str]:
    return ["d2d", "--instance", str(path)]


def synth_day(size: Size, traffic_seed: int) -> tuple[Topology, DemandSet]:
    """Criterion-8 style day on the pinned network; the traffic comes from the seed."""
    positions = [(300.0 * i, 0.0) for i in range(size.day_cells)]
    topology = generate_topology(
        positions,
        GeoParams(users_per_cell=size.day_users, seed=DAY_SEED),
        np.random.default_rng(DAY_SEED),
    )
    records = synthesize_trace(
        [f"b{i}" for i in range(1, size.day_cells + 1)],
        days=1,
        profile="diurnal-offset",
        rng=np.random.default_rng(traffic_seed + 1),
        windows_per_day=size.day_windows,
        base_volume=60.0,
    )
    demands = synthesize_demands(
        records,
        topology,
        np.random.default_rng(traffic_seed + 2),
        delays=(3, 4, 5),
        splits=size.day_splits,
        slot_seconds=86400.0 / size.day_windows / size.day_slots_per_window,
    )
    return topology, demands


def make_day_cases(seed: int, size: Size, work: Path) -> list[Case]:
    # the pinned day, then one day of traffic drawn from the run seed
    seeds = [DAY_SEED, int(np.random.default_rng([seed, 1]).integers(10**6))]
    cases = []
    for k, traffic_seed in enumerate(seeds):
        topology, demands = synth_day(size, traffic_seed)
        path = _write(work / f"day{k}.json", topology, demands)
        pinned = PINNED_DAY if (k == 0 and size == FULL) else None
        cases.append(
            Case(f"day-traffic{traffic_seed}", topology, demands, [Op(_d2d_argv(path))],
                 check_day, pinned)
        )
    return cases


def draw_suite_instance(
    size_seed: int, rng: np.random.Generator
) -> tuple[Topology, DemandSet]:
    """An instance of the criterion-6 family (``tests/conftest.py::draw_instance``).

    The sizes are those the suite's seed ``size_seed`` draws; links, rates and
    demands come from ``rng``.  Fixing the sizes keeps the mix of instance
    sizes, and with it the expected op latency, the same for every run seed.
    """
    sizes = np.random.default_rng(size_seed)
    n_cells = int(sizes.integers(3, 7))
    users = int(sizes.integers(2, 5))
    horizon = int(sizes.integers(18, 32))
    n_demands = int(sizes.integers(20, 55))
    return random_multicell_instance(
        rng,
        n_cells=n_cells,
        users_per_cell=users,
        n_demands=n_demands,
        horizon=horizon,
        delays=(1, 2, 3, 4),
        d2d_link_prob=0.3,
    )


def make_suite_cases(seed: int, size: Size, work: Path) -> list[Case]:
    grid = ",".join(f"{v:g}" for v in SWEEP_LEVELS)
    cases = []
    for k in range(size.suite_pool):
        topology, demands = draw_suite_instance(1000 + k, np.random.default_rng([seed, 2, k]))
        path = _write(work / f"suite{k}.json", topology, demands)
        argv = ["heuristic", "--instance", str(path), "--lambda-grid", grid]
        cases.append(Case(f"suite{1000 + k}", topology, demands, [Op(argv)], check_sweep))
    return cases


def make_units_cases(seed: int, size: Size, work: Path) -> list[Case]:
    cases = []
    for k in range(size.units_pool):
        # size seeds 5000+ stay clear of the suite's 1000+
        topology, demands = draw_suite_instance(5000 + k, np.random.default_rng([seed, 3, k]))
        ops = []
        for scale in UNIT_SCALES:
            scaled = DemandSet.build(
                demands.horizon,
                [(j.user, j.start, j.end, float(j.volume) * scale) for j in demands.demands],
            )
            path = _write(work / f"units{k}_{scale:g}.json", topology, scaled)
            ops.append(Op(_d2d_argv(path), scale))
        cases.append(Case(f"units{5000 + k}", topology, demands, ops, check_units))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "day-d2d",
            "flow-LP assembly: d2dlb d2d on a criterion-8 day (6 cells x 40 users, 48 windows,"
            " splits 8; 2,304 demands, ~46k columns); build_flow_lp is ~80% of an op",
            make_day_cases,
        ),
        Workload(
            "suite-sweep",
            "per-call overhead: d2dlb heuristic over 5 levels on criterion-6 instances;"
            " 11 small LPs and 6 no-D2D passes per op",
            make_suite_cases,
        ),
        Workload(
            "units",
            "unit invariance: d2dlb d2d on small instances at volume scales 1e-6..1e9;"
            " every scale must reproduce the scale-1 rho and eta",
            make_units_cases,
        ),
    )
}
