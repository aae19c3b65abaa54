"""Command-line experiment harness.

Subcommands mirror the analysis pipeline: ``nd`` (per-cell minima without
D2D by the interval search, certified by its EDF witness), ``d2d`` (the full flow
LP, solved once for the least total spectrum and, at it, the least relayed
traffic), ``heuristic`` (split-level sweep), and ``bounds`` (closed-form
bounds against observed values).  Every LP is solved by HiGHS.  Outputs are
CSV or JSON files under --out, each carrying a provenance header with the
config hash, the seed, and the feasibility tolerances HiGHS runs with.

Exit codes: 0 success, 2 invariant or bound violation (including a ``d2d``,
``bounds`` or ``heuristic`` level schedule that fails validation, and an
``nd`` witness that fails validation or exceeds its cell's minimum), 3
solver or numerical failure (including an EDF witness of the no-D2D stage
that misses a deadline), 4 configuration error (malformed input included)
or infeasible instance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import lp
from .d2d_flow import (
    FlowSolve,
    InfeasibleDemandError,
    solve_min_overhead,
    solve_min_spectrum_d2d,
)

# heuristic_min_spectrum and heuristic_min_overhead are not called here, but
# benchmark/spans.py traces the heuristic layer under these names
# (tests/test_benchmark_targets.py fails if they go)
from .heuristic import (  # noqa: F401
    check_heuristic_bounds,
    heuristic_min_overhead,
    heuristic_min_spectrum,
    heuristic_sweep,
)
from .model import (
    DemandSet,
    FlowResidualError,
    Metrics,
    ModelError,
    Schedule,
    SpectrumResult,
    Topology,
    compute_metrics,
    compute_volumes,
    instance_from_json,
    instance_to_json,
    slot_loads,
    validate_schedule,
)
from .no_d2d import min_spectrum_no_d2d
from .scenario import (
    GeoParams,
    fixture,
    generate_topology,
    random_multicell_instance,
    read_trace_csv,
    synthesize_demands,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

#: how far an nd witness's slot load may exceed its cell's minimum (relative)
ND_PEAK_RTOL = 1e-9
#: the flow tolerance every schedule is validated with before it is written
SCHEDULE_FLOW_TOL = 1e-6
#: --generate keys, each with its default and least allowed count
GENERATE_COUNTS = {"cells": (3, 1), "users": (3, 1), "demands": (30, 0), "T": (30, 1)}
DEFAULT_LAMBDA_GRID = tuple(round(0.1 * k, 1) for k in range(11))


@dataclass
class ExperimentConfig:
    command: str
    fixture: str | None = None
    trace: str | None = None
    instance: str | None = None
    generate: str | None = None
    seed: int = 0
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    out: str = "out"
    users_per_cell: int = 4
    cell_radius_m: float = 300.0
    d2d_range_m: float = 30.0
    transmit_power_dbm: float = 21.0
    noise_power_dbm: float = -102.0
    path_loss_exponent: float = 3.5
    splits: int = 6
    slot_seconds: float = 2.0
    reuse: float | None = None
    reuse_d2d: float | None = None

    def hash(self) -> str:
        # the hash identifies the experiment, not where its files land
        payload = {k: v for k, v in asdict(self).items() if k != "out"}
        return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _provenance(config: ExperimentConfig) -> list[str]:
    """Config hash, seed, and the tolerances HiGHS runs with, under HiGHS's names."""
    tolerances = [f"{k}={v}" for k, v in lp.HIGHS_OPTIONS.items() if k.endswith("_tolerance")]
    return [f"config_hash={config.hash()}", f"seed={config.seed}", *tolerances]


def load_instance(config: ExperimentConfig, source: bytes | None = None) -> tuple[Topology, DemandSet]:
    """The instance ``config`` names; ``source`` is the --instance file's bytes, if already read."""
    sources = [s for s in (config.fixture, config.trace, config.instance, config.generate) if s]
    if len(sources) != 1:
        raise ModelError("exactly one of --fixture / --trace / --instance / --generate required")
    if config.fixture:
        return fixture(config.fixture)
    if config.instance:
        try:
            text = (_read_instance(config) if source is None else source).decode()
            return instance_from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise ModelError(f"--instance {config.instance}: {type(exc).__name__}: {exc}") from exc
    if config.trace:
        try:
            records = read_trace_csv(config.trace)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ModelError(f"--trace {config.trace}: {type(exc).__name__}: {exc}") from exc
        cells = sorted({r.cell_id for r in records})
        spacing = config.cell_radius_m  # adjacent discs overlap, enabling inter-cell D2D
        positions = [(spacing * i, 0.0) for i in range(len(cells))]
        geo = GeoParams(
            cell_radius_m=config.cell_radius_m,
            d2d_range_m=config.d2d_range_m,
            users_per_cell=config.users_per_cell,
            transmit_power_dbm=config.transmit_power_dbm,
            noise_power_dbm=config.noise_power_dbm,
            path_loss_exponent=config.path_loss_exponent,
            seed=config.seed,
        )
        rng = np.random.default_rng(config.seed)
        topology = generate_topology(positions, geo, rng)
        # trace cells map onto generated BS ids in sorted order
        renamed = [
            type(r)(r.timestamp, f"b{cells.index(r.cell_id) + 1}", r.volume_bits)
            for r in records
        ]
        demands = synthesize_demands(
            renamed,
            topology,
            np.random.default_rng(config.seed + 1),
            splits=config.splits,
            slot_seconds=config.slot_seconds,
        )
        return topology, demands
    counts = _generate_counts(config.generate)
    rng = np.random.default_rng(config.seed)
    return random_multicell_instance(
        rng,
        n_cells=counts["cells"],
        users_per_cell=counts["users"],
        n_demands=counts["demands"],
        horizon=counts["T"],
    )


def _generate_counts(spec: str) -> dict[str, int]:
    """The counts of a --generate spec such as ``cells=3,T=20``, defaults filled in."""
    counts = {key: default for key, (default, _) in GENERATE_COUNTS.items()}
    for item in filter(None, spec.split(",")):
        key, _, value = item.partition("=")
        if key not in GENERATE_COUNTS:
            raise ModelError(
                f"--generate: expected key=count, key one of {', '.join(GENERATE_COUNTS)}; got {item!r}"
            )
        least = GENERATE_COUNTS[key][1]
        try:
            counts[key] = int(value)
        except ValueError:
            raise ModelError(f"--generate: {key} must be an integer, got {value!r}") from None
        if counts[key] < least:
            raise ModelError(f"--generate: {key} must be at least {least}, got {counts[key]}")
    return counts


def _write_csv(path: Path, header: list[str], rows: list[list], provenance: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in provenance:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_instance(config: ExperimentConfig) -> bytes:
    """The bytes of the --instance file."""
    try:
        return Path(config.instance).read_bytes()
    except OSError as exc:
        raise ModelError(f"--instance {config.instance}: {type(exc).__name__}: {exc}") from exc


def _load_and_emit(config: ExperimentConfig) -> tuple[Topology, DemandSet]:
    """Load the instance and write it under --out: the --instance bytes as read, else its JSON."""
    source = _read_instance(config) if config.instance else None
    topology, demands = load_instance(config, source)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    if source is not None:
        (out / "instance.json").write_bytes(source)
    else:
        (out / "instance.json").write_text(instance_to_json(topology, demands))
    return topology, demands


def cmd_nd(config: ExperimentConfig) -> int:
    """Per-cell minima and the EDF witness's loads, certified before they are written.

    Each cell's minimum is a lower bound on any schedule's peak there, so a
    valid witness whose slot loads stay within the minimum proves it optimal.
    """
    topology, demands = _load_and_emit(config)
    result, schedule, intervals = min_spectrum_no_d2d(topology, demands)
    report = validate_schedule(schedule, topology, demands, flow_abs_tol=SCHEDULE_FLOW_TOL)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return EXIT_VIOLATION
    bs, slots, loads = slot_loads(schedule, topology)
    peaks = np.array([result.per_bs_peak[b] for b in topology.bs_ids], dtype=float)
    over = np.flatnonzero(loads > peaks[bs] * (1 + ND_PEAK_RTOL))
    for i in over.tolist():
        b = topology.bs_ids[bs[i]]
        print(
            f"nd: CERTIFICATE cell {b} slot {slots[i]}: witness load {float(loads[i])!r}"
            f" exceeds the minimum {float(result.per_bs_peak[b])!r}",
            file=sys.stderr,
        )
    if over.size:
        return EXIT_VIOLATION
    out = Path(config.out)
    prov = _provenance(config)
    rows = []
    for b in topology.bs_ids:
        z, z2 = intervals[b]
        rows.append([b, repr(float(result.per_bs_peak[b])), z, z2])
    _write_csv(out / "nd_cells.csv", ["bs", "min_spectrum", "interval_start", "interval_end"], rows, prov)
    load_rows = [
        [topology.bs_ids[b], t, repr(load)]
        for b, t, load in zip(bs.tolist(), slots.tolist(), loads.tolist())
    ]
    _write_csv(out / "nd_loads.csv", ["bs", "slot", "load"], load_rows, prov)
    print(f"nd: total={float(result.total)!r} cells={len(topology.bs_ids)}")
    return EXIT_OK


@dataclass(frozen=True)
class D2DRun:
    """The no-D2D baseline and the validated D2D optimum of one instance."""

    topology: Topology
    demands: DemandSet
    nd_result: SpectrumResult
    outcome: FlowSolve
    schedule: Schedule
    v_d2d: float
    v_bs: float
    metrics: Metrics


def run_d2d(config: ExperimentConfig) -> D2DRun | None:
    """Load the instance and solve it without and with D2D, as ``d2d`` and ``bounds`` do.

    The instance is written under --out first.  Returns None, with the
    validation report on stderr, when the D2D schedule fails validation.
    """
    topology, demands = _load_and_emit(config)
    nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
    outcome = solve_min_spectrum_d2d(topology, demands)
    schedule, _, _ = solve_min_overhead(topology, outcome)
    report = validate_schedule(schedule, topology, demands, flow_abs_tol=SCHEDULE_FLOW_TOL)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return None
    vd, vb = compute_volumes(schedule, topology)
    metrics = compute_metrics(nd_result.total, outcome.total, vd, vb)
    return D2DRun(topology, demands, nd_result, outcome, schedule, vd, vb, metrics)


def cmd_d2d(config: ExperimentConfig) -> int:
    run = run_d2d(config)
    if run is None:
        return EXIT_VIOLATION
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "provenance": dict(kv.split("=", 1) for kv in _provenance(config)),
        "f_nd": float(run.nd_result.total),
        "f_d2d": float(run.outcome.total),
        "spectrum_reduction": float(run.metrics.spectrum_reduction),
        "v_d2d": float(run.v_d2d),
        "v_bs": float(run.v_bs),
        "overhead_ratio": float(run.metrics.overhead_ratio),
        "per_bs_no_d2d": {b: float(f) for b, f in run.nd_result.per_bs_peak.items()},
        "per_bs_d2d": {b: float(f) for b, f in run.outcome.per_bs_peak.items()},
    }
    (out / "d2d_result.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    run.schedule.to_csv(str(out / "schedule.csv"), run.topology, _provenance(config))
    print(
        f"d2d: f_nd={payload['f_nd']!r} f_d2d={payload['f_d2d']!r}"
        f" rho={payload['spectrum_reduction']!r} eta={payload['overhead_ratio']!r}"
    )
    return EXIT_OK


def cmd_heuristic(config: ExperimentConfig) -> int:
    """The sweep's rows, each distinct level's combined schedule validated before any is written."""
    topology, demands = _load_and_emit(config)
    sweep = heuristic_sweep(topology, demands, config.lambda_grid)
    for row in sweep.levels:
        if row.reused:
            continue
        report = validate_schedule(row.schedule, topology, demands, flow_abs_tol=SCHEDULE_FLOW_TOL)
        if not report.ok:
            print(f"heuristic level={row.level}: {report.summary()}", file=sys.stderr)
            return EXIT_VIOLATION
    rows = []
    worst = EXIT_OK
    for row in sweep.levels:
        bound_report = check_heuristic_bounds(
            demands, row.level, sweep.rho, row.rho, row.eta, row.split.d2d_demand_ids
        )
        if not bound_report.ok:
            for v in bound_report.violations:
                print(f"heuristic level={row.level}: BOUND VIOLATION {v}", file=sys.stderr)
            worst = EXIT_VIOLATION
        rows.append(
            [
                row.level,
                repr(row.total_spectrum),
                repr(row.rho),
                repr(row.eta),
                row.n_d2d_demands,
                row.step3_variables,
                f"{row.wall_seconds:.4f}",
            ]
        )
    _write_csv(
        Path(config.out) / "heuristic_sweep.csv",
        ["lambda", "total_spectrum", "rho", "eta", "n_d2d_demands", "step3_variables", "wall_seconds"],
        rows,
        _provenance(config),
    )
    print(f"heuristic: {len(rows)} levels, rho(full)={sweep.rho!r}")
    return worst


def cmd_bounds(config: ExperimentConfig) -> int:
    run = run_d2d(config)
    if run is None:
        return EXIT_VIOLATION
    topology, demands = run.topology, run.demands
    rho, eta = float(run.metrics.spectrum_reduction), float(run.metrics.overhead_ratio)

    floor, simple_bound = bounds_mod.simple_rho_upper_bound(
        topology, demands, f_nd=float(run.nd_result.total)
    )
    general = bounds_mod.general_rho_upper_bound(topology)
    intra = bounds_mod.intra_cell_bound(topology)
    inter = bounds_mod.inter_cell_bound(topology)
    eta_bound = bounds_mod.overhead_upper_bound(demands.max_delay)
    rows = [
        ["free_relay_rho_bound", repr(simple_bound), repr(rho)],
        ["general_rho_bound", repr(general.bound), repr(rho)],
        ["intra_cell_rho_bound", repr(intra.bound), None],
        ["inter_cell_rho_bound", repr(inter.bound), None],
        ["overhead_bound", repr(eta_bound), repr(eta)],
    ]
    if config.reuse is not None and config.reuse_d2d is not None:
        adjusted = bounds_mod.frequency_reuse_adjusted(rho, config.reuse, config.reuse_d2d)
        rows.append(["reuse_adjusted_rho", repr(adjusted), None])
    table = []
    violated = False
    for name, bound, observed in rows:
        ok = None
        if observed is not None:
            ok = float(observed) <= float(bound) + 1e-6
            violated |= not ok
        table.append([name, bound, observed if observed is not None else "", ok if ok is not None else ""])
    _write_csv(
        Path(config.out) / "bounds.csv",
        ["bound", "value", "observed", "satisfied"],
        table,
        _provenance(config),
    )
    print(f"bounds: rho={rho!r} eta={eta!r} floor={floor!r}")
    return EXIT_VIOLATION if violated else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process and shared, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="d2dlb",
        description="Spectrum requirements with and without D2D load balancing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("nd", "per-cell minimum spectrum without D2D"),
        ("d2d", "minimum total spectrum and overhead with D2D"),
        ("heuristic", "split-level sweep of the reduced problem"),
        ("bounds", "closed-form bounds vs observed values"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--fixture", help="named instance, e.g. toy-fig1, ring(3), complete(4,2)")
        p.add_argument("--trace", help="trace CSV (timestamp,cell_id,volume_bits)")
        p.add_argument("--instance", help="instance JSON produced by this package")
        p.add_argument("--generate", help="random instance spec, e.g. cells=3,users=3,demands=30,T=30")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--users-per-cell", type=int, default=4, dest="users_per_cell")
        p.add_argument("--cell-radius", type=float, default=300.0, dest="cell_radius_m")
        p.add_argument("--d2d-range", type=float, default=30.0, dest="d2d_range_m")
        p.add_argument("--tx-power-dbm", type=float, default=21.0, dest="transmit_power_dbm")
        p.add_argument("--noise-dbm", type=float, default=-102.0, dest="noise_power_dbm")
        p.add_argument("--path-loss-exp", type=float, default=3.5, dest="path_loss_exponent")
        p.add_argument("--splits", type=int, default=6, help="demands per trace window")
        p.add_argument("--slot-seconds", type=float, default=2.0, dest="slot_seconds")
        if name == "heuristic":
            p.add_argument("--lambda-grid", default=None, dest="lambda_grid")
        if name == "bounds":
            p.add_argument("--reuse", type=float, default=None)
            p.add_argument("--reuse-d2d", type=float, default=None, dest="reuse_d2d")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    grid = DEFAULT_LAMBDA_GRID
    if getattr(args, "lambda_grid", None):
        try:
            grid = tuple(float(v) for v in args.lambda_grid.split(","))
        except ValueError:
            raise ModelError(
                f"--lambda-grid: expected comma-separated numbers, got {args.lambda_grid!r}"
            ) from None
        if any(not 0.0 <= v <= 1.0 for v in grid):
            raise ModelError("lambda grid values must lie in [0, 1]")
    return ExperimentConfig(
        command=args.command,
        fixture=args.fixture,
        trace=args.trace,
        instance=args.instance,
        generate=args.generate,
        seed=args.seed,
        lambda_grid=grid,
        out=args.out,
        users_per_cell=args.users_per_cell,
        cell_radius_m=args.cell_radius_m,
        d2d_range_m=args.d2d_range_m,
        transmit_power_dbm=args.transmit_power_dbm,
        noise_power_dbm=args.noise_power_dbm,
        path_loss_exponent=args.path_loss_exponent,
        splits=args.splits,
        slot_seconds=args.slot_seconds,
        reuse=getattr(args, "reuse", None),
        reuse_d2d=getattr(args, "reuse_d2d", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        handler = {
            "nd": cmd_nd,
            "d2d": cmd_d2d,
            "heuristic": cmd_heuristic,
            "bounds": cmd_bounds,
        }[config.command]
        return handler(config)
    except InfeasibleDemandError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FlowResidualError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ModelError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except lp.LpError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
