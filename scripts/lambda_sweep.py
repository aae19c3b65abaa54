"""Split-level sweep on a synthetic multi-cell day.

Generates a diurnal-offset trace for a row of overlapping cells, synthesizes
delay-constrained demands, and sweeps the heuristic's split level, writing
spectrum reduction, overhead, and LP-size columns per level.  Levels with
the same D2D-eligible set share one solve.

Usage: python3 scripts/lambda_sweep.py [--cells 6] [--seed 2027] [--out sweep.csv]
"""

import argparse
import csv

import numpy as np

from d2dlb.heuristic import heuristic_sweep
from d2dlb.scenario import GeoParams, generate_topology, synthesize_demands, synthesize_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=6)
    parser.add_argument("--users-per-cell", type=int, default=40)
    parser.add_argument("--windows", type=int, default=12, help="trace windows in the day")
    parser.add_argument("--splits", type=int, default=4, help="demands per window")
    parser.add_argument("--base-volume", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=2027)
    parser.add_argument("--levels", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    parser.add_argument("--out", default="lambda_sweep.csv")
    args = parser.parse_args()

    positions = [(300.0 * i, 0.0) for i in range(args.cells)]
    topology = generate_topology(
        positions,
        GeoParams(users_per_cell=args.users_per_cell, seed=args.seed),
        np.random.default_rng(args.seed),
    )
    records = synthesize_trace(
        [f"b{i}" for i in range(1, args.cells + 1)],
        days=1,
        profile="diurnal-offset",
        rng=np.random.default_rng(args.seed + 1),
        windows_per_day=args.windows,
        base_volume=args.base_volume,
    )
    slot_seconds = 86400.0 / (args.windows * 6)  # six slots per window
    demands = synthesize_demands(
        records, topology, np.random.default_rng(args.seed + 2),
        splits=args.splits, slot_seconds=slot_seconds,
    )
    levels = [float(v) for v in args.levels.split(",")]
    sweep = heuristic_sweep(topology, demands, levels)
    print(
        f"{len(demands.demands)} demands over {demands.horizon} slots;"
        f" no-D2D total {sweep.f_nd:g}, full-problem rho {sweep.rho:.4f}"
    )

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["lambda", "total_spectrum", "rho", "eta", "n_d2d_demands", "step3_variables", "wall_seconds"]
        )
        for row in sweep.levels:
            writer.writerow(
                [row.level, row.total_spectrum, row.rho, row.eta,
                 row.n_d2d_demands, row.step3_variables, f"{row.wall_seconds:.3f}"]
            )
            print(f"level {row.level:.2f}: rho {row.rho:.4f} eta {row.eta:.5f}"
                  f" |eligible| {row.n_d2d_demands} ({row.wall_seconds:.1f}s)")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
