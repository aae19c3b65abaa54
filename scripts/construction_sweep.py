"""Benefit/cost tradeoff of the ring and complete-graph constructions.

Sweeps the construction parameters, comparing the closed-form reduction and
overhead against the LP optimum and the in-degree bound.

Usage: python3 scripts/construction_sweep.py [--max-delay 8] [--max-cells 6] [--out constructions.csv]
"""

import argparse
import csv

from d2dlb.bounds import build_complete_instance, build_ring_instance, inter_cell_bound
from d2dlb.d2d_flow import solve_min_spectrum_d2d
from d2dlb.no_d2d import min_spectrum_no_d2d


def row(kind, inst, param):
    nd_result, _, _ = min_spectrum_no_d2d(inst.topology, inst.demands)
    outcome = solve_min_spectrum_d2d(inst.topology, inst.demands)
    rho_lp = (float(nd_result.total) - outcome.total) / float(nd_result.total)
    return [
        kind,
        param,
        len(inst.topology.bs_ids),
        float(inst.spectrum_reduction),
        float(inst.overhead_ratio),
        rho_lp,
        inter_cell_bound(inst.topology).bound,
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-delay", type=int, default=8)
    parser.add_argument("--max-cells", type=int, default=6)
    parser.add_argument("--out", default="constructions.csv")
    args = parser.parse_args()

    rows = []
    for delay in range(2, args.max_delay + 1):
        rows.append(row("ring", build_ring_instance(delay), delay))
    for n_cells in range(2, args.max_cells + 1):
        rows.append(row("complete", build_complete_instance(n_cells, 2), n_cells))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "parameter", "n_cells", "rho_construction", "eta_construction",
             "rho_lp", "in_degree_bound"]
        )
        writer.writerows(rows)
    for r in rows:
        print(f"{r[0]:>8} param={r[1]:>2} cells={r[2]:>2} rho={r[3]:.4f}"
              f" eta={r[4]:.4f} rho_lp={r[5]:.4f} bound={r[6]:.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
