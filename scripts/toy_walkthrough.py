"""End-to-end walkthrough of the two-cell example.

Prints the no-D2D optimum, the D2D optimum with its per-slot loads, and the
overhead-minimal relay plan.

Usage: python3 scripts/toy_walkthrough.py
"""

from d2dlb import (
    compute_metrics,
    compute_volumes,
    min_spectrum_no_d2d,
    solve_min_overhead,
    solve_min_spectrum_d2d,
    validate_schedule,
)
from d2dlb.scenario import toy_two_cell


def main() -> None:
    topology, demands = toy_two_cell()
    nd_result, _, intervals = min_spectrum_no_d2d(topology, demands)
    print("without D2D:")
    for b in topology.bs_ids:
        z, z2 = intervals[b]
        print(f"  cell {b}: peak {float(nd_result.per_bs_peak[b]):g} Hz,"
              f" critical interval [{z}, {z2}]")
    print(f"  total {float(nd_result.total):g} Hz")

    outcome = solve_min_spectrum_d2d(topology, demands)
    schedule, v_d2d, _ = solve_min_overhead(topology, outcome)
    assert validate_schedule(schedule, topology, demands, flow_abs_tol=1e-6).ok
    vd, vb = compute_volumes(schedule, topology)
    metrics = compute_metrics(nd_result.total, outcome.total, vd, vb)

    print("with D2D load balancing:")
    for b in topology.bs_ids:
        print(f"  cell {b}: peak {outcome.per_bs_peak[b]:g} Hz")
    print(f"  total {outcome.total:g} Hz")
    print(f"  relayed traffic {float(vd):g} of {float(vd + vb):g} bits")
    print(f"spectrum reduction {float(metrics.spectrum_reduction):.1%},"
          f" overhead {float(metrics.overhead_ratio):.1%}")

    print("overhead-minimal relay plan (non-storage entries):")
    for (j, u, v, t), x in sorted(schedule.allocations.items(), key=lambda kv: (kv[0][3], kv[0][0])):
        if u != v and x > 1e-9:
            print(f"  slot {t}: demand {j} sends {float(x):g} Hz on {u} -> {v}")


if __name__ == "__main__":
    main()
