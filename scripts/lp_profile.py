"""Shape and HiGHS time of the benchmark's flow LPs, solved in this process.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/lp_profile.py --seed 1 --runs 15

For one run seed it builds the LPs the benchmark's workloads solve: the
full flow LP of the pinned day and of the day drawn from the seed
(``day-d2d``), and of each ``suite-sweep`` instance, together with each
instance's warm step-III levels (one per distinct eligible set of the
sweep's split levels that keeps some demands and makes others eligible).
Instances come from ``benchmark/workloads.py``, which is only read.

It prints one JSON line per LP: its group (``day``, ``suite_full`` or
``suite_step3``), name, rows, columns, nonzeros and HiGHS iterations.  Then
it solves every LP ``--runs`` times, interleaved (each run solves every LP
once, in order), timing ``lp.solve`` in CPU seconds, and
prints a last JSON line: per group, the median over runs of the group's
summed CPU time.  Step III starts from the full optimum's basis, as the
heuristic does.  Only the library's public layout is used (the index's
``problem`` and ``relay_cost``) and ``lp.solve``.  A revision from before
``lp.solve`` became the one lexicographic solve gave that solve another
name: profile it with that revision's own copy of this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import workloads  # noqa: E402

from d2dlb import lp  # noqa: E402
from d2dlb.d2d_flow import build_flow_lp, solve_flow_lp  # noqa: E402
from d2dlb.heuristic import _step3_index, nd_loads, split_demands  # noqa: E402
from d2dlb.no_d2d import min_spectrum_no_d2d  # noqa: E402


def day_instances(seed: int, size: workloads.Size) -> list[tuple[str, tuple]]:
    """The pinned day and the day the benchmark draws from ``seed``."""
    drawn = int(np.random.default_rng([seed, 1]).integers(10**6))
    return [
        (f"day-traffic{s}", workloads.synth_day(size, s)) for s in (workloads.DAY_SEED, drawn)
    ]


def suite_instances(seed: int, size: workloads.Size) -> list[tuple[str, tuple]]:
    draw = workloads.draw_suite_instance
    return [
        (f"suite{1000 + k}", draw(1000 + k, np.random.default_rng([seed, 2, k])))
        for k in range(size.suite_pool)
    ]


def step3_levels(topology, demands, full) -> list:
    """The distinct warm step-III LPs of the sweep's levels."""
    nd_schedule = min_spectrum_no_d2d(topology, demands)[1]
    loads = nd_loads(topology, nd_schedule)
    seen, indexes = set(), []
    for level in workloads.SWEEP_LEVELS:
        split = split_demands(topology, demands, nd_schedule, level, loads=loads)
        key = split.d2d_demand_ids
        if key and split.nd_demand_ids and key not in seen:
            seen.add(key)
            indexes.append(_step3_index(full.index, demands, split))
    return indexes


def collect(seed: int, size: workloads.Size) -> list[dict]:
    """Every LP to profile: group, name, problem, secondary cost and starting basis."""
    lps = []
    for name, (topology, demands) in day_instances(seed, size):
        index = build_flow_lp(topology, demands)
        lps.append(dict(group="day", name=name, index=index, basis=None))
    for name, (topology, demands) in suite_instances(seed, size):
        index = build_flow_lp(topology, demands)
        lps.append(dict(group="suite_full", name=name, index=index, basis=None))
        full = solve_flow_lp(index)
        basis = full.solution.basis
        for i, level in enumerate(step3_levels(topology, demands, full)):
            lps.append(dict(group="suite_step3", name=f"{name}/{i}", index=level, basis=basis))
    return lps


def solve(entry: dict) -> tuple[float, lp.LpSolution]:
    index = entry["index"]
    t0 = time.process_time()
    solution = lp.solve(index.problem, index.relay_cost, entry["basis"])
    return time.process_time() - t0, solution


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's smoke-test sizes")
    args = parser.parse_args(argv)

    size = workloads.TINY if args.tiny else workloads.FULL
    lps = collect(args.seed, size)
    groups = sorted({entry["group"] for entry in lps})
    for entry in lps:
        _, solution = solve(entry)
        if not solution.optimal:
            raise SystemExit(f"{entry['name']}: {solution.status}")
        problem = entry["index"].problem
        record = {
            "group": entry["group"],
            "name": entry["name"],
            "rows": problem.n_constraints,
            "cols": problem.n_variables,
            "nnz": int(problem.rows.size),
            "iterations": solution.iterations,
        }
        print(json.dumps(record))
    per_run = {group: [] for group in groups}
    for _ in range(args.runs):
        spent = dict.fromkeys(groups, 0.0)
        for entry in lps:
            spent[entry["group"]] += solve(entry)[0]
        for group in groups:
            per_run[group].append(spent[group])
    summary = {
        "seed": args.seed,
        "runs": args.runs,
        "lps": {group: sum(e["group"] == group for e in lps) for group in groups},
        "cpu_s": {group: statistics.median(per_run[group]) for group in groups},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
