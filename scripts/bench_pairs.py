"""Alternating parent/change runs of the benchmark, summarised per end-to-end metric.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload day-d2d \
        --workload suite-sweep --seeds 901-910 --out BENCH.json

The parent revision is exported with ``git archive`` into a temporary
directory, so no worktree is made and ``.git`` is not written; the change
is the working tree.  For each workload and seed one pair runs
``python3 benchmark/run.py --workload W --seed S --seconds N`` in each
tree, one after the other, the side that goes first alternating from pair
to pair.  The output file has every pair's end-to-end metrics and, per
metric, each side's median and quartiles and the number of pairs the
change won (ties count for neither side).  Beside the gated metrics it
summarises ``wall_op_p50_s``, the median over a run's ops of each op's
fastest raw wall time (the record's ``repeats_wall_s``), which the host
normalisation of the gated times does not touch.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, into: Path) -> Path:
    """The files of ``revision`` under ``into``, written by ``git archive``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary line of one benchmark run in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each tree runs its own src
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: benchmark exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
        "wall_op_p50_s": wall_op_p50(lines),
    }


def wall_op_p50(lines: list[str]) -> float | None:
    """The median over ops of each op's fastest raw wall time, from a run's ``record`` line."""
    for line in lines:
        if line.startswith("record "):
            walls = json.loads(line[len("record "):])["repeats_wall_s"].values()
            return statistics.median(min(w) for w in walls) if walls else None
    return None


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for metric, direction in better.items():
        parent = [p["parent"]["metrics"][metric] for p in pairs]
        change = [p["change"]["metrics"][metric] for p in pairs]
        if None in parent or None in change:
            out[metric] = {"unresolved": "a run reported no value"}
            continue
        sign = 1 if direction == "lower" else -1
        out[metric] = {
            "better": direction,
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "parent_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 901-910 or 3,17")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"), "change": ROOT}
        record = {
            "parent": args.parent,
            "change": "working tree",
            "seconds": args.seconds,
            "workloads": {},
        }
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_benchmark(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(
                    f"{workload} seed {seed}: solve_s parent"
                    f" {pair['parent']['metrics']['solve_s']} change {pair['change']['metrics']['solve_s']}",
                    file=sys.stderr,
                )
            walls = [{side: {"metrics": {"wall_op_p50_s": p[side]["wall_op_p50_s"]}}
                      for side in ("parent", "change")} for p in pairs]
            record["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarise(pairs, better),
                "raw_wall": summarise(walls, {"wall_op_p50_s": "lower"}),
            }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
