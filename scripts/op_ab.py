"""Interleaved A/B of two ``d2dlb`` source trees on one benchmark workload, in one process.

Usage, from the repository root:

    python3 scripts/op_ab.py --a /path/to/parent/src --b src --workload suite-sweep \
        --seed 1 --repeats 5

Both trees' ``d2dlb`` packages are loaded into this process, each as its
own set of module objects, and tree A is loaded twice: the second copy
runs against the first as an A/A control.  All copies share one HiGHS
engine, which ``lp._load_engine`` registers once per process.  The
workload's instances are those ``benchmark/workloads.py`` (only read)
makes for the seed; each op goes through ``cli.main`` of every copy.

Ops run one after another, after one untimed op per copy.  Each op is run
``--repeats`` times by every copy, the copies interleaved (the copy that
goes first rotates from repeat to repeat), and each copy keeps its fastest
wall time for the op.  The script prints one JSON line: per comparison (B
against A, and the A/A control), the ratio of the mean fastest op times
(second side over first), the ops the second side was faster on, and the
op count; and per copy its mean fastest op time and its ops that did not
exit 0.  A ratio below 1 means the second side is faster.  An A/A ratio
far from 1 says the host was too noisy to read the B/A ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent


def _own_modules() -> dict[str, ModuleType]:
    return {k: m for k, m in sys.modules.items() if k == "d2dlb" or k.startswith("d2dlb.")}


def load_tree(src: Path) -> dict[str, ModuleType]:
    """The ``d2dlb`` modules of the tree ``src``, imported afresh and kept out of ``sys.modules``."""
    saved = _own_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.invalidate_caches()
        importlib.import_module("d2dlb.cli")
        loaded = _own_modules()
    finally:
        sys.path.remove(str(src))
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return loaded


def load_workloads(modules: dict[str, ModuleType]) -> ModuleType:
    """``benchmark/workloads.py``, importing ``d2dlb`` from ``modules``."""
    saved = _own_modules()
    sys.modules.update(modules)
    try:
        spec = importlib.util.spec_from_file_location("op_ab_workloads", ROOT / "benchmark" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up by name
        spec.loader.exec_module(workloads)
    finally:
        for name in modules:
            del sys.modules[name]
        sys.modules.update(saved)
    return workloads


def time_op(cli: ModuleType, argv: list[str], out: Path) -> tuple[float, int | None]:
    """Wall time and exit code of one ``cli.main`` call (None when it raised)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main([*argv, "--out", str(out)])
        except Exception:
            code = None
        return time.perf_counter() - t0, code


def compare(first: list[float], second: list[float]) -> dict:
    return {
        "ratio_of_means": statistics.fmean(second) / statistics.fmean(first),
        "second_wins": sum(b < a for a, b in zip(first, second)),
        "ops": len(first),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, type=Path, help="the src directory of tree A")
    parser.add_argument("--b", required=True, type=Path, help="the src directory of tree B")
    parser.add_argument("--workload", default="suite-sweep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tiny", action="store_true", help="the workloads' TINY sizes")
    args = parser.parse_args(argv)

    copies = {"a": load_tree(args.a.resolve()), "a2": load_tree(args.a.resolve())}
    copies["b"] = load_tree(args.b.resolve())
    clis = {side: modules["d2dlb.cli"] for side, modules in copies.items()}
    workloads = load_workloads(copies["a"])
    size = workloads.TINY if args.tiny else workloads.FULL
    best: dict[str, list[float]] = {side: [] for side in clis}
    failed = {side: 0 for side in clis}
    sides = list(clis)
    with tempfile.TemporaryDirectory(prefix="op-ab-") as tmp:
        work = Path(tmp)
        cases = workloads.WORKLOADS[args.workload].make_cases(args.seed, size, work)
        ops = [op for case in cases for op in case.ops]
        for side in sides:  # one untimed op per copy, so no copy times its first calls
            time_op(clis[side], ops[0].argv, work / f"out-{side}")
        for n, op in enumerate(ops):
            times: dict[str, list[float]] = {side: [] for side in clis}
            for r in range(args.repeats):
                turn = (n * args.repeats + r) % len(sides)
                for side in sides[turn:] + sides[:turn]:
                    wall, code = time_op(clis[side], op.argv, work / f"out-{side}")
                    times[side].append(wall)
                    if r == 0 and code != 0:
                        failed[side] += 1
            for side in clis:
                best[side].append(min(times[side]))
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "repeats": args.repeats,
                "b_vs_a": compare(best["a"], best["b"]),
                "a_vs_a": compare(best["a"], best["a2"]),
                "mean_op_s": {side: statistics.fmean(t) for side, t in best.items()},
                "failed_ops": failed,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
