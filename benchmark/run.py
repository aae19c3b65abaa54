"""d2dlb benchmark: drives the ``d2dlb`` CLI in-process on generated instances.

Run from the repository root:

    python3 benchmark/run.py --workload day-d2d --seed 1 --seconds 55 --trace 0

Workloads are defined in ``workloads.py``.  An op is one ``d2dlb.cli.main``
call on one instance.  Ops run one after another in this process (a closed
loop with one client), cycling through the run's instances while one more
case of average length still fits in ``--seconds``, and every op's outputs
are checked.  An op's latency is the fastest of its repeats in the run, at the
nominal host speed of ``calibrate.py``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every case runs twice, untraced and
then traced, and the JSON carries the per-layer metrics of the traced ops.
The lines before it are a readable table and a ``record`` line with the whole
run, environment included.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB"}
#: set-up (synthesis and writing of the instances) is repeated this many times
SETUP_REPEATS = 5


class UsageError(Exception):
    """A command-line argument the benchmark cannot run with."""


def percentile_tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it.

    Below 40 ops that percentile would fall under p75, so the slowest op is
    reported instead (p100, none beyond).  Failed ops are passed in as
    ``inf``.  Returns (latency, percentile, ops beyond).
    """
    n = len(latencies)
    beyond = 10 if n >= 40 else 0
    return sorted(latencies)[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def run_op(cli, op, out_dir: Path, clock=None):
    """One CLI invocation; its stdout and stderr are captured, not shown.

    With a ``calibrate.HostClock`` the host's speed is sampled during the op,
    the samples' time is left out of the latency, and ``norm_s`` is set.
    """
    from workloads import OpResult

    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    if clock is not None:
        clock.reset()
    t0 = time.perf_counter()
    try:
        with (
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
            clock or contextlib.nullcontext(),
        ):
            code = cli.main([*op.argv, "--out", str(out_dir)])
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        code = None
        stderr.write(f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0 - (clock.spent_s if clock is not None else 0.0)
    res = OpResult(op, code, latency, stdout.getvalue(), out_dir)
    if clock is not None:
        res.norm_s = clock.normalise(latency)
    if code not in (0, None) and stderr.getvalue():
        res.failures.append(stderr.getvalue().strip().splitlines()[-1])
    if code is None:
        res.failures.append(stderr.getvalue())
    return res


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, size=None, work_root: Path | None = None
) -> dict:
    """Set up, measure and check one workload; returns the full run record.

    Instances and CLI outputs live under ``work_root`` (default
    ``.bench_work`` in the checkout) and are removed before returning.
    """
    import calibrate

    clock = calibrate.HostClock()  # untraced work only: samples would land in spans
    cli, import_s = clock.measure(lambda: importlib.import_module("d2dlb.cli"))

    import spans
    import workloads

    size = size or workloads.FULL
    if name not in workloads.WORKLOADS:
        raise UsageError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    work_root = work_root or ROOT / ".bench_work"
    work = work_root / f"{name}-{os.getpid()}"
    try:
        synth = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cases, synth_once = clock.measure(lambda: workload.make_cases(seed, size, work))
            synth.append(synth_once)
        synth_s = statistics.median(synth)

        recorder = spans.Recorder() if trace else None
        results, traced, log = [], [], []
        repeats: dict[tuple[int, int], list] = {}  # (case, op) -> untraced results
        t_start = time.perf_counter()
        k = 0
        # at least two cases, so every run has a median and a tail; then start
        # another case only if one more of average length still fits
        while k < 2 or (time.perf_counter() - t_start) * (k + 1) / k <= seconds:
            case = cases[k % len(cases)]
            for traced_pass in (False, True) if trace else (False,):
                batch = []
                for i, op in enumerate(case.ops):
                    out_dir = work / f"out{i}"  # a case's outputs are checked together
                    if traced_pass:
                        with recorder.tracing(len(traced)):
                            res = run_op(cli, op, out_dir)
                        traced.append(res)
                    else:
                        res = run_op(cli, op, out_dir, clock)
                        repeats.setdefault((k % len(cases), i), []).append(res)
                    batch.append(res)
                case.check(case, batch)
                results.extend(batch)
                log.extend(f"{case.label} scale {r.op.scale:g}: {r.failures[0]}"
                           for r in batch if not r.ok and len(log) < 20)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    # End-to-end numbers come from untraced ops only.  Each distinct op is
    # timed by the fastest of its repeats in the run at the host's nominal
    # speed (calibrate.py), and counts as passed only if every repeat passed.
    best = {key: min(r.norm_s for r in rs) for key, rs in repeats.items()}
    passed = {key for key, rs in repeats.items() if all(r.ok for r in rs)}
    lat = [best[key] if key in passed else float("inf") for key in sorted(best)]
    failed = [r for r in results if not r.ok]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": name,
        "why": workload.why,
        "env": environment(seed),
        "instances": [c.descriptor for c in cases],
        "ops": len(best),
        "repeats": {f"{c}.{i}": [round(r.norm_s, 6) for r in rs]
                    for (c, i), rs in sorted(repeats.items())},
        "repeats_wall_s": {f"{c}.{i}": [round(r.latency_s, 6) for r in rs]
                           for (c, i), rs in sorted(repeats.items())},
        "host_kernel_s": {"nominal": calibrate.NOMINAL_S,
                          "median": statistics.median(clock.all_samples),
                          "min": min(clock.all_samples), "max": max(clock.all_samples),
                          "samples": len(clock.all_samples)},
        "attempted": len(results),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(results),
        "failed_by_scale": {f"{x:g}": sum(r.op.scale == x for r in failed)
                            for x in sorted({r.op.scale for r in results})},
        "failures": log,
        "import_s": import_s,
        "synth_s": synth,
    }
    tail_s, percentile, beyond = percentile_tail(lat)
    record["op_tail"] = {"percentile": percentile, "ops_beyond": beyond, "ops": len(lat)}
    e2e = {
        "setup_s": import_s + synth_s,
        "solve_s": sum(best.values()) / len(passed) if passed else None,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record["end_to_end"] = {k: (v if v != float("inf") else None) for k, v in e2e.items()}
    if trace:
        per_layer = recorder.layer_metrics(len(traced))
        per_layer["scenario.synth_s"] = synth_s
        t_traced = sum(r.latency_s for r in traced)
        t_plain = sum(r.latency_s for rs in repeats.values() for r in rs)
        per_layer["trace.overhead_ratio"] = t_traced / t_plain - 1.0
        record["per_layer"] = per_layer
        record["eligible_by_level"] = recorder.eligible_by_level()
    return record


def print_report(record: dict, trace: bool) -> None:
    import spans

    print(f"workload {record['workload']}: {record['why']}")
    print(f"  ops {record['ops']}  attempted {record['attempted']}  failed {record['failed']}"
          f"  fail_ratio {record['fail_ratio']:.4f}")
    for msg in record["failures"]:
        print(f"  failure: {msg}")
    for key, value in record["end_to_end"].items():
        extra = ""
        if key == "op_tail_s":
            t = record["op_tail"]
            extra = f"  (p{t['percentile']:.1f}, {t['ops_beyond']} of {t['ops']} ops beyond)"
        print(f"  {key:<12} {value!s:>22} {END_TO_END_UNITS[key]}{extra}")
    print(f"  {'fail_ratio':<12} {record['fail_ratio']:>22} ratio")
    if trace:
        for key, value in record["per_layer"].items():
            print(f"  {key:<28} {value:>22.9g} {spans.metric_unit(key)}")
        print(f"  eligible ratio by level: {record['eligible_by_level']}")
    print("record " + json.dumps(record, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "d2dlb" / "__init__.py").is_file():
        print(f"benchmark: no d2dlb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except UsageError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print_report(record, bool(args.trace))

    import spans

    if args.trace:
        metrics = {k: {"value": v, "unit": spans.metric_unit(k)}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in record["end_to_end"].items()}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
