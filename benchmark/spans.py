"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: while an op is traced, public
functions of ``d2dlb`` (and the solver boundary ``scipy.optimize.linprog``)
are replaced, under the names their callers look up, by wrappers that record
a span (name, start, end, parent span, op id) and, for some, counts read from
the arguments and the result.  The originals are put back after the op.  All
spans stay in memory until the run ends; ``layer_metrics`` then turns them
into per-layer numbers.

A wrapped name that no longer exists is reported with a warning, and the
metrics of its layer are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    op: int
    info: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Observer = Callable[[tuple, dict, Any], dict[str, float]]


def _observe_linprog(args: tuple, kwargs: dict, res: Any) -> dict[str, float]:
    c = args[0] if args else kwargs["c"]
    rows = nnz = 0
    for key in ("A_ub", "A_eq"):
        a = kwargs.get(key)
        if a is not None:
            rows += a.shape[0]
            nnz += a.nnz if hasattr(a, "nnz") else int((a != 0).sum())
    return {"rows": rows, "cols": len(c), "nnz": nnz, "nit": int(getattr(res, "nit", 0))}


def _observe_lp_solve(args: tuple, kwargs: dict, sol: Any) -> dict[str, float]:
    return {"failed": 0 if sol.optimal else 1}


def _observe_extract(args: tuple, kwargs: dict, schedule: Any) -> dict[str, float]:
    index = args[0]
    return {"built": index.n_flow_variables, "used": len(schedule.allocations)}


def _observe_split(args: tuple, kwargs: dict, split: Any) -> dict[str, float]:
    n = len(split.d2d_demand_ids) + len(split.nd_demand_ids)
    return {"eligible": len(split.d2d_demand_ids), "demands": n, "level": split.level}


@dataclass(frozen=True)
class Target:
    layer: str
    span: str
    module: str
    attr: str  # dotted below the module, e.g. "Schedule.to_csv"
    observe: Observer | None = None


# Each entry replaces the binding a caller looks up; a function imported by
# name into several modules is wrapped in each of them.
TARGETS = (
    Target("cli", "cli.main", "d2dlb.cli", "main"),
    Target("cli", "cli.cmd_d2d", "d2dlb.cli", "cmd_d2d"),
    Target("cli", "cli.cmd_heuristic", "d2dlb.cli", "cmd_heuristic"),
    Target("cli", "cli.load_instance", "d2dlb.cli", "load_instance"),
    Target("cli", "model.instance_from_json", "d2dlb.cli", "instance_from_json"),
    Target("cli", "model.instance_to_json", "d2dlb.cli", "instance_to_json"),
    Target("cli", "model.Schedule.to_csv", "d2dlb.model", "Schedule.to_csv"),
    Target("no_d2d", "no_d2d.min_spectrum_no_d2d", "d2dlb.cli", "min_spectrum_no_d2d"),
    Target("no_d2d", "no_d2d.min_spectrum_no_d2d", "d2dlb.heuristic", "min_spectrum_no_d2d"),
    Target("d2d_flow", "d2d_flow.solve_min_spectrum_d2d", "d2dlb.cli", "solve_min_spectrum_d2d"),
    Target("d2d_flow", "d2d_flow.solve_min_overhead", "d2dlb.cli", "solve_min_overhead"),
    Target("d2d_flow", "d2d_flow.build_flow_lp", "d2dlb.d2d_flow", "build_flow_lp"),
    Target("d2d_flow", "d2d_flow.build_flow_lp", "d2dlb.heuristic", "build_flow_lp"),
    Target(
        "d2d_flow",
        "d2d_flow.extract_schedule",
        "d2dlb.d2d_flow",
        "TimeExpandedIndex.extract_schedule",
        _observe_extract,
    ),
    Target("lp", "lp.solve", "d2dlb.lp", "solve", _observe_lp_solve),
    Target("highs", "highs.linprog", "scipy.optimize", "linprog", _observe_linprog),
    Target("heuristic", "heuristic.heuristic_min_spectrum", "d2dlb.cli", "heuristic_min_spectrum"),
    Target("heuristic", "heuristic.heuristic_min_overhead", "d2dlb.cli", "heuristic_min_overhead"),
    Target("heuristic", "heuristic.split_demands", "d2dlb.heuristic", "split_demands", _observe_split),
    Target("model", "model.fill_storage", "d2dlb.heuristic", "fill_storage"),
    Target("model", "model.fill_storage", "d2dlb.no_d2d", "fill_storage"),
    Target("model", "model.validate_schedule", "d2dlb.cli", "validate_schedule"),
    Target("model", "model.compute_volumes", "d2dlb.cli", "compute_volumes"),
    Target("model", "model.compute_volumes", "d2dlb.d2d_flow", "compute_volumes"),
    Target("model", "model.compute_volumes", "d2dlb.heuristic", "compute_volumes"),
    Target("model", "model.per_slot_loads", "d2dlb.d2d_flow", "per_slot_loads"),
    Target("model", "model.per_slot_loads", "d2dlb.heuristic", "per_slot_loads"),
    Target("model", "model.per_slot_loads", "d2dlb.no_d2d", "per_slot_loads"),
)

# Every per-layer metric, by layer; "scenario" and "trace" are filled in by
# the runner, the rest by layer_metrics().
LAYER_METRICS = {
    "scenario": ("scenario.synth_s",),
    "cli": ("cli.self_s", "cli.io_s"),
    "no_d2d": ("no_d2d.calls", "no_d2d.busy_s"),
    "d2d_flow": (
        "d2d_flow.build_calls",
        "d2d_flow.build_s",
        "d2d_flow.extract_s",
        "d2d_flow.stage_s",
        "d2d_flow.used_column_ratio",
    ),
    "lp": ("lp.solve_calls", "lp.solve_self_s", "lp.failed"),
    "highs": (
        "highs.busy_s",
        "highs.iterations",
        "highs.rows",
        "highs.cols",
        "highs.nnz",
        "highs.cols_max",
    ),
    "heuristic": (
        "heuristic.level_calls",
        "heuristic.split_s",
        "heuristic.stage_s",
        "heuristic.eligible_ratio",
    ),
    "model": ("model.fill_storage_s", "model.validate_s", "model.volumes_s"),
    "trace": ("trace.overhead_ratio",),
}

UNITS = {"calls": "count", "iterations": "count", "rows": "count", "cols": "count",
         "nnz": "count", "cols_max": "count", "failed": "count", "build_calls": "count",
         "solve_calls": "count", "level_calls": "count"}


def metric_unit(name: str) -> str:
    leaf = name.split(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    return UNITS.get(leaf, "ratio")


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """(owner object, attribute name, current value) of a target's binding."""
    owner: Any = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Recorder:
    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self.targets: list[Target] = []
        self.missing_layers: set[str] = set()
        for target in targets:
            try:
                _resolve(target)
            except (ImportError, AttributeError):
                print(
                    f"warning: {target.module}.{target.attr} not found;"
                    f" {target.layer} metrics are absent",
                    file=sys.stderr,
                )
                self.missing_layers.add(target.layer)
            else:
                self.targets.append(target)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(target.span, time.perf_counter(), 0.0, parent, recorder._op)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            if target.observe is not None:
                span.info = target.observe(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def tracing(self, op: int) -> Iterator[None]:
        """Wrap every target for the duration of one op, then restore the originals."""
        self._op = op
        saved = []
        try:
            for target in self.targets:
                owner, name, fn = _resolve(target)
                saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(target, fn))
            yield
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)
            self._stack.clear()

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics; times and counts are per traced op."""
        own = self.self_times()
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        info: dict[str, list[dict[str, float]]] = {}
        for span, t in zip(self.spans, own):
            self_s[span.name] = self_s.get(span.name, 0.0) + t
            total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.info:
                info.setdefault(span.name, []).append(span.info)

        def own_s(*names: str) -> float:
            return sum(self_s.get(n, 0.0) for n in names) / n_ops

        def per_op(value: float) -> float:
            return value / n_ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        lp_info = info.get("highs.linprog", [])
        n_lp = len(lp_info)
        extract = info.get("d2d_flow.extract_schedule", [])
        split = info.get("heuristic.split_demands", [])
        m = {
            "cli.self_s": own_s("cli.main", "cli.cmd_d2d", "cli.cmd_heuristic"),
            "cli.io_s": own_s(
                "cli.load_instance", "model.instance_from_json", "model.instance_to_json",
                "model.Schedule.to_csv",
            ),
            "no_d2d.calls": per_op(calls.get("no_d2d.min_spectrum_no_d2d", 0)),
            "no_d2d.busy_s": per_op(total_s.get("no_d2d.min_spectrum_no_d2d", 0.0)),
            "d2d_flow.build_calls": per_op(calls.get("d2d_flow.build_flow_lp", 0)),
            "d2d_flow.build_s": own_s("d2d_flow.build_flow_lp"),
            "d2d_flow.extract_s": own_s("d2d_flow.extract_schedule"),
            "d2d_flow.stage_s": own_s(
                "d2d_flow.solve_min_spectrum_d2d", "d2d_flow.solve_min_overhead"
            ),
            "d2d_flow.used_column_ratio": ratio(
                sum(i["used"] for i in extract), sum(i["built"] for i in extract)
            ),
            "lp.solve_calls": per_op(calls.get("lp.solve", 0)),
            "lp.solve_self_s": own_s("lp.solve"),
            "lp.failed": per_op(sum(i["failed"] for i in info.get("lp.solve", []))),
            "highs.busy_s": own_s("highs.linprog"),
            "highs.iterations": per_op(sum(i["nit"] for i in lp_info)),
            "highs.rows": ratio(sum(i["rows"] for i in lp_info), n_lp),
            "highs.cols": ratio(sum(i["cols"] for i in lp_info), n_lp),
            "highs.nnz": ratio(sum(i["nnz"] for i in lp_info), n_lp),
            "highs.cols_max": max((i["cols"] for i in lp_info), default=0),
            "heuristic.level_calls": per_op(calls.get("heuristic.heuristic_min_spectrum", 0)),
            "heuristic.split_s": own_s("heuristic.split_demands"),
            "heuristic.stage_s": own_s(
                "heuristic.heuristic_min_spectrum", "heuristic.heuristic_min_overhead"
            ),
            "heuristic.eligible_ratio": ratio(
                sum(i["eligible"] for i in split), sum(i["demands"] for i in split)
            ),
            "model.fill_storage_s": own_s("model.fill_storage"),
            "model.validate_s": own_s("model.validate_schedule"),
            "model.volumes_s": own_s("model.compute_volumes", "model.per_slot_loads"),
        }
        for layer in self.missing_layers:
            for name in LAYER_METRICS[layer]:
                m.pop(name, None)
        return m

    def eligible_by_level(self) -> dict[str, float]:
        """Share of D2D-eligible demands at each split level, over all traced ops."""
        sums: dict[float, list[float]] = {}
        for span in self.spans:
            if span.name == "heuristic.split_demands" and span.info:
                acc = sums.setdefault(span.info["level"], [0.0, 0.0])
                acc[0] += span.info["eligible"]
                acc[1] += span.info["demands"]
        return {f"{lvl:g}": e / n if n else 0.0 for lvl, (e, n) in sorted(sums.items())}
