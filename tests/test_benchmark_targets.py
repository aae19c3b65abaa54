"""The benchmark against the program: every name the tracer wraps exists, every layer records.

The tracer (``benchmark/spans.py``) replaces functions under the names
their callers look up, and a name it cannot find silently drops its whole
layer from a traced run; so do names that still resolve but that no caller
looks up any more.  These checks turn a rename, a dropped import or a layer
whose bindings are all bypassed into a test failure.  The benchmark's own
copy of the CLI's schedule tolerance (``benchmark/workloads.py``) must
equal the CLI's.
"""

import pytest
from conftest import load_benchmark_module

from d2dlb import cli


def test_benchmark_validates_schedules_as_the_cli_does():
    workloads = load_benchmark_module("workloads")
    assert workloads.CLI_FLOW_TOL == cli.SCHEDULE_FLOW_TOL


def test_every_traced_binding_resolves():
    spans = load_benchmark_module("spans")
    missing = []
    for target in spans.TARGETS:
        try:
            spans._resolve(target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target.module}.{target.attr} ({target.layer}): {exc}")
    assert not missing, "benchmark/spans.py targets that no longer resolve:\n" + "\n".join(missing)


#: the layers a traced run of each command records spans in
TRACED_LAYERS = {
    ("d2d", "toy-fig1"): {"cli", "no_d2d", "d2d_flow", "lp", "model"},
    ("heuristic", "heuristic-appF"): {"cli", "no_d2d", "d2d_flow", "lp", "model", "heuristic"},
}


@pytest.mark.parametrize("command, fixture", sorted(TRACED_LAYERS))
def test_traced_run_records_every_layer(command, fixture, tmp_path):
    spans = load_benchmark_module("spans")
    recorder = spans.Recorder()
    with recorder.tracing(0):
        code = cli.main([command, "--fixture", fixture, "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    layer_of = {target.span: target.layer for target in spans.TARGETS}
    recorded = {layer_of[span.name] for span in recorder.spans}
    missing = TRACED_LAYERS[(command, fixture)] - recorded
    assert not missing, f"layers without a span in a traced {command} run: {sorted(missing)}"
