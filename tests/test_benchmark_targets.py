"""The benchmark tracer's bindings: every name ``benchmark/spans.py`` wraps exists, every layer records.

The tracer replaces functions under the names their callers look up, and a
name it cannot find silently drops its whole layer from a traced run; so
do names that still resolve but that no caller looks up any more.  These
checks turn a rename, a dropped import or a layer whose bindings are all
bypassed into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from d2dlb import cli

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("d2dlb_benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = load_spans()
    missing = []
    for target in spans.TARGETS:
        try:
            spans._resolve(target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target.module}.{target.attr} ({target.layer}): {exc}")
    assert not missing, "benchmark/spans.py targets that no longer resolve:\n" + "\n".join(missing)


#: the layers a traced run of each command records spans in
TRACED_LAYERS = {
    ("d2d", "toy-fig1"): {"cli", "no_d2d", "d2d_flow", "model"},
    ("heuristic", "heuristic-appF"): {"cli", "no_d2d", "d2d_flow", "model", "heuristic"},
}


@pytest.mark.parametrize("command, fixture", sorted(TRACED_LAYERS))
def test_traced_run_records_every_layer(command, fixture, tmp_path):
    spans = load_spans()
    recorder = spans.Recorder()
    with recorder.tracing(0):
        code = cli.main([command, "--fixture", fixture, "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    layer_of = {target.span: target.layer for target in spans.TARGETS}
    recorded = {layer_of[span.name] for span in recorder.spans}
    missing = TRACED_LAYERS[(command, fixture)] - recorded
    assert not missing, f"layers without a span in a traced {command} run: {sorted(missing)}"
