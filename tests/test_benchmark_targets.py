"""The benchmark tracer's bindings: every name ``benchmark/spans.py`` wraps must exist.

The tracer replaces functions under the names their callers look up, and a
name it cannot find silently drops its whole layer from a traced run.  This
check turns a rename or a dropped import in ``d2dlb`` into a test failure.
"""

import importlib.util
import sys
from pathlib import Path

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
