"""The benchmark's tracer must still find every package name it wraps.

``bench/spans.py`` replaces public names in the package's modules with
timing wrappers; a refactor that unbinds one of those names makes
``bench/run.py --trace 1`` crash. This test installs the tracer on the
package and puts every original back.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    finally:
        broken = tracer.patcher.restore()
    assert broken == []
