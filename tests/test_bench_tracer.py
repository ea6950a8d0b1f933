"""The benchmark's tracer must still find every package name it wraps.

``bench/spans.py`` replaces public names in the package's modules with
timing wrappers; a refactor that unbinds one of those names makes
``bench/run.py --trace 1`` crash. One test installs the tracer on the
package and puts every original back; the other runs
``bench/selfcheck.py``, which also fails when a wrapped layer is no
longer called or tracing changes an output byte.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def test_bench_selfcheck_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
