"""Self-check of the benchmark's own machinery (a few seconds).

    python3 bench/selfcheck.py

1. The benchmark's Mittag-Leffler series (``workloads.ml_series``) meets
   acceptance criterion 3's values: E_1(z) = exp(z) and E_2(z^2) = cosh(z)
   on the criterion's ranges, and E_{1/2}(1) = e * erfc(-1).
2. For every workload on a small grid, a traced operation writes files
   byte-identical to an untraced one, the tracer saw the layers the
   workload uses, and afterwards every name in every hilferlab module is
   the same object as before tracing.

Exits with code 1 on the first failed check.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from scipy.special import erfc  # noqa: E402

import hilferlab  # noqa: E402
import hilferlab.cli as cli  # noqa: E402
from run import Runner, _same_files  # noqa: E402
from spans import Tracer, install  # noqa: E402
from workloads import WORKLOAD_NAMES, make_workload, ml_series  # noqa: E402

SMALL_GRID = 200
EXPECTED_LAYERS = {
    "delay_volterra": ("catalog.h", "psi_calculus.frac_integral", "picard_solver.solve"),
    "singular_exp_psi": ("psi_calculus.frac_integral", "picard_solver.certify"),
    "uhml_suite": ("stability_lab.verify_uhml", "special_functions.ml_values"),
}


def _fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_series() -> None:
    z = np.linspace(-5.0, 5.0, 50)
    err_exp = float(np.max(np.abs(ml_series(1.0, 1.0, z) - np.exp(z))))
    z = np.linspace(0.0, 5.0, 50)
    err_cosh = float(np.max(np.abs(ml_series(2.0, 1.0, z ** 2) - np.cosh(z))))
    err_half = abs(float(ml_series(0.5, 1.0, 1.0)[0]) - float(np.e * erfc(-1.0)))
    if not (err_exp <= 1e-9 and err_cosh <= 1e-9 and err_half <= 1e-8):
        _fail(f"series vs criterion 3: {err_exp:.1e} {err_cosh:.1e} {err_half:.1e}")
    print(f"PASS series matches criterion 3: exp {err_exp:.1e}, cosh {err_cosh:.1e}, "
          f"E_1/2(1) {err_half:.1e}")


def _module_names() -> dict:
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("hilferlab")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def check_tracing(name: str, scratch: str) -> None:
    workload = make_workload(name, 0)
    config = os.path.join(scratch, f"{name}.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload.ini(os.path.join(scratch, "unused")))
    runner = Runner(workload, cli.main, config)
    before = _module_names()
    plain = runner.op(os.path.join(scratch, name, "plain"), grid=SMALL_GRID)
    tracer = Tracer()
    install(tracer)
    try:
        traced = runner.op(os.path.join(scratch, name, "traced"), tracer, grid=SMALL_GRID)
    finally:
        broken = tracer.patcher.restore()
    after = _module_names()
    changed = [f"{m}.{k}" for (m, k), v in before.items() if after.get((m, k)) is not v]
    if broken or changed:
        _fail(f"{name}: names not restored: {broken + changed}")
    if plain["rc"] != 0 or traced["rc"] != 0:
        _fail(f"{name}: exit codes {plain['rc']} / {traced['rc']}")
    differ = _same_files(os.path.join(scratch, name, "plain"),
                         os.path.join(scratch, name, "traced"))
    if differ:
        _fail(f"{name}: traced outputs differ: {differ}")
    missing = [layer for layer in EXPECTED_LAYERS[name]
               if not traced["layers"].get(f"{layer}.calls")]
    if missing:
        _fail(f"{name}: no spans for {missing}")
    files = len(os.listdir(os.path.join(scratch, name, "plain")))
    print(f"PASS {name}: {files} files byte-identical traced/untraced, "
          f"{sum(tracer.calls.values())} spans, {len(before)} names restored")


def main() -> int:
    check_series()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selfcheck_") as scratch:
        for name in WORKLOAD_NAMES:
            check_tracing(name, scratch)
    print(f"selfcheck passed for hilferlab {hilferlab.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
