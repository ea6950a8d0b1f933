"""hilferlab benchmark: one workload per run, driven through ``hilferlab.cli.main``.

Run from the repository root::

    python3 bench/run.py --workload uhml_suite --seed 1 --seconds 60 --trace 0

The run writes the workload's INI config from the seed, measures set-up
(importing ``hilferlab.cli`` in fresh processes), runs the CLI command
in-process for ``--seconds`` seconds, checks every operation's output
against an independent reference, and prints one JSON object as its last
line of output. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` reports the per-layer metrics of a traced run (see bench/README.md).
The package is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 7  # fresh imports per run, spread over its window
SETUP_CODE = (
    "import time; t = time.perf_counter(); import hilferlab.cli; "
    "print(repr(time.perf_counter() - t))"
)
TAIL_BEYOND = 10  # operations beyond the reported tail percentile
WARMUP_GRID = 64
# Seconds each calibration loop takes at the reference speed: its median on a
# 2-vCPU Intel Xeon host whose speed drifts by up to 1.7x. See bench/README.md.
CAL_REF_S = {"python": 0.016, "numpy": 0.080}


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count (before numpy loads)."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def _import_seconds() -> float:
    """Seconds to import hilferlab.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=SRC),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _calibration_s(kind: str) -> float:
    """Seconds of a fixed loop doing the kind of work that dominates a workload.

    "python": a scalar loop over math.exp/math.lgamma, like the per-element
    Mittag-Leffler series and the per-node Volterra loop. "numpy":
    elementwise powers on fresh 256 x 4000 blocks, like the non-uniform
    product-trapezoid quadrature. Neither calls the package, so a change to
    the program leaves their time unchanged; timed next to an operation,
    they follow the machine's speed.
    """
    import numpy as np  # loaded by main() after the thread cap

    start = time.perf_counter()
    acc = 0.0
    if kind == "python":
        for k in range(1, 60000):
            acc += math.exp(-1e-4 * k - math.lgamma(5e-4 * k + 1.0))
    else:
        x = np.linspace(1.0, 2.0, 4001)
        for lo in range(0, 512, 256):
            a = x[None, 1:] + x[lo:lo + 256, None]
            b = a - 0.5
            m0 = (a ** 0.5 - b ** 0.5) / 0.5
            m1 = a * m0 - (a ** 1.5 - b ** 1.5) / 1.5
            acc += float(np.sum(np.where(b >= 0.0, m0 + m1, 0.0)))
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite sum")
    return time.perf_counter() - start


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND operations beyond it, at or above the median.

    With fewer than 2 * TAIL_BEYOND operations no such percentile exists,
    and the maximum is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], f"max of {n} ops"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.0f} of {n} ops ({TAIL_BEYOND} beyond)"


def _same_files(dir_a: str, dir_b: str) -> list[str]:
    """Names of the files that differ between two output directories."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    diff = []
    for name in names:
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            diff.append(name)
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                diff.append(name)
    return diff


class Runner:
    """Runs and checks operations of one workload."""

    def __init__(self, workload, main, config_path: str):
        self.workload = workload
        self.main = main
        self.config_path = config_path
        self.base: list = []  # SolveResults returned to cli.cmd_stability, per op
        self.ops: list[dict] = []

    def capture_base(self, fn):
        """Wrapper for hilferlab.cli.solve that keeps its result for the checks."""
        def solve(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.base.append(result)
            return result
        return solve

    def op(self, out_dir: str, tracer=None, grid: int | None = None) -> dict:
        argv = self.workload.argv(self.config_path, out_dir, grid)
        self.base.clear()
        shutil.rmtree(out_dir, ignore_errors=True)  # no file is left from an earlier op
        before = tracer.snapshot() if tracer else {}
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                rc = tracer.run("cli", self.main, argv) if tracer else self.main(argv)
            except Exception:  # an operation that raises counts as failed
                rc, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        record = {"seconds": seconds, "rc": rc, "stdout": buf.getvalue()}
        if tracer:
            after = tracer.snapshot()
            record["layers"] = {k: after[k] - before.get(k, 0) for k in after}
        if grid is None:
            try:
                max_err, issues = self.workload.check(
                    out_dir, rc, record["stdout"], self.base[0] if self.base else None)
            except Exception:  # a missing or malformed output file fails the op
                max_err, issues = math.inf, [traceback.format_exc(limit=3)]
            if error:
                issues.append(error)
            record.update(max_err=max_err, issues=issues)
            self.ops.append(record)
        return record


def _loop(seconds: float, step) -> None:
    """Call step() back to back until the next call would end past `seconds`."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return


def _report(args, runner: Runner, metrics: dict, run_issues: list[str]) -> None:
    failed = [op for op in runner.ops if op["issues"]]
    for op in failed[:3]:
        print(f"FAILED op: {op['issues']}")
    for issue in run_issues:
        print(f"FAILED run: {issue}")
    attempted = len(runner.ops)
    print(f"{args.workload} seed={args.seed}: {attempted} ops attempted, {len(failed)} failed, "
          f"fail_frac={len(failed) / attempted:.3g}")
    print("  op seconds: " + " ".join(f"{op['seconds']:.3f}" for op in runner.ops))
    for name, m in metrics.items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{note}")
    result = {
        "correct": not failed and not run_issues,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": m["value"] if math.isfinite(m["value"]) else None,
                        "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hilferlab", "__init__.py")):
        print(f"no hilferlab package under {SRC}", file=sys.stderr)
        return 2
    cores = _cap_threads()
    sys.path.insert(0, SRC)
    import numpy as np

    import hilferlab
    import hilferlab.cli as cli
    from spans import LAYER_METRICS, Patcher, Tracer, install, layer_value
    from workloads import WORKLOAD_NAMES, make_workload

    if os.path.dirname(os.path.abspath(hilferlab.__file__)) != os.path.join(SRC, "hilferlab"):
        print(f"hilferlab imported from {hilferlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {WORKLOAD_NAMES}")

    workload = make_workload(args.workload, args.seed)
    out = os.path.join(OUT, args.workload)
    os.makedirs(out, exist_ok=True)
    config_path = os.path.join(out, "experiment.ini")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.ini(os.path.join(out, "plain")))
    print(f"{args.workload} seed={args.seed} threads={cores} grid={workload.grid} "
          f"problem={workload.problem}")
    if workload.reference is not None:
        print(f"stored reference error estimate {workload.ref_err:.2e}")

    runner = Runner(workload, cli.main, config_path)
    capture = Patcher()
    capture.install(cli, "solve", runner.capture_base)
    run_issues: list[str] = []
    metrics: dict[str, dict] = {}
    try:
        warm = runner.op(os.path.join(out, "warmup"), grid=WARMUP_GRID)
        if warm["rc"] != 0:
            print(f"warm-up run failed: rc={warm['rc']}\n{warm['stdout']}", file=sys.stderr)
            return 1
        _calibration_s(workload.calibration)
        if args.trace == 0:
            kind = workload.calibration
            ops: list[dict] = []
            cals = [_calibration_s(kind)]
            imports: list[float] = []
            start = time.perf_counter()

            def step() -> None:
                # the fresh imports are spread evenly over the window
                if len(imports) * args.seconds < SETUP_REPS * (time.perf_counter() - start):
                    imports.append(_import_seconds())
                ops.append(runner.op(os.path.join(out, "plain")))
                cals.append(_calibration_s(kind))

            _loop(args.seconds, step)
            while len(imports) < SETUP_REPS:
                imports.append(_import_seconds())
            setup = statistics.median(imports)
            wall = [op["seconds"] for op in ops]
            # each op is scaled by the calibration loops timed just before and after it
            cal = [op["seconds"] * 2.0 * CAL_REF_S[kind] / (before + after)
                   for op, before, after in zip(ops, cals, cals[1:])]
            p50 = statistics.median(cal)
            tail, tail_note = _tail(cal)
            print(f"wall seconds per op: median {statistics.median(wall):.4g}, tail "
                  f"{_tail(wall)[0]:.4g}; {kind} calibration loop: median "
                  f"{statistics.median(cals):.4g} s (reference {CAL_REF_S[kind]} s)")
            max_err = max(op["max_err"] for op in ops)
            metrics = {
                "setup_s": {"value": setup, "unit": "s",
                            "note": f"median of {SETUP_REPS} fresh imports"},
                "op_cal_s_p50": {"value": p50, "unit": "s", "note": f"median of {len(ops)} ops"},
                "op_cal_s_tail": {"value": tail, "unit": "s", "note": tail_note},
                "max_err": {"value": max_err, "unit": "1",
                            "note": f"tolerance {workload.tol:.0e}"},
                "digits_per_cal_s": {"value": -math.log10(max_err) / p50
                                     if 0.0 < max_err < 1.0 else 0.0, "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
        else:
            # untraced and traced operations alternate, so that drift in the
            # machine's speed during the run does not enter trace_overhead
            tracer = Tracer()
            plain: list[dict] = []
            traced: list[dict] = []

            def pair() -> None:
                plain.append(runner.op(os.path.join(out, "plain")))
                install(tracer)
                try:
                    traced.append(runner.op(os.path.join(out, "traced"), tracer))
                finally:
                    run_issues.extend(f"not restored: {n}" for n in tracer.patcher.restore())

            _loop(args.seconds, pair)
            differ = _same_files(os.path.join(out, "plain"), os.path.join(out, "traced"))
            if differ:
                run_issues.append(f"traced outputs differ from untraced: {differ}")
            for name, (unit, total, divisor) in LAYER_METRICS.items():
                values = [layer_value(op["layers"], total, divisor) for op in traced]
                if unit == "count" and len(set(values)) > 1:
                    run_issues.append(f"{name} differs between ops: {values}")
                metrics[name] = {"value": float(np.median(values)), "unit": unit}
            overhead = (statistics.median(op["seconds"] for op in traced)
                        / statistics.median(op["seconds"] for op in plain))
            metrics["trace_overhead"] = {
                "value": overhead, "unit": "1",
                "note": f"{len(traced)} traced / {len(plain)} untraced ops"}
    finally:
        run_issues += [f"not restored: {n}" for n in capture.restore()]
    _report(args, runner, metrics, run_issues)
    return 0


if __name__ == "__main__":
    sys.exit(main())
