"""Measure every workload over several seeds and write bench/BASELINE.json.

    python3 bench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10

Each (workload, seed) is one ``run.py --trace 0`` process of
``run_seconds`` from BENCHMARK.json; one further
``--trace 1`` run per workload gives the per-layer numbers. For every
end-to-end metric the file records the median over the seeds and the
spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json, together with the machine the numbers come from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "BASELINE.json")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def _cache_size(level: str) -> str:
    """Size of the first cache of the given level, as sysfs states it ('' if unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
            if fh.read().strip() != level:
                continue
        with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
            return fh.read().strip()
    return ""


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def machine() -> dict:
    import numpy
    import scipy

    cores = len(os.sched_getaffinity(0))
    return {
        "nproc": cores,
        "thread_cap": cores,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_per_core": _cache_size("2"),
        "l3": _cache_size("3"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    out = {"commit": commit, "machine": machine(), "seeds": args.seeds,
           "run_seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [_run(workload, seed, seconds, 0) for seed in args.seeds]
        traced = _run(workload, args.seeds[0], seconds, 1)
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med, "bound": bound,
                                "unit": runs[0]["metrics"][name]["unit"], "values": values}
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
