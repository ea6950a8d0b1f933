"""Compute the stored fine-grid references in bench/refs (run once; takes minutes).

    python3 bench/reference.py delay_volterra uhml_suite

For each of VARIANTS coefficient draws of a workload this solves the
workload's config with ``hilferlab.picard_solver.solve`` on a grid
FACTOR times finer (and, for the Volterra term, with FINE_QUAD inner
quadrature nodes), keeps the weighted values at the benchmark's nodes,
and states as the reference's error estimate the sup-norm difference to
the same solve at half that resolution. Grids are uniform in t
(psi = identity), so benchmark node i is fine node i * FACTOR.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from multiprocessing import get_context

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy as np  # noqa: E402

from hilferlab.config import parse_config  # noqa: E402
from hilferlab.picard_solver import solve  # noqa: E402
from workloads import GRIDS, PROBLEMS, REF_DIR, VARIANT_RANGES, _ini  # noqa: E402

VARIANTS = 4
TABLE_SEED = 200101567
FACTOR = 8
FINE_QUAD = {"delay_volterra": 512, "uhml_suite": 64}
FINE_TOL = 1e-13


def _weighted_at_nodes(name: str, coeffs: dict, factor: int, quad: int) -> np.ndarray:
    path = os.path.join(REF_DIR, f"{name}.{os.getpid()}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_ini(PROBLEMS[name](coeffs), {"grid_size": GRIDS[name]}, None, "unused", 0))
    cfg = parse_config(path)
    os.remove(path)
    config = replace(cfg.solve, grid_size=GRIDS[name] * factor, inner_quad_nodes=quad,
                     tol=FINE_TOL, max_iter=60)
    result = solve(cfg.problem, config)
    if result.residual_history[-1] > 1e-12:
        raise RuntimeError(f"reference solve stalled at {result.residual_history[-1]:.1e}")
    return result.trajectory.weighted_values[factor - 1::factor]


def _reference(name: str, coeffs: dict) -> tuple[np.ndarray, float]:
    """(fine-grid weighted values at the nodes, error estimate) for one variant."""
    start = time.perf_counter()
    fine = _weighted_at_nodes(name, coeffs, FACTOR, FINE_QUAD[name])
    half = _weighted_at_nodes(name, coeffs, FACTOR // 2, FINE_QUAD[name] // 2)
    err = float(np.max(np.abs(fine - half)))
    print(f"{name} {coeffs} err_est={err:.2e} ({time.perf_counter() - start:.0f} s)", flush=True)
    return fine, err


def build(name: str) -> None:
    ranges = VARIANT_RANGES[name]
    rng = np.random.default_rng(TABLE_SEED)
    names = sorted(ranges)
    coeffs = np.array([[rng.uniform(*ranges[k]) for k in names] for _ in range(VARIANTS)])
    variants = [(name, dict(zip(names, row.tolist()))) for row in coeffs]
    workers = min(len(variants), len(os.sched_getaffinity(0)))
    with get_context("spawn").Pool(workers) as pool:
        done = pool.starmap(_reference, variants)
    refs = [fine for fine, _ in done]
    errs = [err for _, err in done]
    np.savez(os.path.join(REF_DIR, f"{name}.npz"), coeff_names=np.array(names),
             coeffs=coeffs, w=np.array(refs), err_est=np.array(errs),
             factor=FACTOR, fine_quad=FINE_QUAD[name])


if __name__ == "__main__":
    os.makedirs(REF_DIR, exist_ok=True)
    for workload in sys.argv[1:]:
        build(workload)
