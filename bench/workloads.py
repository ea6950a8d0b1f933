"""The three benchmark workloads: seeded INI configs, references, output checks.

Each workload is one ``hilferlab`` CLI command on one generated config.
The seed picks the problem coefficients; the program only ever sees the
INI file. References never call ``hilferlab.special_functions``: the
closed form uses :func:`ml_series` below, and the delay problems use
fine-grid solutions stored in ``bench/refs`` (see ``reference.py``).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(BENCH_DIR, "refs")

SHAPES = ("constant", "sinusoid", "square_wave", "smooth_random")
EPSILONS = ("1e-2", "1e-3")
HISTORY = 128  # history nodes: the CLI default history_size


def ml_series(a: float, b: float, z, terms: int = 200) -> np.ndarray:
    """E_{a,b}(z) by its power series, each term formed in log space with math.lgamma.

    Independent of the package: 200 terms cover |z| <= 25 for a >= 0.5
    (the last term is below 1e-30 there). Terms are added one at a time,
    so memory stays a few vectors the size of z.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(z))
    odd_sign = np.where(z < 0.0, -1.0, 1.0)
    total = np.full(z.shape, 1.0 / math.gamma(b))
    for k in range(1, terms):
        term = np.exp(k * log_abs - math.lgamma(a * k + b))
        total += term * odd_sign if k % 2 else term
    return total


def _ini(problem: dict, solve: dict, stability: dict | None, out_dir: str, seed: int) -> str:
    def section(name: str, items: dict) -> list[str]:
        return [f"[{name}]"] + [
            f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in items.items()
        ] + [""]

    lines = section("problem", problem) + section("solve", solve)
    if stability is not None:
        lines += section("stability", stability)
    lines += section("output", {"directory": out_dir, "format": "csv", "seed": seed})
    return "\n".join(lines)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _solution_columns(out_dir: str, n: int, history: int, issues: list[str]):
    """(t, psi_t, weighted_u) of the interior rows of solution.csv, or None."""
    header, rows = _read_csv(os.path.join(out_dir, "solution.csv"))
    if header != ["t", "psi_t", "weighted_u", "u", "residual_iter_count"]:
        issues.append(f"solution.csv header {header}")
        return None
    if len(rows) != history + 1 + n:
        issues.append(f"solution.csv has {len(rows)} rows, expected {history + 1 + n}")
        return None
    interior = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows[history + 1:]])
    return interior[:, 0], interior[:, 1], interior[:, 2]


@dataclass
class Workload:
    """One benchmark workload: the CLI command, its config and its checks."""

    name: str
    command: str
    grid: int
    tol: float  # largest accepted max_err
    problem: dict
    stability: dict | None = None
    seed: int = 0
    reference: np.ndarray | None = None  # stored weighted values at nodes 1..N
    ref_err: float = 0.0  # stated error estimate of the stored reference
    closed_form: tuple | None = None  # (alpha, gamma, lam, u0) for singular_exp_psi
    calibration: str = "python"  # run._calibration_s loop that matches the dominant work
    _closed_ref: tuple | None = field(default=None, init=False, repr=False)  # (t, w)

    def ini(self, out_dir: str) -> str:
        return _ini(self.problem, {"grid_size": self.grid}, self.stability, out_dir, self.seed)

    def argv(self, config_path: str, out_dir: str, grid: int | None = None) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out_dir]
        return args + (["--grid", str(grid)] if grid is not None else [])

    def check(self, out_dir: str, rc: int, stdout: str, base) -> tuple[float, list[str]]:
        """(max_err, issues) for one finished operation; no issues means passed."""
        issues: list[str] = []
        if rc != 0:
            issues.append(f"exit code {rc}")
        if self.command == "solve":
            max_err = self._check_solve(out_dir, stdout, issues)
        else:
            max_err = self._check_stability(out_dir, base, issues)
        if not max_err <= self.tol:
            issues.append(f"max_err {max_err:.3e} above tolerance {self.tol:.0e}")
        return max_err, issues

    def _check_solve(self, out_dir: str, stdout: str, issues: list[str]) -> float:
        if "converged=true" not in stdout:
            issues.append("solve did not report converged=true")
        cols = _solution_columns(out_dir, self.grid, HISTORY, issues)
        if cols is None:
            return math.inf
        t, _, w = cols
        if self.closed_form is not None:
            # the grid is the same on every op, so the closed form is summed once
            if self._closed_ref is None or not np.array_equal(t, self._closed_ref[0]):
                alpha, gamma, lam, u0 = self.closed_form
                self._closed_ref = (t, u0 * ml_series(alpha, gamma, lam * np.expm1(t) ** alpha))
            ref = self._closed_ref[1]
        else:
            ref = self.reference
        return float(np.max(np.abs(w - ref)))

    def _check_stability(self, out_dir: str, base, issues: list[str]) -> float:
        header, rows = _read_csv(os.path.join(out_dir, "stability.csv"))
        expected = len(SHAPES) * len(EPSILONS)
        if header[:5] != ["shape", "epsilon", "c_theoretical", "c_empirical", "passed"]:
            issues.append(f"stability.csv header {header}")
        elif len(rows) != expected:
            issues.append(f"stability.csv has {len(rows)} experiments, expected {expected}")
        failed = [f"{r[0]}/{r[1]}" for r in rows if r[4] != "true"]
        if failed:
            issues.append(f"experiments not passed: {failed}")
        for shape in SHAPES:
            for eps in EPSILONS:
                name = f"ratio_profile_{shape}_{float(eps):g}.csv"
                _, prof = _read_csv(os.path.join(out_dir, name))
                hist = [float(r[1]) for r in prof if float(r[0]) <= 0.0]
                if len(hist) != HISTORY + 1 or any(hist):
                    issues.append(f"{name}: non-zero history deviation")
        if base is None or not base.converged:
            issues.append("base solve missing or not converged")
            return math.inf
        return float(np.max(np.abs(base.trajectory.weighted_values - self.reference)))


def _stored(name: str, seed: int) -> tuple[dict, np.ndarray, float]:
    """(coefficients, reference, error estimate) of the variant the seed picks."""
    data = np.load(os.path.join(REF_DIR, f"{name}.npz"))
    variant = int(np.random.default_rng(seed).integers(len(data["coeffs"])))
    coeffs = dict(zip(data["coeff_names"].tolist(), data["coeffs"][variant].tolist()))
    return coeffs, data["w"][variant], float(data["err_est"][variant])


def delay_volterra_problem(c: dict) -> dict:
    """The README worked problem with coefficients c (c1..c3, d1, d2)."""
    return {
        "psi": "identity", "alpha": 0.5, "beta": 1.0, "b": 1.0, "r": 0.5, "u0": 1.0,
        "f": "linear", "f_c1": c["c1"], "f_c2": c["c2"], "f_c3": c["c3"],
        "h": "linear", "h_d1": c["d1"], "h_d2": c["d2"],
        "g": "constant_lag", "g_lag": 0.5, "phi": "cosine",
        "lip_f": max(c["c1"], c["c2"], c["c3"]), "lip_h": max(c["d1"], c["d2"]),
    }


def uhml_problem(c: dict) -> dict:
    """The README problem reduced to delay only (h = none), coefficients c1, c2."""
    return {
        "psi": "identity", "alpha": 0.5, "beta": 1.0, "b": 1.0, "r": 0.5, "u0": 1.0,
        "f": "linear", "f_c1": c["c1"], "f_c2": c["c2"],
        "h": "none", "g": "constant_lag", "g_lag": 0.5, "phi": "cosine",
        "lip_f": max(c["c1"], c["c2"]), "lip_h": 0.0,
    }


# Coefficient ranges of the stored variants (reference.py draws from these).
VARIANT_RANGES = {
    "delay_volterra": {"c1": (0.049, 0.051), "c2": (0.049, 0.051), "c3": (0.049, 0.051),
                       "d1": (0.098, 0.102), "d2": (0.098, 0.102)},
    "uhml_suite": {"c1": (0.049, 0.051), "c2": (0.049, 0.051)},
}
PROBLEMS = {"delay_volterra": delay_volterra_problem, "uhml_suite": uhml_problem}
GRIDS = {"delay_volterra": 4000, "singular_exp_psi": 4000, "uhml_suite": 2000}


def make_workload(name: str, seed: int) -> Workload:
    """The workload's config and reference for this seed."""
    if name == "singular_exp_psi":
        rng = np.random.default_rng(seed)
        beta, lam, u0 = rng.uniform(0.49, 0.51), rng.uniform(0.0495, 0.0505), rng.uniform(0.99, 1.01)
        alpha = 0.5
        problem = {
            "psi": "exponential", "alpha": alpha, "beta": beta, "b": 1.0, "r": 0.5, "u0": u0,
            "f": "linear", "f_c1": lam, "h": "none", "g": "no_delay",
            "phi": "constant", "phi_value": 1.0, "lip_f": lam,
        }
        gamma = alpha + beta * (1.0 - alpha)
        return Workload(name, "solve", GRIDS[name], 1e-5, problem, seed=seed,
                        closed_form=(alpha, gamma, lam, u0), calibration="numpy")
    coeffs, ref, err = _stored(name, seed)
    problem = PROBLEMS[name](coeffs)
    if name == "delay_volterra":
        return Workload(name, "solve", GRIDS[name], 1e-6, problem, seed=seed,
                        reference=ref, ref_err=err)
    stability = {"shapes": ", ".join(SHAPES), "epsilons": ", ".join(EPSILONS)}
    return Workload(name, "stability", GRIDS[name], 1e-5, problem, stability=stability,
                    seed=seed, reference=ref, ref_err=err)


WORKLOAD_NAMES = ("delay_volterra", "singular_exp_psi", "uhml_suite")
