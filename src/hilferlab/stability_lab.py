"""Empirical Ulam-Hyers-Mittag-Leffler stability verification.

An epsilon-approximate solution is one whose residual is enveloped by
``eps * E_alpha((psi(t)-psi(0))^alpha)``. Stability of the problem class
asserts every such approximate solution stays within ``C * eps`` times
that same envelope of the true solution, with an explicit constant

    C = 1 + 2 L_f (psi(b)-psi(0))^alpha * E_{1, alpha+1}(A (psi(b)-psi(0))),
    A = 2 L_f / Gamma(alpha+1) + L_h / kappa.

This module constructs admissible perturbations, solves the perturbed
problems (the perturbation is added to the fixed-point map at the
integral-equation level, so no numerical differentiation is involved),
and compares the observed deviation profile against the constant. The
perturbed problem is always solved on the base solution's grid, so the
two trajectories are compared node by node.

Independent (problem, perturbation) experiments may run fully in
parallel; each experiment is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .picard_solver import SolveConfig, SolveResult, grid_for, solve
from .problem_model import DelayFFIDE, estimate_zeta
from .psi_calculus import Grid, Trajectory
from .psi_calculus import make_grid  # noqa: F401  (unused; bench/spans.py wraps this name)
from .special_functions import MlfParams, gamma as gamma_fn, mittag_leffler, mittag_leffler_values

PERTURBATION_SHAPES = ("constant", "sinusoid", "square_wave", "smooth_random")


@dataclass(frozen=True)
class Perturbation:
    """An admissible perturbation eps * shape(t) * envelope(t).

    The shape is a named profile with |shape| <= 1 on (0, b], so the
    realized forcing obeys the admissibility envelope by construction.
    ``frequency`` drives the oscillatory shapes; ``seed`` and ``modes``
    parameterize the random smooth profile.
    """

    epsilon: float
    shape: str
    frequency: float = 2.0 * np.pi
    seed: int = 0
    modes: int = 4

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.shape not in PERTURBATION_SHAPES:
            raise ValueError(
                f"unknown perturbation shape {self.shape!r}; "
                f"available: {list(PERTURBATION_SHAPES)}"
            )
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes!r}")


def _shape_profile(pert: Perturbation, t: np.ndarray, b: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if pert.shape == "constant":
        return np.ones_like(t)
    if pert.shape == "sinusoid":
        return np.sin(pert.frequency * t)
    if pert.shape == "square_wave":
        return np.sign(np.sin(pert.frequency * t))
    rng = np.random.default_rng(pert.seed)
    amplitudes = rng.standard_normal(pert.modes) / np.arange(1, pert.modes + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, pert.modes)
    raw = np.zeros_like(t)
    for j, (a_j, p_j) in enumerate(zip(amplitudes, phases), start=1):
        raw += a_j * np.sin(j * np.pi * t / b + p_j)
    peak = float(np.max(np.abs(raw)))
    if peak == 0.0:
        return np.ones_like(t)
    return raw / peak  # max |shape| == 1 exactly on the sampled nodes


def ml_envelope(alpha: float, psi, t) -> np.ndarray:
    """E_alpha((psi(t)-psi(0))^alpha), the admissibility envelope on (0, b]."""
    x = np.asarray(psi.shifted(t), dtype=float)
    return mittag_leffler_values(MlfParams(alpha=alpha, beta=1.0), x ** alpha)


def _realize(pert: Perturbation, problem: DelayFFIDE, grid: Grid) -> tuple[DelayFFIDE, np.ndarray]:
    """The problem with the realized forcing added to f, and the envelope at the interior nodes."""
    t_int = grid.nodes[1:]
    envelope = ml_envelope(problem.order.alpha, problem.psi, t_int)
    if np.any(np.diff(envelope) < -1e-12 * np.max(envelope)):
        raise AssertionError("Mittag-Leffler envelope must be nondecreasing in t")
    shape = _shape_profile(pert, t_int, problem.b)
    values = pert.epsilon * shape * envelope
    if np.any(np.abs(values) > pert.epsilon * envelope * (1.0 + 1e-12)):
        raise AssertionError("realized perturbation violates its admissibility envelope")
    base_f = problem.f

    def f_plus_forcing(t, u1, u2, u3):
        return base_f(t, u1, u2, u3) + np.interp(np.asarray(t, dtype=float), t_int, values)

    return replace(problem, f=f_plus_forcing), envelope


def perturbed_problem(pert: Perturbation, problem: DelayFFIDE, grid: Grid) -> DelayFFIDE:
    """The same problem with the realized forcing added to its right-hand side.

    Adding the forcing inside f is identical to augmenting the integral
    equation by I^{alpha;psi} of the forcing (the operator is linear),
    and it keeps u0 and the history untouched.
    """
    return _realize(pert, problem, grid)[0]


def uhml_constant(problem: DelayFFIDE) -> float:
    """The explicit stability constant C for this problem.

    kappa is the grid-sup of psi' over [0, b] (the same estimate as zeta
    in the smallness hypotheses).
    """
    return _uhml_terms(problem)[0]


def _uhml_terms(problem: DelayFFIDE) -> tuple[float, float, float, float]:
    """(C, kappa, A, psi(b)-psi(0)): the stability constant and the inputs behind it."""
    alpha = problem.order.alpha
    kappa = estimate_zeta(problem.psi, problem.b)[1]
    a_const = 2.0 * problem.lip_f / gamma_fn(alpha + 1.0)
    if problem.lip_h > 0.0:
        a_const += problem.lip_h / kappa
    x_b = float(problem.psi.shifted(problem.b))
    growth = mittag_leffler(MlfParams(alpha=1.0, beta=alpha + 1.0), a_const * x_b)
    return 1.0 + 2.0 * problem.lip_f * x_b ** alpha * growth, kappa, a_const, x_b


def solve_perturbed(
    problem: DelayFFIDE,
    pert: Perturbation,
    config: SolveConfig,
    *,
    grid: Optional[Grid] = None,
) -> Trajectory:
    """Solve the problem with the realized forcing; same history and u0.

    The forcing is realized on ``grid``, by default the config's grid.
    """
    if grid is None:
        grid = grid_for(problem, config)
    result = solve(perturbed_problem(pert, problem, grid), config, grid=grid)
    return result.trajectory


@dataclass
class StabilityReport:
    """Observed versus guaranteed deviation for one perturbation."""

    shape: str
    epsilon: float
    c_theoretical: float
    c_empirical: float
    passed: bool
    kappa_used: float
    a_used: float
    profile_times: np.ndarray
    ratio_profile: np.ndarray
    envelope_caveat: bool
    slack: float
    converged: bool

    def __post_init__(self) -> None:
        self.profile_times = np.asarray(self.profile_times, dtype=float)
        self.ratio_profile = np.asarray(self.ratio_profile, dtype=float)
        if np.any(self.ratio_profile < 0.0):
            raise ValueError("ratio profile entries must be nonnegative")


def verify_uhml(
    problem: DelayFFIDE,
    pert: Perturbation,
    config: SolveConfig,
    *,
    base: Optional[SolveResult] = None,
) -> StabilityReport:
    """Solve base and perturbed problems on one grid and compare deviations.

    The per-node ratio is |v - u| / (eps * envelope); on the history
    window both solutions carry the identical prescribed values, so the
    deviation there is exactly zero (the envelope is replaced by 1 for
    those nodes, the numerator being identically zero). Passing means the
    maximum ratio does not exceed the theoretical constant.

    The perturbed problem is solved on the base solution's grid, the only
    grid of the comparison. Without ``base`` the base problem is solved
    first, on the grid the config describes; for another grid, pass
    ``base=solve(problem, config, grid=grid)``.
    """
    if base is None:
        base = solve(problem, config)
    u = base.trajectory
    grid = u.grid

    forced, envelope = _realize(pert, problem, grid)
    perturbed = solve(forced, config, grid=grid)
    v = perturbed.trajectory

    deviation = u.unweight(np.abs(v.weighted_values - u.weighted_values))
    ratio_interior = deviation / (pert.epsilon * envelope)

    hist_deviation = np.abs(v.history_values - u.history_values)
    ratio_history = hist_deviation / pert.epsilon

    times = np.concatenate((grid.history_nodes, grid.nodes[1:]))
    profile = np.concatenate((ratio_history, ratio_interior))
    c_emp = float(np.max(profile))

    c_theory, kappa, a_const, x_b = _uhml_terms(problem)
    return StabilityReport(
        shape=pert.shape,
        epsilon=pert.epsilon,
        c_theoretical=c_theory,
        c_empirical=c_emp,
        passed=bool(c_emp <= c_theory),
        kappa_used=kappa,
        a_used=a_const,
        profile_times=times,
        ratio_profile=profile,
        envelope_caveat=bool(x_b < 1.0),
        slack=float(c_theory / c_emp) if c_emp > 0.0 else float("inf"),
        converged=bool(base.converged and perturbed.converged),
    )


def pachpatte_envelope(
    t: np.ndarray, eta: np.ndarray, p: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Explicit bound for the nested Gronwall-type integral inequality.

    For nonnegative x, p, q and positive nondecreasing eta satisfying

        x(t) <= eta(t) + int_0^t p(s) [ x(s) + int_0^s q(sig) x(sig) dsig ] ds,

    the bound is

        x(t) <= eta(t) (1 + int_0^t p(s) exp( int_0^s (p+q) dsig ) ds),

    evaluated here with cumulative trapezoids on the supplied nodes.
    """
    t = np.asarray(t, dtype=float)
    eta = np.asarray(eta, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (t.shape == eta.shape == p.shape == q.shape):
        raise ValueError("t, eta, p, q must share one shape")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("p and q must be nonnegative")
    if np.any(eta <= 0.0):
        raise ValueError("eta must be positive")
    if np.any(np.diff(eta) < 0.0):
        raise ValueError("eta must be nondecreasing")
    inner = _cumulative_trapezoid(p + q, t)
    outer = _cumulative_trapezoid(p * np.exp(inner), t)
    return eta * (1.0 + outer)


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of y over t, starting from 0 at t[0]."""
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))
