"""Empirical Ulam-Hyers-Mittag-Leffler stability verification.

An epsilon-approximate solution is one whose residual is enveloped by
``eps * E_alpha((psi(t)-psi(0))^alpha)``. Stability of the problem class
asserts every such approximate solution stays within ``C * eps`` times
that same envelope of the true solution, with an explicit constant

    C = 1 + 2 L_f (psi(b)-psi(0))^alpha * E_{1, alpha+1}(A (psi(b)-psi(0))),
    A = 2 L_f / Gamma(alpha+1) + L_h / kappa.

This module realizes admissible perturbations as forcing samples z at
the base solution's grid nodes, solves D v = F(v) + z on that grid (the
solver adds z to F's samples before the fractional integral, so no
numerical differentiation is involved), and compares the two
trajectories node by node against the constant.

The perturbations of one run share the base grid and differ only in
their forcing, so their solves run as one stacked Picard iteration: a
(P, N+1) stack of node values, one call of f per sweep, and each row
stopping at its own tolerance (see :mod:`hilferlab.picard_solver`).
Each report is bit for bit the one its perturbation gets alone, and each
experiment is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .picard_solver import SolveConfig, SolveResult, grid_for, solve, solve_stacked
from .problem_model import DelayFFIDE, estimate_zeta
from .psi_calculus import Grid, Trajectory
from .psi_calculus import make_grid  # noqa: F401  (unused; bench/spans.py wraps this name)
from .special_functions import MlfParams, gamma as gamma_fn, mittag_leffler, mittag_leffler_values

PERTURBATION_SHAPES = ("constant", "sinusoid", "square_wave", "smooth_random")


@dataclass(frozen=True)
class Perturbation:
    """An admissible perturbation eps * shape(t) * envelope(t).

    The shape is a named profile with |shape| <= 1 on [0, b], taking its
    right limit at t = 0, so the realized forcing obeys the admissibility
    envelope by construction.
    ``frequency`` drives the oscillatory shapes; ``seed`` and ``modes``
    parameterize the random smooth profile.
    """

    epsilon: float
    shape: str
    frequency: float = 2.0 * np.pi
    seed: int = 0
    modes: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not np.isfinite(self.frequency):
            raise ValueError(f"frequency must be finite, got {self.frequency!r}")
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
    if pert.shape == "square_wave":  # at a zero of the sine, its right limit
        s = np.sin(pert.frequency * t)
        return np.where(s == 0.0, np.sign(pert.frequency), np.sign(s))
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
    """E_alpha((psi(t)-psi(0))^alpha), the admissibility envelope on [0, b]."""
    x = np.asarray(psi.shifted(t), dtype=float)
    return mittag_leffler_values(MlfParams(alpha=alpha, beta=1.0), x ** alpha)


def _node_envelope(alpha: float, psi, grid: Grid) -> np.ndarray:
    """:func:`ml_envelope` at every node (1 at t = 0)."""
    envelope = ml_envelope(alpha, psi, grid.nodes)
    if np.any(np.diff(envelope) < -1e-12 * np.max(envelope)):
        raise AssertionError("Mittag-Leffler envelope must be nondecreasing in t")
    return envelope


def _realize(pert: Perturbation, problem: DelayFFIDE, grid: Grid, envelope) -> np.ndarray:
    """eps * shape * envelope at every node, given the node envelope.

    Node 0 carries the perturbation's right limit at t = 0: eps * shape(0+),
    the envelope being E_alpha(0) = 1 there.
    """
    values = pert.epsilon * _shape_profile(pert, grid.nodes, problem.b) * envelope
    if np.any(np.abs(values) > pert.epsilon * envelope * (1.0 + 1e-12)):
        raise AssertionError("realized perturbation violates its admissibility envelope")
    return values


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
    """Solve the problem forced by the realized perturbation; same history and u0.

    The forcing is realized on ``grid``, by default the config's grid.
    """
    grid = grid_for(problem, config) if grid is None else grid
    forcing = _realize(pert, problem, grid, _node_envelope(problem.order.alpha, problem.psi, grid))
    return solve(problem, config, grid=grid, forcing=forcing).trajectory


@dataclass
class StabilityReport:
    """Observed versus guaranteed deviation for one perturbation."""

    shape: str
    epsilon: float
    c_theoretical: float
    kappa_used: float
    a_used: float
    profile_times: np.ndarray
    ratio_profile: np.ndarray
    envelope_caveat: bool
    converged: bool

    @property
    def c_empirical(self) -> float:
        """The largest observed ratio, the empirical stability constant."""
        return float(np.max(self.ratio_profile))

    @property
    def passed(self) -> bool:
        return bool(self.c_empirical <= self.c_theoretical)


def verify_uhml(
    problem: DelayFFIDE,
    perts: Sequence[Perturbation],
    config: SolveConfig,
    *,
    base: Optional[SolveResult] = None,
) -> list[StabilityReport]:
    """Solve the base and the forced problems on one grid and compare deviations.

    Returns one report per perturbation of ``perts``, in order (none for
    an empty sequence). The forced solves run as one stacked iteration
    (:func:`hilferlab.picard_solver.solve_stacked`); each report is the
    one its perturbation gets alone, bit for bit.

    The per-node ratio is |v - u| / (eps * envelope); on the history
    window both solutions are the prescribed phi, so the ratio there is
    exactly zero. Passing means the maximum ratio, the report's
    ``c_empirical``, does not exceed the theoretical constant.

    The forced solves are of ``problem`` itself on the base solution's grid,
    the only grid of the comparison; a forcing at node 0 is the
    perturbation's right limit at t = 0. Without ``base`` the base problem is
    solved first, on the grid the config describes; for another grid,
    pass ``base=solve(problem, config, grid=grid)``.
    """
    perts = list(perts)
    if not perts:
        return []
    if base is None:
        base = solve(problem, config)
    u = base.trajectory
    grid = u.grid
    envelope = _node_envelope(problem.order.alpha, problem.psi, grid)
    forcing = np.array([_realize(pert, problem, grid, envelope) for pert in perts])
    perturbed_results = solve_stacked(problem, config, forcing, base=base)
    c_theory, kappa, a_const, x_b = _uhml_terms(problem)

    reports = []
    for pert, perturbed in zip(perts, perturbed_results):
        v = perturbed.trajectory
        deviation = u.unweight(np.abs(v.weighted_values - u.weighted_values))
        ratio_interior = deviation / (pert.epsilon * envelope[1:])
        reports.append(StabilityReport(
            shape=pert.shape,
            epsilon=pert.epsilon,
            c_theoretical=c_theory,
            kappa_used=kappa,
            a_used=a_const,
            profile_times=np.concatenate((grid.history_nodes, grid.nodes[1:])),
            ratio_profile=np.concatenate((np.zeros(grid.history_nodes.size), ratio_interior)),
            envelope_caveat=bool(x_b < 1.0),
            converged=bool(base.converged and perturbed.converged),
        ))
    return reports


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
