"""Problem definition, contraction hypotheses, and constant estimation.

The problem class couples a fractional derivative of order ``alpha`` and
type ``beta`` with a delayed right-hand side and an inner Volterra term:

    D^{alpha,beta;psi} u(t) = f(t, u(t), u(g(t)), int_0^t h(t,s,u(s),u(g(s))) ds)

on (0, b], with a weighted initial datum ``u0`` and a prescribed history
``phi`` on [-r, 0]. Solvability rests on two checkable smallness
conditions on the Lipschitz constants of ``f`` and ``h``: the beta-function
bound ``Theta < 1`` and the exponential-weight (Bielecki) variant. Both
are computed literally here so experiments can report whether a run sits
inside the guaranteed contraction regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .psi_calculus import PsiFunction
from .special_functions import beta_fn, gamma


@dataclass(frozen=True)
class FractionalOrder:
    """Derivative order (alpha, beta) with composite exponent gamma.

    gamma = alpha + beta (1 - alpha) governs the solution's origin
    singularity (psi(t)-psi(0))^(gamma-1); it equals alpha when beta = 0
    and 1 when beta = 1.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta * (1.0 - self.alpha)


@dataclass(frozen=True)
class DelayFFIDE:
    """A delay integrodifferential problem instance.

    ``f(t, u1, u2, u3)``, ``h_kernel(t, s, v1, v2)``, ``g(t)`` and
    ``phi(t)`` must be numpy-vectorized. The solver iterates a stack of
    rows: it calls ``f`` with ``t`` of shape (N+1,) and ``u1``, ``u2``,
    ``u3`` of shape (P, N+1), P >= 1 (P = 1 for a plain solve), so ``f``
    must broadcast that leading row axis against ``t`` and treat the rows
    independently; ``h_kernel`` still sees one row at a time.
    ``h_kernel=None`` means the inner Volterra term is absent (the
    delay-only reduction). ``lip_f`` and ``lip_h`` are the declared
    Lipschitz constants with respect to the sum of absolute argument
    differences; they are inputs, not certified values (see
    :func:`estimate_lipschitz`).
    """

    order: FractionalOrder
    psi: PsiFunction
    f: Callable
    h_kernel: Optional[Callable]
    g: Callable
    phi: Callable
    u0: float
    b: float
    r: float
    lip_f: float
    lip_h: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.u0):
            raise ValueError(f"u0 must be finite, got {self.u0!r}")
        if not 0.0 < self.b < np.inf:
            raise ValueError(f"horizon b must be positive and finite, got {self.b!r}")
        if not 0.0 < self.r < np.inf:
            raise ValueError(f"delay depth r must be positive and finite, got {self.r!r}")
        # The theory wants lip_f > 0; zero is accepted so degenerate
        # right-hand sides (f == 0) remain constructible.
        if not (0.0 <= self.lip_f < np.inf and 0.0 <= self.lip_h < np.inf):
            raise ValueError("Lipschitz constants must be nonnegative and finite")


def validate_problem(problem: DelayFFIDE, samples: int = 257) -> None:
    """Sampled sanity checks: g(t) <= t, g(t) >= -r, phi finite, psi' > 0."""
    t = np.linspace(0.0, problem.b, samples)
    gt = np.asarray(problem.g(t), dtype=float)
    tol = 1e-12 * max(1.0, problem.b)
    if np.any(gt > t + tol):
        bad = float(t[np.argmax(gt - t)])
        raise ValueError(f"delay map must satisfy g(t) <= t; violated near t={bad:g}")
    if np.any(gt < -problem.r - tol):
        raise ValueError(
            f"delay map reaches below the history window: min g = {gt.min():g} < -r = {-problem.r:g}"
        )
    hist = np.asarray(problem.phi(np.linspace(-problem.r, 0.0, samples)), dtype=float)
    if not np.all(np.isfinite(hist)):
        raise ValueError("history function phi must be finite on [-r, 0]")
    problem.psi.deriv_bounds(0.0, problem.b)


def estimate_zeta(psi: PsiFunction, b: float, n: int = 2049) -> tuple[float, float]:
    """(inf, sup) of psi' over [0, b], estimated on a uniform sample.

    The sup is the literal constant of the smallness hypotheses; the inf
    is reported alongside because the contraction derivation actually
    divides by psi', so a lower bound is what the proof consumes. Both
    coincide for psi(t) = t.
    """
    return psi.deriv_bounds(0.0, b, n)


def check_theta(problem: DelayFFIDE, *, use_inf_deriv: bool = False) -> float:
    """The beta-function smallness constant Theta (contraction iff < 1).

    Theta = 2 L_f ( B(gamma, alpha)/Gamma(alpha)
                    + L_h/(zeta gamma) * B(gamma+1, alpha)/Gamma(alpha) )
            * (psi(b)-psi(0))^(alpha+1)

    with zeta = sup psi' on (0, b]. ``use_inf_deriv`` swaps in the inf
    estimate instead.
    """
    alpha = problem.order.alpha
    gam = problem.order.gamma
    zeta_inf, zeta_sup = estimate_zeta(problem.psi, problem.b)
    zeta = zeta_inf if use_inf_deriv else zeta_sup
    x_b = float(problem.psi.shifted(problem.b))
    core = beta_fn(gam, alpha) / gamma(alpha) + (
        problem.lip_h / (zeta * gam)
    ) * beta_fn(gam + 1.0, alpha) / gamma(alpha)
    return 2.0 * problem.lip_f * core * x_b ** (alpha + 1.0)


def check_bielecki(problem: DelayFFIDE, delta: float) -> float:
    """Left side of the exponential-weight contraction condition.

    2 L_f e^{delta (psi(b)-psi(0))} Gamma(gamma)/Gamma(gamma+alpha)
      (1 + L_h/(zeta (gamma+alpha))) (psi(b)-psi(0))^(alpha+1)

    evaluated for the given damping delta >= 0; contraction iff < 1.
    At delta = 0 this coincides with Theta by the beta-gamma identity.
    """
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    alpha = problem.order.alpha
    gam = problem.order.gamma
    zeta = estimate_zeta(problem.psi, problem.b)[1]
    x_b = float(problem.psi.shifted(problem.b))
    return float(
        2.0
        * problem.lip_f
        * np.exp(delta * x_b)
        * gamma(gam)
        / gamma(gam + alpha)
        * (1.0 + problem.lip_h / (zeta * (gam + alpha)))
        * x_b ** (alpha + 1.0)
    )


def estimate_lipschitz(
    problem: DelayFFIDE,
    sample_count: int,
    box: tuple[float, float],
    seed: int,
) -> tuple[float, float]:
    """Spot-check the declared Lipschitz constants on random argument pairs.

    Draws ``sample_count`` seeded pairs of state arguments inside ``box``
    and returns the largest observed ratios

        |f(t, u) - f(t, v)| / sum_i |u_i - v_i|   and the h analogue,

    with h sampled where F reads it, at 0 <= s <= t <= b.

    This is a lower-bound witness for the true constants, useful for
    catching config mistakes; it certifies nothing. Deterministic for a
    fixed seed.
    """
    lo, hi = float(box[0]), float(box[1])
    if not hi > lo:
        raise ValueError(f"degenerate sampling box [{lo}, {hi}]")
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count!r}")
    rng = np.random.default_rng(seed)

    t = rng.uniform(0.0, problem.b, size=sample_count)
    u = rng.uniform(lo, hi, size=(sample_count, 3))
    v = rng.uniform(lo, hi, size=(sample_count, 3))
    denom = np.sum(np.abs(u - v), axis=1)
    keep = denom > 1e-300
    fu = np.asarray(problem.f(t, u[:, 0], u[:, 1], u[:, 2]), dtype=float)
    fv = np.asarray(problem.f(t, v[:, 0], v[:, 1], v[:, 2]), dtype=float)
    ratios = np.abs(np.broadcast_to(fu - fv, denom.shape)[keep]) / denom[keep]
    lip_f = float(ratios.max()) if ratios.size else 0.0

    lip_h = 0.0
    if problem.h_kernel is not None:
        th = rng.uniform(0.0, problem.b, size=sample_count)
        sh = th * rng.uniform(0.0, 1.0, size=sample_count)
        a = rng.uniform(lo, hi, size=(sample_count, 2))
        c = rng.uniform(lo, hi, size=(sample_count, 2))
        denom_h = np.sum(np.abs(a - c), axis=1)
        keep_h = denom_h > 1e-300
        ha = np.asarray(problem.h_kernel(th, sh, a[:, 0], a[:, 1]), dtype=float)
        hc = np.asarray(problem.h_kernel(th, sh, c[:, 0], c[:, 1]), dtype=float)
        ratios_h = np.abs(np.broadcast_to(ha - hc, denom_h.shape)[keep_h]) / denom_h[keep_h]
        lip_h = float(ratios_h.max()) if ratios_h.size else 0.0

    return lip_f, lip_h


@dataclass
class HypothesisReport:
    """Numeric record of the contraction hypotheses for one problem."""

    theta: float
    theta_ok: bool
    bielecki_lhs: float
    bielecki_ok: bool
    zeta: float
    delta_used: float
    lipschitz_spot_check: tuple[float, float]
    zeta_inf: float = field(default=float("nan"))
    theta_inf_variant: float = field(default=float("nan"))
    lipschitz_exceeds_declared: bool = False

    def __post_init__(self) -> None:
        if self.theta_ok != (self.theta < 1.0):
            raise ValueError("theta_ok must equal (theta < 1)")
        if self.bielecki_ok != (self.bielecki_lhs < 1.0):
            raise ValueError("bielecki_ok must equal (bielecki_lhs < 1)")


def build_hypothesis_report(
    problem: DelayFFIDE,
    delta: float = 0.0,
    sample_count: int = 256,
    box: tuple[float, float] = (-1.0, 1.0),
    seed: int = 0,
) -> HypothesisReport:
    """Evaluate Theta, the Bielecki left side, and the Lipschitz spot check."""
    zeta_inf, zeta_sup = estimate_zeta(problem.psi, problem.b)
    theta = check_theta(problem)
    theta_inf = check_theta(problem, use_inf_deriv=True)
    bielecki = check_bielecki(problem, delta)
    spot = estimate_lipschitz(problem, sample_count, box, seed)
    slack = 1e-9
    exceeds = spot[0] > problem.lip_f + slack or spot[1] > problem.lip_h + slack
    return HypothesisReport(
        theta=theta,
        theta_ok=theta < 1.0,
        bielecki_lhs=bielecki,
        bielecki_ok=bielecki < 1.0,
        zeta=zeta_sup,
        delta_used=delta,
        lipschitz_spot_check=spot,
        zeta_inf=zeta_inf,
        theta_inf_variant=theta_inf,
        lipschitz_exceeds_declared=exceeds,
    )
