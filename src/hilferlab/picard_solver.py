"""Successive-approximation solver for the equivalent integral equation.

The differential problem is solved through its integral form

    u(t) = (psi(t)-psi(0))^(gamma-1)/Gamma(gamma) * u0
           + I^{alpha;psi}[ F_u ](t),
    F_u(s) = f(s, u(s), u(g(s)), int_0^s h(s,tau,u(tau),u(g(tau))) dtau),

iterated from the homogeneous term until successive iterates stop moving
in the weighted (or damped Bielecki) sup-norm. Each sweep samples F_u at
the grid nodes, taking the Volterra term of every node from one batched
trapezoidal rule, and applies the product-integration operator from
:mod:`hilferlab.psi_calculus`; the homogeneous term is added in weighted
form, where its origin singularity cancels exactly. :func:`eval_F`
evaluates the same F_u at a single time.

Iteration is a contraction whenever the smallness constant Theta of
:mod:`hilferlab.problem_model` is below 1; the solver still runs outside
that regime but flags the result as uncertified.

A solve is sequential in the iteration index and touches no global
state, so distinct solves may run concurrently; results are
deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DelayRangeError, DivergenceError
from .problem_model import DelayFFIDE, check_bielecki, check_theta, validate_problem
from .psi_calculus import (
    Grid,
    Trajectory,
    frac_integral_grid,
    make_grid,
    trajectory_values,
)
from .special_functions import gamma as gamma_fn


@dataclass(frozen=True)
class SolveConfig:
    """Discretization and stopping controls for one solve."""

    grid_size: int = 1000
    inner_quad_nodes: int = 64
    tol: float = 1e-10
    max_iter: int = 200
    norm_kind: str = "weighted"
    bielecki_delta: float = 0.0
    grid_uniform_in: str = "psi"
    history_size: int = 128

    def __post_init__(self) -> None:
        if self.grid_size < 2:
            raise ValueError(f"grid_size must be >= 2, got {self.grid_size!r}")
        if self.inner_quad_nodes < 2:
            raise ValueError(
                f"inner_quad_nodes must be >= 2, got {self.inner_quad_nodes!r}"
            )
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.norm_kind not in ("weighted", "bielecki"):
            raise ValueError(
                f"norm_kind must be 'weighted' or 'bielecki', got {self.norm_kind!r}"
            )
        if self.bielecki_delta < 0.0:
            raise ValueError(f"bielecki_delta must be >= 0, got {self.bielecki_delta!r}")
        if self.history_size < 1:
            raise ValueError(f"history_size must be >= 1, got {self.history_size!r}")


@dataclass
class SolveResult:
    """Outcome of a fixed-point solve with contraction diagnostics."""

    trajectory: Trajectory
    residual_history: list[float]
    observed_ratio: float
    converged: bool
    iterations: int
    theta: float
    bielecki_lhs: float
    certified_by: Optional[str] = None
    warning: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.residual_history) != self.iterations:
            raise ValueError("residual_history must carry one entry per iteration")


def _rhs(
    problem: DelayFFIDE, u_of: Callable, s: np.ndarray, u_s: np.ndarray, subdivisions: int
) -> np.ndarray:
    """F_u at the 1-D array of times s > 0, given u_s = u(s).

    The Volterra term int_0^s h(s, tau, u(tau), u(g(tau))) dtau is one
    trapezoidal rule per row of a (len(s), subdivisions + 1) batch. The
    first subinterval uses the midpoint sample so that u, which may blow
    up like a negative power at tau = 0+, is never evaluated at 0.
    """
    g = problem.g
    u_delayed = u_of(np.asarray(g(s), dtype=float))
    if problem.h_kernel is None:
        inner = np.zeros_like(s)
    else:
        tau = np.linspace(0.0, s, subdivisions + 1, axis=1)
        probe = tau.copy()
        probe[:, 0] = 0.5 * tau[:, 1]
        vals = problem.h_kernel(
            s[:, None], probe, u_of(probe), u_of(np.asarray(g(probe), dtype=float))
        )
        vals = np.broadcast_to(np.asarray(vals, dtype=float), probe.shape)
        inner = vals[:, 0] * tau[:, 1] + np.trapezoid(vals[:, 1:], tau[:, 1:], axis=1)
    f_vals = np.asarray(problem.f(s, u_s, u_delayed, inner), dtype=float)
    return np.broadcast_to(f_vals, s.shape)


class _Workspace:
    """Per-grid precomputation shared by all sweeps of one solve."""

    def __init__(self, problem: DelayFFIDE, grid: Grid, subdivisions: int = 64):
        self.problem = problem
        self.grid = grid
        self.subdivisions = subdivisions
        order = problem.order
        self.gamma = order.gamma
        self.t_int = grid.nodes[1:]
        self.x_int = grid.x[1:]
        self.weight = self.x_int ** (1.0 - self.gamma)
        g_int = np.asarray(problem.g(self.t_int), dtype=float)
        self.g_origin = float(np.asarray(problem.g(0.0), dtype=float))
        lo = float(grid.history_nodes[0])
        for label, values in (("grid nodes", g_int), ("t=0", np.array([self.g_origin]))):
            if np.any(values < lo - 1e-12 * max(1.0, abs(lo))):
                raise DelayRangeError(
                    f"delay map at {label} reaches {values.min()} below history start {lo}"
                )
        self.w_init = problem.u0 / gamma_fn(self.gamma)
        # The right-hand side inherits the solution's x^(gamma-1) blow-up only
        # through the homogeneous term; with u0 = 0 (or gamma = 1) F is regular
        # at the origin, u(0+) is finite, and the node-0 sample is real data.
        self.origin_hint = None if (self.gamma == 1.0 or problem.u0 == 0.0) else self.gamma

    def rhs_samples(self, traj: Trajectory) -> np.ndarray:
        """F_u sampled at all grid nodes for the current iterate."""
        problem = self.problem
        u_of = traj.evaluator(problem.psi)
        samples = np.empty(self.grid.nodes.size)
        samples[1:] = _rhs(
            problem, u_of, self.t_int, traj.unweight(traj.weighted_values), self.subdivisions
        )
        if self.origin_hint is None:
            u_origin = traj.initial_weight if self.gamma == 1.0 else 0.0
            u_origin_delayed = float(u_of(np.array([self.g_origin]))[0])
            samples[0] = float(problem.f(0.0, u_origin, u_origin_delayed, 0.0))
        else:
            samples[0] = 0.0  # unused: the hinted quadrature ignores the origin sample
        return samples

    def sweep(self, traj: Trajectory) -> np.ndarray:
        """One application of the integral-equation fixed-point map."""
        # blow-up is detected and raised explicitly, so numpy's overflow
        # warnings during the doomed evaluation are suppressed
        with np.errstate(over="ignore", invalid="ignore"):
            samples = self.rhs_samples(traj)
        if not np.all(np.isfinite(samples)):
            raise DivergenceError("iterate produced a non-finite right-hand side")
        integral = frac_integral_grid(
            self.problem.order.alpha, self.problem.psi, samples, self.grid, self.origin_hint
        )
        return self.w_init + self.weight * integral[1:]


def eval_F(
    problem: DelayFFIDE, traj: Trajectory, s: float, inner_quad_nodes: int
) -> float:
    """The integral-equation right-hand side F at a single time s > 0."""
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"eval_F requires s > 0, got {s!r}")
    if s > traj.grid.horizon + 1e-12:
        raise ValueError(f"s={s} lies beyond the trajectory horizon {traj.grid.horizon}")
    if inner_quad_nodes < 2:
        raise ValueError(f"inner_quad_nodes must be >= 2, got {inner_quad_nodes!r}")
    u_of = partial(trajectory_values, traj, problem.psi)
    return float(_rhs(problem, u_of, np.array([s]), u_of(s), inner_quad_nodes)[0])


def picard_step(problem: DelayFFIDE, traj: Trajectory, config: SolveConfig) -> Trajectory:
    """Apply the fixed-point map once: history is kept, interior is remapped."""
    if traj.gamma != problem.order.gamma:
        raise ValueError(
            f"trajectory gamma {traj.gamma!r} does not match problem gamma "
            f"{problem.order.gamma!r}"
        )
    ws = _Workspace(problem, traj.grid, subdivisions=config.inner_quad_nodes)
    return replace(traj, weighted_values=ws.sweep(traj), initial_weight=ws.w_init)


def _residual_norm(
    delta_w: np.ndarray, x_int: np.ndarray, config: SolveConfig
) -> float:
    if config.norm_kind == "bielecki":
        return float(np.max(np.exp(-config.bielecki_delta * x_int) * np.abs(delta_w)))
    return float(np.max(np.abs(delta_w)))


def _geometric_ratio(residuals: list[float]) -> float:
    logs = [
        math.log(b / a)
        for a, b in zip(residuals, residuals[1:])
        if a > 0.0 and b > 0.0
    ]
    if not logs:
        return float("nan")
    return math.exp(sum(logs) / len(logs))


def certify_contraction(problem: DelayFFIDE) -> tuple[float, float, Optional[str]]:
    """Evaluate Theta and the Bielecki left side at delta = 0.

    Returns (theta, bielecki value, "theta" or None). The Bielecki left
    side grows with delta and equals Theta at delta = 0, so no damping
    certifies a problem that Theta leaves uncertified; the value is
    reported as a diagnostic.
    """
    theta = check_theta(problem)
    bielecki = check_bielecki(problem, 0.0)
    return theta, bielecki, ("theta" if theta < 1.0 else None)


def solve(
    problem: DelayFFIDE,
    config: SolveConfig,
    *,
    grid: Optional[Grid] = None,
) -> SolveResult:
    """Iterate the integral-equation map from the homogeneous initial iterate.

    Stops when the chosen norm of successive weighted differences falls
    to ``config.tol`` or ``config.max_iter`` sweeps have run. Failure to
    converge is reported in the result; non-finite iterates raise
    :class:`DivergenceError`.
    """
    validate_problem(problem)
    if grid is None:
        grid = make_grid(
            problem.psi,
            problem.b,
            config.grid_size,
            problem.r,
            history_size=config.history_size,
            uniform_in=config.grid_uniform_in,
        )
    ws = _Workspace(problem, grid, subdivisions=config.inner_quad_nodes)
    hist = np.broadcast_to(
        np.asarray(problem.phi(grid.history_nodes), dtype=float),
        grid.history_nodes.shape,
    ).astype(float)

    theta, bielecki_value, certificate = certify_contraction(problem)
    warning = None
    if certificate is None:
        warning = (
            f"contraction uncertified: theta={theta:.6g} >= 1, and the damped "
            f"condition is no smaller at any delta; proceeding best-effort"
        )

    traj = Trajectory(
        grid=grid,
        weighted_values=np.full(grid.n_intervals, ws.w_init),
        initial_weight=ws.w_init,
        history_values=hist,
        gamma=problem.order.gamma,
    )
    residuals: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        w_next = ws.sweep(traj)
        if not np.all(np.isfinite(w_next)):
            raise DivergenceError("fixed-point iterate left float64 range")
        res = _residual_norm(w_next - traj.weighted_values, ws.x_int, config)
        residuals.append(res)
        traj = replace(traj, weighted_values=w_next)
        if res <= config.tol:
            converged = True
            break

    return SolveResult(
        trajectory=traj,
        residual_history=residuals,
        observed_ratio=_geometric_ratio(residuals),
        converged=converged,
        iterations=len(residuals),
        theta=theta,
        bielecki_lhs=bielecki_value,
        certified_by=certificate,
        warning=warning,
    )
