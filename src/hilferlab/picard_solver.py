"""Successive-approximation solver for the equivalent integral equation.

The differential problem is solved through its integral form

    u(t) = (psi(t)-psi(0))^(gamma-1)/Gamma(gamma) * u0
           + I^{alpha;psi}[ F_u ](t),
    F_u(s) = f(s, u(s), u(g(s)), int_0^s h(s,tau,u(tau),u(g(tau))) dtau),

iterated from the homogeneous term until successive iterates stop moving
in the weighted (or damped Bielecki) sup-norm. Each sweep samples F_u at
all grid nodes, t = 0 included, in one batch with one call of f, takes
the Volterra term of every node from one batched trapezoidal rule, and
applies the product-integration operator from
:mod:`hilferlab.psi_calculus`; the homogeneous term is added in weighted
form, where its origin singularity cancels exactly. :func:`eval_F`
evaluates the same F_u at a single time.

A solve splits its work into what the iterate does not change and what
it does. The workspace fixes, once per solve: the history values, the
probe stage (:func:`hilferlab.psi_calculus.probe`) of every time at which
F reads u, that is g(t_0..t_N) and, with a Volterra kernel, the
(N+1, M+1) quadrature times and their delays, and the powers x^(1-gamma)
and x^(gamma-1) of the nodes. A sweep recomputes only what
depends on the iterate: u at the probed times (one interpolation and one
multiply each), f and h, the fractional integral (whose kernel spectra
and starting weights are memoized on the grid), and the new node values.
The loop runs on arrays of node values and builds one Trajectory at the
end.

Iteration is a contraction whenever the smallness constant Theta of
:mod:`hilferlab.problem_model` is below 1; the solver still runs outside
that regime but flags the result as uncertified.

Solves that differ only in their forcing (the perturbed solves of a
stability run) iterate as one (P, N+1) stack of node values
(:func:`solve_stacked`): each sweep calls f once on the stack and
integrates the stack in one call, and each row stops at its own
tolerance, so its result is bit for bit that of its solve alone.
:func:`solve` is the one-row case of the same loop. A solve's only
state is the grid's cache of quadrature weights; results are
deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError
from .problem_model import check_bielecki  # noqa: F401  (unused; bench/spans.py wraps this name)
from .problem_model import DelayFFIDE, check_theta, validate_problem
from .psi_calculus import (
    Grid,
    Trajectory,
    frac_integral_grid,
    make_grid,
    probe,
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
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.norm_kind not in ("weighted", "bielecki"):
            raise ValueError(
                f"norm_kind must be 'weighted' or 'bielecki', got {self.norm_kind!r}"
            )
        if self.grid_uniform_in not in ("psi", "t"):
            raise ValueError(f"grid_uniform_in must be 'psi' or 't', got {self.grid_uniform_in!r}")
        if not 0.0 <= self.bielecki_delta < math.inf:
            raise ValueError(
                f"bielecki_delta must be >= 0 and finite, got {self.bielecki_delta!r}"
            )
        if self.history_size < 1:
            raise ValueError(f"history_size must be >= 1, got {self.history_size!r}")


@dataclass
class SolveResult:
    """Outcome of a fixed-point solve; its diagnostics derive from the residuals and Theta."""

    trajectory: Trajectory
    residual_history: list[float]
    converged: bool
    theta: float
    certified_by: Optional[str] = None

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def observed_ratio(self) -> float:
        """Geometric mean of the ratios of successive positive residuals (nan if none)."""
        res = self.residual_history
        logs = [math.log(b / a) for a, b in zip(res, res[1:]) if a > 0.0 and b > 0.0]
        return math.exp(sum(logs) / len(logs)) if logs else math.nan

    @property
    def warning(self) -> Optional[str]:
        if self.certified_by is not None:
            return None
        return (f"contraction uncertified: theta={self.theta:.6g} >= 1, and the damped "
                f"condition is no smaller at any delta; proceeding best-effort")


def _rhs(
    problem: DelayFFIDE, probe_at: Callable, s: np.ndarray, subdivisions: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """F_u at the 1-D array of times s >= 0, as a function of (node values of w, u(s)).

    The node values may be one row (N+1,) or a (P, N+1) stack, with u(s)
    stacked alike; f is called once on the whole stack, and the result
    has one row of F per row of the stack.

    ``probe_at(times)`` is the probe stage of evaluating u (see
    :func:`hilferlab.psi_calculus.probe`); every time at which F reads u
    is probed here, once. The Volterra term
    int_0^s h(s, tau, u(tau), u(g(tau))) dtau is one trapezoidal rule per
    row of a (len(s), subdivisions + 1) batch. The first subinterval uses
    the midpoint sample so that u, which may blow up like a negative power
    at tau = 0+, is never evaluated at 0; a row with s = 0 integrates to 0.

    Where the delay leaves the origin forward, g(0) = 0 < g(s_1), F at s = 0
    reads u(g(0+)) = u(0+), the node-0 value of u(s), not the history's phi(0).
    """
    g, h, f = problem.g, problem.h_kernel, problem.f
    lags = np.asarray(g(s), dtype=float)
    delayed = probe_at(lags)
    forward = s.size > 1 and s[0] == lags[0] == 0.0 < lags[1]
    if h is not None:
        # the tau nodes of each row, with the first subinterval's midpoint in
        # place of tau = 0; columns 1.. are the trapezoid nodes. This is
        # np.linspace(0, s, subdivisions + 1, axis=1), whose arithmetic changes
        # for every row once one row (s = 0) has step 0.
        times = (s / subdivisions)[:, None] * np.arange(subdivisions + 1.0)
        times[:, -1] = s
        times[:, 0] = 0.5 * times[:, 1]
        current, lagged = probe_at(times), probe_at(np.asarray(g(times), dtype=float))
        rows = s[:, None]

    def volterra(w_nodes: np.ndarray) -> np.ndarray:
        vals = h(rows, times, current(w_nodes), lagged(w_nodes))
        vals = np.broadcast_to(np.asarray(vals, dtype=float), times.shape)
        return vals[:, 0] * times[:, 1] + np.trapezoid(vals[:, 1:], times[:, 1:], axis=1)

    def rhs(w_nodes: np.ndarray, u_s: np.ndarray) -> np.ndarray:
        if h is None:
            inner = np.zeros_like(s)
        elif w_nodes.ndim == 1:
            inner = volterra(w_nodes)
        else:  # per row: a stacked batch would multiply the (len(s), M+1) probes by P
            inner = np.array([volterra(w) for w in w_nodes])
        u_lag = delayed(w_nodes)
        if forward:
            u_lag[..., 0] = u_s[..., 0]
        f_vals = np.asarray(f(s, u_s, u_lag, inner), dtype=float)
        return np.broadcast_to(f_vals, w_nodes.shape[:-1] + s.shape)

    return rhs


class _Workspace:
    """Everything of one solve that the iterate does not change (see the module docstring).

    ``history`` defaults to phi at the history nodes. A sweep maps the
    node values ``[w0, w_1..w_N]`` of one iterate to the next, sampling F
    at every node, t = 0 included, in one batch. u at node 0 is u(0+):
    w0 when gamma = 1, else 0, which is exact when u0 = 0; with u0 != 0
    the origin hint makes the quadrature discard that sample.
    """

    def __init__(self, problem: DelayFFIDE, grid: Grid, subdivisions: int,
                 history: Optional[np.ndarray] = None):
        self.problem = problem
        self.grid = grid
        gamma = problem.order.gamma
        self.weight = grid.x ** (1.0 - gamma)
        self.unweight = np.concatenate(([float(gamma == 1.0)], grid.x[1:] ** (gamma - 1.0)))
        if history is None:
            history = np.broadcast_to(
                np.asarray(problem.phi(grid.history_nodes), dtype=float),
                grid.history_nodes.shape,
            ).astype(float)
        self.history = history
        self.w_init = problem.u0 / gamma_fn(gamma)
        # The right-hand side inherits the solution's x^(gamma-1) blow-up only
        # through the homogeneous term; with u0 = 0 (or gamma = 1) F is regular
        # at the origin, u(0+) is finite, and the node-0 sample is real data.
        self.origin_hint = None if (gamma == 1.0 or problem.u0 == 0.0) else gamma
        probe_at = partial(probe, grid, problem.psi, gamma, history)
        self.rhs = _rhs(problem, probe_at, grid.nodes, subdivisions)

    def sweep(self, w_nodes: np.ndarray, forcing: Optional[np.ndarray] = None) -> np.ndarray:
        """The fixed-point map on node values, one row or a (P, N+1) stack; F gets ``forcing``."""
        # blow-up is detected and raised explicitly, so numpy's overflow
        # warnings during the doomed evaluation are suppressed
        with np.errstate(over="ignore", invalid="ignore"):
            samples = self.rhs(w_nodes, w_nodes * self.unweight)
            if forcing is not None:
                samples = samples + forcing
            if not np.all(np.isfinite(samples)):
                raise DivergenceError("iterate produced a non-finite right-hand side")
            integral = frac_integral_grid(
                self.problem.order.alpha, self.problem.psi, samples, self.grid, self.origin_hint
            )
            return self.w_init + self.weight * integral  # I = 0 at node 0


def eval_F(problem: DelayFFIDE, traj: Trajectory, s: float, config: SolveConfig) -> float:
    """The integral-equation right-hand side F at a single time s > 0.

    The Volterra term takes ``config.inner_quad_nodes`` panels, as in a solve.
    """
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"eval_F requires s > 0, got {s!r}")
    if s > traj.grid.horizon + 1e-12:
        raise ValueError(f"s={s} lies beyond the trajectory horizon {traj.grid.horizon}")
    probe_at = partial(probe, traj.grid, problem.psi, traj.gamma, traj.history_values)
    rhs = _rhs(problem, probe_at, np.array([s]), config.inner_quad_nodes)
    return float(rhs(traj.node_values(), trajectory_values(traj, problem.psi, s))[0])


def picard_step(problem: DelayFFIDE, traj: Trajectory, config: SolveConfig) -> Trajectory:
    """Apply the fixed-point map once: history is kept, interior is remapped."""
    if traj.gamma != problem.order.gamma:
        raise ValueError(
            f"trajectory gamma {traj.gamma!r} does not match problem gamma "
            f"{problem.order.gamma!r}"
        )
    ws = _Workspace(problem, traj.grid, config.inner_quad_nodes, traj.history_values)
    w_next = ws.sweep(traj.node_values())
    return replace(traj, weighted_values=w_next[1:], initial_weight=ws.w_init)


def certify_contraction(problem: DelayFFIDE) -> tuple[float, Optional[str]]:
    """Evaluate Theta; returns (theta, "theta" or None).

    The Bielecki left side grows with delta and equals Theta at delta = 0,
    so no damping certifies a problem that Theta leaves uncertified.
    """
    theta = check_theta(problem)
    return theta, ("theta" if theta < 1.0 else None)


def grid_for(problem: DelayFFIDE, config: SolveConfig) -> Grid:
    """The grid ``config`` describes for ``problem``; a solve without ``grid=`` uses it."""
    return make_grid(
        problem.psi,
        problem.b,
        config.grid_size,
        problem.r,
        history_size=config.history_size,
        uniform_in=config.grid_uniform_in,
    )


def solve(
    problem: DelayFFIDE,
    config: SolveConfig,
    *,
    grid: Optional[Grid] = None,
    forcing: Optional[np.ndarray] = None,
) -> SolveResult:
    """Iterate the integral-equation map from the homogeneous initial iterate.

    ``forcing``, samples z at ``grid.nodes`` (shape (N+1,)), is added to
    F's samples in every sweep: the solve is then of D u = F(u) + z.

    Stops when the chosen norm of successive weighted differences falls
    to ``config.tol`` or ``config.max_iter`` sweeps have run. Failure to
    converge is reported in the result; non-finite iterates raise
    :class:`DivergenceError`. This is the one-row case of
    :func:`solve_stacked`.
    """
    validate_problem(problem)
    checks = certify_contraction(problem)  # before make_grid, which a bad psi breaks
    grid = grid_for(problem, config) if grid is None else grid
    rows = None if forcing is None else np.asarray(forcing, dtype=float)[None]
    return _solve_rows(problem, config, grid, rows, checks)[0]


def solve_stacked(
    problem: DelayFFIDE,
    config: SolveConfig,
    forcing: np.ndarray,
    *,
    base: SolveResult,
) -> list[SolveResult]:
    """Solve D u = F(u) + z for every row z of ``forcing`` (shape (P, N+1)) on base's grid.

    ``base`` is the unforced solve of ``problem``; the rows run on its
    grid and reuse its Theta and certificate. The rows share every sweep:
    one call of f on the (P, N+1) stack, one fractional integral of the
    stack, one finiteness check. A row leaves the stack at the sweep
    where its own residual reaches ``config.tol``, so each result is bit
    for bit that of ``solve(..., forcing=row)`` on that grid. A
    non-finite iterate in any row raises :class:`DivergenceError`.
    """
    return _solve_rows(problem, config, base.trajectory.grid, np.asarray(forcing, dtype=float),
                       (base.theta, base.certified_by))


def _solve_rows(
    problem: DelayFFIDE,
    config: SolveConfig,
    grid: Grid,
    forcing: Optional[np.ndarray],
    checks: tuple[float, Optional[str]],
) -> list[SolveResult]:
    """The one sweep loop: each row of a (P, N+1) ``forcing``, or one unforced row, to its stop."""
    if forcing is not None and forcing.shape[1:] != grid.nodes.shape:
        raise ValueError(
            f"forcing has shape {forcing.shape[1:]} per row, the nodes {grid.nodes.shape}")
    theta, certificate = checks
    ws = _Workspace(problem, grid, config.inner_quad_nodes)

    damping = None
    if config.norm_kind == "bielecki":
        damping = np.exp(-config.bielecki_delta * grid.x[1:])
    n_rows = 1 if forcing is None else forcing.shape[0]
    w = np.full((n_rows, grid.nodes.size), ws.w_init)
    final = np.empty_like(w)
    active = np.arange(n_rows)  # the rows still iterating, in the order of w
    residuals: list[list[float]] = [[] for _ in range(n_rows)]
    for _ in range(config.max_iter):
        if not active.size:
            break
        w_next = ws.sweep(w, forcing)
        if not np.all(np.isfinite(w_next)):
            raise DivergenceError("fixed-point iterate left float64 range")
        change = np.abs(w_next[:, 1:] - w[:, 1:])
        res = np.max(change if damping is None else damping * change, axis=1)
        for row, value in zip(active.tolist(), res.tolist()):
            residuals[row].append(value)
        w = w_next
        done = res <= config.tol
        if done.any():
            final[active[done]] = w[done]
            active, w = active[~done], w[~done]
            forcing = None if forcing is None else forcing[~done]
    final[active] = w
    converged = np.ones(n_rows, dtype=bool)
    converged[active] = False

    results = []
    for values, history, ok in zip(final, residuals, converged.tolist()):
        traj = Trajectory(
            grid=grid,
            weighted_values=values[1:],
            initial_weight=ws.w_init,
            history_values=ws.history,
            gamma=problem.order.gamma,
        )
        results.append(SolveResult(
            trajectory=traj,
            residual_history=history,
            converged=ok,
            theta=theta,
            certified_by=certificate,
        ))
    return results
