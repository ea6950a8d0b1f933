"""Successive-approximation solver for the equivalent integral equation.

The differential problem is solved through its integral form

    u(t) = (psi(t)-psi(0))^(gamma-1)/Gamma(gamma) * u0
           + I^{alpha;psi}[ F_u ](t),
    F_u(s) = f(s, u(s), u(g(s)), int_0^s h(s,tau,u(tau),u(g(tau))) dtau),

iterated from the homogeneous term until successive iterates stop moving
in the weighted sup-norm. Each sweep samples F_u at all grid nodes, t = 0
included, in one batch with one call of f, takes the Volterra term of
every node from one batched trapezoidal rule, and applies the
product-integration operator from
:mod:`hilferlab.psi_calculus`; the homogeneous term is added in weighted
form, where its origin singularity cancels exactly. :func:`eval_F`
evaluates the same F_u at a single time.

A solve splits its work into what the iterate does not change and what
it does. The workspace fixes, once per solve: the probe stage
(:func:`hilferlab.psi_calculus.probe`) of every time at which F reads u,
that is g(t_0..t_N) and, with a Volterra kernel, the (N+1, M+1)
quadrature times and their delays, and the powers x^(1-gamma) and
x^(gamma-1) of the nodes. Without delay (g(t) = t at every node) F reads
u(s) itself. A probed time <= 0 reads u = phi exactly, by one call of
phi. A sweep recomputes only what depends on the iterate: u at the
probed times (one interpolation and one multiply each), f and h, the
fractional integral (one rfft and one irfft of the stack; the kernel
spectrum and the origin hint's correction are memoized on the grid),
and the new node values, in place in the integral's fresh array. The loop runs on
arrays of node values and builds one Trajectory at the end.

Where F is finite at the origin (gamma = 1 or u0 = 0) the product
trapezoid alone is first order: F carries powers x^q at 0 and, past the
first breaking point xi of g (g(xi) = 0 < g(t) after it), powers
(x - x_xi)^q and a jump where phi(0) != u(0+). The workspace finds xi
from g and takes the power fits and their correction columns from the
grid (each built once per grid, all columns in one call); each sweep
fits the coefficients to the samples of F next to each point and adds
the columns, as the origin hint does for its own powers, and F reads
u(g(t)) through the fitted origin powers. The same sweeps are then
second order (Lubich's correction, Bellen & Zennaro's breaking points).

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
    Correction,
    Grid,
    Trajectory,
    add_corrections,
    frac_integral_grid,
    make_grid,
    node_fit,
    power_columns,
    power_exponents,
    probe,
)
from .special_functions import gamma as gamma_fn


@dataclass(frozen=True)
class SolveConfig:
    """Discretization and stopping controls for one solve."""

    grid_size: int = 1000
    inner_quad_nodes: int = 64
    tol: float = 1e-10
    max_iter: int = 200
    bielecki_delta: float = 0.0  # the delta of check's Bielecki bound; a solve ignores it
    grid_uniform_in: str = "psi"

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
        if self.grid_uniform_in not in ("psi", "t"):
            raise ValueError(f"grid_uniform_in must be 'psi' or 't', got {self.grid_uniform_in!r}")
        if not 0.0 <= self.bielecki_delta < math.inf:
            raise ValueError(
                f"bielecki_delta must be >= 0 and finite, got {self.bielecki_delta!r}"
            )


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
    problem: DelayFFIDE,
    probe_at: Callable,
    s: np.ndarray,
    lags: np.ndarray,
    subdivisions: int,
    origin_powers: tuple,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """F_u at the 1-D array of times s >= 0, as a function of (node values of w, u(s)).

    The node values may be one row (N+1,) or a (P, N+1) stack, with u(s)
    stacked alike; f is called once on the whole stack, and the result
    has one row of F per row of the stack.

    ``lags`` holds g(s). ``probe_at(times)`` is the probe stage of evaluating u (see
    :func:`hilferlab.psi_calculus.probe`); every time at which F reads u
    is probed here, once, except g(s) where g(s) = s. u(g(s)) is read
    through the fitted ``origin_powers``; the Volterra batch reads plain
    interpolation, since its own rule errs more and a correction would
    cost a pass over the whole batch every sweep. The Volterra term
    int_0^s h(s, tau, u(tau), u(g(tau))) dtau is one trapezoidal rule per
    row of a (len(s), subdivisions + 1) batch. The first subinterval uses
    the midpoint sample so that u, which may blow up like a negative power
    at tau = 0+, is never evaluated at 0; a row with s = 0 integrates to 0.

    Where the delay leaves the origin forward, g(0) = 0 < g(s_1), F at s = 0
    reads u(g(0+)) = u(0+), the node-0 value of u(s), not the history's phi(0).
    """
    g, h, f = problem.g, problem.h_kernel, problem.f
    delayed = None if np.array_equal(lags, s) else probe_at(lags, origin_powers=origin_powers)
    forward = delayed is not None and s.size > 1 and s[0] == lags[0] == 0.0 < lags[1]
    zero = np.zeros_like(s)  # the Volterra term without h
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
        steps = np.diff(times[:, 1:], axis=1)  # fixed: a sweep redoes np.trapezoid's arithmetic

    def volterra(w_nodes: np.ndarray) -> np.ndarray:
        vals = h(rows, times, current(w_nodes), lagged(w_nodes))
        vals = np.broadcast_to(np.asarray(vals, dtype=float), times.shape)
        return vals[:, 0] * times[:, 1] + (steps * (vals[:, 2:] + vals[:, 1:-1]) / 2.0).sum(1)

    def rhs(w_nodes: np.ndarray, u_s: np.ndarray) -> np.ndarray:
        if h is None:
            inner = zero
        elif w_nodes.ndim == 1:
            inner = volterra(w_nodes)
        else:  # per row: a stacked batch would multiply the (len(s), M+1) probes by P
            inner = np.array([volterra(w) for w in w_nodes])
        u_lag = u_s if delayed is None else delayed(w_nodes)
        if forward:
            u_lag[..., 0] = u_s[..., 0]
        f_vals = np.asarray(f(s, u_s, u_lag, inner), dtype=float)
        shape = w_nodes.shape[:-1] + s.shape
        return f_vals if f_vals.shape == shape else np.broadcast_to(f_vals, shape)

    return rhs


def _breaking_point(problem: DelayFFIDE, grid: Grid, lags: np.ndarray) -> Optional[tuple]:
    """(x at the first breaking point xi of g, index of the first node right of it), or None.

    xi is where g reaches 0 and turns positive, so F reads u(g(t)) past it
    and phi(g(t)) up to it. It is None when g stays <= 0 on the grid, and
    when xi = 0: a delay leaving the origin forward breaks nowhere else.
    Off the grid, xi is the last float of its bracket where g <= 0.
    """
    right = np.flatnonzero(lags > 0.0)
    k = int(right[0]) if right.size else 0
    if k == 0 or (k == 1 and lags[0] == 0.0):
        return None
    lo, hi = float(grid.nodes[k - 1]), float(grid.nodes[k])
    while lags[k - 1] < 0.0 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if float(np.asarray(problem.g(np.array([mid])), dtype=float)[0]) <= 0.0:
            lo = mid
        else:
            hi = mid
    x_xi = grid.x[k - 1] if lo == grid.nodes[k - 1] else float(problem.psi.shifted(lo))
    return float(x_xi), k


def _origin_fit(problem: DelayFFIDE, grid: Grid) -> tuple[list, np.ndarray]:
    """(powers, inverse) of the power fit of F and u at 0+ (see :class:`_Workspace`).

    Empty when gamma < 1 and u0 != 0: F then carries x^(gamma-1) and the
    quadrature's origin hint takes over.
    """
    if problem.order.gamma < 1.0 and problem.u0 != 0.0:
        return [], np.zeros((0, 0))
    return node_fit(grid, power_exponents(problem.order.alpha))


class _Workspace:
    """Everything of one solve that the iterate does not change (see the module docstring).

    A sweep maps the node values ``[w0, w_1..w_N]`` of one iterate to the
    next, sampling F at every node, t = 0 included, in one batch. u at
    node 0 is u(0+): w0 when gamma = 1, else 0, which is exact when
    u0 = 0; with u0 != 0 the origin hint makes the quadrature discard that
    sample.

    With gamma = 1 or u0 = 0, F and u are regular at the origin: sums of
    powers x^q (q in :func:`~hilferlab.psi_calculus.power_exponents`, as
    many as :func:`~hilferlab.psi_calculus.power_fit` keeps) plus a smooth
    rest. Past the first breaking point xi of g, F adds such powers of
    x - x_xi, and a jump where phi(0) != u(0+). F reads u(g(t)) through
    the origin powers' fit (see :func:`~hilferlab.psi_calculus.probe`). Each
    sweep fits the coefficients of the non-integer powers, of the jump
    and, off the grid, of the kink (x - x_xi)_+, from the samples of F
    next to each point, and adds as many correction columns
    (:func:`~hilferlab.psi_calculus.power_columns`) to the integral: one
    :class:`~hilferlab.psi_calculus.Correction` per point, of the same
    form as the origin hint's.
    """

    def __init__(self, problem: DelayFFIDE, grid: Grid, subdivisions: int):
        self.problem = problem
        self.grid = grid
        gamma = problem.order.gamma
        self.weight = grid.x ** (1.0 - gamma)
        self.unweight = np.concatenate(([float(gamma == 1.0)], grid.x[1:] ** (gamma - 1.0)))
        self.w_init = problem.u0 / gamma_fn(gamma)
        # The right-hand side inherits the solution's x^(gamma-1) blow-up only
        # through the homogeneous term; with u0 = 0 (or gamma = 1) F is regular
        # at the origin, u(0+) is finite, and the node-0 sample is real data.
        self.origin_hint = None if (gamma == 1.0 or problem.u0 == 0.0) else gamma
        powers, inverse = _origin_fit(problem, grid)
        self.origin_powers = tuple(powers)
        lags = np.asarray(problem.g(grid.nodes), dtype=float)
        probe_at = partial(probe, grid, problem.psi, gamma, problem.phi)
        self.rhs = _rhs(problem, probe_at, grid.nodes, lags, subdivisions, self.origin_powers)
        self.corrections = self._corrections(powers, inverse, lags) if powers else []

    def _corrections(self, powers: list, inverse: np.ndarray, lags: np.ndarray) -> list:
        """The origin's and xi's fits and correction columns (see the class docstring)."""
        problem, grid = self.problem, self.grid
        # (first node of the columns, fit nodes, fit, (q, shift) of each column);
        # a fit row maps F at the fit nodes to the coefficient of its column
        groups = []
        # the origin: F ~ sum_q a_q x^q, fitted from the samples at nodes 0..J-1
        odd = [i for i, q in enumerate(powers) if q != round(q)]
        if odd:
            own = [(powers[i], 0.0) for i in odd]
            groups.append((1, np.arange(len(powers)), inverse[odd], own))
        groups += self._breaking_point_group(lags)
        terms = list(dict.fromkeys(term for group in groups for term in group[3]))
        rows = dict(zip(terms, power_columns(grid, problem.order.alpha, terms))) if terms else {}
        return [Correction(first, nodes, fit, np.array([rows[term][first:] for term in own]))
                for first, nodes, fit, own in groups]

    def _breaking_point_group(self, lags: np.ndarray) -> list:
        """The fit and columns past the first breaking point xi of g, as one group, or none."""
        problem, grid = self.problem, self.grid
        alpha, x, n = problem.order.alpha, grid.x, grid.n_intervals
        point = _breaking_point(problem, grid, lags)
        if point is None:
            return []
        x_xi, k = point
        on_grid = x_xi == x[k - 1]
        # past xi: F minus its left side's quadratic extrapolation is
        # sum_q c_q (x - x_xi)^q, fitted from the J samples right of xi (from
        # node k + 1 off the grid, which keeps the fit's points h apart)
        u_right = self.w_init if problem.order.gamma == 1.0 else 0.0
        jump = float(np.ravel(problem.phi(np.zeros(1)))[0]) != u_right
        exponents = [0.0] * jump + [q for q in power_exponents(alpha) if q > 0.0]
        first = k + (not on_grid)
        if k < 3 or first + len(exponents) > n + 1:
            return []
        kept, inverse = node_fit(grid, exponents, first, x_xi)
        apply = [i for i, q in enumerate(kept) if q != round(q) or q == 0.0 or not on_grid]
        if not apply:
            return []
        right, left = np.arange(first, first + len(kept)), np.arange(k - 3, k)
        # the Lagrange weights of the quadratic through the left samples, at the right nodes
        xl = x[left].tolist()
        extrap = np.array([[math.prod((xr - xl[b]) / (xl[a] - xl[b]) for b in range(3) if b != a)
                            for a in range(3)] for xr in x[right].tolist()])
        fit = inverse[apply]
        fit = np.hstack((fit, -(fit[:, :, None] * extrap).sum(1)))
        return [(k, np.concatenate((right, left)), fit, [(kept[i], x_xi) for i in apply])]

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
            add_corrections(integral, samples, self.corrections)
            integral *= self.weight  # in place: the integral is fresh, of the stack's shape
            return np.add(integral, self.w_init, out=integral)  # I = 0 at node 0


def eval_F(problem: DelayFFIDE, traj: Trajectory, s: float, config: SolveConfig) -> float:
    """The integral-equation right-hand side F at a single time s > 0.

    The Volterra term takes ``config.inner_quad_nodes`` panels, and u(s)
    and u(g(s)) are read through the problem's fitted origin powers, as in
    a solve.
    """
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"eval_F requires s > 0, got {s!r}")
    if s > traj.grid.horizon + 1e-12:
        raise ValueError(f"s={s} lies beyond the trajectory horizon {traj.grid.horizon}")
    probe_at = partial(probe, traj.grid, problem.psi, traj.gamma, traj.phi)
    powers = tuple(_origin_fit(problem, traj.grid)[0])
    times = np.array([s])
    rhs = _rhs(problem, probe_at, times, np.asarray(problem.g(times), dtype=float),
               config.inner_quad_nodes, powers)
    w_nodes = traj.node_values()
    return float(rhs(w_nodes, probe_at(times, origin_powers=powers)(w_nodes))[0])


def picard_step(problem: DelayFFIDE, traj: Trajectory, config: SolveConfig) -> Trajectory:
    """Apply the fixed-point map once: the interior is remapped, the history is problem.phi."""
    if traj.gamma != problem.order.gamma:
        raise ValueError(
            f"trajectory gamma {traj.gamma!r} does not match problem gamma "
            f"{problem.order.gamma!r}"
        )
    ws = _Workspace(problem, traj.grid, config.inner_quad_nodes)
    w_next = ws.sweep(traj.node_values())
    return replace(traj, weighted_values=w_next[1:], initial_weight=ws.w_init, phi=problem.phi)


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

    Stops when the sup-norm of successive weighted differences falls
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
        res = np.max(np.abs(w_next[:, 1:] - w[:, 1:]), axis=1)
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
            phi=problem.phi,
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
