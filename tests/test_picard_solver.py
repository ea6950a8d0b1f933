import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from hilferlab import (
    DelayFFIDE,
    DelayRangeError,
    DivergenceError,
    FractionalOrder,
    SolveConfig,
    Trajectory,
    catalog,
    eval_F,
    make_grid,
    picard_step,
    solve,
    trajectory_values,
)
from hilferlab.picard_solver import _Workspace, grid_for
from hilferlab.psi_calculus import power_exponents, probe

from conftest import delay_steps_solution, make_linear_problem, ml_series


COARSE = SolveConfig(inner_quad_nodes=32)  # 32 Volterra panels for eval_F


def constant_state_problem(c3_only=False):
    """f picks one argument; convenient for eval_F projections."""
    selector = {"c3": 1.0} if c3_only else {"c1": 1.0}
    return DelayFFIDE(
        order=FractionalOrder(alpha=0.5, beta=1.0),
        psi=catalog.make_psi("identity"),
        f=catalog.make_f("linear", **selector),
        h_kernel=None,
        g=catalog.make_g("no_delay"),
        phi=catalog.make_phi("constant", value=4.0),
        u0=4.0,
        b=1.0,
        r=0.5,
        lip_f=1.0,
    )


def pantograph(t, alpha=0.5, c2=0.5):
    """u(t) of D^alpha u = c2 u(t/2), u(0) = 1, gamma = 1: sum_k a_k t^(k alpha).

    The power rule gives a_(k+1) = c2 2^(-k alpha) Gamma(k alpha + 1)/Gamma((k+1) alpha + 1) a_k.
    """
    total, coef = 0.0, 1.0
    for k in range(200):
        total += coef * t ** (k * alpha)
        coef *= c2 * 2.0 ** (-k * alpha) * math.gamma(k * alpha + 1.0)
        coef /= math.gamma((k + 1) * alpha + 1.0)
        if coef < 1e-30:
            return total
    raise RuntimeError("pantograph series did not converge")


def flat_trajectory(problem, n=64, value=4.0):
    """A trajectory holding u == value on (0, b], and the problem's phi on [-r, 0]."""
    grid = make_grid(problem.psi, problem.b, n, problem.r)
    gamma = problem.order.gamma
    x = problem.psi.shifted(grid.nodes[1:])
    traj = Trajectory(
        grid=grid,
        weighted_values=value * x ** (1.0 - gamma),
        initial_weight=value if gamma == 1.0 else 0.0,
        phi=problem.phi,
        gamma=gamma,
    )
    return grid, traj


class TestEvalF:
    def test_inner_integral_of_nothing(self):
        problem = constant_state_problem(c3_only=True)  # f returns the inner integral
        grid, traj = flat_trajectory(problem)
        assert eval_F(problem, traj, 0.5, COARSE) == 0.0

    def test_projection_of_state(self):
        problem = constant_state_problem()
        grid, traj = flat_trajectory(problem, value=4.0)
        assert eval_F(problem, traj, 0.5, COARSE) == pytest.approx(4.0, rel=1e-12)

    def test_constant_kernel_measures_length(self):
        base = constant_state_problem(c3_only=True)
        problem = DelayFFIDE(
            order=base.order, psi=base.psi, f=base.f,
            h_kernel=catalog.make_h("linear", d0=1.0),  # h == 1
            g=base.g, phi=base.phi, u0=4.0, b=1.0, r=0.5, lip_f=1.0, lip_h=0.0,
        )
        grid, traj = flat_trajectory(problem)
        assert eval_F(problem, traj, 0.5, SolveConfig()) == pytest.approx(0.5, rel=1e-12)

    def test_requires_positive_time(self):
        problem = constant_state_problem()
        grid, traj = flat_trajectory(problem)
        with pytest.raises(ValueError):
            eval_F(problem, traj, 0.0, COARSE)

    def test_delay_below_history_window(self):
        base = constant_state_problem()
        problem = DelayFFIDE(
            order=base.order, psi=base.psi, f=base.f, h_kernel=None,
            g=catalog.make_g("constant_lag", lag=0.6),
            phi=base.phi, u0=4.0, b=1.0, r=0.5, lip_f=1.0,
        )
        grid, traj = flat_trajectory(problem)
        with pytest.raises(DelayRangeError):
            eval_F(problem, traj, 0.05, COARSE)

    def test_delay_between_history_nodes_reads_phi(self):
        # s - lag = -0.2 lies between two of the 129 history nodes; F reads phi there
        # exactly, where linear interpolation of those samples would be off by about 1e-5
        base = constant_state_problem()
        problem = DelayFFIDE(
            order=base.order, psi=base.psi, f=catalog.make_f("linear", c1=0.5, c2=1.0),
            h_kernel=None, g=catalog.make_g("constant_lag", lag=0.5),
            phi=catalog.make_phi("cosine", amplitude=1.0, frequency=3.0),
            u0=4.0, b=1.0, r=0.5, lip_f=1.0,
        )
        grid, traj = flat_trajectory(problem)
        s = 0.3
        assert not np.any(grid.history_nodes == s - 0.5)
        u_s = trajectory_values(traj, problem.psi, s)
        expected = problem.f(s, u_s, problem.phi(np.array([s - 0.5]))[0], 0.0)
        assert eval_F(problem, traj, s, COARSE) == pytest.approx(expected, rel=0, abs=1e-15)


def _inner_integral_per_node(h_kernel, s, u_of, g, subdivisions):
    """Reference: the Volterra term at one time s, one trapezoidal rule."""
    tau = np.linspace(0.0, s, subdivisions + 1)
    mid = 0.5 * tau[1]
    probe = np.concatenate(([mid], tau[1:]))
    u_probe = u_of(probe)
    ug_probe = u_of(np.asarray(g(probe), dtype=float))
    vals = np.asarray(
        h_kernel(s, probe, u_probe, ug_probe), dtype=float
    )
    vals = np.broadcast_to(vals, probe.shape)
    first = vals[0] * tau[1]
    rest = np.trapezoid(vals[1:], tau[1:]) if subdivisions >= 2 else 0.0
    return float(first + rest)


class TestBatchedVolterra:
    @pytest.mark.parametrize("uniform_in, beta, u0", [
        pytest.param(uniform_in, beta, u0, id=f"{case}{uniform_in}")
        for case, beta, u0 in (("", 0.5, 1.0), ("gamma1-", 1.0, 1.0), ("u0_zero-", 0.5, 0.0))
        for uniform_in in ("psi", "t")
    ])
    def test_matches_per_node_rule(self, uniform_in, beta, u0):
        # hinted (gamma < 1, u0 != 0), u blows up at 0+, so the midpoint probe matters
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.6, beta=beta),
            psi=catalog.make_psi("exponential"),
            f=catalog.make_f("linear", c0=0.2, c1=-0.3, c2=0.4, c3=0.5),
            h_kernel=catalog.make_h("polynomial", scale=0.7, degree=1.5),
            g=catalog.make_g("proportional_lag", scale=0.5, lag=0.2),
            phi=catalog.make_phi("cosine", amplitude=0.5, frequency=2.0),
            u0=u0, b=1.0, r=0.5, lip_f=0.5, lip_h=0.7,
        )
        grid = make_grid(problem.psi, problem.b, 200, problem.r, uniform_in=uniform_in)
        gamma = problem.order.gamma
        x = grid.x[1:]
        traj = Trajectory(
            grid=grid,
            weighted_values=1.0 + 0.5 * np.sin(3.0 * x),
            initial_weight=u0 / math.gamma(gamma),
            phi=problem.phi,
            gamma=gamma,
        )
        ws = _Workspace(problem, grid, subdivisions=64)
        assert (ws.origin_hint is None) == (gamma == 1.0 or u0 == 0.0)
        assert bool(ws.origin_powers) == (ws.origin_hint is None)
        w_nodes = traj.node_values()
        samples = ws.rhs(w_nodes, w_nodes * ws.unweight)
        assert np.all(np.isfinite(samples))

        t_int = grid.nodes[1:]
        u_of = partial(trajectory_values, traj, problem.psi)
        inner = np.array(
            [_inner_integral_per_node(problem.h_kernel, float(s), u_of, problem.g, 64)
             for s in t_int]
        )
        # F reads u(g(t)) through the solver's fit of the origin powers
        lag_t = problem.g(t_int)
        lagged = probe(grid, problem.psi, gamma, problem.phi, lag_t, ws.origin_powers)(w_nodes)
        expected = problem.f(t_int, traj.unweight(traj.weighted_values), lagged, inner)
        assert np.array_equal(samples[1:], expected)
        # that read is the plain one plus b_q times the plain read's error on x^q, with
        # sum_q b_q x^q fitted to u at nodes 0..J-1
        plain = u_of(lag_t)
        independent, coefs = plain.copy(), np.zeros(0)
        if ws.origin_powers:
            qs = np.array(ws.origin_powers)
            xs = grid.x[: qs.size]
            u_fit = np.concatenate(([traj.initial_weight if gamma == 1.0 else 0.0],
                                    traj.weighted_values[: qs.size - 1] * xs[1:] ** (gamma - 1.0)))
            coefs = np.linalg.solve(xs[:, None] ** qs, u_fit)
            ahead = lag_t > 0.0
            xl = problem.psi.shifted(lag_t[ahead])
            for q, b in zip(qs, coefs):
                read = xl ** (gamma - 1.0) * np.interp(xl, grid.x, grid.x ** (q + 1.0 - gamma))
                independent[ahead] += b * (xl ** q - read)
            assert np.max(np.abs(lagged - plain)) > 1e-8
        # each term b_q (x^q - read) rounds to about |b_q| ulps of x^q <= 1
        assert np.max(np.abs(lagged - independent)) <= 1e-15 * (1.0 + np.abs(coefs).sum())

        i = 137
        assert eval_F(problem, traj, t_int[i], SolveConfig()) == pytest.approx(
            samples[i + 1], rel=1e-13)

        # unhinted, the node-0 sample is F(0) = f(0, u(0+), u(g(0)), 0) with u(0+) = w0
        # when gamma = 1 and 0 when u0 = 0; hinted, the quadrature discards it
        if ws.origin_hint is None:
            u_origin = traj.initial_weight if gamma == 1.0 else 0.0
            f_origin = problem.f(0.0, u_origin, u_of(problem.g(np.array([0.0])))[0], 0.0)
            assert samples[0] == f_origin

    def test_undelayed_rhs_reads_u_at_the_nodes(self):
        # g(s) = s: F reads u(s) itself, w_i x_i^(gamma-1) at node i; on exponential psi,
        # interpolating at psi.shifted(t_i), an ulp off x_i, is off by about 1e-16
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.6, beta=0.5),
            psi=catalog.make_psi("exponential"),
            f=catalog.make_f("linear", c0=0.2, c1=-0.3, c2=0.7),
            h_kernel=None,
            g=catalog.make_g("no_delay"),
            phi=catalog.make_phi("cosine", amplitude=0.5, frequency=2.0),
            u0=1.0, b=1.0, r=0.5, lip_f=0.7,
        )
        grid = make_grid(problem.psi, problem.b, 400, problem.r)
        gamma = problem.order.gamma
        traj = Trajectory(
            grid=grid,
            weighted_values=1.0 + 0.5 * np.sin(3.0 * grid.x[1:]),
            initial_weight=1.0 / math.gamma(gamma),
            phi=problem.phi,
            gamma=gamma,
        )
        ws = _Workspace(problem, grid, subdivisions=64)
        u = traj.unweight(traj.weighted_values)
        expected = [problem.f(grid.nodes[1:], c * u, c * u, 0.0) for c in (1.0, 2.0)]
        w_nodes = traj.node_values()
        samples = ws.rhs(w_nodes, w_nodes * ws.unweight)
        assert np.array_equal(samples[1:], expected[0])
        stack = np.stack((w_nodes, 2.0 * w_nodes))
        samples = ws.rhs(stack, stack * ws.unweight)
        assert np.array_equal(samples[:, 1:], expected)

    def test_one_f_call_per_sweep(self, worked_problem):
        calls = []

        def counting_f(t, u1, u2, u3):
            calls.append(np.shape(t))
            return worked_problem.f(t, u1, u2, u3)

        problem = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi, f=counting_f,
            h_kernel=worked_problem.h_kernel, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.05, lip_h=0.1,
        )
        result = solve(problem, SolveConfig(grid_size=64))
        assert result.iterations > 1
        assert calls == [(65,)] * result.iterations


class TestPicardStep:
    def test_zero_rhs_fixes_homogeneous_term(self):
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=0.5),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("zero"),
            h_kernel=None,
            g=catalog.make_g("no_delay"),
            phi=catalog.make_phi("constant", value=1.0),
            u0=1.0, b=1.0, r=0.5, lip_f=0.0,
        )
        grid, traj = flat_trajectory(problem, n=32, value=0.0)
        stepped = picard_step(problem, traj, SolveConfig(grid_size=32))
        w_init = 1.0 / math.gamma(problem.order.gamma)
        assert np.allclose(stepped.weighted_values, w_init, rtol=0, atol=1e-15)
        assert stepped.initial_weight == pytest.approx(w_init, abs=0.0)
        assert stepped.phi is problem.phi

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_unit_rhs_power_rule(self, beta):
        # u0=0, f == 1: u(t) = t^alpha/Gamma(alpha+1), weighted t^(alpha+1-gamma)
        alpha = 0.5
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=alpha, beta=beta),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c0=1.0),
            h_kernel=None,
            g=catalog.make_g("no_delay"),
            phi=catalog.make_phi("constant", value=0.0),
            u0=0.0, b=1.0, r=0.5, lip_f=0.01,
        )
        grid, traj = flat_trajectory(problem, n=800, value=0.0)
        stepped = picard_step(problem, traj, SolveConfig(grid_size=800))
        gamma = problem.order.gamma
        t = grid.nodes[1:]
        ref = t ** (alpha + 1.0 - gamma) / math.gamma(alpha + 1.0)
        assert np.max(np.abs(stepped.weighted_values - ref)) <= 2e-5


class TestSolve:
    def test_homogeneous_problem_single_iteration(self):
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.4, beta=0.25),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("zero"),
            h_kernel=None,
            g=catalog.make_g("no_delay"),
            phi=catalog.make_phi("constant", value=1.0),
            u0=1.0, b=1.0, r=0.5, lip_f=0.0,
        )
        result = solve(problem, SolveConfig(grid_size=64))
        assert result.converged and result.iterations == 1
        assert result.residual_history == [0.0]
        gamma = problem.order.gamma
        w_init = 1.0 / math.gamma(gamma)
        assert np.allclose(result.trajectory.weighted_values, w_init, atol=1e-15)
        # u(t) = u0 (psi(t)-psi(0))^(gamma-1) / Gamma(gamma)
        t_probe = 0.37
        assert trajectory_values(result.trajectory, problem.psi, t_probe) == pytest.approx(
            t_probe ** (gamma - 1.0) / math.gamma(gamma), rel=1e-9
        )

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_linear_problem_mittag_leffler_form(self, beta):
        problem = make_linear_problem(beta)
        result = solve(problem, SolveConfig(grid_size=600, tol=1e-12))
        assert result.converged
        gamma = problem.order.gamma
        t = result.trajectory.grid.nodes[1:]
        ref = np.array([ml_series(0.5, gamma, 0.2 * tt**0.5) for tt in t])
        err = np.max(np.abs(result.trajectory.weighted_values - ref))
        assert err <= 5e-4

    def test_pure_delay_decouples(self):
        # g(t) = t - r with r >= b: F never sees the unknown, one step suffices
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=1.0),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c2=1.0),
            h_kernel=None,
            g=catalog.make_g("constant_lag", lag=1.0),
            phi=catalog.make_phi("cosine", amplitude=1.0, frequency=1.0),
            u0=1.0, b=1.0, r=1.0, lip_f=1.0,
        )
        # history lookups read phi itself, so only the quadrature errs
        result = solve(problem, SolveConfig(grid_size=1500))
        assert result.converged
        assert result.iterations == 2
        assert result.residual_history[-1] == 0.0

        # independent oracle: u(t) = u0 + (1/Gamma(a)) int_0^t (t-s)^(a-0.5... )
        alpha = 0.5
        for t_probe in (0.3, 0.7, 1.0):
            oracle, _ = quad(
                lambda s: math.cos(s - 1.0), 0.0, t_probe,
                weight="alg", wvar=(0.0, alpha - 1.0),
            )
            expected = 1.0 + oracle / math.gamma(alpha)
            got = trajectory_values(result.trajectory, problem.psi, t_probe)
            assert got == pytest.approx(expected, abs=2e-6)

    @pytest.mark.parametrize("alpha", [0.3, 0.75])
    @pytest.mark.parametrize("n", [250, 1000])
    def test_origin_sample_is_exact_on_linear_forcing(self, alpha, n):
        # gamma = 1, u(g(t)) = phi(t - 1) = 0.5 + 0.5 t on [0, 1]: F is linear in t,
        # the product trapezoid is exact on it, and so is the solve, if F(0) is right
        c2 = 0.2
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=alpha, beta=1.0),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c2=c2),
            h_kernel=None,
            g=catalog.make_g("constant_lag", lag=1.0),
            phi=catalog.make_phi("linear", intercept=1.0, slope=0.5),
            u0=1.0, b=1.0, r=1.0, lip_f=c2,
        )
        result = solve(problem, SolveConfig(grid_size=n))
        assert result.converged
        x = result.trajectory.grid.x[1:]
        exact = 1.0 + c2 * (0.5 * x ** alpha / math.gamma(alpha + 1.0)
                            + 0.5 * x ** (alpha + 1.0) / math.gamma(alpha + 2.0))
        assert np.max(np.abs(result.trajectory.weighted_values - exact)) <= 1e-12

    @pytest.mark.parametrize("beta,u0,phi0,c0,g,exact", [
        # gamma = 1: u = E_0.5(0.5 t^0.5), u(0+) = 1
        (1.0, 1.0, 0.0, 0.0, ("no_delay", {}), lambda t: ml_series(0.5, 1.0, 0.5 * t**0.5)),
        # gamma = 0.75, u0 = 0: u = t^0.5 E_{0.5,1.5}(0.5 t^0.5), u(0+) = 0
        (0.5, 0.0, 1.0, 1.0, ("no_delay", {}),
         lambda t: t**0.5 * ml_series(0.5, 1.5, 0.5 * t**0.5)),
        # gamma = 1, g(t) = t/2 (pantograph): u = sum_k a_k t^(k/2), F reads u between nodes
        (1.0, 1.0, 0.0, 0.0, ("proportional_lag", {"scale": 0.5}), pantograph),
    ], ids=["gamma-one", "zero-u0", "pantograph"])
    def test_delay_leaving_origin_forward_reads_right_limit(self, beta, u0, phi0, c0, g, exact):
        # g(0) = 0 < g(t) leaves 0 forward, so F(0) reads u(0+), not phi(0): reading phi(0)
        # puts an O(h^0.5) error into the first panel and the order drops to 0.5
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=beta),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c0=c0, c2=0.5),
            h_kernel=None,
            g=catalog.make_g(g[0], **g[1]),
            phi=catalog.make_phi("constant", value=phi0),
            u0=u0, b=1.0, r=0.5, lip_f=0.5,
        )
        errors = []
        for n in (250, 500, 1000, 2000):
            traj = solve(problem, SolveConfig(grid_size=n, tol=1e-14)).trajectory
            want = np.array([exact(t) for t in traj.grid.nodes[1:]])
            errors.append(np.max(np.abs(traj.unweight(traj.weighted_values) - want)))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all(ratios >= 1.9), ratios

    def test_fixed_point_residual(self, worked_problem):
        config = SolveConfig(grid_size=300, tol=1e-10)
        result = solve(worked_problem, config)
        assert result.converged
        stepped = picard_step(worked_problem, result.trajectory, config)
        gamma = worked_problem.order.gamma
        diff = np.max(np.abs(stepped.weighted_values - result.trajectory.weighted_values))
        assert diff <= 2.0 * config.tol

    def test_weighted_initial_condition(self):
        problem = make_linear_problem(0.5)
        result = solve(problem, SolveConfig(grid_size=200))
        w_init = 1.0 / math.gamma(problem.order.gamma)
        # the stored t->0+ weighted limit is the homogeneous coefficient exactly
        assert abs(result.trajectory.initial_weight - w_init) <= 1e-6

    def test_contraction_rate_bounded_by_theta(self, worked_problem):
        result = solve(worked_problem, SolveConfig(grid_size=1000, tol=1e-10))
        assert result.converged
        assert result.theta == pytest.approx(0.12036044449018801, rel=1e-9)
        assert result.observed_ratio <= result.theta + 0.05
        # tail of the residual history is monotone decreasing
        tail = result.residual_history[1:]
        assert all(a > b for a, b in zip(tail, tail[1:]) if a > 0 and b > 0)

    def test_certification_flags(self, worked_problem):
        result = solve(worked_problem, SolveConfig(grid_size=100))
        assert result.certified_by == "theta"
        assert result.warning is None

        loud = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi,
            f=catalog.make_f("linear", c1=1.0, c2=1.0, c3=1.0),
            h_kernel=worked_problem.h_kernel, g=worked_problem.g,
            phi=worked_problem.phi, u0=1.0, b=1.0, r=0.5, lip_f=1.0, lip_h=0.1,
        )
        result = solve(loud, SolveConfig(grid_size=100, max_iter=60))
        assert result.theta >= 1.0
        assert result.certified_by is None
        assert result.warning is not None

    def test_non_convergence_reported(self, worked_problem):
        result = solve(worked_problem, SolveConfig(grid_size=100, max_iter=1))
        assert not result.converged
        assert result.iterations == 1

    def test_divergence_raises(self, worked_problem):
        explosive = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi,
            f=catalog.make_f("linear", c1=1e8),
            h_kernel=None, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=1e8,
        )
        with pytest.raises(DivergenceError):
            solve(explosive, SolveConfig(grid_size=64, max_iter=60))

    def test_reduction_paths_bit_for_bit(self, worked_problem):
        # a callable zero kernel and an absent kernel must agree exactly
        base = dict(
            order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
            g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.05, lip_h=0.0,
        )
        with_zero = DelayFFIDE(h_kernel=catalog.make_h("zero"), **base)
        without = DelayFFIDE(h_kernel=None, **base)
        config = SolveConfig(grid_size=120)
        res_zero = solve(with_zero, config)
        res_none = solve(without, config)
        assert np.array_equal(
            res_zero.trajectory.weighted_values, res_none.trajectory.weighted_values
        )
        assert res_zero.residual_history == res_none.residual_history

    def test_residual_history_length_matches_iterations(self, worked_problem):
        result = solve(worked_problem, SolveConfig(grid_size=100))
        assert len(result.residual_history) == result.iterations

    def test_default_grid_is_grid_for(self):
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=0.5),
            psi=catalog.make_psi("exponential"),
            f=catalog.make_f("linear", c1=0.05),
            h_kernel=None,
            g=catalog.make_g("no_delay"),
            phi=catalog.make_phi("constant", value=1.0),
            u0=1.0, b=1.0, r=0.4, lip_f=0.05,
        )
        config = SolveConfig(grid_size=40, grid_uniform_in="t")
        grid = solve(problem, config).trajectory.grid
        expected = grid_for(problem, config)
        assert np.array_equal(grid.nodes, expected.nodes)
        assert np.array_equal(grid.history_nodes, expected.history_nodes)
        assert grid.history_nodes.size == 129 and not grid.psi_uniform

    def test_delay_landing_just_above_origin(self):
        # g(t) = t - 0.3 lands about 1e-17 above 0 at the node t = 0.3; there
        # psi(t) - psi(0) must not cancel to 0, where u ~ x^(gamma-1) is inf
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.6, beta=0.5),
            psi=catalog.make_psi("shifted_power", rho=1.5),
            f=catalog.make_f("linear", c1=0.05, c2=0.05, c3=0.05),
            h_kernel=catalog.make_h("linear", d1=0.1, d2=0.1),
            g=catalog.make_g("constant_lag", lag=0.3),
            phi=catalog.make_phi("cosine"),
            u0=1.0, b=1.0, r=0.5, lip_f=0.05, lip_h=0.1,
        )
        config = SolveConfig(grid_size=150, inner_quad_nodes=16, grid_uniform_in="t")
        result = solve(problem, config)
        assert result.converged
        assert np.all(np.isfinite(result.trajectory.weighted_values))


#: The coefficients (c1, c2) of the seed-1 ``uhml_suite`` benchmark problem.
UHML_SEED1 = (0.04980373444624767, 0.050023987987430345)


def sup_errors(problem, exact, sizes=(500, 1000, 2000)):
    """Sup error of the weighted values against exact(t) at the interior nodes, per grid size."""
    errors = []
    for n in sizes:
        traj = solve(problem, SolveConfig(grid_size=n, tol=1e-14)).trajectory
        errors.append(np.max(np.abs(traj.weighted_values - exact(traj.grid.nodes[1:]))))
    return np.array(errors)


class TestSecondOrder:
    """Second order against exact solutions: each doubling of N cuts the sup error by >= 3.5."""

    @pytest.mark.parametrize("lag,b,u0", [(0.5, 1.0, 1.0), (0.3, 0.55, 1.0), (0.5, 1.0, 0.7)],
                             ids=["xi-on-grid", "xi-off-grid", "xi-jump"])
    def test_delay_against_method_of_steps(self, lag, b, u0):
        # gamma = 1, g(t) = t - lag: F carries x^q at 0 and (x - lag)^q past lag; the
        # breaking point lag is a node at every N, or (lag 0.3, b 0.55) at none; with
        # u0 != phi(0) = 1, F jumps there
        c1, c2 = UHML_SEED1
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=1.0),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c1=c1, c2=c2),
            h_kernel=None,
            g=catalog.make_g("constant_lag", lag=lag),
            phi=catalog.make_phi("cosine"),
            u0=u0, b=b, r=0.5, lip_f=c2,
        )
        errors = sup_errors(problem, partial(delay_steps_solution, 0.5, c1, c2, lag, u0))
        ratios = errors[:-1] / errors[1:]
        assert np.all(ratios >= 3.5), (errors, ratios)
        if (lag, u0) == (0.5, 1.0):  # the uhml_suite problem
            assert errors[-1] <= 2e-9

    def test_regular_origin_below_gamma_one(self):
        # u0 = 0, gamma = 0.75: F = 1 + 0.05 u is regular at 0, u = x^a E_{a,a+1}(0.05 x^a)
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=0.5),
            psi=catalog.make_psi("exponential"),
            f=catalog.make_f("linear", c0=1.0, c1=0.05),
            h_kernel=None,
            g=catalog.make_g("no_delay"),
            phi=catalog.make_phi("constant", value=1.0),
            u0=0.0, b=1.0, r=0.5, lip_f=0.05,
        )

        def exact(t):
            x = np.expm1(t)
            return x**0.75 * ml_series(0.5, 1.5, 0.05 * x**0.5)  # w = x^(1 - gamma) u

        errors = sup_errors(problem, exact)
        assert np.all(errors[:-1] / errors[1:] >= 3.5), errors

    @pytest.mark.parametrize("alpha", [0.01, 1e-3])
    def test_small_alpha_solves_quickly(self, alpha):
        # the powers offered are bounded and the fit grows them only while it is well
        # conditioned, so a small alpha costs a delay solve no more than alpha = 1/2
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=alpha, beta=1.0),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c1=0.05, c2=0.05),
            h_kernel=None,
            g=catalog.make_g("constant_lag", lag=0.5),
            phi=catalog.make_phi("cosine"),
            u0=1.0, b=1.0, r=0.5, lip_f=0.05,
        )
        assert len(power_exponents(alpha)) <= 8
        start = time.perf_counter()
        result = solve(problem, SolveConfig(grid_size=500))
        assert time.perf_counter() - start < 2.0
        assert result.converged


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_size": 1},
            {"inner_quad_nodes": 1},
            {"tol": 0.0},
            {"max_iter": 0},
            {"grid_uniform_in": "x"},
            {"bielecki_delta": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)
