from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from hilferlab import (
    DelayFFIDE,
    DivergenceError,
    FractionalOrder,
    MlfParams,
    Perturbation,
    SolveConfig,
    catalog,
    frac_integral_grid,
    make_grid,
    mittag_leffler_values,
    ml_envelope,
    pachpatte_envelope,
    solve,
    solve_perturbed,
    trajectory_values,
    uhml_constant,
    verify_uhml,
)
from hilferlab.picard_solver import solve_stacked
from hilferlab.stability_lab import _node_envelope, _realize, _shape_profile

from conftest import make_worked_problem, ml_series

# uhml constant of the worked problem, frozen from the independent series:
# A = 0.1/Gamma(1.5) + 0.1 = 0.21283791670955127
# C = 1 + 0.1 * E_{1,1.5}(A) = 1 + 0.1 * 1.3029875693916502
WORKED_A = 0.21283791670955127
WORKED_C = 1.130298756939165


def quiet_problem(u0=1.0, beta=1.0, alpha=0.5):
    """f == 0, h absent: the perturbation drives the whole deviation."""
    return DelayFFIDE(
        order=FractionalOrder(alpha=alpha, beta=beta),
        psi=catalog.make_psi("identity"),
        f=catalog.make_f("zero"),
        h_kernel=None,
        g=catalog.make_g("no_delay"),
        phi=catalog.make_phi("constant", value=1.0),
        u0=u0, b=1.0, r=0.5, lip_f=0.0,
    )


class TestPerturbation:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            Perturbation(epsilon=0.0, shape="constant")
        with pytest.raises(ValueError):
            Perturbation(epsilon=-1e-3, shape="constant")

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            Perturbation(epsilon=1e-2, shape="noise")

    @pytest.mark.parametrize("shape", ["constant", "sinusoid", "square_wave", "smooth_random"])
    def test_profiles_bounded_by_one(self, shape):
        pert = Perturbation(epsilon=1e-2, shape=shape, seed=5)
        t = np.linspace(1e-3, 1.0, 400)
        vals = _shape_profile(pert, t, 1.0)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    def test_smooth_random_normalized_exactly(self):
        pert = Perturbation(epsilon=1e-2, shape="smooth_random", seed=9)
        t = np.linspace(1e-3, 1.0, 500)
        vals = _shape_profile(pert, t, 1.0)
        assert np.max(np.abs(vals)) == 1.0

    def test_smooth_random_deterministic_by_seed(self):
        t = np.linspace(1e-3, 1.0, 100)
        a = _shape_profile(Perturbation(1e-2, "smooth_random", seed=3), t, 1.0)
        b = _shape_profile(Perturbation(1e-2, "smooth_random", seed=3), t, 1.0)
        c = _shape_profile(Perturbation(1e-2, "smooth_random", seed=4), t, 1.0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestUhmlConstant:
    def test_zero_lip_f_gives_one(self):
        assert uhml_constant(quiet_problem()) == 1.0

    def test_worked_value(self, worked_problem):
        c = uhml_constant(worked_problem)
        assert c == pytest.approx(WORKED_C, rel=1e-9)

    def test_matches_series_oracle(self, worked_problem):
        expected = 1.0 + 0.1 * ml_series(1.0, 1.5, WORKED_A)
        assert uhml_constant(worked_problem) == pytest.approx(expected, rel=1e-12)

    def test_nondecreasing_in_horizon(self, worked_problem):
        values = []
        for b in (0.5, 1.0, 1.5, 2.0):
            problem = DelayFFIDE(
                order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
                h_kernel=worked_problem.h_kernel, g=worked_problem.g,
                phi=worked_problem.phi, u0=1.0, b=b, r=0.5, lip_f=0.05, lip_h=0.1,
            )
            values.append(uhml_constant(problem))
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestSolvePerturbed:
    def test_forced_quiet_problem_matches_integral_identity(self):
        # f == 0, shape == 1: v - u = eps * I^alpha[envelope], which the
        # summation identity collapses to eps * (envelope - 1)
        problem = quiet_problem()
        config = SolveConfig(grid_size=1000)
        grid = make_grid(problem.psi, problem.b, 1000, problem.r)
        eps = 1e-2
        base = solve(problem, config, grid=grid)
        forced = solve_perturbed(
            problem, Perturbation(epsilon=eps, shape="constant"), config, grid=grid
        )
        diff = forced.weighted_values - base.trajectory.weighted_values
        envelope = ml_envelope(problem.order.alpha, problem.psi, grid.nodes[1:])
        expected = eps * (envelope - 1.0)
        assert np.max(np.abs(diff - expected)) <= 5e-3 * eps
        # and it never leaves the admissibility envelope
        assert np.all(np.abs(diff) <= eps * envelope * (1.0 + 1e-9))

    def test_linearity_in_epsilon(self, worked_problem):
        config = SolveConfig(grid_size=300, tol=1e-12)
        grid = make_grid(worked_problem.psi, worked_problem.b, 300, worked_problem.r)
        base = solve(worked_problem, config, grid=grid).trajectory
        small = solve_perturbed(
            worked_problem, Perturbation(epsilon=1e-3, shape="sinusoid"), config, grid=grid
        )
        large = solve_perturbed(
            worked_problem, Perturbation(epsilon=2e-3, shape="sinusoid"), config, grid=grid
        )
        d_small = small.weighted_values - base.weighted_values
        d_large = large.weighted_values - base.weighted_values
        assert np.max(np.abs(d_large - 2.0 * d_small)) <= 1e-8

    def test_history_untouched(self, worked_problem):
        config = SolveConfig(grid_size=100)
        grid = make_grid(worked_problem.psi, worked_problem.b, 100, worked_problem.r)
        base = solve(worked_problem, config, grid=grid).trajectory
        forced = solve_perturbed(
            worked_problem, Perturbation(epsilon=1e-2, shape="constant"), config, grid=grid
        )
        assert np.array_equal(trajectory_values(base, worked_problem.psi, grid.history_nodes),
                              trajectory_values(forced, worked_problem.psi, grid.history_nodes))
        assert forced.initial_weight == base.initial_weight


class TestVerifyUhml:
    @pytest.mark.parametrize(
        "shape", ["constant", "sinusoid", "square_wave", "smooth_random"]
    )
    def test_worked_problem_passes(self, worked_problem, shape):
        config = SolveConfig(grid_size=400)
        [report] = verify_uhml(
            worked_problem, [Perturbation(epsilon=1e-2, shape=shape, seed=2)], config
        )
        assert report.converged
        assert report.passed
        assert report.shape == shape
        assert report.c_theoretical == pytest.approx(WORKED_C, rel=1e-9)
        assert 0.0 < report.c_empirical <= report.c_theoretical
        assert report.kappa_used == 1.0
        assert report.a_used == pytest.approx(WORKED_A, rel=1e-12)
        assert not report.envelope_caveat

    def test_history_ratios_exactly_zero(self, worked_problem):
        config = SolveConfig(grid_size=200)
        [report] = verify_uhml(
            worked_problem, [Perturbation(epsilon=1e-3, shape="square_wave")], config
        )
        n_hist = report.profile_times[report.profile_times <= 0.0].size
        assert np.all(report.ratio_profile[:n_hist] == 0.0)

    def test_base_reuse(self, worked_problem):
        # the comparison runs on the base's grid, not on the one the config describes
        config = SolveConfig(grid_size=150)
        grid = make_grid(worked_problem.psi, 1.0, 149, 0.5)
        base = solve(worked_problem, config, grid=grid)
        pert = Perturbation(epsilon=1e-2, shape="sinusoid")
        [report] = verify_uhml(worked_problem, [pert], config, base=base)
        assert report.passed
        times = np.concatenate((grid.history_nodes, grid.nodes[1:]))
        assert np.array_equal(report.profile_times, times)

    def test_envelope_caveat_short_horizon(self):
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=1.0),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c1=0.05),
            h_kernel=None,
            g=catalog.make_g("no_delay"),
            phi=catalog.make_phi("constant", value=1.0),
            u0=1.0, b=0.5, r=0.25, lip_f=0.05,
        )
        [report] = verify_uhml(
            problem, [Perturbation(epsilon=1e-2, shape="constant")], SolveConfig(grid_size=100)
        )
        assert report.envelope_caveat  # psi(b)-psi(0) < 1


#: Rows of one stacked run; the larger forcings take more sweeps to reach the tolerance.
STACK_PERTURBATIONS = [
    Perturbation(epsilon=1e-8, shape="constant"),
    Perturbation(epsilon=1e-1, shape="sinusoid"),
    Perturbation(epsilon=10.0, shape="square_wave"),
    Perturbation(epsilon=1e3, shape="smooth_random", seed=3),
]
STACK_CASES = ["uhml_suite", "worked", "gamma_exp_psi", "uniform_in_t", "scaled_sin",
               "gamma_one_exp_psi"]


def stack_case(name):
    """(problem, config) of one stacked-run case, see TestStackedRun."""
    if name == "worked":  # its linear h runs the Volterra batch once per row
        return make_worked_problem(), SolveConfig(grid_size=160)
    exp_psi = name in ("gamma_exp_psi", "uniform_in_t", "gamma_one_exp_psi")
    f = (catalog.make_f("scaled_sin", amplitude=0.05) if name == "scaled_sin"
         else catalog.make_f("linear", c1=0.05, c2=0.05))
    problem = DelayFFIDE(
        # gamma = 0.8 with u0 != 0 takes the starting weights; gamma = 1 on exponential psi
        # reads u between nodes and breaks off the grid, so it fits the origin powers there
        order=(FractionalOrder(alpha=0.6, beta=0.5) if name in ("gamma_exp_psi", "uniform_in_t")
               else FractionalOrder(0.5, 1.0)),
        psi=catalog.make_psi("exponential" if exp_psi else "identity"),
        f=f, h_kernel=None,
        g=catalog.make_g("constant_lag", lag=0.5),
        phi=catalog.make_phi("cosine"),
        u0=1.0, b=1.0, r=0.5, lip_f=0.05,
    )
    uniform_in = "t" if name == "uniform_in_t" else "psi"  # "t": the panel path
    return problem, SolveConfig(grid_size=160, grid_uniform_in=uniform_in)


def stack_forcing(problem, grid, perts=STACK_PERTURBATIONS):
    """The realized forcing of each perturbation at the nodes of grid, one row each."""
    envelope = _node_envelope(problem.order.alpha, problem.psi, grid)
    return np.array([_realize(p, problem, grid, envelope) for p in perts])


class TestStackedRun:
    @pytest.mark.parametrize("name", STACK_CASES)
    def test_stack_matches_one_perturbation_at_a_time(self, name):
        problem, config = stack_case(name)
        base = solve(problem, config)
        grid = base.trajectory.grid
        forcing = stack_forcing(problem, grid)
        sweeps = [r.iterations for r in solve_stacked(problem, config, forcing, base=base)]
        assert len(set(sweeps)) > 1  # the rows leave the stack at different sweeps
        # one sweep short of the slowest row, that row ends unconverged and the others not
        short = replace(config, max_iter=max(sweeps) - 1)
        for cfg in (config, short):
            results = solve_stacked(problem, cfg, forcing, base=base)
            assert [r.converged for r in results] == [n <= cfg.max_iter for n in sweeps]
            for row, result in zip(forcing, results, strict=True):
                alone = solve(problem, cfg, grid=grid, forcing=row)
                assert result.iterations == alone.iterations
                assert result.residual_history == alone.residual_history
                assert result.converged == alone.converged
                assert np.array_equal(result.trajectory.weighted_values,
                                      alone.trajectory.weighted_values)
            reports = verify_uhml(problem, STACK_PERTURBATIONS, cfg, base=base)
            for pert, report in zip(STACK_PERTURBATIONS, reports, strict=True):
                [alone] = verify_uhml(problem, [pert], cfg, base=base)
                assert np.array_equal(report.ratio_profile, alone.ratio_profile)
                assert report.c_empirical == alone.c_empirical
                assert report.converged == alone.converged
                assert (report.shape, report.epsilon) == (pert.shape, pert.epsilon)

    def test_f_called_once_per_stacked_sweep(self, worked_problem):
        # f sees the rows still iterating, all of them in one call
        seen = []

        def counted(t, u1, u2, u3):
            seen.append((np.shape(t), np.shape(u1), np.shape(u2), np.shape(u3)))
            return worked_problem.f(t, u1, u2, u3)

        problem = replace(worked_problem, f=counted)
        config = SolveConfig(grid_size=120)
        base = solve(problem, config)
        forcing = stack_forcing(problem, base.trajectory.grid)
        seen.clear()
        sweeps = [r.iterations for r in solve_stacked(problem, config, forcing, base=base)]
        rows = [sum(n > k for n in sweeps) for k in range(max(sweeps))]
        assert seen == [((121,), (p, 121), (p, 121), (p, 121)) for p in rows]
        assert rows[0] == len(STACK_PERTURBATIONS) and rows[-1] == 1

    def test_sequence_gives_reports_in_order(self, worked_problem):
        config = SolveConfig(grid_size=100)
        reports = verify_uhml(worked_problem, reversed(STACK_PERTURBATIONS), config)
        assert [(r.shape, r.epsilon) for r in reports] == [
            (p.shape, p.epsilon) for p in reversed(STACK_PERTURBATIONS)]
        assert verify_uhml(worked_problem, [], config) == []

    def test_diverging_row_raises(self):
        # the base converges (uncertified); the huge forcing of the second row overflows
        problem = DelayFFIDE(
            order=FractionalOrder(alpha=0.5, beta=1.0),
            psi=catalog.make_psi("identity"),
            f=catalog.make_f("linear", c1=2.0), h_kernel=None,
            g=catalog.make_g("no_delay"), phi=catalog.make_phi("constant", value=1.0),
            u0=1.0, b=1.0, r=0.5, lip_f=2.0,
        )
        config = SolveConfig(grid_size=100)
        assert solve(problem, config).converged
        perts = [Perturbation(epsilon=1e-2, shape="constant"),
                 Perturbation(epsilon=1e307, shape="constant")]
        with pytest.raises(DivergenceError, match="left float64 range"):
            verify_uhml(problem, perts, config)


@dataclass
class LinearF:
    """f = c * u(g(t)) as a plain dataclass with __call__: eq without hash, so unhashable."""

    c: float

    def __call__(self, t, u1, u2, u3):
        return self.c * u2


def test_unhashable_f_solves_and_verifies(worked_problem):
    # nothing keys a cache on the problem, so its functions need not be hashable
    unhashable = replace(worked_problem, f=LinearF(0.05))
    with pytest.raises(TypeError, match="unhashable"):
        hash(unhashable)
    hashable = replace(worked_problem, f=lambda t, u1, u2, u3: 0.05 * u2)
    config = SolveConfig(grid_size=100)
    perts = STACK_PERTURBATIONS[:2]
    def run(problem):
        return (solve(problem, config), verify_uhml(problem, perts, config),
                solve_perturbed(problem, perts[0], config))

    (base, reports, forced), (base_ref, reports_ref, forced_ref) = run(unhashable), run(hashable)
    assert base.converged
    assert np.array_equal(base.trajectory.weighted_values, base_ref.trajectory.weighted_values)
    for report, ref in zip(reports, reports_ref, strict=True):
        assert report.converged
        assert np.array_equal(report.ratio_profile, ref.ratio_profile)
    assert np.array_equal(forced.weighted_values, forced_ref.weighted_values)


class TestMlEnvelope:
    def test_nondecreasing(self, identity_psi):
        t = np.linspace(0.0, 1.0, 200)
        env = ml_envelope(0.5, identity_psi, t)
        assert env[0] == 1.0
        assert np.all(np.diff(env) >= 0.0)

    def test_envelope_integral_telescopes(self, identity_psi):
        # I^alpha applied to the envelope reproduces envelope - 1
        alpha = 0.5
        grid = make_grid(identity_psi, 1.0, 800, 0.5)
        env = ml_envelope(alpha, identity_psi, grid.nodes)
        got = frac_integral_grid(alpha, identity_psi, env, grid)
        ref = env - 1.0
        assert np.max(np.abs(got - ref)) <= 5e-3 * np.max(np.abs(ref))


def iterate_inequality(t, eta, p, q, damping=0.9, sweeps=60):
    """Forward-iterate x = eta + damping * int p (x + int q x): a function
    satisfying the hypothesis inequality with margin."""
    x = eta.copy()
    for _ in range(sweeps):
        inner = cumulative_trapezoid(q * x, t, initial=0.0)
        x_new = eta + damping * cumulative_trapezoid(p * (x + inner), t, initial=0.0)
        if np.max(np.abs(x_new - x)) < 1e-14:
            x = x_new
            break
        x = x_new
    return x


class TestPachpatte:
    def test_no_growth_term(self):
        t = np.linspace(0.0, 1.0, 200)
        eta = 1.0 + t
        env = pachpatte_envelope(t, eta, np.zeros_like(t), np.zeros_like(t))
        assert np.array_equal(env, eta)

    def test_classical_gronwall_closed_form(self):
        t = np.linspace(0.0, 1.0, 500)
        c = 1.0
        env = pachpatte_envelope(t, np.ones_like(t), np.full_like(t, c), np.zeros_like(t))
        assert np.max(np.abs(env - np.exp(c * t))) <= 1e-3

    def test_dominates_synthetic_solution(self):
        t = np.linspace(0.0, 1.0, 400)
        eta = 1.0 + 0.5 * t
        p = np.full_like(t, 0.8)
        q = np.full_like(t, 0.3)
        x = iterate_inequality(t, eta, p, q, damping=0.9)
        env = pachpatte_envelope(t, eta, p, q)
        assert np.all(x <= env + 1e-12)

    def test_matches_scipy_cumulative_trapezoid(self):
        # the numpy running sum is scipy's cumulative_trapezoid bit for bit
        rng = np.random.default_rng(7)
        t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.001, 0.01, 399))))
        eta = 1.0 + np.cumsum(rng.uniform(0.0, 0.01, t.size))
        p, q = rng.uniform(0.0, 2.0, t.size), rng.uniform(0.0, 1.0, t.size)
        inner = cumulative_trapezoid(p + q, t, initial=0.0)
        outer = cumulative_trapezoid(p * np.exp(inner), t, initial=0.0)
        assert np.array_equal(pachpatte_envelope(t, eta, p, q), eta * (1.0 + outer))

    def test_validation(self):
        t = np.linspace(0.0, 1.0, 50)
        ones = np.ones_like(t)
        with pytest.raises(ValueError, match="p and q must be nonnegative"):
            pachpatte_envelope(t, ones, -ones, ones)
        with pytest.raises(ValueError, match="eta must be nondecreasing"):
            pachpatte_envelope(t, 2.0 - t, ones, ones)  # decreasing eta
        with pytest.raises(ValueError, match="eta must be positive"):
            pachpatte_envelope(t, 0.0 * t, ones, ones)
        with pytest.raises(ValueError, match="must share one shape"):
            pachpatte_envelope(t, ones, ones[:-1], ones)


class TestForcing:
    @pytest.mark.parametrize("shape", ["constant", "sinusoid", "square_wave"])
    def test_forcing_is_eps_shape_envelope(self, worked_problem, shape):
        grid = make_grid(worked_problem.psi, 1.0, 50, 0.5)
        pert = Perturbation(epsilon=1e-2, shape=shape)
        envelope = _node_envelope(0.5, worked_problem.psi, grid)
        forcing = _realize(pert, worked_problem, grid, envelope)
        t = grid.nodes
        expected = mittag_leffler_values(
            MlfParams(alpha=0.5), worked_problem.psi.shifted(t) ** 0.5
        )
        assert np.array_equal(envelope, expected)
        assert np.array_equal(forcing, 1e-2 * _shape_profile(pert, t, 1.0) * expected)
        # node 0 carries the right limit eps * shape(0+), where the envelope is 1
        assert envelope[0] == 1.0
        assert forcing[0] == (0.0 if shape == "sinusoid" else 1e-2)

    def test_f_called_once_per_sweep_of_both_solves(self, worked_problem):
        calls = []

        def counted(t, u1, u2, u3):
            calls.append(np.shape(t))
            return worked_problem.f(t, u1, u2, u3)

        problem = replace(worked_problem, f=counted)
        config = SolveConfig(grid_size=200)
        pert = Perturbation(epsilon=1e-2, shape="sinusoid")
        verify_uhml(problem, [pert], config)
        seen = len(calls)
        base = solve(problem, config)
        grid = base.trajectory.grid
        forced = solve(problem, config, grid=grid, forcing=stack_forcing(problem, grid, [pert])[0])
        assert seen == base.iterations + forced.iterations
        assert set(calls) == {(201,)}

    def test_wrong_shaped_forcing_rejected(self, worked_problem):
        config = SolveConfig(grid_size=100)
        grid = make_grid(worked_problem.psi, 1.0, 100, 0.5)
        for forcing in (np.zeros(100), np.zeros(102), np.zeros((101, 1))):
            with pytest.raises(ValueError, match="forcing has shape"):
                solve(worked_problem, config, grid=grid, forcing=forcing)
