import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from hilferlab import (
    DelayFFIDE,
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
    uhml_constant,
    verify_uhml,
)
from hilferlab.stability_lab import _shape_profile, perturbed_problem

from conftest import ml_series

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
        assert np.array_equal(base.history_values, forced.history_values)
        assert forced.initial_weight == base.initial_weight


class TestVerifyUhml:
    @pytest.mark.parametrize(
        "shape", ["constant", "sinusoid", "square_wave", "smooth_random"]
    )
    def test_worked_problem_passes(self, worked_problem, shape):
        config = SolveConfig(grid_size=400)
        report = verify_uhml(
            worked_problem, Perturbation(epsilon=1e-2, shape=shape, seed=2), config
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
        report = verify_uhml(
            worked_problem, Perturbation(epsilon=1e-3, shape="square_wave"), config
        )
        n_hist = report.profile_times[report.profile_times <= 0.0].size
        assert np.all(report.ratio_profile[:n_hist] == 0.0)

    def test_base_reuse(self, worked_problem):
        # the comparison runs on the base's grid, not on the one the config describes
        config = SolveConfig(grid_size=150)
        grid = make_grid(worked_problem.psi, 1.0, 149, 0.5)
        base = solve(worked_problem, config, grid=grid)
        pert = Perturbation(epsilon=1e-2, shape="sinusoid")
        report = verify_uhml(worked_problem, pert, config, base=base)
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
        report = verify_uhml(
            problem, Perturbation(epsilon=1e-2, shape="constant"), SolveConfig(grid_size=100)
        )
        assert report.envelope_caveat  # psi(b)-psi(0) < 1


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
        with pytest.raises(ValueError):
            pachpatte_envelope(t, ones, -ones, ones)
        with pytest.raises(ValueError):
            pachpatte_envelope(t, 1.0 - t, ones, ones)  # decreasing eta
        with pytest.raises(ValueError):
            pachpatte_envelope(t, 0.0 * t, ones, ones)  # not positive
        with pytest.raises(ValueError):
            pachpatte_envelope(t, ones, ones[:-1], ones)  # shape mismatch


class TestPerturbedProblemWrapper:
    def test_forcing_enters_rhs_only(self, worked_problem):
        grid = make_grid(worked_problem.psi, 1.0, 50, 0.5)
        pert = Perturbation(epsilon=1e-2, shape="constant")
        forced = perturbed_problem(pert, worked_problem, grid)
        assert forced.u0 == worked_problem.u0
        assert forced.phi is worked_problem.phi
        t = grid.nodes[1:]
        envelope = mittag_leffler_values(
            MlfParams(alpha=0.5), worked_problem.psi.shifted(t) ** 0.5
        )
        base_vals = worked_problem.f(t, t, t, t)
        forced_vals = forced.f(t, t, t, t)
        assert np.allclose(forced_vals - base_vals, 1e-2 * envelope, rtol=1e-12)
