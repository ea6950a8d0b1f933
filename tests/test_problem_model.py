from dataclasses import replace

import numpy as np
import pytest

from hilferlab import (
    DelayFFIDE,
    FractionalOrder,
    build_hypothesis_report,
    catalog,
    check_bielecki,
    check_theta,
    estimate_lipschitz,
    estimate_zeta,
    validate_problem,
)

# H3 constant of the worked problem, evaluated by hand:
# 0.1 * (B(1, 0.5)/Gamma(0.5) + 0.1 * B(2, 0.5)/Gamma(0.5))
# = 0.1 * (2 + 0.1 * 4/3) / sqrt(pi)
WORKED_THETA = 0.12036044449018801


class TestFractionalOrder:
    def test_gamma_composition(self):
        assert FractionalOrder(0.5, 1.0).gamma == 1.0
        assert FractionalOrder(0.5, 0.0).gamma == 0.5
        order = FractionalOrder(0.3, 0.4)
        assert order.gamma == pytest.approx(0.3 + 0.4 * 0.7, abs=0.0)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_bounds(self, alpha, beta):
        with pytest.raises(ValueError):
            FractionalOrder(alpha, beta)


class TestProblemValidation:
    def test_worked_problem_is_valid(self, worked_problem):
        validate_problem(worked_problem)

    def test_delay_above_t_rejected(self, worked_problem):
        bad = DelayFFIDE(
            order=worked_problem.order,
            psi=worked_problem.psi,
            f=worked_problem.f,
            h_kernel=None,
            g=lambda t: np.asarray(t, dtype=float) + 0.1,
            phi=worked_problem.phi,
            u0=1.0,
            b=1.0,
            r=0.5,
            lip_f=0.05,
        )
        with pytest.raises(ValueError, match="g\\(t\\) <= t"):
            validate_problem(bad)

    def test_delay_below_history_rejected(self, worked_problem):
        bad = DelayFFIDE(
            order=worked_problem.order,
            psi=worked_problem.psi,
            f=worked_problem.f,
            h_kernel=None,
            g=catalog.make_g("constant_lag", lag=2.0),
            phi=worked_problem.phi,
            u0=1.0,
            b=1.0,
            r=0.5,
            lip_f=0.05,
        )
        with pytest.raises(ValueError, match="history window"):
            validate_problem(bad)

    def test_non_finite_delay_rejected(self, worked_problem):
        # a nan delay passes both range comparisons, so finiteness is checked first
        def nan_late(t):
            return np.where(np.asarray(t) > 0.5, np.nan, np.asarray(t, dtype=float))

        bad = replace(worked_problem, g=nan_late)
        with pytest.raises(ValueError, match="delay map g must be finite"):
            validate_problem(bad)

    def test_scalar_bounds(self, worked_problem):
        with pytest.raises(ValueError):
            DelayFFIDE(
                order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
                h_kernel=None, g=worked_problem.g, phi=worked_problem.phi,
                u0=1.0, b=-1.0, r=0.5, lip_f=0.05,
            )
        with pytest.raises(ValueError):
            DelayFFIDE(
                order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
                h_kernel=None, g=worked_problem.g, phi=worked_problem.phi,
                u0=1.0, b=1.0, r=0.5, lip_f=-0.05,
            )


class TestTheta:
    def test_worked_value(self, worked_problem):
        assert check_theta(worked_problem) == pytest.approx(WORKED_THETA, rel=1e-12)

    def test_zero_lipschitz(self, worked_problem):
        quiet = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
            h_kernel=worked_problem.h_kernel, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.0, lip_h=0.1,
        )
        assert check_theta(quiet) == 0.0

    def test_linear_in_lip_f(self, worked_problem):
        doubled = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
            h_kernel=worked_problem.h_kernel, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.1, lip_h=0.1,
        )
        assert check_theta(doubled) == pytest.approx(2.0 * WORKED_THETA, rel=1e-12)

    def test_monotone_in_constants_and_horizon(self, worked_problem):
        base = check_theta(worked_problem)
        for field, value in (("lip_f", 0.08), ("lip_h", 0.4), ("b", 1.7)):
            kwargs = dict(
                order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
                h_kernel=worked_problem.h_kernel, g=worked_problem.g,
                phi=worked_problem.phi, u0=1.0, b=1.0, r=0.5, lip_f=0.05, lip_h=0.1,
            )
            kwargs[field] = value
            assert check_theta(DelayFFIDE(**kwargs)) > base


class TestBielecki:
    def test_worked_value_at_zero(self, worked_problem):
        assert check_bielecki(worked_problem, 0.0) == pytest.approx(WORKED_THETA, rel=1e-12)

    def test_matches_theta_at_zero_damping(self, worked_problem):
        # B(g,a)/Gamma(a) = Gamma(g)/Gamma(g+a) makes the two groupings equal
        assert check_bielecki(worked_problem, 0.0) == pytest.approx(
            check_theta(worked_problem), rel=1e-12
        )

    def test_zero_lipschitz(self, worked_problem):
        quiet = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
            h_kernel=worked_problem.h_kernel, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.0, lip_h=0.1,
        )
        assert check_bielecki(quiet, 0.7) == 0.0

    def test_strictly_increasing_in_delta(self, worked_problem):
        values = [check_bielecki(worked_problem, d) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_delta_rejected(self, worked_problem):
        with pytest.raises(ValueError):
            check_bielecki(worked_problem, -0.1)


class TestEstimateZeta:
    def test_identity(self, identity_psi):
        lo, hi = estimate_zeta(identity_psi, 1.0)
        assert lo == 1.0 and hi == 1.0

    def test_exponential(self):
        lo, hi = estimate_zeta(catalog.make_psi("exponential"), 1.0)
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(np.e, rel=1e-12)


class TestEstimateLipschitz:
    def test_zero_f(self, worked_problem):
        quiet = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi,
            f=catalog.make_f("zero"), h_kernel=None, g=worked_problem.g,
            phi=worked_problem.phi, u0=1.0, b=1.0, r=0.5, lip_f=0.0,
        )
        lip_f, lip_h = estimate_lipschitz(quiet, 200, (-1.0, 1.0), seed=1)
        assert lip_f == 0.0 and lip_h == 0.0

    def test_linear_f_exact_constant(self, worked_problem):
        linear = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi,
            f=catalog.make_f("linear", c1=0.05, c2=0.05, c3=0.05),
            h_kernel=None, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.05,
        )
        lip_f, lip_h = estimate_lipschitz(linear, 1000, (-1.0, 1.0), seed=7)
        assert lip_f <= 0.05 + 1e-15  # never exceeds the true constant
        assert lip_f == pytest.approx(0.05, abs=1e-12)
        assert lip_h == 0.0

    def test_sin_is_one_lipschitz(self, worked_problem):
        wavy = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi,
            f=catalog.make_f("scaled_sin", amplitude=1.0),
            h_kernel=None, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=1.0,
        )
        lip_f, _ = estimate_lipschitz(wavy, 500, (-2.0, 2.0), seed=3)
        assert lip_f <= 1.0 + 1e-12

    def test_kernel_sampled_at_s_below_t(self, worked_problem):
        # (t - s) ** 1.5 is nan for s > t, and pytest turns its RuntimeWarning into an error
        scale, degree = 0.7, 1.5
        power = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
            h_kernel=catalog.make_h("polynomial", scale=scale, degree=degree),
            g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.5, r=0.5, lip_f=0.05, lip_h=scale * 1.5 ** degree,
        )
        _, lip_h = estimate_lipschitz(power, 500, (-1.0, 1.0), seed=5)
        assert np.isfinite(lip_h) and 0.0 < lip_h <= scale * power.b ** degree

    def test_deterministic_in_seed(self, worked_problem):
        a = estimate_lipschitz(worked_problem, 300, (-1.0, 1.0), seed=11)
        b = estimate_lipschitz(worked_problem, 300, (-1.0, 1.0), seed=11)
        c = estimate_lipschitz(worked_problem, 300, (-1.0, 1.0), seed=12)
        assert a == b
        assert a != c

    def test_degenerate_box(self, worked_problem):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_lipschitz(worked_problem, 100, (1.0, 1.0), seed=0)

    def test_sample_count_floor(self, worked_problem):
        with pytest.raises(ValueError):
            estimate_lipschitz(worked_problem, 1, (-1.0, 1.0), seed=0)


class TestHypothesisReport:
    def test_worked_report(self, worked_problem):
        report = build_hypothesis_report(worked_problem, delta=0.0, seed=0)
        assert report.theta_ok and report.bielecki_ok
        assert report.theta == pytest.approx(WORKED_THETA, rel=1e-12)
        assert report.zeta == 1.0 and report.zeta_inf == 1.0
        assert not report.lipschitz_exceeds_declared
        # declared constants are true upper bounds for the worked problem
        assert report.lipschitz_spot_check[0] <= 0.05 + 1e-12
        assert report.lipschitz_spot_check[1] <= 0.1 + 1e-12

    def test_understated_constant_is_flagged(self, worked_problem):
        lying = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
            h_kernel=worked_problem.h_kernel, g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.01, lip_h=0.1,
        )
        report = build_hypothesis_report(lying, seed=0)
        assert report.lipschitz_exceeds_declared
