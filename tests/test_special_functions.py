import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from hilferlab import (
    HilferLabError,
    MlfParams,
    SeriesConvergenceError,
    SeriesRangeError,
    beta_fn,
    gamma,
    mittag_leffler,
)
from hilferlab import special_functions
from hilferlab.psi_calculus import make_grid
from hilferlab.special_functions import mittag_leffler_values, series_radius

from conftest import ORACLE_PSIS, ml_series


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.5)
        with pytest.raises(OverflowError):
            gamma(170.5)

    def test_upper_range_is_finite(self):
        assert math.isfinite(gamma(170.0))

    @given(st.floats(min_value=1e-3, max_value=79.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


class TestBeta:
    def test_known_values(self):
        assert beta_fn(1.0, 0.5) == pytest.approx(2.0, rel=1e-12)
        # Gamma(2) Gamma(0.5) / Gamma(2.5) = 4/3, computed via the gamma oracle
        assert beta_fn(2.0, 0.5) == pytest.approx(1.333333333333333, rel=1e-12)
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_matches_gamma_ratio(self):
        for a, b in [(0.3, 0.9), (1.7, 2.4), (5.0, 0.25)]:
            assert beta_fn(a, b) == pytest.approx(
                gamma(a) * gamma(b) / gamma(a + b), rel=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)


class TestMlfParams:
    def test_defaults(self):
        p = MlfParams(alpha=0.5)
        assert p.beta == 1.0
        assert [f.name for f in dataclasses.fields(MlfParams)] == ["alpha", "beta"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"alpha": 1.0, "beta": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MlfParams(**kwargs)


class TestMittagLeffler:
    def test_at_zero(self):
        assert mittag_leffler(MlfParams(alpha=1.0), 0.0) == pytest.approx(1.0, abs=1e-15)
        assert mittag_leffler(MlfParams(alpha=0.7, beta=0.5), 0.0) == pytest.approx(
            1.0 / gamma(0.5), rel=1e-14
        )

    def test_exponential_case(self):
        assert mittag_leffler(MlfParams(alpha=1.0), 1.0) == pytest.approx(math.e, abs=1e-12)

    def test_half_order_against_erfc_identity(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z); at z=1 this is e * erfc(-1).
        reference = float(np.e * erfc(-1.0))
        assert reference == pytest.approx(5.008980080762283, abs=1e-12)
        assert mittag_leffler(MlfParams(alpha=0.5), 1.0) == pytest.approx(reference, abs=1e-10)

    def test_matches_exp_on_interval(self):
        z = np.linspace(-5.0, 5.0, 50)
        vals = mittag_leffler_values(MlfParams(alpha=1.0), z)
        assert np.max(np.abs(vals - np.exp(z))) <= 1e-9

    def test_matches_cosh_on_interval(self):
        z = np.linspace(0.0, 5.0, 50)
        vals = mittag_leffler_values(MlfParams(alpha=2.0), z**2)
        assert np.max(np.abs(vals - np.cosh(z))) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    def test_nondecreasing_on_nonnegative_axis(self, alpha):
        # E_alpha grows like exp(z^(1/alpha)); cap z so values stay in range
        z_hi = min(8.0, 650.0**alpha)
        for beta in (1.0, alpha + 1.0):
            z = np.linspace(0.0, z_hi, 60)
            vals = mittag_leffler_values(MlfParams(alpha=alpha, beta=beta), z)
            assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize(
        "alpha,beta,z",
        [(0.5, 1.0, 0.7), (0.3, 1.3, 2.0), (1.0, 1.0, -2.0), (0.8, 0.6, 4.0)],
    )
    def test_term_shift_identity(self, alpha, beta, z):
        # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)
        lhs = mittag_leffler(MlfParams(alpha=alpha, beta=beta), z)
        rhs = 1.0 / gamma(beta) + z * mittag_leffler(
            MlfParams(alpha=alpha, beta=alpha + beta), z
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize(
        "alpha,beta,z",
        # the last two have their largest terms at large k, where unscaled
        # 1/Gamma coefficients lose digits
        [(0.4, 1.0, 3.0), (0.6, 1.6, 7.5), (1.0, 2.0, -4.0), (0.3, 1.0, 4.0), (0.25, 1.0, 3.0)],
    )
    def test_against_series_oracle(self, alpha, beta, z):
        ref = ml_series(alpha, beta, z)
        assert mittag_leffler(MlfParams(alpha=alpha, beta=beta), z) == pytest.approx(
            ref, rel=1e-12, abs=1e-11
        )

    def test_argument_range(self):
        assert series_radius(0.3) == 30.0
        assert series_radius(0.29) == 10.0
        with pytest.raises(ValueError):
            mittag_leffler(MlfParams(alpha=0.5), 31.0)
        with pytest.raises(ValueError):
            mittag_leffler(MlfParams(alpha=0.2), -11.0)
        with pytest.raises(ValueError):
            mittag_leffler(MlfParams(alpha=0.5), float("nan"))

    @pytest.mark.parametrize("alpha,z", [(0.5, 31.0), (0.2, 10.5), (0.5, -6.0)])
    def test_refusals_are_series_range_errors(self, alpha, z):
        # a range refusal and a cancellation refusal: the CLI reports both as errors
        with pytest.raises(SeriesRangeError) as info:
            mittag_leffler_values(MlfParams(alpha=alpha), np.array([0.5, z]))
        assert isinstance(info.value, ValueError) and isinstance(info.value, HilferLabError)

    def test_non_convergence_error(self, monkeypatch):
        monkeypatch.setattr(special_functions, "MAX_TERMS", 3)
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler(MlfParams(alpha=1.0), 5.0)

    def test_negative_half_order_cancellation_is_refused(self):
        # E_{1/2}(-6) = e^36 erfc(6) = 0.0928; the alternating series cancels to 2.58.
        assert float(np.exp(36.0) * erfc(6.0)) == pytest.approx(0.0928, abs=1e-4)
        with pytest.raises(ValueError, match=r"SERIES_TOL/eps"):
            mittag_leffler(MlfParams(alpha=0.5), -6.0)

    @pytest.mark.parametrize(
        "alpha,z,name",
        [(0.5, -28.0, r"E_\{0\.5,1\.0\}\(-28\.0\)"),
         (0.3, -10.0, r"E_\{0\.3,1\.0\}\(-10\.0\)"),
         (0.3, 30.0, r"E_\{0\.3,1\.0\}\(30\.0\)")],
    )
    def test_out_of_range_errors_name_the_value(self, alpha, z, name):
        with pytest.raises((ValueError, OverflowError), match=name):
            mittag_leffler(MlfParams(alpha=alpha), z)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_envelope_arguments_against_series_oracle(self, alpha):
        for psi in ORACLE_PSIS.values():
            z = make_grid(psi, 1.0, 2000, 0.5).x ** alpha
            vals = mittag_leffler_values(MlfParams(alpha=alpha), z)
            ref = np.array([ml_series(alpha, 1.0, zi) for zi in z])
            assert np.max(np.abs(vals - ref) / ref) <= 1e-13

    @pytest.mark.parametrize(
        "alpha,beta,z", [(0.5, 1.0, 0.0), (0.4, 1.0, 3.0), (1.0, 2.0, -4.0), (0.6, 1.6, 7.5)]
    )
    def test_point_is_array_of_one(self, alpha, beta, z):
        p = MlfParams(alpha=alpha, beta=beta)
        assert mittag_leffler(p, z) == mittag_leffler_values(p, [z])[0]

    def test_shape_is_preserved(self):
        p = MlfParams(alpha=0.5)
        assert mittag_leffler_values(p, 0.7).shape == ()
        assert mittag_leffler_values(p, np.empty((0,))).shape == (0,)
        z = np.linspace(-1.0, 2.0, 6).reshape(2, 3)
        vals = mittag_leffler_values(p, z)
        assert vals.shape == (2, 3)
        np.testing.assert_array_equal(vals.ravel(), mittag_leffler_values(p, z.ravel()))
