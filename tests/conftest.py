"""Shared fixtures and independent oracles for the test suite.

The oracle helpers here deliberately avoid the package's own evaluation
paths: series are summed with math.lgamma, integrals use scipy
quadrature, so expected values are computed independently of the code
under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hilferlab import DelayFFIDE, FractionalOrder, catalog


def ml_series(alpha: float, beta: float, z, tol: float = 1e-16):
    """Brute-force Mittag-Leffler series, independent of the package path.

    ``z`` may be an array; its elements are then summed together, until
    the largest term has stayed below ``tol`` four times.
    """
    if np.ndim(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(z))
        total = np.full(z.shape, 1.0 / math.gamma(beta))
        small = 0
        for k in range(1, 2000):
            mag = np.exp(k * log_abs - math.lgamma(alpha * k + beta))
            total += np.where(z < 0.0, -mag, mag) if k % 2 else mag
            small = small + 1 if np.max(mag) < tol else 0
            if small >= 4:
                return total
        raise RuntimeError("oracle series did not converge")
    total = 0.0
    small = 0
    for k in range(2000):
        if z == 0.0:
            term = 1.0 / math.gamma(beta) if k == 0 else 0.0
        else:
            mag = math.exp(k * math.log(abs(z)) - math.lgamma(alpha * k + beta))
            term = -mag if (z < 0.0 and k % 2 == 1) else mag
        total += term
        small = small + 1 if abs(term) < tol else 0
        if small >= 4:
            return total
    raise RuntimeError("oracle series did not converge")


def delay_steps_solution(alpha: float, c1: float, c2: float, lag: float, u0: float, t):
    """Exact u(t), 0 <= t <= 2 lag, of u = u0 + I^alpha[c1 u + c2 u(s - lag)] with phi = cos.

    Identity psi and gamma = 1, by the method of steps (Bellen & Zennaro,
    *Numerical Methods for Delay Differential Equations*, OUP 2003): with
    cos(s - lag) = sum_m a_m s^m, on [0, lag]

      u = v(t) = u0 E_a(c1 t^a) + c2 sum_m a_m m! t^(a+m) E_{a,a+m+1}(c1 t^a),

    and on [lag, 2 lag], with tau = t - lag and v(s) - cos(s) = sum_p d_p s^p,

      u = v(t) + c2 sum_p d_p Gamma(p+1) tau^(a+p) E_{a,a+p+1}(c1 tau^a).

    a_m m! = cos(m pi/2 - lag), and d_p Gamma(p+1) is u0 c1^k at p = k a,
    c2 a_m m! c1^k at p = (k+1) a + m, and -(-1)^n at p = 2n (from cos).
    Terms below 1e-20 on the times asked for are left out.
    """
    a = alpha
    t = np.asarray(t, dtype=float)

    def series(x, terms):
        """sum of c x^(a+p) E_{a,a+p+1}(c1 x^a) over the (p, c) of terms."""
        out = np.zeros_like(x)
        top = max(float(np.max(x)), 1.0)
        for p, c in terms:
            if abs(c) * top ** (a + p) / math.gamma(a + p + 1.0) > 1e-20:
                out += c * x ** (a + p) * ml_series(a, a + p + 1.0, c1 * x**a)
        return out

    taylor = [math.cos(m * math.pi / 2.0 - lag) for m in range(40)]  # a_m m!
    u = u0 * ml_series(a, 1.0, c1 * t**a) + c2 * series(t, list(enumerate(taylor)))
    steps = [(0.0, u0 - 1.0)] + [(a * k, u0 * c1**k) for k in range(1, 60)]  # (p, d_p Gamma(p+1))
    steps += [(a * (k + 1) + m, c2 * am * c1**k) for m, am in enumerate(taylor) for k in range(60)]
    steps += [(2.0 * n, -((-1.0) ** n)) for n in range(1, 20)]
    return u + c2 * np.where(t > lag, series(np.maximum(t - lag, 0.0), steps), 0.0)


def power_exp_integral(alpha: float, sigma: float, x: np.ndarray) -> np.ndarray:
    """I^alpha of x^(sigma-1) e^x at x > 0, by its power series.

    Term k is Gamma(sigma+k) / (k! Gamma(alpha+sigma+k)) x^(alpha+sigma+k-1),
    the power rule applied to the k-th term of e^x, summed in log space.
    """
    logx = np.log(np.asarray(x, dtype=float))
    total = np.zeros_like(logx)
    for k in range(200):
        coeff = math.lgamma(sigma + k) - math.lgamma(k + 1) - math.lgamma(alpha + sigma + k)
        term = np.exp(coeff + (alpha + sigma + k - 1.0) * logx)
        total += term
        if k > 0 and np.all(term <= 1e-17 * total):
            return total
    raise RuntimeError("oracle series did not converge")


def sup_rel(got: np.ndarray, ref: np.ndarray) -> float:
    """Relative sup-norm error of grid data: max|got-ref| / max|ref|."""
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(np.asarray(got) - np.asarray(ref))) / scale)


def make_worked_problem() -> DelayFFIDE:
    """The linear delay problem with L_f=0.05, L_h=0.1, Theta ~ 0.1204."""
    return DelayFFIDE(
        order=FractionalOrder(alpha=0.5, beta=1.0),
        psi=catalog.make_psi("identity"),
        f=catalog.make_f("linear", c1=0.05, c2=0.05, c3=0.05),
        h_kernel=catalog.make_h("linear", d1=0.1, d2=0.1),
        g=catalog.make_g("constant_lag", lag=0.5),
        phi=catalog.make_phi("cosine", amplitude=1.0, frequency=1.0),
        u0=1.0,
        b=1.0,
        r=0.5,
        lip_f=0.05,
        lip_h=0.1,
    )


def make_linear_problem(beta: float, lam: float = 0.2) -> DelayFFIDE:
    """f = lam*u1, no kernel, psi = t: closed form t^(g-1) E_{a,g}(lam t^a)."""
    return DelayFFIDE(
        order=FractionalOrder(alpha=0.5, beta=beta),
        psi=catalog.make_psi("identity"),
        f=catalog.make_f("linear", c1=lam),
        h_kernel=catalog.make_h("none"),
        g=catalog.make_g("no_delay"),
        phi=catalog.make_phi("constant", value=1.0),
        u0=1.0,
        b=1.0,
        r=0.5,
        lip_f=lam,
        lip_h=0.0,
    )


def power_samples(psi, grid, sigma: float) -> np.ndarray:
    """Samples of (psi(s)-psi(0))^(sigma-1) with a finite stand-in at t=0."""
    x = np.asarray(psi.shifted(grid.nodes), dtype=float)
    out = np.zeros_like(x)
    out[1:] = x[1:] ** (sigma - 1.0)
    out[0] = 1.0 if sigma == 1.0 else 0.0
    return out


def power_hint(sigma: float):
    """Origin hint for power data: exact exponent where the model applies."""
    return sigma if (sigma != 1.0 and sigma < 2.0) else None


@pytest.fixture
def worked_problem() -> DelayFFIDE:
    return make_worked_problem()


@pytest.fixture
def identity_psi():
    return catalog.make_psi("identity")


#: psi transforms exercised by the operator oracle tests.
ORACLE_PSIS = {
    "identity": catalog.make_psi("identity"),
    "exponential": catalog.make_psi("exponential"),
    "shifted_power_2": catalog.make_psi("shifted_power", rho=2.0),
}
