"""Gamma, beta, and Mittag-Leffler functions.

The two-parameter Mittag-Leffler function

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b),    a > 0, b > 0,

generalizes the exponential (``E_{1,1} = exp``) and gives the natural
growth envelope of fractional-order dynamics. Evaluation here is one
power series with compensated (Kahan) summation over whole arrays of
arguments: every use in this package has a moderate real argument on a
bounded horizon, so asymptotic or contour representations are
deliberately out of scope. The admissible range shrinks for small ``a``
because the early terms grow before the gamma denominators take over;
negative arguments are further limited by cancellation of the terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SeriesConvergenceError, SeriesRangeError

#: Largest argument accepted by :func:`gamma` before float64 overflow.
GAMMA_OVERFLOW_LIMIT = 170.0

#: Absolute per-term truncation tolerance of the Mittag-Leffler series.
SERIES_TOL = 1e-12

#: Cap on the series length (alpha near 0.3 close to float64 overflow needs ~6400).
MAX_TERMS = 8000

#: Consecutive below-tolerance terms required before the series stops.
#: Guards against the non-monotone early terms at small ``alpha``.
_STOP_RUN = 3


def gamma(x: float) -> float:
    """Gamma function on the positive half line.

    Restricted to ``0 < x <= 170``: nothing in this package needs the
    reflection formula, and beyond 170 the value overflows float64.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x!r}")
    if x > GAMMA_OVERFLOW_LIMIT:
        raise OverflowError(f"gamma({x}) exceeds float64 range (x > {GAMMA_OVERFLOW_LIMIT})")
    return math.gamma(x)


def beta_fn(a: float, b: float) -> float:
    """Euler beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    a, b = float(a), float(b)
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_fn requires a, b > 0, got a={a!r}, b={b!r}")
    # lgamma form dodges intermediate overflow; the result is always positive.
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class MlfParams:
    """Parameters of a Mittag-Leffler evaluation E_{alpha,beta}.

    ``alpha`` and ``beta`` are the Mittag-Leffler parameters proper,
    distinct from the derivative orders elsewhere in the package.
    """

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"MlfParams requires alpha, beta > 0, got {self}")


def series_radius(alpha: float) -> float:
    """Largest |z| the plain series handles reliably for this alpha."""
    return 30.0 if alpha >= 0.3 else 10.0


def mittag_leffler(params: MlfParams, z: float) -> float:
    """E_{alpha,beta}(z) at one point: :func:`mittag_leffler_values` of ``z``."""
    return float(mittag_leffler_values(params, float(z)))


def mittag_leffler_values(params: MlfParams, z: np.ndarray) -> np.ndarray:
    """Evaluate E_{alpha,beta} over an array of arguments by truncated power series.

    Terms ``exp(k log|z| - lgamma(alpha k + beta))`` overflow only when the
    value does, and are summed with compensation over the whole array. For
    k >= 1 a term grows with |z|, so the series stops once three consecutive
    terms of the largest |z| fall below ``SERIES_TOL``. For z < 0 the terms
    alternate, and a term above ``SERIES_TOL / eps`` would leave rounding
    noise above the tolerance. Both refusals, an argument beyond
    :func:`series_radius` and a cancelling negative one, raise
    :class:`SeriesRangeError`, a ``ValueError``. The result has the
    shape of ``z``; z = 0 gives exactly 1/Gamma(beta).
    """
    z = np.asarray(z, dtype=float)
    alpha, beta = params.alpha, params.beta
    top, z_min = float(np.max(np.abs(z), initial=0.0)), float(np.min(z, initial=0.0))
    if not top <= series_radius(alpha):  # also refuses nan and inf
        raise SeriesRangeError(
            f"|z|={top} outside the supported series range |z| <= {series_radius(alpha)} "
            f"for alpha={alpha}"
        )
    cancel_limit = SERIES_TOL / np.finfo(float).eps
    odd_sign = np.where(z < 0.0, -1.0, 1.0)
    total = np.full(z.shape, 1.0 / gamma(beta))
    comp = np.zeros(z.shape)  # Kahan compensation
    small_run = 0
    # log(0) = -inf gives zero terms; an overflow is caught on the total below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_abs_z, log_top, log_neg = np.log(np.abs(z)), np.log(top), np.log(-z_min)
        for k in range(1, MAX_TERMS):
            log_gamma = math.lgamma(alpha * k + beta)
            if k * log_neg - log_gamma > math.log(cancel_limit):
                raise SeriesRangeError(
                    f"E_{{{alpha},{beta}}}({z_min}) cancels: its terms exceed the "
                    f"negative-argument limit SERIES_TOL/eps = {cancel_limit:.3g}"
                )
            term = np.exp(k * log_abs_z - log_gamma)
            if k % 2 == 1:
                term *= odd_sign
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if not np.isfinite(total).all():  # only at z = top: negative z stop earlier
                raise OverflowError(f"E_{{{alpha},{beta}}}({top}) overflows float64")
            small_run = small_run + 1 if k * log_top - log_gamma < math.log(SERIES_TOL) else 0
            if small_run >= _STOP_RUN:
                return total
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not satisfy the stopping rule within {MAX_TERMS} "
        f"terms (alpha={alpha}, beta={beta}, max |z|={top})"
    )
