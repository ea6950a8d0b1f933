"""Named function catalogs for declarative problem configs.

Each entry maps a name to a builder of a numpy-vectorized callable, so
configs stay portable text. A form's parameters and their defaults are its
builder's keyword arguments, declared once there; values are converted with
``float``. Unknown names or parameters raise :class:`ConfigError` listing
the alternatives.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .psi_calculus import PsiFunction


@functools.cache
def _parameters(build: Callable) -> tuple[str, ...]:
    """The parameter names of a builder, in order (read once per builder)."""
    return tuple(inspect.signature(build).parameters)


def _build(kind: str, table: dict, name: str, params: dict):
    """Look ``name`` up in a catalog table, check its parameters, and build it."""
    if name not in table:
        raise ConfigError(f"unknown {kind} form '{name}'; available: {sorted(table)}")
    build = table[name]
    allowed = _parameters(build)
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(
            f"{kind} form '{name}' does not accept parameter(s) {sorted(extra)}; "
            f"allowed: {list(allowed)}"
        )
    return build(**{key: float(value) for key, value in params.items()})


# --- psi transforms --------------------------------------------------------

def _psi_identity() -> PsiFunction:
    return PsiFunction(
        fn=lambda t: np.asarray(t, dtype=float) + 0.0,
        deriv=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        label="identity",
        inverse=lambda x: np.asarray(x, dtype=float) + 0.0,
    )


def _psi_exponential() -> PsiFunction:
    return PsiFunction(
        fn=np.exp, deriv=np.exp, label="exponential", inverse=np.log1p, exact_shift=np.expm1
    )


def _psi_shifted_power(rho=2.0) -> PsiFunction:
    if rho <= 0.0:
        raise ConfigError(f"psi form 'shifted_power' requires rho > 0, got {rho}")
    return PsiFunction(
        fn=lambda t: (np.asarray(t, dtype=float) + 1.0) ** rho,
        deriv=lambda t: rho * (np.asarray(t, dtype=float) + 1.0) ** (rho - 1.0),
        label=f"shifted_power(rho={rho:g})",
        inverse=lambda x: np.expm1(np.log1p(np.asarray(x, dtype=float)) / rho),
        exact_shift=lambda t: np.expm1(rho * np.log1p(np.asarray(t, dtype=float))),
    )


PSI_CATALOG: dict[str, Callable[..., PsiFunction]] = {
    "identity": _psi_identity,
    "exponential": _psi_exponential,
    "shifted_power": _psi_shifted_power,
}


def make_psi(name: str, **params) -> PsiFunction:
    return _build("psi", PSI_CATALOG, name, params)


# --- right-hand sides f(t, u1, u2, u3) -------------------------------------

def _f_zero():
    return lambda t, u1, u2, u3: np.zeros(np.broadcast(t, u1, u2, u3).shape)


def _f_linear(c0=0.0, c1=0.0, c2=0.0, c3=0.0):
    return lambda t, u1, u2, u3: c0 + c1 * u1 + c2 * u2 + c3 * u3


def _f_scaled_sin(amplitude=1.0):
    return lambda t, u1, u2, u3: amplitude * np.sin(u1 + u2 + u3)


F_CATALOG = {
    "zero": _f_zero,
    "linear": _f_linear,
    "scaled_sin": _f_scaled_sin,
}


def make_f(name: str, **params):
    return _build("f", F_CATALOG, name, params)


# --- Volterra kernels h(t, s, v1, v2); "none" drops the kernel entirely ----

def _h_zero():
    return lambda t, s, v1, v2: np.zeros(np.broadcast(t, s, v1, v2).shape)


def _h_linear(d0=0.0, d1=0.0, d2=0.0):
    return lambda t, s, v1, v2: d0 + d1 * v1 + d2 * v2


def _h_polynomial(scale=1.0, degree=1.0):
    return lambda t, s, v1, v2: scale * (t - s) ** degree * (v1 + v2)


H_CATALOG = {
    "none": lambda: None,
    "zero": _h_zero,
    "linear": _h_linear,
    "polynomial": _h_polynomial,
}


def make_h(name: str, **params) -> Optional[Callable]:
    return _build("h", H_CATALOG, name, params)


# --- delay maps g(t) with g(t) <= t -----------------------------------------

def _g_no_delay():
    return lambda t: np.asarray(t, dtype=float) + 0.0


def _g_constant_lag(lag=0.0):
    if lag < 0.0:
        raise ConfigError(f"g form 'constant_lag' requires lag >= 0, got {lag}")
    return lambda t: np.asarray(t, dtype=float) - lag


def _g_proportional_lag(scale=1.0, lag=0.0):
    if not (0.0 <= scale <= 1.0) or lag < 0.0:
        raise ConfigError(
            f"g form 'proportional_lag' requires 0 <= scale <= 1 and lag >= 0, "
            f"got scale={scale}, lag={lag}"
        )
    return lambda t: scale * np.asarray(t, dtype=float) - lag


G_CATALOG = {
    "no_delay": _g_no_delay,
    "constant_lag": _g_constant_lag,
    "proportional_lag": _g_proportional_lag,
}


def make_g(name: str, **params):
    return _build("g", G_CATALOG, name, params)


# --- history functions phi(t) on [-r, 0] ------------------------------------

def _phi_constant(value=0.0):
    return lambda t: np.full(np.shape(t), value) if np.ndim(t) else value


def _phi_linear(intercept=0.0, slope=0.0):
    return lambda t: intercept + slope * np.asarray(t, dtype=float)


def _phi_cosine(amplitude=1.0, frequency=1.0):
    return lambda t: amplitude * np.cos(frequency * np.asarray(t, dtype=float))


PHI_CATALOG = {
    "constant": _phi_constant,
    "linear": _phi_linear,
    "cosine": _phi_cosine,
}


def make_phi(name: str, **params):
    return _build("phi", PHI_CATALOG, name, params)
