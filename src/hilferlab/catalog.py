"""Named function catalogs for declarative problem configs.

Each entry maps a name plus numeric parameters to a numpy-vectorized
callable, so configs stay portable text. Unknown names or parameters
raise :class:`ConfigError` listing the alternatives.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .psi_calculus import PsiFunction


def _build(kind: str, table: dict, name: str, params: dict):
    """Look ``name`` up in a catalog table, check its parameters, and build it."""
    if name not in table:
        raise ConfigError(f"unknown {kind} form '{name}'; available: {sorted(table)}")
    allowed, build = table[name]
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError(
            f"{kind} form '{name}' does not accept parameter(s) {sorted(extra)}; "
            f"allowed: {list(allowed)}"
        )
    return build(params)


# --- psi transforms --------------------------------------------------------

def _psi_identity(params: dict) -> PsiFunction:
    return PsiFunction(
        fn=lambda t: np.asarray(t, dtype=float) + 0.0,
        deriv=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        label="identity",
        inverse=lambda x: np.asarray(x, dtype=float) + 0.0,
    )


def _psi_exponential(params: dict) -> PsiFunction:
    return PsiFunction(
        fn=np.exp, deriv=np.exp, label="exponential", inverse=np.log1p, exact_shift=np.expm1
    )


def _psi_shifted_power(params: dict) -> PsiFunction:
    rho = float(params.get("rho", 2.0))
    if rho <= 0.0:
        raise ConfigError(f"psi form 'shifted_power' requires rho > 0, got {rho}")
    return PsiFunction(
        fn=lambda t: (np.asarray(t, dtype=float) + 1.0) ** rho,
        deriv=lambda t: rho * (np.asarray(t, dtype=float) + 1.0) ** (rho - 1.0),
        label=f"shifted_power(rho={rho:g})",
        inverse=lambda x: np.expm1(np.log1p(np.asarray(x, dtype=float)) / rho),
        exact_shift=lambda t: np.expm1(rho * np.log1p(np.asarray(t, dtype=float))),
    )


PSI_CATALOG: dict[str, tuple[tuple[str, ...], Callable[[dict], PsiFunction]]] = {
    "identity": ((), _psi_identity),
    "exponential": ((), _psi_exponential),
    "shifted_power": (("rho",), _psi_shifted_power),
}


def make_psi(name: str, **params) -> PsiFunction:
    return _build("psi", PSI_CATALOG, name, params)


# --- right-hand sides f(t, u1, u2, u3) -------------------------------------

def _f_zero(params: dict):
    return lambda t, u1, u2, u3: np.zeros(np.broadcast(t, u1, u2, u3).shape)


def _f_linear(params: dict):
    c0 = float(params.get("c0", 0.0))
    c1 = float(params.get("c1", 0.0))
    c2 = float(params.get("c2", 0.0))
    c3 = float(params.get("c3", 0.0))
    return lambda t, u1, u2, u3: c0 + c1 * u1 + c2 * u2 + c3 * u3


def _f_scaled_sin(params: dict):
    amplitude = float(params.get("amplitude", 1.0))
    return lambda t, u1, u2, u3: amplitude * np.sin(u1 + u2 + u3)


F_CATALOG = {
    "zero": ((), _f_zero),
    "linear": (("c0", "c1", "c2", "c3"), _f_linear),
    "scaled_sin": (("amplitude",), _f_scaled_sin),
}


def make_f(name: str, **params):
    return _build("f", F_CATALOG, name, params)


# --- Volterra kernels h(t, s, v1, v2); "none" drops the kernel entirely ----

def _h_zero(params: dict):
    return lambda t, s, v1, v2: np.zeros(np.broadcast(t, s, v1, v2).shape)


def _h_linear(params: dict):
    d0 = float(params.get("d0", 0.0))
    d1 = float(params.get("d1", 0.0))
    d2 = float(params.get("d2", 0.0))
    return lambda t, s, v1, v2: d0 + d1 * v1 + d2 * v2


def _h_polynomial(params: dict):
    scale = float(params.get("scale", 1.0))
    degree = float(params.get("degree", 1.0))
    return lambda t, s, v1, v2: scale * (t - s) ** degree * (v1 + v2)


H_CATALOG = {
    "none": ((), lambda params: None),
    "zero": ((), _h_zero),
    "linear": (("d0", "d1", "d2"), _h_linear),
    "polynomial": (("scale", "degree"), _h_polynomial),
}


def make_h(name: str, **params) -> Optional[Callable]:
    return _build("h", H_CATALOG, name, params)


# --- delay maps g(t) with g(t) <= t -----------------------------------------

def _g_no_delay(params: dict):
    return lambda t: np.asarray(t, dtype=float) + 0.0


def _g_constant_lag(params: dict):
    lag = float(params.get("lag", 0.0))
    if lag < 0.0:
        raise ConfigError(f"g form 'constant_lag' requires lag >= 0, got {lag}")
    return lambda t: np.asarray(t, dtype=float) - lag


def _g_proportional_lag(params: dict):
    scale = float(params.get("scale", 1.0))
    lag = float(params.get("lag", 0.0))
    if not (0.0 <= scale <= 1.0) or lag < 0.0:
        raise ConfigError(
            f"g form 'proportional_lag' requires 0 <= scale <= 1 and lag >= 0, "
            f"got scale={scale}, lag={lag}"
        )
    return lambda t: scale * np.asarray(t, dtype=float) - lag


G_CATALOG = {
    "no_delay": ((), _g_no_delay),
    "constant_lag": (("lag",), _g_constant_lag),
    "proportional_lag": (("scale", "lag"), _g_proportional_lag),
}


def make_g(name: str, **params):
    return _build("g", G_CATALOG, name, params)


# --- history functions phi(t) on [-r, 0] ------------------------------------

def _phi_constant(params: dict):
    value = float(params.get("value", 0.0))
    return lambda t: np.full(np.shape(t), value) if np.ndim(t) else value


def _phi_linear(params: dict):
    intercept = float(params.get("intercept", 0.0))
    slope = float(params.get("slope", 0.0))
    return lambda t: intercept + slope * np.asarray(t, dtype=float)


def _phi_cosine(params: dict):
    amplitude = float(params.get("amplitude", 1.0))
    frequency = float(params.get("frequency", 1.0))
    return lambda t: amplitude * np.cos(frequency * np.asarray(t, dtype=float))


PHI_CATALOG = {
    "constant": (("value",), _phi_constant),
    "linear": (("intercept", "slope"), _phi_linear),
    "cosine": (("amplitude", "frequency"), _phi_cosine),
}


def make_phi(name: str, **params):
    return _build("phi", PHI_CATALOG, name, params)
