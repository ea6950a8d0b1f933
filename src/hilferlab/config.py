"""Experiment configuration: INI-style files with four named sections.

A config declares the problem in ``[problem]`` by catalog names plus
numeric parameters, the solver controls in ``[solve]``, an optional
stability block in ``[stability]``, and output settings in ``[output]``;
the README's "Config format" section lists every key. Catalog parameters
use the ``<slot>_<name>`` key convention (``f_c1``, ``g_lag``), where
``<name>`` is a keyword argument of the form's builder in
:mod:`hilferlab.catalog`. A ``;`` after whitespace starts an inline comment.

``[solve]``, ``[stability]`` and ``[output]`` are read through one key
table each, which maps an INI key to the dataclass field it sets. A key
that is absent keeps the field's default, so every default is written
once, on :class:`SolveConfig`, :class:`Perturbation` or
:class:`ExperimentConfig`. Values are literal text: a ``%`` is not
interpolated. Command-line flags are key texts that replace the file's
``[solve]`` and ``[output]`` keys before any key is read, so a flag goes
through its key's reader and checks. Parse or validation failures raise
:class:`ConfigError` with a section/key diagnostic.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .catalog import make_f, make_g, make_h, make_phi, make_psi
from .errors import ConfigError
from .picard_solver import SolveConfig
from .problem_model import DelayFFIDE, FractionalOrder, validate_problem
from .stability_lab import Perturbation

_PROBLEM_SCALARS = {"alpha", "beta", "b", "r", "u0", "lip_f", "lip_h"}
_PROBLEM_SLOTS = ("psi", "f", "h", "g", "phi")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description ready to run."""

    problem: DelayFFIDE
    solve: SolveConfig
    perturbations: list[Perturbation] = field(default_factory=list)
    out_dir: str = "out"
    out_format: str = "csv"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.out_format!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def _float(section: configparser.SectionProxy, key: str) -> float:
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"[{section.name}] missing required key '{key}'")
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: expected a number, got {raw!r}") from exc


def _int(section: configparser.SectionProxy, key: str) -> int:
    raw = section[key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: expected an integer, got {raw!r}") from exc


def _text(section: configparser.SectionProxy, key: str) -> str:
    return section[key]


# INI key -> (dataclass field, reader); the keys are the section's allowed keys
_SOLVE_KEYS = {
    "grid_size": ("grid_size", _int),
    "inner_quad_nodes": ("inner_quad_nodes", _int),
    "tol": ("tol", _float),
    "max_iter": ("max_iter", _int),
    "norm": ("norm_kind", _text),
    "bielecki_delta": ("bielecki_delta", _float),
    "uniform_in": ("grid_uniform_in", _text),
    "history_size": ("history_size", _int),
}
_STABILITY_KEYS = {"frequency": ("frequency", _float), "modes": ("modes", _int)}
_STABILITY_LISTS = frozenset({"shapes", "epsilons"})
_OUTPUT_KEYS = {
    "directory": ("out_dir", _text),
    "format": ("out_format", _text),
    "seed": ("seed", _int),
}


def _slot_params(section: configparser.SectionProxy, slot: str) -> dict:
    prefix = slot + "_"
    return {key[len(prefix):]: _float(section, key) for key in section if key.startswith(prefix)}


def _check_unknown_keys(section: configparser.SectionProxy, allowed: set[str]) -> None:
    extra = sorted(set(section) - allowed)
    if extra:
        raise ConfigError(f"[{section.name}] unknown key(s): {extra}")


def _problem_from(section: configparser.SectionProxy) -> DelayFFIDE:
    prefixes = tuple(slot + "_" for slot in _PROBLEM_SLOTS)
    slot_param_keys = {key for key in section if key.startswith(prefixes)}
    _check_unknown_keys(section, _PROBLEM_SCALARS | set(_PROBLEM_SLOTS) | slot_param_keys)

    try:
        order = FractionalOrder(
            alpha=_float(section, "alpha"),
            beta=_float(section, "beta") if "beta" in section else 1.0,
        )
        psi = make_psi(section.get("psi", "identity"), **_slot_params(section, "psi"))
        f = make_f(section.get("f", "zero"), **_slot_params(section, "f"))
        h = make_h(section.get("h", "none"), **_slot_params(section, "h"))
        g = make_g(section.get("g", "no_delay"), **_slot_params(section, "g"))
        phi = make_phi(section.get("phi", "constant"), **_slot_params(section, "phi"))
        problem = DelayFFIDE(
            order=order,
            psi=psi,
            f=f,
            h_kernel=h,
            g=g,
            phi=phi,
            u0=_float(section, "u0"),
            b=_float(section, "b"),
            r=_float(section, "r"),
            lip_f=_float(section, "lip_f"),
            lip_h=_float(section, "lip_h") if "lip_h" in section else 0.0,
        )
        validate_problem(problem)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[problem] {exc}") from exc
    return problem


def _fields(
    parser: configparser.ConfigParser, name: str, table: dict, lists: frozenset = frozenset()
) -> dict:
    """Field values of the ``table`` keys set in section [name]; ``lists`` are also allowed."""
    if not parser.has_section(name):
        return {}
    section = parser[name]
    _check_unknown_keys(section, set(table) | lists)
    return {fld: read(section, key) for key, (fld, read) in table.items() if key in section}


def _checked(section: str, cls, *args, **fields):
    """``cls(*args, **fields)``, its ValueError reported as a config error in [section]."""
    try:
        return cls(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _split_list(section: configparser.SectionProxy, key: str) -> list[str]:
    raw = section.get(key, "")
    return [item.strip() for item in raw.split(",") if item.strip()]


def _perturbations_from(parser: configparser.ConfigParser, seed: int) -> list[Perturbation]:
    if not parser.has_section("stability"):
        return []
    params = _fields(parser, "stability", _STABILITY_KEYS, _STABILITY_LISTS)
    section = parser["stability"]
    shapes = _split_list(section, "shapes")
    eps_raw = _split_list(section, "epsilons")
    if not shapes or not eps_raw:
        raise ConfigError("[stability] needs non-empty 'shapes' and 'epsilons' lists")
    perts = []
    for shape in shapes:
        for raw in eps_raw:
            try:
                eps = float(raw)
            except ValueError as exc:
                raise ConfigError(f"[stability] epsilons: bad number {raw!r}") from exc
            perts.append(_checked("stability", Perturbation, eps, shape, seed=seed, **params))
    return perts


def parse_config(
    path: str, overrides: Optional[Mapping[str, Mapping[str, str]]] = None
) -> ExperimentConfig:
    """Read and validate a config file.

    ``overrides`` maps a section to key texts that replace the file's (the
    section is added if the file lacks it); they are read like the file's.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    parser.read_dict(overrides or {})
    known = {"problem", "solve", "stability", "output"}
    extra = sorted(set(parser.sections()) - known)
    if extra:
        raise ConfigError(f"unknown section(s): {extra}; expected {sorted(known)}")
    if not parser.has_section("problem"):
        raise ConfigError("missing required section [problem]")

    output = _fields(parser, "output", _OUTPUT_KEYS)
    problem = _problem_from(parser["problem"])
    solve_cfg = _checked("solve", SolveConfig, **_fields(parser, "solve", _SOLVE_KEYS))
    perturbations = _perturbations_from(parser, output.get("seed", ExperimentConfig.seed))
    return _checked("output", ExperimentConfig, problem, solve_cfg, perturbations, **output)
