"""Numerical laboratory for psi-Hilfer fractional delay integrodifferential equations.

The package evaluates psi-fractional operators and Mittag-Leffler
functions, solves delay integrodifferential Cauchy problems by Picard
iteration on the equivalent integral equation, checks the contraction
hypotheses that guarantee existence and uniqueness, and verifies
Ulam-Hyers-Mittag-Leffler stability empirically against its explicit
constant.
"""

from .errors import (
    ConfigError,
    DelayRangeError,
    DivergenceError,
    GridError,
    HilferLabError,
    SeriesConvergenceError,
    SeriesRangeError,
)
from .special_functions import MlfParams, beta_fn, gamma, mittag_leffler, mittag_leffler_values
from .psi_calculus import (
    Grid,
    PsiFunction,
    Trajectory,
    bielecki_norm,
    frac_integral_grid,
    hilfer_derivative_grid,
    make_grid,
    power_rule_reference,
    trajectory_values,
    weighted_norm,
)
from .problem_model import (
    DelayFFIDE,
    FractionalOrder,
    HypothesisReport,
    build_hypothesis_report,
    check_bielecki,
    check_theta,
    estimate_lipschitz,
    estimate_zeta,
    validate_problem,
)
from .picard_solver import SolveConfig, SolveResult, eval_F, picard_step, solve
from .stability_lab import (
    Perturbation,
    StabilityReport,
    ml_envelope,
    pachpatte_envelope,
    solve_perturbed,
    uhml_constant,
    verify_uhml,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DelayRangeError",
    "DivergenceError",
    "GridError",
    "HilferLabError",
    "SeriesConvergenceError",
    "SeriesRangeError",
    "MlfParams",
    "beta_fn",
    "gamma",
    "mittag_leffler",
    "mittag_leffler_values",
    "Grid",
    "PsiFunction",
    "Trajectory",
    "bielecki_norm",
    "frac_integral_grid",
    "hilfer_derivative_grid",
    "make_grid",
    "power_rule_reference",
    "trajectory_values",
    "weighted_norm",
    "DelayFFIDE",
    "FractionalOrder",
    "HypothesisReport",
    "build_hypothesis_report",
    "check_bielecki",
    "check_theta",
    "estimate_lipschitz",
    "estimate_zeta",
    "validate_problem",
    "SolveConfig",
    "SolveResult",
    "eval_F",
    "picard_step",
    "solve",
    "Perturbation",
    "StabilityReport",
    "ml_envelope",
    "pachpatte_envelope",
    "solve_perturbed",
    "uhml_constant",
    "verify_uhml",
    "catalog",
]
