"""Command-line front end: check, solve, stability, verify-operators.

Exit codes: 0 success (hypotheses certified / solve converged), 1 config
error, 2 hypotheses uncertified, 3 solver divergence or non-convergence.
All outputs are plot-ready CSV (or JSON mirroring the same rows); runs
with identical config and seed produce byte-identical files. :func:`_write`
writes each, one ``%`` fill per block of rows, with no Python call per value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .catalog import make_psi
from .config import ExperimentConfig, parse_config
from .errors import ConfigError, DivergenceError, HilferLabError
from .picard_solver import solve
from .problem_model import build_hypothesis_report, FractionalOrder
from .psi_calculus import (
    frac_integral_grid,
    hilfer_derivative_grid,
    make_grid,
    power_rule_reference,
)
from .stability_lab import verify_uhml

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_UNCERTIFIED = 2
_EXIT_DIVERGED = 3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _tokens(values: np.ndarray, fmt: str) -> list[str]:
    """A float array's cells in one fill: ``%.17g`` in CSV, as ``json.dump`` writes them in JSON."""
    values = values.tolist()
    if fmt == "json":
        return json.dumps(values)[1:-1].split(", ")
    return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")


def _write(out_dir: str, stem: str, header: list[str], blocks: list[list], fmt: str) -> None:
    """Write rows to <stem>.<fmt> (JSON as ``json.dump(rows, indent=2)`` lays them out).

    A block of rows has one cell per column: a float array, a list of :func:`_tokens`
    cells, or one value all its rows share; it is one ``%`` fill of a row template.
    """
    json_out = fmt == "json"
    keys = [json.dumps(k).replace("%", "%%") for k in header]
    body = []
    for block in blocks:
        if json_out:
            block = [_tokens(c, fmt) if isinstance(c, np.ndarray) else c for c in block]
        columns = [c for c in block if isinstance(c, (np.ndarray, list))]
        slots = ["%.17g" if isinstance(c, np.ndarray) else "%s" if isinstance(c, list)
                 else (json.dumps(c) if json_out else _fmt(c)).replace("%", "%%") for c in block]
        row = ("  {\n" + ",\n".join(map("    {}: {}".format, keys, slots)) + "\n  }"
               if json_out else ",".join(slots))
        values = np.array(columns, dtype=object).T.ravel().tolist()
        rows = len(columns[0]) if columns else 1
        body.append((",\n" if json_out else "\n").join([row] * rows) % tuple(values))
    text = "[\n" + ",\n".join(body) + "\n]" if json_out else "\n".join([",".join(header)] + body)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{stem}.{fmt}"), "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    solve_cfg = cfg.solve
    if args.grid is not None:
        solve_cfg = replace(solve_cfg, grid_size=args.grid)
    if args.tol is not None:
        solve_cfg = replace(solve_cfg, tol=args.tol)
    cfg.solve = solve_cfg
    if args.out is not None:
        cfg.out_dir = args.out
    if args.fmt is not None:
        cfg.out_format = args.fmt
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.perturbations = [replace(p, seed=args.seed) for p in cfg.perturbations]
    return cfg


def _load(args) -> ExperimentConfig:
    return _apply_overrides(parse_config(args.config), args)


def cmd_check(args) -> int:
    cfg = _load(args)
    report = build_hypothesis_report(
        cfg.problem, delta=cfg.solve.bielecki_delta, seed=cfg.seed
    )
    print(f"theta (sup psi' variant)      = {_fmt(report.theta)}")
    print(f"theta (inf psi' variant)      = {_fmt(report.theta_inf_variant)}")
    print(f"bielecki lhs at delta={_fmt(report.delta_used)}: {_fmt(report.bielecki_lhs)}")
    print(f"zeta sup / inf                = {_fmt(report.zeta)} / {_fmt(report.zeta_inf)}")
    lip_f, lip_h = report.lipschitz_spot_check
    print(f"lipschitz spot check f / h    = {_fmt(lip_f)} / {_fmt(lip_h)}"
          f" (declared {_fmt(cfg.problem.lip_f)} / {_fmt(cfg.problem.lip_h)})")
    if report.lipschitz_exceeds_declared:
        print("WARNING: observed Lipschitz ratio exceeds the declared constant")
    certified = report.theta_ok
    print(f"certified: {'yes (theta)' if certified else 'no'}")

    header = [
        "theta", "theta_ok", "bielecki_lhs", "bielecki_ok", "zeta", "zeta_inf",
        "delta_used", "lipschitz_f", "lipschitz_h", "certified",
    ]
    row = [
        report.theta, report.theta_ok, report.bielecki_lhs, report.bielecki_ok,
        report.zeta, report.zeta_inf, report.delta_used, lip_f, lip_h, certified,
    ]
    _write(cfg.out_dir, "hypotheses", header, [row], cfg.out_format)
    return _EXIT_OK if certified else _EXIT_UNCERTIFIED


def cmd_solve(args) -> int:
    cfg = _load(args)
    result = solve(cfg.problem, cfg.solve)
    traj = result.trajectory
    grid = traj.grid

    t = np.concatenate((grid.history_nodes, grid.nodes[1:]))
    psi_t = cfg.problem.psi.fn(t)
    h, its = grid.history_nodes.size, result.iterations
    blocks = [  # the history rows, whose weighted_u is empty, then the interior rows
        [t[:h], psi_t[:h], None, traj.history_values, its],
        [t[h:], psi_t[h:], traj.weighted_values, traj.unweight(traj.weighted_values), its],
    ]
    header = ["t", "psi_t", "weighted_u", "u", "residual_iter_count"]
    _write(cfg.out_dir, "solution", header, blocks, cfg.out_format)

    final = result.residual_history[-1] if result.residual_history else float("nan")
    print(f"converged={_fmt(result.converged)} iterations={result.iterations} "
          f"final_residual={_fmt(float(final))} observed_ratio={_fmt(result.observed_ratio)}")
    print(f"theta={_fmt(result.theta)} certified_by={result.certified_by or 'none'}")
    if result.warning:
        print(f"WARNING: {result.warning}")
    return _EXIT_OK if result.converged else _EXIT_DIVERGED


def cmd_stability(args) -> int:
    cfg = _load(args)
    if not cfg.perturbations:
        raise ConfigError("stability run needs at least one perturbation "
                          "([stability] shapes/epsilons)")
    base = solve(cfg.problem, cfg.solve)
    fmt = cfg.out_format
    grid = base.trajectory.grid
    # every ratio profile lies on the base grid, so its time column is formatted once
    times = _tokens(np.concatenate((grid.history_nodes, grid.nodes[1:])), fmt)
    header = ["shape", "epsilon", "c_theoretical", "c_empirical", "passed", "kappa_used"]
    rows: list[list] = []
    all_converged = base.converged
    caveat_shown = False
    for pert in cfg.perturbations:
        report = verify_uhml(cfg.problem, pert, cfg.solve, base=base)
        all_converged = all_converged and report.converged
        if report.envelope_caveat and not caveat_shown:
            print("note: psi(b)-psi(0) < 1, where the mean-value bounds behind "
                  "the theoretical constant are extrapolated")
            caveat_shown = True
        rows.append([
            report.shape, report.epsilon, report.c_theoretical,
            report.c_empirical, report.passed, report.kappa_used,
        ])
        _write(cfg.out_dir, f"ratio_profile_{pert.shape}_{pert.epsilon:g}", ["t", "ratio"],
               [[times, report.ratio_profile]], fmt)
        print(f"shape={report.shape} epsilon={_fmt(report.epsilon)} "
              f"c_theoretical={_fmt(report.c_theoretical)} "
              f"c_empirical={_fmt(report.c_empirical)} passed={_fmt(report.passed)}")
    _write(cfg.out_dir, "stability", header, rows, fmt)
    return _EXIT_OK if all_converged else _EXIT_DIVERGED


_VERIFY_ALPHAS = (0.25, 0.5, 0.75, 1.0)
_VERIFY_SIGMAS = (0.875, 1.25, 1.625, 2.0)


def _sup_rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - ref)) / scale)


def _power_hint(sigma: float):
    return sigma if (sigma != 1.0 and sigma < 2.0) else None


def _power_samples(grid, sigma: float) -> np.ndarray:
    x = grid.x
    out = np.zeros_like(x)
    out[1:] = x[1:] ** (sigma - 1.0)
    out[0] = 1.0 if sigma == 1.0 else 0.0
    return out


def _power_exp_reference(alpha: float, sigma: float, psi, t) -> np.ndarray:
    """I^alpha of x^(sigma-1) e^x: the power rule over the series of e^x, exact for x <= 10."""
    terms = (power_rule_reference(alpha, sigma + k, psi, t) / math.factorial(k) for k in range(60))
    return sum(terms)


def _identity_errors(psi, n: int) -> dict[str, float]:
    grid = make_grid(psi, 1.0, n, 0.5)
    x = grid.x
    errs: dict[str, float] = {}

    # the hinted rule is exact on the power itself, so the factor e^x gives it terms to miss
    worst = 0.0
    for alpha in _VERIFY_ALPHAS:
        for sigma in _VERIFY_SIGMAS:
            samples = _power_samples(grid, sigma) * np.exp(x)
            got = frac_integral_grid(alpha, psi, samples, grid, _power_hint(sigma))
            ref = _power_exp_reference(alpha, sigma, psi, grid.nodes)
            worst = max(worst, _sup_rel_error(got[1:], ref[1:]))
    errs["power_rule"] = worst

    worst = 0.0
    for sigma in (0.875, 1.25, 2.0):
        samples = _power_samples(grid, sigma)
        inner = frac_integral_grid(0.4, psi, samples, grid, _power_hint(sigma))
        got = frac_integral_grid(0.3, psi, inner, grid, _power_hint(sigma + 0.4))
        ref = frac_integral_grid(0.7, psi, samples, grid, _power_hint(sigma))
        worst = max(worst, _sup_rel_error(got, ref))
    errs["semigroup"] = worst

    order = FractionalOrder(alpha=0.6, beta=0.4)
    smooth = 1.0 + x + np.cos(2.0 * x)
    integral = frac_integral_grid(order.alpha, psi, smooth, grid)
    recovered = hilfer_derivative_grid(order, psi, integral, grid, origin_exponent=order.alpha + 1.0)
    errs["left_inverse"] = _sup_rel_error(recovered[1:], smooth[1:])

    order = FractionalOrder(alpha=0.5, beta=0.5)
    gamma = order.gamma
    sigma = 1.9
    samples = np.zeros_like(x)
    samples[1:] = 2.0 * x[1:] ** (gamma - 1.0) + x[1:] ** (sigma - 1.0)
    deriv = hilfer_derivative_grid(order, psi, samples, grid, origin_exponent=gamma)
    got = frac_integral_grid(order.alpha, psi, deriv, grid, _power_hint(sigma - order.alpha))
    ref = np.zeros_like(x)
    ref[1:] = x[1:] ** (sigma - 1.0)
    errs["inversion"] = _sup_rel_error(got[1:], ref[1:])

    poly = 2.0 + 3.0 * x
    got = frac_integral_grid(1.0, psi, poly, grid)
    ref = 2.0 * x + 1.5 * x ** 2
    errs["classical_alpha1"] = _sup_rel_error(got, ref)
    return errs


def cmd_verify_operators(args) -> int:
    psi_names = args.psi or ["identity", "exponential", "shifted_power"]
    grids = args.grid_list or [500, 1000, 2000]
    fmt = args.fmt or "csv"
    out_dir = args.out or "out"
    header = ["identity", "psi", "n", "max_rel_error", "observed_order"]
    rows: list[list] = []
    print(f"{'identity':<18} {'psi':<22} {'N':>6} {'max_rel_error':>14} {'order':>7}")
    for name in psi_names:
        psi = make_psi(name)
        previous: dict[str, float] = {}
        for n in grids:
            errs = _identity_errors(psi, n)
            for identity, err in errs.items():
                order = (
                    float(np.log2(previous[identity] / err))
                    if identity in previous and err > 0.0
                    else None
                )
                rows.append([identity, psi.label or name, n, err, order])
                order_text = f"{order:7.2f}" if order is not None else "     --"
                print(f"{identity:<18} {psi.label or name:<22} {n:>6} {err:>14.3e} {order_text}")
            previous = errs
    _write(out_dir, "operator_checks", header, rows, fmt)
    return _EXIT_OK


def _add_common(sub: argparse.ArgumentParser, config_required: bool = True) -> None:
    if config_required:
        sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--grid", type=int, default=None, help="override grid size N")
    sub.add_argument("--tol", type=float, default=None, help="override stopping tolerance")
    sub.add_argument("--out", default=None, help="override output directory")
    sub.add_argument("--seed", type=int, default=None, help="override experiment seed")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None,
                     help="override output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilferlab",
        description="Numerical lab for psi-Hilfer fractional delay problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="evaluate the contraction hypotheses")
    _add_common(check)
    check.set_defaults(func=cmd_check)

    slv = subs.add_parser("solve", help="solve the configured problem")
    _add_common(slv)
    slv.set_defaults(func=cmd_solve)

    stab = subs.add_parser("stability", help="run the configured stability experiments")
    _add_common(stab)
    stab.set_defaults(func=cmd_stability)

    ver = subs.add_parser("verify-operators", help="operator identity convergence table")
    ver.add_argument("--psi", action="append", default=None,
                     help="psi catalog name (repeatable; default: all)")
    ver.add_argument("--grid", dest="grid_list", action="append", type=int, default=None,
                     help="grid size N (repeatable; default: 500 1000 2000)")
    ver.add_argument("--out", default=None, help="output directory")
    ver.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    ver.set_defaults(func=cmd_verify_operators)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except DivergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except HilferLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
