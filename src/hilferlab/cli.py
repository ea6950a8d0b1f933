"""Command-line front end: check, solve, stability, verify-operators.

Exit codes: 0 success (hypotheses certified / solve converged), 1 config
error, 2 hypotheses uncertified, 3 solver divergence or non-convergence.
All outputs are plot-ready CSV (or JSON mirroring the same rows); runs
with identical config and seed produce byte-identical files. :func:`_write`
writes each. A CSV float cell is exactly Python's ``"%.17g" % v``: one numpy
kernel (:func:`_g17`) formats whole arrays, and each chunk of rows is written
as one byte matrix. A JSON file is one ``%`` fill per block of rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

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
    trajectory_values,
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


# The %.17g kernel covers |v| in [1e-280, 1e281): there the scales 10^(16-k) and the
# Veltkamp splits of them and of |v| stay normal and finite. Other values fall back.
_K_MIN, _K_MAX = -280, 280
_E_MIN = _K_MIN - 1  # the tables' first power of ten: floor(log10|v|) can be one low
_CELL = 32  # bytes per cell: sign and "0.000" in 0-6, 18 significand slots in 7-24, e+XXX after
# A layout is (class, digits kept): classes 0-20 are fixed notation for exponents -4 to 16,
# class 21 is e-notation
_LAYOUTS = 22 * 18
# values per kernel call: keeps each temporary under 128 KiB, where malloc reuses heap
# memory instead of mapping (and faulting in) fresh pages on every call
_CHUNK = 3200
_SEPARATORS = np.frombuffer(b",\n", np.uint8).reshape(2, 1, 1)


@functools.cache
def _g17_tables() -> tuple:
    """The kernel's tables (about 160 KB), built on first use.

    For 10^e, e in [_E_MIN, 16 - _K_MIN]: hi (correctly rounded), hi's Veltkamp
    split, lo (the rounded rest) and the least double >= 10^e. The 4-digit ASCII
    blocks, and per block position the digits kept up to the block's last nonzero
    digit, both by integer division of 0..9999 in uint16 and uint8. Per layout, the
    cell bytes that take digit j and digit j - 1, and per sign and layout the
    literal bytes (sign, "0.000" prefix, point). The e+XX and e+XXX suffixes per
    exponent.
    """
    scales = []
    for e in range(_E_MIN, 17 - _K_MIN):
        if e >= 0:
            hi = float(10 ** e)
            lo = float(10 ** e - int(hi))
        else:  # int / int rounds correctly
            hi = 1 / 10 ** -e
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -e) / (den * 10 ** -e)
        scales.append((hi, lo, math.nextafter(hi, math.inf) if lo > 0.0 else hi))
    hi, lo, at_least = np.array(scales).T
    split = hi * 134217729.0
    hi_hi = split - (split - hi)
    scale = (hi, hi_hi, hi - hi_hi, lo)

    # the 4-digit ASCII blocks and, per block position, the digits kept up to the block's
    # last nonzero digit (a zero block keeps none: the lead digit is always kept)
    units = np.array([1000, 100, 10, 1], np.uint16)
    digits = np.arange(10000, dtype=np.uint16)[:, None] // units % 10
    blocks = (digits + 48).astype(np.uint8)
    last = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    kept = last + np.arange(1, 17, 4, dtype=np.uint8)[:, None]
    kept[:, 0] = 1

    own, shifted, literal = bytearray(), bytearray(), (bytearray(), bytearray())
    for cls in range(22):
        x = cls - 4 if cls < 21 else 0
        head = b"0." + b"0" * (3 - cls) if cls < 4 else b""
        point = 17 if x < 0 else x  # the point follows this digit; 17: it is in the prefix
        for count in range(18):
            dotted = count > point + 1
            before = point + 1 if dotted else max(count, x + 1)  # digits before the point
            own += bytes(7) + b"\1" * before + bytes(_CELL - 7 - before)
            shifted += (bytes(8 + before) + b"\1" * (count - before) + bytes(_CELL - 8 - count)
                        if dotted else bytes(_CELL))
            for sign, table in zip((b"", b"-"), literal):
                cell = bytearray(_CELL)
                cell[7 - len(sign + head):7] = sign + head
                if dotted:
                    cell[7 + before] = 46
                table += cell
    suffix = b"".join(bytes(8) if -4 <= x <= 16 else (b"\0e%+03d" % x).ljust(8, b"\0")
                      for x in range(-_K_MAX - 1, _K_MAX + 2))
    cells = f"V{_CELL}"
    return (scale, at_least, blocks.view(np.uint32).ravel(), kept.ravel(),
            np.frombuffer(own, cells), np.frombuffer(shifted, cells),
            np.frombuffer(literal[0] + literal[1], cells), np.frombuffer(suffix, np.uint64))


def _decimal(v: np.ndarray) -> tuple:
    """(parts, x, certain): |v| = d * 10^(x - 16) with d rounded to 17 digits.

    k = floor(log10|v|) is corrected at powers of ten, and d = round(|v| * 10^(16-k))
    comes from Dekker's exact product of |v| and hi plus |v| * lo, to within about
    1e-14. p = |v| * hi rounded is an integer above 2^53, so d = p + (the rounded
    rest) is exact as one int64. d is in [10^16, 10^17), or 0 for +-0; parts holds
    its lead digit and its four 4-digit blocks, by scalar divmod. Not certain:
    within 1e-9 of a rounding tie, non-finite, or |v| outside [1e-280, 1e281).
    """
    scale, at_least = _g17_tables()[:2]
    a = np.abs(v)
    zero = a == 0.0
    certain = (a >= 1e-280) & (a < 1e281)
    a[~certain] = 1.0
    k = np.floor(np.log10(a))  # log10 may round across a power of ten either way
    e = k.astype(np.intp) - _E_MIN
    k[a >= at_least[e + 1]] += 1.0
    k[a < at_least[e]] -= 1.0
    certain &= (k >= _K_MIN) & (k <= _K_MAX)
    k[~certain] = 0.0
    i = (16.0 - _E_MIN - k).astype(np.intp)  # 10^(16-k)
    hi, hi_hi, hi_lo, lo = (column[i] for column in scale)
    p = a * hi
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    frac = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    rest = np.floor(frac)
    frac -= rest  # p is an integer above 2^53, so frac decides the rounding
    certain &= np.abs(frac - 0.5) > 1e-9
    d = p.astype(np.int64) + rest.astype(np.int64) + (frac > 0.5)
    up = d >= 10 ** 17
    d[up] = 10 ** 16
    d[zero] = 0
    parts = np.empty((5, d.size), np.int64)
    np.divmod(d, 10 ** 8, out=(parts[1], parts[3]))
    np.divmod(parts[1], 10 ** 8, out=(parts[0], parts[1]))
    np.divmod(parts[1::2], 10 ** 4, out=(parts[1::2], parts[2::2]))
    k[up] += 1.0
    k[zero] = 0.0
    return parts, k, certain | zero


def _g17(values: np.ndarray) -> np.ndarray:
    """The ``"%.17g" % v`` cells of a float array: row i's non-NUL bytes are v[i]'s cell.

    The layout tables place :func:`_decimal`'s digits, the point, the sign, the
    "0.000" prefix and the exponent suffix as ``%.17g`` does: fixed notation for
    exponents -4 to 16, trailing zeros stripped. Values whose rounding is not
    certain take Python's own ``%.17g``.
    """
    _, _, blocks, kept, own, shifted, literal, suffix = _g17_tables()
    v = np.ravel(values).astype(np.float64, copy=False)
    n = v.size
    parts, x, certain = _decimal(v)
    words = np.zeros((n, _CELL // 4), dtype=np.uint32)
    words[:, 1:6] = blocks[parts.T]  # digit j at byte 7 + j
    cls = x + 4.0
    cls[~((cls >= 0.0) & (cls <= 20.0))] = 21.0  # e-notation
    count = np.maximum(np.maximum(kept[parts[1]], kept[parts[2] + 10000]),
                       np.maximum(kept[parts[3] + 20000], kept[parts[4] + 30000]))
    layout = (cls * 18.0 + count).astype(np.intp)
    signed = layout.copy()
    signed[np.signbit(v)] += _LAYOUTS
    out = literal[signed].view(np.uint8).reshape(n, _CELL)
    # a significand slot takes digit j (before the point) or digit j - 1 (after it)
    flat = out.ravel()
    digits = words.view(np.uint8).ravel()
    select = own[layout]
    taken = select.view(np.uint8)
    taken *= digits
    flat += taken
    np.take(shifted, layout, out=select)
    taken[1:] *= digits[:-1]
    flat[1:] += taken[1:]
    out.view(np.uint64)[:, 3] += suffix[(x + (_K_MAX + 1.0)).astype(np.intp)]
    for i in np.flatnonzero(~certain):
        cell = b"%.17g" % v[i]
        out[i] = 0
        out[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return out


def _csv_rows(columns: list[np.ndarray]):
    """CSV rows of byte columns and float arrays (formatted by :func:`_g17`), in chunks.

    A byte column is a NUL-padded byte matrix with one row per CSV row, or one
    row that every CSV row shares. Each chunk is one concatenate of the cell and
    separator matrices, broadcast to the chunk's rows and laid side by side: a byte
    matrix whose non-NUL bytes, row by row, are the chunk's text.
    """
    floats = [c for c in columns if c.dtype.kind == "f"]
    rows = max(len(c) for c in columns)
    step = _CHUNK // max(1, len(floats))
    for lo in range(0, rows, step):
        r = min(rows - lo, step)
        if floats:
            cells = _g17(np.column_stack([c[lo:lo + r] for c in floats]))
            cells = iter(cells.reshape(r, len(floats), -1).transpose(1, 0, 2))
        parts = []
        for c in columns:
            c = next(cells) if c.dtype.kind == "f" else c if len(c) == 1 else c[lo:lo + r]
            parts += [c, _SEPARATORS[0]]
        parts[-1] = _SEPARATORS[1]
        row = np.concatenate([np.broadcast_to(c, (r, c.shape[1])) for c in parts], axis=1)
        yield row.tobytes().translate(None, b"\0")


def _tokens(values: np.ndarray) -> list[str]:
    """A float array's JSON cells, as ``json.dump`` writes them."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def _csv_column(cell) -> np.ndarray:
    """A block's cell as :func:`_csv_rows` takes it: arrays as they are, else one shared cell."""
    if isinstance(cell, np.ndarray):
        return cell
    return np.frombuffer(_fmt(cell).encode(), np.uint8)[None]


def _write(out_dir: str, stem: str, header: list[str], blocks: list[list], fmt: str) -> None:
    """Write rows to <stem>.<fmt> in the existing ``out_dir`` (JSON as ``json.dump(rows,
    indent=2)`` lays them out); each command creates its directory once.

    A block of rows has one cell per column: a float array, ready-made cells (in
    CSV the byte matrix :func:`_g17` returns, in JSON a list of :func:`_tokens`
    strings), or one value all its rows share. In CSV a float array goes through
    :func:`_g17`, a shared value through :func:`_fmt` (for a float the same
    ``%.17g`` bytes), and :func:`_csv_rows` writes each chunk of rows as one byte
    matrix. In JSON a block is one ``%`` fill of a row template.
    """
    path = os.path.join(out_dir, f"{stem}.{fmt}")
    if fmt == "csv":
        with open(path, "wb") as fh:
            fh.write(",".join(header).encode() + b"\n")
            for block in blocks:
                for text in _csv_rows([_csv_column(c) for c in block]):
                    fh.write(text)
        return
    keys = [json.dumps(k).replace("%", "%%") for k in header]
    body = []
    for block in blocks:
        block = [_tokens(c) if isinstance(c, np.ndarray) else c for c in block]
        columns = [c for c in block if isinstance(c, list)]
        slots = ["%s" if isinstance(c, list) else json.dumps(c).replace("%", "%%") for c in block]
        row = "  {\n" + ",\n".join(map("    {}: {}".format, keys, slots)) + "\n  }"
        values = np.array(columns, dtype=object).T.ravel().tolist()
        body.append(",\n".join([row] * (len(columns[0]) if columns else 1)) % tuple(values))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("[\n" + ",\n".join(body) + "\n]\n")


def _given(**flags) -> dict:
    return {name: value for name, value in flags.items() if value is not None}


def _load(args) -> ExperimentConfig:
    """The config file, with the texts of the flags that are set in place of their keys."""
    return parse_config(args.config, {
        "solve": _given(grid_size=args.grid, tol=args.tol),
        "output": _given(directory=args.out, format=args.fmt, seed=args.seed),
    })


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
    os.makedirs(cfg.out_dir, exist_ok=True)
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
    history = trajectory_values(traj, cfg.problem.psi, grid.history_nodes)  # phi at those times
    blocks = [  # the history rows, whose weighted_u is empty, then the interior rows
        [t[:h], psi_t[:h], None, history, its],
        [t[h:], psi_t[h:], traj.weighted_values, traj.unweight(traj.weighted_values), its],
    ]
    header = ["t", "psi_t", "weighted_u", "u", "residual_iter_count"]
    os.makedirs(cfg.out_dir, exist_ok=True)
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
    fmt = cfg.out_format
    if not cfg.perturbations:
        raise ConfigError("stability run needs at least one perturbation "
                          "([stability] shapes/epsilons)")
    profiles = {}  # ratio-profile file stem -> its perturbation, in config order
    for pert in cfg.perturbations:
        stem = f"ratio_profile_{pert.shape}_{pert.epsilon:g}"
        first = profiles.setdefault(stem, pert)
        if first is not pert:
            raise ConfigError(
                f"perturbations {first.shape} eps={first.epsilon!r} and {pert.shape} "
                f"eps={pert.epsilon!r} share the ratio-profile file {stem}.{fmt}")
    base = solve(cfg.problem, cfg.solve)
    reports = verify_uhml(cfg.problem, cfg.perturbations, cfg.solve, base=base)
    # every ratio profile lies on the base grid, so its time column is formatted once
    times = _g17(reports[0].profile_times) if fmt == "csv" else _tokens(reports[0].profile_times)
    if reports[0].envelope_caveat:  # a property of the run, the same on every report
        print("note: psi(b)-psi(0) < 1, where the mean-value bounds behind "
              "the theoretical constant are extrapolated")
    header = ["shape", "epsilon", "c_theoretical", "c_empirical", "passed", "kappa_used"]
    rows: list[list] = []
    os.makedirs(cfg.out_dir, exist_ok=True)
    for stem, report in zip(profiles, reports):
        rows.append([
            report.shape, report.epsilon, report.c_theoretical,
            report.c_empirical, report.passed, report.kappa_used,
        ])
        _write(cfg.out_dir, stem, ["t", "ratio"], [[times, report.ratio_profile]], fmt)
        print(f"shape={report.shape} epsilon={_fmt(report.epsilon)} "
              f"c_theoretical={_fmt(report.c_theoretical)} "
              f"c_empirical={_fmt(report.c_empirical)} passed={_fmt(report.passed)}")
    _write(cfg.out_dir, "stability", header, rows, fmt)
    # each report's converged already includes the base solve
    return _EXIT_OK if all(r.converged for r in reports) else _EXIT_DIVERGED


_VERIFY_ALPHAS = (0.25, 0.5, 0.75, 1.0)
_VERIFY_SIGMAS = (0.875, 1.25, 1.625, 2.0)


def _sup_rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _power_hint(sigma: float):
    return sigma if sigma < 2.0 else None


def _power_samples(grid, sigma: float) -> np.ndarray:
    x = grid.x
    out = np.zeros_like(x)
    out[1:] = x[1:] ** (sigma - 1.0)
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
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "operator_checks", header, rows, args.fmt)
    return _EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    """--config and the flags that override a config key; their text is read as the key's."""
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--grid", default=None, help="override grid size N")
    sub.add_argument("--tol", default=None, help="override stopping tolerance")
    sub.add_argument("--out", default=None, help="override output directory")
    sub.add_argument("--seed", default=None, help="override experiment seed")
    sub.add_argument("--format", dest="fmt", metavar="{csv,json}", default=None,
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
    ver.add_argument("--out", default=ExperimentConfig.out_dir, help="output directory")
    ver.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default=ExperimentConfig.out_format)
    ver.set_defaults(func=cmd_verify_operators)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process (27 arguments take about 1 ms)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
