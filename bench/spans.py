"""Spans timed from outside the program.

The tracer replaces public names in the modules that consume them (for
example ``hilferlab.picard_solver.frac_integral_grid``) by wrappers that
open a span around the call, and puts every original back on
:meth:`Patcher.restore`. Spans nest on a stack; a span's self time is its
duration minus the time covered by its child spans. Only per-name totals
are kept: calls, inclusive seconds, self seconds and counts.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Patcher:
    """Installs replacements on module attributes and puts the originals back."""

    def __init__(self):
        self._installed: list[tuple[object, str, object, object]] = []

    def install(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        replacement = make(original)
        setattr(module, attr, replacement)
        self._installed.append((module, attr, original, replacement))

    def restore(self) -> list[str]:
        """Undo every install, newest first; returns the names not restored."""
        broken = []
        for module, attr, original, replacement in reversed(self._installed):
            if getattr(module, attr) is not replacement:
                broken.append(f"{module.__name__}.{attr} changed while patched")
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                broken.append(f"{module.__name__}.{attr}")
        self._installed.clear()
        return broken


class Tracer:
    """Span stack plus per-name totals: calls, inclusive and self seconds, counts."""

    def __init__(self):
        self.patcher = Patcher()
        self._stack: list[list] = []  # [name, start, child_s]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += dur
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[2]

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """fn wrapped in a span; on_call(args) and on_result(result) update counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self.counts, args, kwargs)
            result = self.run(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def span(self, module, attr: str, name: str, on_call=None, on_result=None) -> None:
        """Replace module.attr by a span wrapper."""
        self.patcher.install(module, attr,
                             lambda fn: self.wrap(name, fn, on_call, on_result))

    def count(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a call counter without a span (for hot scalar calls)."""
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        self.patcher.install(module, attr, make)

    def snapshot(self) -> dict[str, float]:
        """Every total so far, keyed '<name>.calls', '.s', '.self_s' and count names."""
        out = dict(self.counts)
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out


def _points(key: str, arg: int):
    def on_call(counts, args, kwargs):
        counts[key] += np.size(args[arg])
    return on_call


def _broadcast_points(key: str):
    def on_call(counts, args, kwargs):
        counts[key] += np.broadcast(*args).size
    return on_call


def _solve_result(counts, result) -> None:
    counts["picard_solver.sweeps"] += result.iterations
    counts["picard_solver.converged"] += bool(result.converged)


def install(tracer: Tracer) -> None:
    """Wrap the public names each consuming module imports, one span per layer."""
    from hilferlab import cli, config, picard_solver, special_functions, stability_lab

    def catalog_maker(name: str):
        def make(build):
            @functools.wraps(build)
            def traced_build(*args, **kwargs):
                fn = build(*args, **kwargs)
                if fn is None:
                    return None
                return tracer.wrap(name, fn, on_call=_broadcast_points(f"{name}.points"))
            return traced_build
        return make

    tracer.patcher.install(config, "make_f", catalog_maker("catalog.f"))
    tracer.patcher.install(config, "make_h", catalog_maker("catalog.h"))
    tracer.span(cli, "parse_config", "config.parse")
    for module in (config, picard_solver):
        tracer.span(module, "validate_problem", "problem_model")
    tracer.span(picard_solver, "check_theta", "problem_model")
    tracer.span(picard_solver, "check_bielecki", "problem_model")
    tracer.span(stability_lab, "estimate_zeta", "problem_model")
    tracer.span(picard_solver, "certify_contraction", "picard_solver.certify")
    for module in (cli, stability_lab):
        tracer.span(module, "solve", "picard_solver.solve", on_result=_solve_result)
    for module in (cli, picard_solver, stability_lab):
        tracer.span(module, "make_grid", "psi_calculus.make_grid")
    tracer.span(picard_solver, "frac_integral_grid", "psi_calculus.frac_integral",
                on_call=_points("psi_calculus.frac_integral.points", 2))
    tracer.span(cli, "verify_uhml", "stability_lab.verify_uhml")
    tracer.span(stability_lab, "mittag_leffler_values", "special_functions.ml_values",
                on_call=_points("special_functions.ml_values.points", 1))
    tracer.count(stability_lab, "mittag_leffler", "special_functions.mittag_leffler.calls")
    tracer.count(special_functions, "mittag_leffler", "special_functions.mittag_leffler.calls")


#: Per-layer metrics: name -> (unit, total, divisor or None), read from one op's totals.
LAYER_METRICS = {
    "cli.self_s": ("s", "cli.self_s", None),
    "config.parse_s": ("s", "config.parse.s", None),
    "catalog.f.calls": ("count", "catalog.f.calls", None),
    "catalog.f.points": ("count", "catalog.f.points", None),
    "catalog.h.calls": ("count", "catalog.h.calls", None),
    "catalog.h.points": ("count", "catalog.h.points", None),
    "catalog.h.s": ("s", "catalog.h.s", None),
    "problem_model.calls": ("count", "problem_model.calls", None),
    "problem_model.s": ("s", "problem_model.s", None),
    "picard_solver.solve.calls": ("count", "picard_solver.solve.calls", None),
    "picard_solver.solve.self_s": ("s", "picard_solver.solve.self_s", None),
    "picard_solver.sweeps": ("count", "picard_solver.sweeps", None),
    "picard_solver.s_per_sweep": ("s", "picard_solver.solve.s", "picard_solver.sweeps"),
    "picard_solver.converged_ratio": (
        "1", "picard_solver.converged", "picard_solver.solve.calls"),
    "picard_solver.certify_s": ("s", "picard_solver.certify.s", None),
    "psi_calculus.frac_integral.calls": ("count", "psi_calculus.frac_integral.calls", None),
    "psi_calculus.frac_integral.s": ("s", "psi_calculus.frac_integral.s", None),
    "psi_calculus.frac_integral.s_per_call": (
        "s", "psi_calculus.frac_integral.s", "psi_calculus.frac_integral.calls"),
    "psi_calculus.frac_integral.points": ("count", "psi_calculus.frac_integral.points", None),
    "psi_calculus.make_grid_s": ("s", "psi_calculus.make_grid.s", None),
    "special_functions.ml_values.s": ("s", "special_functions.ml_values.s", None),
    "special_functions.ml_values.points": (
        "count", "special_functions.ml_values.points", None),
    "special_functions.mittag_leffler.calls": (
        "count", "special_functions.mittag_leffler.calls", None),
    "stability_lab.verify_uhml.calls": ("count", "stability_lab.verify_uhml.calls", None),
    "stability_lab.verify_uhml.self_s": ("s", "stability_lab.verify_uhml.self_s", None),
}


def layer_value(totals: dict, total: str, divisor: str | None) -> float:
    """One layer metric of an op; a layer the op never called reads 0."""
    value = totals.get(total, 0)
    return value / max(1, totals.get(divisor, 0)) if divisor else value
