"""Acceptance suite.

Each test enforces one numbered acceptance criterion at its stated
tolerance and prints one PASS line (visible under ``pytest -s``).
Expected values are produced by independent oracles: the power-rule
closed form, brute-force Mittag-Leffler series summed with math.lgamma,
scipy's erfc, and classical closed forms.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import erfc

from hilferlab import (
    DelayFFIDE,
    FractionalOrder,
    MlfParams,
    Perturbation,
    SolveConfig,
    catalog,
    frac_integral_grid,
    make_grid,
    mittag_leffler,
    mittag_leffler_values,
    ml_envelope,
    pachpatte_envelope,
    power_rule_reference,
    solve,
    verify_uhml,
)
from hilferlab.cli import main
from hilferlab.problem_model import check_theta

from conftest import (
    ORACLE_PSIS,
    make_linear_problem,
    make_worked_problem,
    ml_series,
    power_hint,
    power_samples,
    sup_rel,
)

ALPHAS = (0.25, 0.5, 0.75, 1.0)
SIGMAS = (0.875, 1.25, 1.625, 2.0)


def test_criterion_01_operator_oracle():
    """frac_integral_grid vs power-rule closed form: <= 1e-3 at N=2000,
    error ratio N=1000 -> N=2000 at least 1.7, total runtime <= 60 s."""
    start = time.perf_counter()
    worst = 0.0
    worst_ratio = math.inf
    for name, psi in ORACLE_PSIS.items():
        for alpha in ALPHAS:
            for sigma in SIGMAS:
                errs = {}
                for n in (1000, 2000):
                    grid = make_grid(psi, 1.0, n, 0.5)
                    got = frac_integral_grid(
                        alpha, psi, power_samples(psi, grid, sigma), grid, power_hint(sigma)
                    )
                    ref = power_rule_reference(alpha, sigma, psi, grid.nodes)
                    errs[n] = sup_rel(got[1:], ref[1:])
                assert errs[2000] <= 1e-3, (name, alpha, sigma, errs)
                worst = max(worst, errs[2000])
                if errs[1000] > 1e-12:  # above the roundoff floor
                    ratio = errs[1000] / errs[2000]
                    worst_ratio = min(worst_ratio, ratio)
                    assert ratio >= 1.7, (name, alpha, sigma, errs)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(
        f"\nPASS criterion 1: operator oracle, worst rel err {worst:.2e} <= 1e-3, "
        f"worst refinement ratio {worst_ratio:.2f} >= 1.7, runtime {elapsed:.1f}s <= 60s"
    )


def test_criterion_02_semigroup():
    """I^0.3 I^0.4 == I^0.7 on the power family within 5e-3 relative."""
    worst = 0.0
    for name, psi in ORACLE_PSIS.items():
        grid = make_grid(psi, 1.0, 2000, 0.5)
        for sigma in SIGMAS:
            samples = power_samples(psi, grid, sigma)
            inner = frac_integral_grid(0.4, psi, samples, grid, power_hint(sigma))
            got = frac_integral_grid(0.3, psi, inner, grid, power_hint(sigma + 0.4))
            ref = frac_integral_grid(0.7, psi, samples, grid, power_hint(sigma))
            rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            worst = max(worst, rel)
            assert rel <= 5e-3, (name, sigma, rel)
    print(f"\nPASS criterion 2: semigroup identity, worst rel err {worst:.2e} <= 5e-3")


def test_criterion_03_mittag_leffler():
    """E_1 = exp and E_2(z^2) = cosh z to 1e-9; E_{1/2}(1) vs e*erfc(-1) to 1e-8."""
    z = np.linspace(-5.0, 5.0, 50)
    err_exp = np.max(np.abs(mittag_leffler_values(MlfParams(alpha=1.0), z) - np.exp(z)))
    assert err_exp <= 1e-9

    z = np.linspace(0.0, 5.0, 50)
    err_cosh = np.max(np.abs(mittag_leffler_values(MlfParams(alpha=2.0), z**2) - np.cosh(z)))
    assert err_cosh <= 1e-9

    reference = float(np.e * erfc(-1.0))
    err_half = abs(mittag_leffler(MlfParams(alpha=0.5), 1.0) - reference)
    assert err_half <= 1e-8
    print(
        f"\nPASS criterion 3: Mittag-Leffler, exp err {err_exp:.1e}, "
        f"cosh err {err_cosh:.1e} <= 1e-9, half-order err {err_half:.1e} <= 1e-8"
    )


def test_criterion_04_closed_form_solve():
    """f = 0.2 u1: weighted solution matches t^(g-1) E_{a,g}(0.2 t^a)
    within 1e-3 at N=2000 for beta in {0, 0.5, 1}, within 30 iterations."""
    for beta in (0.0, 0.5, 1.0):
        problem = make_linear_problem(beta)
        result = solve(problem, SolveConfig(grid_size=2000, tol=1e-10, max_iter=30))
        assert result.converged and result.iterations <= 30
        gamma = problem.order.gamma
        t = result.trajectory.grid.nodes[1:]
        ref = np.array([ml_series(0.5, gamma, 0.2 * math.sqrt(tt)) for tt in t])
        err = float(np.max(np.abs(result.trajectory.weighted_values - ref)))
        assert err <= 1e-3, (beta, err)
        print(
            f"\nPASS criterion 4 (beta={beta}): weighted max err {err:.2e} <= 1e-3, "
            f"{result.iterations} iterations <= 30"
        )


def test_singular_closed_form_converges_at_second_order():
    """gamma < 1 closed form on exponential psi (alpha 0.5, beta 0.5, f = 0.05 u1,
    u0 = 1): the sup error of w falls by at least 3.5 per doubling of N from
    500 to 4000, with the solution's x^(gamma-1) origin handled by the
    starting weights."""
    problem = replace(make_linear_problem(0.5, lam=0.05), psi=catalog.make_psi("exponential"))
    gamma = problem.order.gamma
    errs = []
    for n in (500, 1000, 2000, 4000):
        result = solve(problem, SolveConfig(grid_size=n, tol=1e-14))
        assert result.converged
        x = result.trajectory.grid.x[1:]
        ref = np.array([ml_series(0.5, gamma, 0.05 * math.sqrt(xx)) for xx in x])
        errs.append(float(np.max(np.abs(result.trajectory.weighted_values - ref))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert min(ratios) >= 3.5, (errs, ratios)
    print(
        f"\nPASS gamma < 1 closed form: sup errors {', '.join(f'{e:.2e}' for e in errs)}, "
        f"worst ratio per doubling {min(ratios):.2f} >= 3.5"
    )


def test_criterion_05_contraction_rate():
    """Worked delay problem: Theta ~ 0.1204, observed ratio <= Theta + 0.05,
    convergence to 1e-10 within 25 iterations."""
    problem = make_worked_problem()
    theta = check_theta(problem)
    assert theta == pytest.approx(0.12036044449018801, abs=1e-9)
    result = solve(problem, SolveConfig(grid_size=1000, tol=1e-10, max_iter=25))
    assert result.converged and result.iterations <= 25
    assert result.observed_ratio <= theta + 0.05
    print(
        f"\nPASS criterion 5: Theta {theta:.6f}, observed ratio "
        f"{result.observed_ratio:.4f} <= {theta + 0.05:.4f}, "
        f"converged in {result.iterations} <= 25 iterations"
    )


def test_criterion_06_uhml_verification():
    """3 shapes x eps in {1e-2,1e-3,1e-4}: every node obeys
    |v-u| <= C eps E_alpha(t^alpha); history exactly 0; <= 120 s."""
    start = time.perf_counter()
    problem = make_worked_problem()
    config = SolveConfig(grid_size=1000, tol=1e-10)
    grid = make_grid(problem.psi, problem.b, config.grid_size, problem.r)
    base = solve(problem, config, grid=grid)
    worst = 0.0
    c_theory = None
    for shape in ("constant", "sinusoid", "square_wave"):
        for eps in (1e-2, 1e-3, 1e-4):
            [report] = verify_uhml(
                problem,
                [Perturbation(epsilon=eps, shape=shape)],
                config,
                base=base,
            )
            c_theory = report.c_theoretical
            assert report.passed, (shape, eps, report.c_empirical, report.c_theoretical)
            n_hist = report.profile_times[report.profile_times <= 0.0].size
            assert np.all(report.ratio_profile[:n_hist] == 0.0), (shape, eps)
            worst = max(worst, report.c_empirical)
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    print(
        f"\nPASS criterion 6: 9 experiments, worst empirical constant {worst:.4f} "
        f"<= theoretical {c_theory:.4f}, history deviation exactly 0, "
        f"runtime {elapsed:.1f}s <= 120s"
    )


def test_criterion_07_envelope_integral_identity():
    """I^alpha applied to E_alpha((psi-psi0)^alpha) telescopes to the
    envelope minus 1, within 5e-3 relative at N=2000."""
    worst = 0.0
    for name, psi in ORACLE_PSIS.items():
        for alpha in (0.5, 0.75):
            grid = make_grid(psi, 1.0, 2000, 0.5)
            env = ml_envelope(alpha, psi, grid.nodes)
            got = frac_integral_grid(alpha, psi, env, grid)
            ref = env - 1.0
            rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            worst = max(worst, rel)
            assert rel <= 5e-3, (name, alpha, rel)
    print(f"\nPASS criterion 7: envelope integral identity, worst rel err {worst:.2e} <= 5e-3")


def test_criterion_08_pachpatte():
    """q=0, p=c, eta=1 reproduces e^(ct) to 1e-4 at N=2000; synthetic
    solutions of the hypothesis inequality stay below the envelope."""
    t = np.linspace(0.0, 1.0, 2001)
    c = 1.0
    env = pachpatte_envelope(t, np.ones_like(t), np.full_like(t, c), np.zeros_like(t))
    err = float(np.max(np.abs(env - np.exp(c * t))))
    assert err <= 1e-4

    # forward-iterate x = eta + 0.9 int p (x + int q x): satisfies the
    # hypothesis inequality with margin, so it must sit below the envelope
    for p_level, q_level in ((0.8, 0.3), (1.2, 0.0)):
        eta = 1.0 + 0.5 * t
        p = np.full_like(t, p_level)
        q = np.full_like(t, q_level)
        x = eta.copy()
        for _ in range(80):
            inner = cumulative_trapezoid(q * x, t, initial=0.0)
            x_new = eta + 0.9 * cumulative_trapezoid(p * (x + inner), t, initial=0.0)
            if np.max(np.abs(x_new - x)) < 1e-13:
                x = x_new
                break
            x = x_new
        bound = pachpatte_envelope(t, eta, p, q)
        assert np.all(x <= bound), (p_level, q_level)
    print(f"\nPASS criterion 8: Gronwall closed form err {err:.2e} <= 1e-4, "
          f"synthetic solutions dominated at every node")


def test_criterion_09_reduction_consistency():
    """Solving with a callable zero kernel equals the direct kernel-free
    run to 1e-12, with and without beta = 1."""
    base = make_worked_problem()
    config = SolveConfig(grid_size=400, tol=1e-10)
    worst = 0.0
    for beta in (0.5, 1.0):
        order = FractionalOrder(alpha=0.5, beta=beta)
        shared = dict(
            order=order, psi=base.psi, f=base.f, g=base.g, phi=base.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.05, lip_h=0.0,
        )
        general = DelayFFIDE(h_kernel=catalog.make_h("zero"), **shared)
        reduced = DelayFFIDE(h_kernel=None, **shared)
        grid = make_grid(base.psi, 1.0, config.grid_size, 0.5)
        res_general = solve(general, config, grid=grid)
        res_reduced = solve(reduced, config, grid=grid)
        diff = float(
            np.max(
                np.abs(
                    res_general.trajectory.weighted_values
                    - res_reduced.trajectory.weighted_values
                )
            )
        )
        worst = max(worst, diff)
        assert diff <= 1e-12, (beta, diff)
        assert np.array_equal(
            res_general.trajectory.history_values, res_reduced.trajectory.history_values
        )
    print(f"\nPASS criterion 9: reduction paths agree, max deviation {worst:.1e} <= 1e-12")


STABILITY_CONFIG = """
[problem]
psi = identity
alpha = 0.5
beta = 1.0
b = 1.0
r = 0.5
u0 = 1.0
f = linear
f_c1 = 0.05
f_c2 = 0.05
f_c3 = 0.05
h = linear
h_d1 = 0.1
h_d2 = 0.1
g = constant_lag
g_lag = 0.5
phi = cosine
lip_f = 0.05
lip_h = 0.1

[solve]
grid_size = 150
tol = 1e-10

[stability]
shapes = constant, smooth_random
epsilons = 1e-2, 1e-3

[output]
directory = {out}
format = csv
seed = 42
"""


def test_criterion_10_determinism(tmp_path):
    """Two cmd_stability runs with identical config and seed produce
    byte-identical outputs."""
    config_path = tmp_path / "experiment.ini"
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    config_path.write_text(STABILITY_CONFIG.format(out=out_a))
    assert main(["stability", "--config", str(config_path)]) == 0
    assert main(["stability", "--config", str(config_path), "--out", str(out_b)]) == 0
    names_a = sorted(os.listdir(out_a))
    names_b = sorted(os.listdir(out_b))
    assert names_a == names_b and len(names_a) >= 5
    for name in names_a:
        with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
            assert fa.read() == fb.read(), name
    print(f"\nPASS criterion 10: {len(names_a)} output files byte-identical across reruns")
