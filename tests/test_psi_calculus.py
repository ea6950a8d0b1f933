import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from hilferlab import (
    DelayRangeError,
    FractionalOrder,
    Grid,
    GridError,
    PsiFunction,
    SolveConfig,
    Trajectory,
    bielecki_norm,
    catalog,
    eval_F,
    frac_integral_grid,
    hilfer_derivative_grid,
    make_grid,
    picard_step,
    power_rule_reference,
    psi_calculus,
    trajectory_values,
    weighted_norm,
)

from conftest import ORACLE_PSIS, power_exp_integral, power_hint, power_samples, sup_rel

#: psi(t) = t^2 + t, increasing on [0, b] with analytic inverse.
QUADRATIC_PSI = PsiFunction(
    fn=lambda t: np.asarray(t, dtype=float) ** 2 + np.asarray(t, dtype=float),
    deriv=lambda t: 2.0 * np.asarray(t, dtype=float) + 1.0,
    label="t^2+t",
    inverse=lambda y: 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * np.asarray(y, dtype=float))),
)

INVARIANT_PSIS = {
    "identity": ORACLE_PSIS["identity"],
    "exponential": ORACLE_PSIS["exponential"],
    "quadratic": QUADRATIC_PSI,
}


class TestGrid:
    def test_construction(self, identity_psi):
        g = make_grid(identity_psi, 1.0, 10, 0.5)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert g.history_nodes[0] == -0.5 and g.history_nodes[-1] == 0.0
        assert g.n_intervals == 10

    def test_uniform_in_psi_spacing(self):
        psi = ORACLE_PSIS["exponential"]
        g = make_grid(psi, 1.0, 64, 0.5, uniform_in="psi")
        x = psi.shifted(g.nodes)
        assert np.allclose(np.diff(x), np.diff(x)[0], rtol=1e-9)
        g_t = make_grid(psi, 1.0, 64, 0.5, uniform_in="t")
        assert np.allclose(np.diff(g_t.nodes), np.diff(g_t.nodes)[0], rtol=1e-12)

    def test_uniform_in_psi_without_inverse(self):
        psi = PsiFunction(fn=np.exp, deriv=np.exp, label="exp-noinv")
        g = make_grid(psi, 1.0, 16, 0.5)
        x = psi.shifted(g.nodes)
        assert np.allclose(np.diff(x), np.diff(x)[0], rtol=1e-9)

    @pytest.mark.parametrize("name,params", [("exponential", {}), ("shifted_power", {"rho": 0.5})])
    @pytest.mark.parametrize("n", [16, 4000])
    def test_bisection_inverse_matches_catalog_inverse(self, name, params, n):
        # without an inverse the nodes come from bisection; they agree with the
        # catalog's closed-form inverse to a few ulps of b = 1
        psi = catalog.make_psi(name, **params)
        ref = make_grid(psi, 1.0, n, 0.5)
        got = make_grid(dataclasses.replace(psi, inverse=None), 1.0, n, 0.5)
        assert np.max(np.abs(got.nodes - ref.nodes)) <= 4e-16
        assert np.array_equal(got.x, ref.x)

    @pytest.mark.parametrize(
        "nodes,history,x",
        [
            # too few nodes
            pytest.param([0.0, 1.0], [-1.0, 0.0], [0.0, 1.0], id="nodes0-history0"),
            # does not start at 0
            pytest.param([0.1, 0.5, 1.0], [-1.0, 0.0], [0.0, 0.4, 0.9], id="nodes1-history1"),
            # not increasing
            pytest.param([0.0, 0.5, 0.4], [-1.0, 0.0], [0.0, 0.5, 1.0], id="nodes2-history2"),
            # history not ending at 0
            pytest.param([0.0, 0.5, 1.0], [-1.0, -0.1], [0.0, 0.5, 1.0], id="nodes3-history3"),
            # too short history
            pytest.param([0.0, 0.5, 1.0], [0.0], [0.0, 0.5, 1.0], id="nodes4-history4"),
            pytest.param([0.0, 0.5, 1.0], [-1.0, 0.0], None, id="x-missing"),
            pytest.param([0.0, 0.5, 1.0], [-1.0, 0.0], [0.1, 0.5, 1.0], id="x-not-at-0"),
            pytest.param([0.0, 0.5, 1.0], [-1.0, 0.0], [0.0, 1.0], id="x-too-short"),
            pytest.param([0.0, 0.5, 1.0], [-1.0, 0.0], [0.0, 0.6, 0.5], id="x-decreasing"),
            pytest.param([0.0, 0.5, 1.0], [-1.0, 0.0], [0.0, 0.5, 0.5], id="x-repeated"),
            pytest.param([0.0, 0.5, 1.0], [-1.0, 0.0], [0.0, np.nan, 1.0], id="x-nan"),
        ],
    )
    def test_invalid_grids(self, nodes, history, x):
        with pytest.raises(GridError):
            Grid(nodes=np.array(nodes), history_nodes=np.array(history),
                 x=None if x is None else np.array(x))

    @pytest.mark.parametrize(
        "name,params,exact",
        [
            ("identity", {}, lambda t: t),
            ("exponential", {}, lambda t: t + t * t / 2.0),
            ("shifted_power", {"rho": 1.5}, lambda t: 1.5 * t + 0.375 * t * t),
        ],
    )
    def test_catalog_shift_is_exact_near_origin(self, name, params, exact):
        psi = catalog.make_psi(name, **params)
        t = np.array([0.0, 1e-300, 5.5e-17, 1e-12, 1e-8])
        x = np.asarray(psi.shifted(t), dtype=float)
        assert x[0] == 0.0
        assert np.allclose(x[1:], exact(t[1:]), rtol=1e-15, atol=0.0)
        far = np.linspace(0.1, 1.0, 10)
        assert np.allclose(psi.shifted(far), psi.fn(far) - psi.fn(0.0), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "name,params",
        [("identity", {}), ("exponential", {}), ("shifted_power", {"rho": 2.0}),
         ("shifted_power", {"rho": 1.5})],
    )
    def test_catalog_inverse_round_trip(self, name, params):
        # inverse maps x to t with psi(t) - psi(0) = x, so grid nodes uniform in psi
        # land on their own x to 2 ulp, also next to the origin
        psi = catalog.make_psi(name, **params)
        eps = np.finfo(float).eps
        x = np.logspace(-300.0, 0.0, 601)
        assert np.max(np.abs(psi.shifted(psi.inverse(x)) - x) / x) <= 2.0 * eps
        grid = make_grid(psi, 1.0, 4000, 0.5)
        x = grid.x[1:]
        assert np.max(np.abs(psi.shifted(grid.nodes[1:]) - x) / x) <= 2.0 * eps

    def test_equality_is_identity(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 10, 0.5)
        twin = make_grid(identity_psi, 1.0, 10, 0.5)
        assert grid == grid and {grid: 1}[grid] == 1
        assert grid != twin  # same contents, distinct grids: compared without raising
        assert np.array_equal(grid.nodes, twin.nodes) and np.array_equal(grid.x, twin.x)

    def test_psi_uniform_is_exact(self):
        identity, exponential = ORACLE_PSIS["identity"], ORACLE_PSIS["exponential"]
        for uniform_in in ("psi", "t"):
            assert make_grid(identity, 1.0, 16000, 0.5, uniform_in=uniform_in).psi_uniform
        assert make_grid(exponential, 1.0, 64, 0.5).psi_uniform
        assert not make_grid(exponential, 1.0, 64, 0.5, uniform_in="t").psi_uniform
        x = np.linspace(0.0, 1.0, 65)
        x[7] = np.nextafter(x[7], 2.0)  # one ulp off the linspace is not uniform
        assert not Grid(nodes=x, history_nodes=np.array([-1.0, 0.0]), x=x).psi_uniform

    @pytest.mark.parametrize("n", [4000, 8000, 16000])
    @pytest.mark.parametrize("psi_name", sorted(catalog.PSI_CATALOG))
    def test_catalog_grids_take_uniform_path(self, psi_name, n, monkeypatch):
        psi = catalog.make_psi(psi_name)
        grid = make_grid(psi, 1.0, n, 0.5)
        assert grid.psi_uniform

        def refuse(*args):
            raise AssertionError("psi-uniform grid entered the general quadrature path")

        monkeypatch.setattr(psi_calculus, "_product_trapezoid_general", refuse)
        out = frac_integral_grid(0.5, psi, np.ones_like(grid.nodes), grid)
        # I^{1/2}[1] = x^(1/2) / Gamma(3/2), exact for constant data
        assert out[-1] == pytest.approx(grid.x[-1] ** 0.5 / 0.886226925452758, rel=1e-10)

    @pytest.mark.parametrize("uniform_in", ["psi", "t"])
    @pytest.mark.parametrize("psi_name", sorted(catalog.PSI_CATALOG))
    def test_psi_must_match_grid(self, psi_name, uniform_in):
        psi = catalog.make_psi(psi_name)
        other = catalog.make_psi("exponential" if psi_name == "identity" else "identity")
        grid = make_grid(psi, 1.0, 50, 0.5, uniform_in=uniform_in)
        ones = np.ones_like(grid.nodes)
        frac_integral_grid(0.5, psi, ones, grid)
        with pytest.raises(GridError):
            frac_integral_grid(0.5, other, ones, grid)


class TestFracIntegral:
    def test_zero_function(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 50, 0.5)
        out = frac_integral_grid(0.5, identity_psi, np.zeros_like(grid.nodes), grid)
        assert np.all(out == 0.0)

    def test_constant_half_order(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 2000, 0.5)
        out = frac_integral_grid(0.5, identity_psi, np.ones_like(grid.nodes), grid)
        # I^{0.5}[1](1) = 1/Gamma(1.5) = 1.1283791670955126
        assert out[-1] == pytest.approx(1.1283791670955126, rel=1e-6)
        assert out[0] == 0.0

    def test_classical_integral(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 100, 0.5)
        out = frac_integral_grid(1.0, identity_psi, grid.nodes.copy(), grid)
        assert out[-1] == pytest.approx(0.5, rel=1e-13)

    def test_argument_validation(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 10, 0.5)
        with pytest.raises(ValueError):
            frac_integral_grid(0.0, identity_psi, np.ones_like(grid.nodes), grid)
        with pytest.raises(ValueError):
            frac_integral_grid(1.5, identity_psi, np.ones_like(grid.nodes), grid)
        with pytest.raises(GridError):
            frac_integral_grid(0.5, identity_psi, np.ones(3), grid)
        bad = np.ones_like(grid.nodes)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            frac_integral_grid(0.5, identity_psi, bad, grid)

    @pytest.mark.parametrize("psi_name", sorted(INVARIANT_PSIS))
    @pytest.mark.parametrize("alpha,sigma", [(0.5, 0.875), (0.25, 1.25), (0.9, 1.625)])
    def test_power_rule_oracle(self, psi_name, alpha, sigma):
        # the hinted rule integrates the power x^(sigma-1) exactly, so the
        # integrand x^(sigma-1) e^x carries the terms it only approximates
        psi = INVARIANT_PSIS[psi_name]
        errs = {}
        for n in (1000, 2000):
            grid = make_grid(psi, 1.0, n, 0.5)
            x = np.asarray(psi.shifted(grid.nodes), dtype=float)
            samples = power_samples(psi, grid, sigma) * np.exp(x)
            got = frac_integral_grid(alpha, psi, samples, grid, power_hint(sigma))
            errs[n] = sup_rel(got[1:], power_exp_integral(alpha, sigma, x[1:]))
        assert errs[2000] <= 1e-3
        assert errs[2000] < errs[1000]

    @pytest.mark.parametrize("psi_name", sorted(INVARIANT_PSIS))
    def test_semigroup(self, psi_name):
        psi = INVARIANT_PSIS[psi_name]
        grid = make_grid(psi, 1.0, 2000, 0.5)
        for sigma in (0.875, 1.25, 2.0):
            samples = power_samples(psi, grid, sigma)
            inner = frac_integral_grid(0.4, psi, samples, grid, power_hint(sigma))
            got = frac_integral_grid(0.3, psi, inner, grid, power_hint(sigma + 0.4))
            ref = frac_integral_grid(0.7, psi, samples, grid, power_hint(sigma))
            assert np.max(np.abs(got - ref)) <= 5e-3 * np.max(np.abs(ref))

    def test_uniform_and_general_paths_agree(self):
        # at N = 16000 one input carries both features (w_0 != 0, singular slope at 0),
        # since each general-path reference is an O(N^2) sum of a few seconds
        for psi_name, n, combine in (("exponential", 2000, False), ("identity", 16000, True)):
            psi = ORACLE_PSIS[psi_name]
            grid = make_grid(psi, 1.0, n, 0.5)
            x = grid.x
            inputs = (1.0 + x + np.cos(2.0 * x), np.sqrt(x))
            for alpha in (0.25, 0.5, 0.9):
                spectra = psi_calculus._uniform_spectra(alpha, float(np.diff(x).mean()), n)
                for w in (sum(inputs),) if combine else inputs:
                    uniform = psi_calculus._product_trapezoid_uniform(spectra, w)
                    general = psi_calculus._product_trapezoid_general(alpha, x, w)
                    assert sup_rel(uniform, general) <= 1e-13

    @pytest.mark.parametrize("uniform_in", ["psi", "t"])
    def test_stacked_samples_match_per_row_calls(self, uniform_in):
        # the starting weights integrate their three basis rows in one call; N = 600 spans
        # three row blocks of the general path, the last one partial
        psi = ORACLE_PSIS["exponential"]
        grid = make_grid(psi, 1.0, 600, 0.5, uniform_in=uniform_in)
        x = grid.x
        stacked = np.stack((1.0 + x + np.cos(2.0 * x), np.sqrt(x), x ** 1.25))
        for alpha in (0.25, 0.9):
            spectra = (psi_calculus._uniform_spectra(alpha, float(np.diff(x).mean()), 600)
                       if grid.psi_uniform else None)
            together = psi_calculus._product_trapezoid(alpha, x, spectra, stacked)
            for row, w in zip(together, stacked):
                alone = psi_calculus._product_trapezoid(alpha, x, spectra, w)
                assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("uniform_in", ["psi", "t"])
    @pytest.mark.parametrize("hint", [None, 0.75])
    def test_stacked_integral_matches_per_row_calls(self, uniform_in, hint):
        # a (P, N+1) stack is integrated row by row bit for bit, on the FFT path ("psi")
        # and the panel path ("t"), with and without starting weights
        psi = ORACLE_PSIS["exponential"]
        grid = make_grid(psi, 1.0, 300, 0.5, uniform_in=uniform_in)
        assert grid.psi_uniform == (uniform_in == "psi")
        x = grid.x
        stack = np.stack((1.0 + x + np.cos(2.0 * x), np.sqrt(x), x ** 1.25, -np.exp(x)))
        for alpha in (0.3, 0.8):
            together = frac_integral_grid(alpha, psi, stack, grid, hint)
            assert together.shape == stack.shape
            for row, w in zip(together, stack):
                alone = frac_integral_grid(alpha, psi, w, grid, hint)
                assert row.tobytes() == alone.tobytes()

    def test_stack_must_match_the_nodes(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 10, 0.5)
        for shape in ((2, 10), (2, 12), (1, 2, 11)):
            with pytest.raises(GridError, match="does not match grid shape"):
                frac_integral_grid(0.5, identity_psi, np.ones(shape), grid)

    def test_fft_length_is_scipy_next_fast_len(self):
        # the convolution length is the smallest 5-smooth n, as scipy's real-FFT rule
        sizes = [*range(1, 5001), *(2 * n + 1 for n in (64, 1000, 2000, 4000, 16000))]
        sizes += np.random.default_rng(7).integers(5001, 10**6, 200).tolist()
        for n in sizes:
            assert psi_calculus._fast_len(n) == next_fast_len(n, real=True), n

    def test_one_transform_each_way(self, monkeypatch):
        # the uniform kernel is one spectrum; a stack of any height takes one rfft and one
        # irfft, with or without starting weights
        psi = ORACLE_PSIS["exponential"]
        grid = make_grid(psi, 1.0, 300, 0.5)
        x = grid.x
        calls = []

        def counted(name, transform):
            def call(*args, **kwargs):
                calls.append(name)
                return transform(*args, **kwargs)
            return call

        monkeypatch.setattr(psi_calculus, "rfft", counted("rfft", psi_calculus.rfft))
        monkeypatch.setattr(psi_calculus, "irfft", counted("irfft", psi_calculus.irfft))
        psi_calculus._uniform_spectra(0.5, float(np.diff(x).mean()), 300)
        assert calls == ["rfft"]
        for hint in (None, 0.75):
            frac_integral_grid(0.5, psi, np.sqrt(x), grid, hint)  # builds the weights
            for rows in (1, 8):
                calls.clear()
                stack = np.sqrt(x) * np.arange(1.0, rows + 1.0)[:, None]
                frac_integral_grid(0.5, psi, stack, grid, hint)
                assert calls == ["rfft", "irfft"], (hint, rows)

    def test_grid_weights_built_once_per_order(self, monkeypatch):
        psi = ORACLE_PSIS["exponential"]
        grid = make_grid(psi, 1.0, 400, 0.5)
        keys = ((0.5, 0.75), (0.25, 0.75), (0.5, 1.5))
        fresh = {key: make_grid(psi, 1.0, 400, 0.5) for key in keys}
        first = power_samples(psi, grid, 0.75)
        second = first * (1.0 + grid.x)
        expected = {(alpha, rho): frac_integral_grid(alpha, psi, second, g, rho)
                    for (alpha, rho), g in fresh.items()}
        frac_integral_grid(0.5, psi, first, grid, 0.75)

        def refuse(*args):
            raise AssertionError("starting weights rebuilt")

        monkeypatch.setattr(psi_calculus, "power_columns", refuse)
        again = frac_integral_grid(0.5, psi, second, grid, 0.75)
        assert np.array_equal(again, expected[(0.5, 0.75)])
        frac_integral_grid(0.5, psi, second, grid)  # no origin model, no starting weights
        for alpha, rho in ((0.25, 0.75), (0.5, 1.5)):
            with pytest.raises(AssertionError, match="rebuilt"):
                frac_integral_grid(alpha, psi, second, grid, rho)
        monkeypatch.undo()
        # each (alpha, rho) keeps its own weights, whatever order they were built in
        for (alpha, rho), want in reversed(list(expected.items())):
            assert np.array_equal(frac_integral_grid(alpha, psi, second, grid, rho), want)

    @pytest.mark.parametrize("uniform_in", ["psi", "t"])
    @pytest.mark.parametrize("alpha,rho", [(0.5, 0.75), (0.25, 0.5), (0.9, 1.125)])
    def test_starting_weights_exact_on_basis(self, uniform_in, alpha, rho):
        # the hinted rule integrates x^(rho-1+e), e in {0, alpha, 2 alpha}, exactly on
        # both quadrature paths; at N = 2 only the first two exponents fit
        psi = ORACLE_PSIS["exponential"]
        for n in (2, 400):
            grid = make_grid(psi, 1.0, n, 0.5, uniform_in=uniform_in)
            assert grid.psi_uniform == (uniform_in == "psi")
            for e in (0.0, alpha, 2.0 * alpha)[:n]:
                samples = np.full_like(grid.x, 7.0)  # the sample at x = 0 is ignored
                samples[1:] = grid.x[1:] ** (rho - 1.0 + e)
                got = frac_integral_grid(alpha, psi, samples, grid, rho)
                ref = power_rule_reference(alpha, rho + e, psi, grid.nodes[1:])
                assert sup_rel(got[1:], ref) <= 1e-13, (n, e)

    def test_small_order_hint(self, identity_psi):
        # below alpha ~ 0.007 the fit's condition bound keeps two of the three hinted
        # powers: the rule stays exact on those, and x^(rho-1) e^x errs by 5.7e-6
        alpha, rho = 0.005, 0.75
        grid = make_grid(identity_psi, 1.0, 2000, 0.5)
        x = grid.x
        for e in (0.0, alpha):
            samples = np.zeros_like(x)
            samples[1:] = x[1:] ** (rho - 1.0 + e)
            got = frac_integral_grid(alpha, identity_psi, samples, grid, rho)
            ref = power_rule_reference(alpha, rho + e, identity_psi, grid.nodes[1:])
            assert sup_rel(got[1:], ref) <= 1e-13, e
        samples = power_samples(identity_psi, grid, rho) * np.exp(x)
        got = frac_integral_grid(alpha, identity_psi, samples, grid, rho)
        assert sup_rel(got[1:], power_exp_integral(alpha, rho, x[1:])) <= 8e-6

    def test_nonuniform_grid_path(self):
        # uniform-in-t nodes under a nonlinear psi exercise the general panel sum
        psi = ORACLE_PSIS["exponential"]
        grid = make_grid(psi, 1.0, 800, 0.5, uniform_in="t")
        got = frac_integral_grid(0.5, psi, power_samples(psi, grid, 1.5), grid)
        ref = power_rule_reference(0.5, 1.5, psi, grid.nodes)
        assert sup_rel(got[1:], ref[1:]) <= 2e-3


class TestPowerFit:
    @pytest.mark.parametrize("uniform_in", ["psi", "t"])
    @pytest.mark.parametrize("alpha", [0.001, 0.1, 0.5])
    def test_rows_recover_the_coefficients(self, uniform_in, alpha):
        # row q of node_fit maps samples of sum_q c_q (x - shift)^q to c_q itself: at the
        # origin, past a shift on node 4 and past one between nodes 4 and 5
        grid = make_grid(ORACLE_PSIS["exponential"], 1.0, 400, 0.5, uniform_in=uniform_in)
        x = grid.x
        rng = np.random.default_rng(7)
        for first, shift in ((0, 0.0), (5, x[4]), (6, 0.5 * (x[4] + x[5]))):
            kept, fit = psi_calculus.node_fit(grid, psi_calculus.power_exponents(alpha),
                                              first, shift)
            coefs = rng.uniform(0.5, 2.0, len(kept))
            y = x[first : first + len(kept)] - shift
            samples = (y[:, None] ** np.array(kept) * coefs).sum(axis=1)
            assert sup_rel(fit @ samples, coefs) <= 1e-10, (first, kept)

    def test_powers_kept(self):
        # every power for alpha >= 1/2, five at alpha = 0.3, four at 0.01 and 0.001, and
        # never more than six, on psi- and t-uniform grids of 200 to 4000 intervals
        alphas = [0.001, *np.round(np.arange(0.005, 1.0, 0.005), 3).tolist(), 1.0]
        for psi in ORACLE_PSIS.values():
            for n in (200, 1000, 4000):
                for uniform_in in ("psi", "t"):
                    grid = make_grid(psi, 1.0, n, 0.5, uniform_in=uniform_in)
                    for alpha in alphas:
                        offered = psi_calculus.power_exponents(alpha)
                        kept, _ = psi_calculus.node_fit(grid, offered)
                        assert len(kept) <= 6, alpha
                        if alpha >= 0.5:
                            assert kept == offered, alpha
                        if alpha in (0.001, 0.01):
                            assert len(kept) == 4, alpha
                        if alpha == 0.3:
                            assert kept == pytest.approx([0.0, 1.0, 0.3, 0.6, 0.9]), kept


class TestPowerRuleReference:
    def test_values(self, identity_psi):
        assert power_rule_reference(0.5, 1.0, identity_psi, 1.0) == pytest.approx(
            1.1283791670955126, rel=1e-12
        )
        assert power_rule_reference(1.0, 1.0, identity_psi, 2.0) == pytest.approx(
            2.0, rel=1e-12
        )
        # Gamma(0.7)/Gamma(1.0) = 1.298055332647558
        assert power_rule_reference(0.3, 0.7, identity_psi, 1.0) == pytest.approx(
            1.298055332647558, rel=1e-12
        )

    def test_domain(self, identity_psi):
        with pytest.raises(ValueError):
            power_rule_reference(0.0, 1.0, identity_psi, 1.0)
        with pytest.raises(ValueError):
            power_rule_reference(0.5, -1.0, identity_psi, 1.0)


class TestHilferDerivative:
    def test_constant_caputo_path(self, identity_psi):
        order = FractionalOrder(alpha=0.5, beta=1.0)
        grid = make_grid(identity_psi, 1.0, 400, 0.5)
        out = hilfer_derivative_grid(order, identity_psi, np.full_like(grid.nodes, 3.7), grid)
        assert np.max(np.abs(out[1:])) <= 1e-8

    def test_zero_function(self, identity_psi):
        order = FractionalOrder(alpha=0.4, beta=0.3)
        grid = make_grid(identity_psi, 1.0, 100, 0.5)
        out = hilfer_derivative_grid(order, identity_psi, np.zeros_like(grid.nodes), grid)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("psi_name", ["identity", "exponential"])
    def test_power_rule_riemann_liouville_path(self, psi_name):
        # sigma=1.8, alpha=0.5, beta=0: derivative is
        # Gamma(1.8)/Gamma(1.3) x^0.3 = 1.037787389397271 x^0.3
        psi = INVARIANT_PSIS[psi_name]
        order = FractionalOrder(alpha=0.5, beta=0.0)
        grid = make_grid(psi, 1.0, 2000, 0.5)
        x = np.asarray(psi.shifted(grid.nodes), dtype=float)
        out = hilfer_derivative_grid(order, psi, x**0.8, grid, origin_exponent=1.8)
        ref = 1.037787389397271 * x**0.3
        assert sup_rel(out[1:], ref[1:]) <= 5e-2

    def test_annihilates_homogeneous_power(self, identity_psi):
        # the power x^(gamma-1) is in the kernel of the derivative
        order = FractionalOrder(alpha=0.5, beta=0.5)
        gamma = order.gamma
        grid = make_grid(identity_psi, 1.0, 1000, 0.5)
        x = np.asarray(identity_psi.shifted(grid.nodes), dtype=float)
        samples = np.zeros_like(x)
        samples[1:] = x[1:] ** (gamma - 1.0)
        out = hilfer_derivative_grid(order, identity_psi, samples, grid, origin_exponent=gamma)
        interior = out[5:]  # end stencils touch the modelled origin panels
        assert np.max(np.abs(interior)) <= 5e-2 * np.max(np.abs(samples[1:]))

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_left_inverse_on_smooth_data(self, identity_psi, beta):
        order = FractionalOrder(alpha=0.6, beta=beta)
        grid = make_grid(identity_psi, 1.0, 2000, 0.5)
        x = np.asarray(identity_psi.shifted(grid.nodes), dtype=float)
        smooth = 1.0 + x + np.cos(2.0 * x)
        integral = frac_integral_grid(order.alpha, identity_psi, smooth, grid)
        recovered = hilfer_derivative_grid(
            order, identity_psi, integral, grid, origin_exponent=order.alpha + 1.0
        )
        # finite-difference limited; tolerance matches the documented 5e-2
        assert sup_rel(recovered[1:], smooth[1:]) <= 5e-2

    def test_inversion_with_initial_term(self, identity_psi):
        # I^alpha D^{alpha,beta} removes exactly the x^(gamma-1) component
        order = FractionalOrder(alpha=0.5, beta=0.5)
        gamma = order.gamma
        sigma = 1.9
        grid = make_grid(identity_psi, 1.0, 2000, 0.5)
        x = np.asarray(identity_psi.shifted(grid.nodes), dtype=float)
        samples = np.zeros_like(x)
        samples[1:] = 2.0 * x[1:] ** (gamma - 1.0) + x[1:] ** (sigma - 1.0)
        deriv = hilfer_derivative_grid(order, identity_psi, samples, grid, origin_exponent=gamma)
        got = frac_integral_grid(order.alpha, identity_psi, deriv, grid,
                                 origin_exponent=sigma - order.alpha)
        ref = np.zeros_like(x)
        ref[1:] = x[1:] ** (sigma - 1.0)
        assert sup_rel(got[1:], ref[1:]) <= 5e-2


def make_traj(identity_psi, weighted):
    grid = make_grid(identity_psi, 1.0, len(weighted), 0.5)
    return Trajectory(
        grid=grid,
        weighted_values=np.asarray(weighted, dtype=float),
        initial_weight=0.0,
        phi=np.zeros_like,
        gamma=1.0,
    )


class TestNorms:
    def test_weighted_norm_examples(self, identity_psi):
        assert weighted_norm(make_traj(identity_psi, [0.0, 0.0, 0.0])) == 0.0
        traj = make_traj(identity_psi, [1.0, -2.0, 1.5])
        assert weighted_norm(traj) == 2.0

    def test_gamma_one_is_sup_norm_of_u(self, identity_psi):
        traj = make_traj(identity_psi, [0.3, -0.9, 0.7])
        vals = trajectory_values(traj, identity_psi, traj.grid.nodes[1:])
        assert weighted_norm(traj) == np.max(np.abs(vals))

    def test_bielecki_at_zero_delta(self, identity_psi):
        traj = make_traj(identity_psi, [1.0, -2.0, 1.5])
        assert bielecki_norm(0.0, traj) == weighted_norm(traj)

    def test_bielecki_decreasing_envelope(self, identity_psi):
        traj = make_traj(identity_psi, [1.0, 1.0, 1.0])
        object.__setattr__(traj, "initial_weight", 1.0)
        assert bielecki_norm(1.0, traj) == pytest.approx(1.0, abs=0.0)

    def test_bielecki_rejects_negative_delta(self, identity_psi):
        traj = make_traj(identity_psi, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            bielecki_norm(-0.5, traj)

    @given(
        scale_exp=st.integers(min_value=-8, max_value=8),
        sign=st.sampled_from([-1.0, 1.0]),
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=3,
        ),
        other=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_axioms(self, scale_exp, sign, values, other):
        psi = catalog.make_psi("identity")
        c = sign * 2.0**scale_exp  # dyadic scalars make homogeneity exact
        a = make_traj(psi, values)
        ca = make_traj(psi, [c * v for v in values])
        assert weighted_norm(ca) == abs(c) * weighted_norm(a)
        b = make_traj(psi, other)
        ab = make_traj(psi, [v + w for v, w in zip(values, other)])
        assert weighted_norm(ab) <= weighted_norm(a) + weighted_norm(b)


class TestTrajectoryEvaluation:
    def test_history_interpolation(self, identity_psi):
        # on [-r, 0], u is phi itself: exact at and between the history nodes
        grid = make_grid(identity_psi, 1.0, 4, 1.0)
        traj = Trajectory(
            grid=grid,
            weighted_values=np.ones(4),
            initial_weight=1.0,
            phi=lambda t: -2.0 * t,
            gamma=1.0,
        )
        assert trajectory_values(traj, identity_psi, -1.0) == 2.0
        assert trajectory_values(traj, identity_psi, -0.25) == 0.5
        assert trajectory_values(traj, identity_psi, 0.0) == 0.0
        traj.phi = np.cos
        between = 0.5 * (grid.history_nodes[1] + grid.history_nodes[2])
        times = np.array([-1.0, -0.3, between, 0.0])
        assert np.array_equal(trajectory_values(traj, identity_psi, times), np.cos(times))

    def test_weighted_unweighting(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 4, 1.0)
        gamma = 0.5
        traj = Trajectory(
            grid=grid,
            weighted_values=np.full(4, 2.0),
            initial_weight=2.0,
            phi=np.zeros_like,
            gamma=gamma,
        )
        t = 0.25
        assert trajectory_values(traj, identity_psi, t) == pytest.approx(
            2.0 * t ** (gamma - 1.0)
        )

    @pytest.mark.parametrize("gamma", [0.6, 1.0])
    @pytest.mark.parametrize("many", [False, True])
    def test_probe_then_apply_is_trajectory_values(self, gamma, many):
        # one probe serves every iterate: for two sets of node values it gives
        # trajectory_values bit for bit, and that is the single-stage rule
        # np.interp(x) * x^(gamma-1) for t > 0 and phi(t) for t <= 0, for a flat
        # set and for a 2-D batch with more times than nodes (the shape of the
        # Volterra probes)
        psi = catalog.make_psi("exponential")
        grid = make_grid(psi, 1.0, 40, 0.5)
        nodes = grid.nodes
        step = 1 if many else 4
        times = np.concatenate((
            [-0.5, -0.31, 0.0, 0.2 * nodes[1], 0.7 * nodes[1]], nodes[1::step],
            0.5 * (nodes[1:-1] + nodes[2:])[::step], [1.0],
        ))
        if many:
            times = np.tile(times, (3, 1))
        apply = psi_calculus.probe(grid, psi, gamma, np.cos, times)
        assert (np.count_nonzero(times > 0.0) > grid.x.size) == many
        for scale in (1.0, -3.5):
            w_nodes = scale * (1.0 + np.sin(3.0 * grid.x))
            w_nodes[7] = -0.0
            traj = Trajectory(grid=grid, weighted_values=w_nodes[1:], initial_weight=w_nodes[0],
                              phi=np.cos, gamma=gamma)
            got = apply(w_nodes)
            want = trajectory_values(traj, psi, times)
            assert got.shape == times.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            future = times > 0.0
            xq = psi.shifted(times[future])
            single = np.interp(xq, grid.x, w_nodes) * xq ** (gamma - 1.0)
            assert np.array_equal(got[future].view(np.int64), single.view(np.int64))
            assert np.array_equal(got[~future], np.cos(times[~future]))

    @pytest.mark.parametrize("gamma", [1.0, 0.75])
    @pytest.mark.parametrize("uniform_in", ["psi", "t"])
    def test_probe_is_exact_on_the_origin_powers(self, gamma, uniform_in):
        # u = sum_q b_q x^q over the powers of alpha = 1/2 (0, 1, 1/2; b_0 = u(0+), which is
        # 0 when gamma < 1) is read exactly off the nodes: plain interpolation of w errs
        # there by O(h^(1/2)) next to 0
        psi = catalog.make_psi("exponential")
        grid = make_grid(psi, 1.0, 200, 0.5, uniform_in=uniform_in)
        powers = psi_calculus.power_exponents(0.5)
        coefs = {0.0: 0.7 if gamma == 1.0 else 0.0, 1.0: -1.3, 0.5: 2.1}

        def u(x):
            return sum(c * x ** q for q, c in coefs.items())

        nodes = grid.nodes
        times = np.concatenate((
            [-0.2, 0.0, 0.2 * nodes[1], 0.7 * nodes[1]], nodes[1:],
            0.5 * (nodes[1:-1] + nodes[2:]), 0.3 * nodes[1:-1] + 0.7 * nodes[2:],
        ))
        w_nodes = grid.x ** (1.0 - gamma) * u(grid.x)
        got = psi_calculus.probe(grid, psi, gamma, np.cos, times, powers)(w_nodes)
        plain = psi_calculus.probe(grid, psi, gamma, np.cos, times)(w_nodes)
        future = times > 0.0
        want = u(psi.shifted(times[future]))
        assert np.max(np.abs(got[future] - want)) <= 1e-14
        assert np.max(np.abs(plain[future] - want)) > 1e-4
        assert np.array_equal(got[~future], np.cos(times[~future]))

    def test_below_history_window(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 4, 1.0)
        traj = Trajectory(
            grid=grid,
            weighted_values=np.ones(4),
            initial_weight=1.0,
            phi=np.zeros_like,
            gamma=1.0,
        )
        with pytest.raises(DelayRangeError):
            trajectory_values(traj, identity_psi, -1.5)

    def test_non_finite_rejected(self, identity_psi):
        grid = make_grid(identity_psi, 1.0, 4, 1.0)
        with pytest.raises(ValueError):
            Trajectory(
                grid=grid,
                weighted_values=np.array([1.0, np.nan, 1.0, 1.0]),
                initial_weight=1.0,
                phi=np.zeros_like,
                gamma=1.0,
            )


def _trajectory(psi, **changes):
    """A zero trajectory on a 3-interval identity grid, with some fields replaced."""
    grid = make_grid(psi, 1.0, 3, 0.5)
    fields = dict(grid=grid, weighted_values=np.zeros(3), initial_weight=0.0,
                  phi=np.zeros_like, gamma=1.0)
    return Trajectory(**{**fields, **changes})


_CUBIC_PSI = PsiFunction(fn=lambda t: np.asarray(t, dtype=float) ** 3,
                         deriv=lambda t: 3.0 * np.asarray(t, dtype=float) ** 2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda psi, problem: _CUBIC_PSI.deriv_bounds(0.0, 1.0),
                 "must be finite and positive", id="psi-deriv-zero"),
    pytest.param(lambda psi, problem: Grid(nodes=np.array([0.0, 0.5, 1.0]),
                                           history_nodes=np.array([-1.0, -0.25, -0.5, 0.0]),
                                           x=np.array([0.0, 0.5, 1.0])),
                 "history nodes must be strictly increasing", id="history-decreasing"),
    pytest.param(lambda psi, problem: make_grid(psi, 1.0, 10, 0.5, uniform_in="x"),
                 "uniform_in must be 'psi' or 't'", id="uniform-in-x"),
    pytest.param(lambda psi, problem: _trajectory(psi, weighted_values=np.zeros(2)),
                 "one entry per interior node", id="trajectory-short"),
    pytest.param(lambda psi, problem: _trajectory(psi, gamma=0.0),
                 "gamma must lie in", id="trajectory-gamma"),
    pytest.param(lambda psi, problem: _trajectory(psi, initial_weight=np.inf),
                 "initial_weight must be finite", id="trajectory-initial-weight"),
    pytest.param(lambda psi, problem: _trajectory(psi, weighted_values=np.full(3, np.nan)),
                 "weighted_values must be finite", id="trajectory-weighted-nan"),
    pytest.param(lambda psi, problem: frac_integral_grid(
                     0.5, psi, np.zeros(4), _trajectory(psi).grid, origin_exponent=2.5),
                 r"origin_exponent must lie in \(0, 2\)", id="origin-exponent"),
    pytest.param(lambda psi, problem: eval_F(problem, _trajectory(psi), 1.5, SolveConfig()),
                 "beyond the trajectory horizon", id="eval-F-horizon"),
    pytest.param(lambda psi, problem: picard_step(problem, _trajectory(psi, gamma=0.5),
                                                  SolveConfig()),
                 "does not match problem gamma", id="picard-step-gamma"),
])
def test_invalid_input_rejected(identity_psi, worked_problem, call, message):
    with pytest.raises(ValueError, match=message):
        call(identity_psi, worked_problem)
