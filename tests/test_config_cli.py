import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hilferlab
from hilferlab import (
    ConfigError,
    DelayFFIDE,
    Perturbation,
    SolveConfig,
    catalog,
    solve,
    verify_uhml,
)
from hilferlab.cli import main
from hilferlab.config import ExperimentConfig, parse_config

from conftest import ml_series

WORKED_CONFIG = """
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
phi_amplitude = 1.0
phi_frequency = 1.0
lip_f = 0.05
lip_h = 0.1

[solve]
grid_size = 200
tol = 1e-10
max_iter = 60

[stability]
shapes = constant, sinusoid, square_wave
epsilons = 1e-2, 1e-3

[output]
directory = {out}
format = {fmt}
seed = {seed}
"""

ZERO_F_CONFIG = """
[problem]
psi = identity
alpha = 0.5
beta = 0.5
b = 1.0
r = 0.5
u0 = 1.0
f = zero
h = none
g = no_delay
phi = constant
phi_value = 1.0
lip_f = 0.0

[solve]
grid_size = 50

[output]
directory = {out}
"""


def write_config(tmp_path, text, name="config.ini", **kwargs):
    path = tmp_path / name
    path.write_text(text.format(**kwargs))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_json_mirrors_csv(csv_path, json_path):
    """The JSON rows hold the CSV cells: numbers equal, "" as null, true/false as bools."""
    header, *rows = read_csv(csv_path)
    with open(json_path) as fh:
        records = json.load(fh)
    assert len(records) == len(rows) > 0
    for record, row in zip(records, rows):
        assert list(record) == header
        for cell, value in zip(row, record.values()):
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, (int, float)):
                assert float(cell) == value
            else:
                assert cell == value


class TestParseConfig:
    def test_worked_config(self, tmp_path):
        path = write_config(tmp_path, WORKED_CONFIG, out=str(tmp_path / "out"), fmt="csv", seed=3)
        cfg = parse_config(path)
        assert cfg.problem.order.alpha == 0.5
        assert cfg.problem.lip_h == 0.1
        assert cfg.solve.grid_size == 200
        assert len(cfg.perturbations) == 6  # 3 shapes x 2 epsilons
        assert cfg.perturbations[0].seed == 3
        assert cfg.out_format == "csv"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/path.ini")

    def test_missing_required_key(self, tmp_path):
        bad = WORKED_CONFIG.replace("alpha = 0.5\n", "")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        bad = WORKED_CONFIG.replace("alpha = 0.5", "alpha = half")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        with pytest.raises(ConfigError, match="alpha.*expected a number"):
            parse_config(path)

    def test_unknown_catalog_form(self, tmp_path):
        bad = WORKED_CONFIG.replace("f = linear", "f = quadratic")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        with pytest.raises(ConfigError, match="unknown f form"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        bad = WORKED_CONFIG.replace("[solve]", "[solve]\nwarp_factor = 9")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        bad = WORKED_CONFIG + "\n[plotting]\ncolor = red\n"
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(path)

    def test_zero_epsilon_rejected(self, tmp_path):
        bad = WORKED_CONFIG.replace("epsilons = 1e-2, 1e-3", "epsilons = 0.0")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(path)

    def test_delay_validation_happens_at_parse(self, tmp_path):
        bad = WORKED_CONFIG.replace("g_lag = 0.5", "g_lag = 3.0")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        with pytest.raises(ConfigError, match="history window"):
            parse_config(path)


PROBLEM_ONLY = ZERO_F_CONFIG.split("[solve]")[0]

EVERY_SECTION_KEY = PROBLEM_ONLY + """
[solve]
grid_size = 50
inner_quad_nodes = 20
tol = 1e-8
max_iter = 31
norm = bielecki
bielecki_delta = 0.25
uniform_in = t
history_size = 17

[stability]
shapes = sinusoid
epsilons = 1e-3
frequency = 3.5
modes = 6

[output]
directory = elsewhere
format = json
seed = 9
"""


class TestSectionKeyTables:
    def test_every_key_reaches_its_field(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EVERY_SECTION_KEY))
        assert cfg.solve == SolveConfig(
            grid_size=50, inner_quad_nodes=20, tol=1e-8, max_iter=31, norm_kind="bielecki",
            bielecki_delta=0.25, grid_uniform_in="t", history_size=17,
        )
        assert all(getattr(cfg.solve, f.name) != f.default for f in fields(SolveConfig))
        expected = Perturbation(epsilon=1e-3, shape="sinusoid", frequency=3.5, seed=9, modes=6)
        assert cfg.perturbations == [expected]
        assert all(getattr(expected, f.name) != f.default for f in fields(Perturbation)
                   if f.name not in ("epsilon", "shape"))
        assert (cfg.out_dir, cfg.out_format, cfg.seed) == ("elsewhere", "json", 9)

    def test_absent_keys_keep_the_dataclass_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, PROBLEM_ONLY))
        assert cfg == ExperimentConfig(problem=cfg.problem, solve=SolveConfig())
        text = PROBLEM_ONLY + "\n[stability]\nshapes = constant\nepsilons = 1e-2\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.perturbations == [Perturbation(epsilon=1e-2, shape="constant")]

    def test_bad_integer_names_section_and_key(self, tmp_path):
        text = EVERY_SECTION_KEY.replace("history_size = 17", "history_size = x")
        with pytest.raises(ConfigError, match=r"^\[solve\] history_size: expected an integer"):
            parse_config(write_config(tmp_path, text))

    def test_readme_config_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(text)
        cfg = parse_config(str(path))
        assert cfg.solve == SolveConfig()
        assert len(cfg.perturbations) == 8
        assert all(p == Perturbation(epsilon=p.epsilon, shape=p.shape) for p in cfg.perturbations)
        assert (cfg.out_dir, cfg.out_format, cfg.seed) == ("out", "csv", 0)


class TestCmdCheck:
    def test_certified_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, WORKED_CONFIG, out=str(out), fmt="csv", seed=0)
        assert main(["check", "--config", path]) == 0
        printed = capsys.readouterr().out
        assert "certified: yes (theta)" in printed
        rows = read_csv(out / "hypotheses.csv")
        assert rows[0][0] == "theta"
        assert float(rows[1][0]) == pytest.approx(0.12036044449018801, rel=1e-12)

    def test_uncertified_exit_two(self, tmp_path):
        # scale lip_f so Theta lands near 2; the damped variant only grows
        bad = WORKED_CONFIG.replace("lip_f = 0.05", "lip_f = 0.83")
        path = write_config(tmp_path, bad, out=str(tmp_path / "o"), fmt="csv", seed=0)
        assert main(["check", "--config", path]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bool_cells_in_both_formats(self, tmp_path, fmt):
        out = tmp_path / "out"
        path = write_config(tmp_path, WORKED_CONFIG, out=str(out), fmt=fmt, seed=0)
        assert main(["check", "--config", path]) == 0
        flags = ("theta_ok", "bielecki_ok", "certified")
        if fmt == "csv":
            header, row = read_csv(out / "hypotheses.csv")
            assert all(row[header.index(k)] in ("true", "false") for k in flags)
        else:
            with open(out / "hypotheses.json") as fh:
                (record,) = json.load(fh)
            assert all(type(record[k]) is bool for k in flags)

    def test_malformed_exit_one(self, tmp_path, capsys):
        bad = WORKED_CONFIG.replace("alpha = 0.5", "alpha = maybe")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        assert main(["check", "--config", path]) == 1
        assert "config error" in capsys.readouterr().err


class TestCmdSolve:
    def test_zero_rhs_constant_weighted_column(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, ZERO_F_CONFIG, out=str(out))
        assert main(["solve", "--config", path]) == 0
        rows = read_csv(out / "solution.csv")
        assert rows[0] == ["t", "psi_t", "weighted_u", "u", "residual_iter_count"]
        body = rows[1:]
        history = [r for r in body if float(r[0]) <= 0.0]
        interior = [r for r in body if float(r[0]) > 0.0]
        assert all(r[2] == "" for r in history)
        gamma = 0.75
        w_init = 1.0 / math.gamma(gamma)
        assert all(
            float(r[2]) == pytest.approx(w_init, rel=1e-12) for r in interior
        )

    def test_non_convergence_exit_three(self, tmp_path):
        stubborn = WORKED_CONFIG.replace("max_iter = 60", "max_iter = 1")
        path = write_config(tmp_path, stubborn, out=str(tmp_path / "o"), fmt="csv", seed=0)
        assert main(["solve", "--config", path]) == 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, ZERO_F_CONFIG.replace(
            "directory = {out}", "directory = {out}\nformat = json"), out=str(out))
        assert main(["solve", "--config", path]) == 0
        with open(out / "solution.json") as fh:
            rows = json.load(fh)
        assert rows[0].keys() == {"t", "psi_t", "weighted_u", "u", "residual_iter_count"}


class TestCmdStability:
    def test_worked_rows_and_pass_flags(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, WORKED_CONFIG, out=str(out), fmt="csv", seed=0)
        assert main(["stability", "--config", path, "--grid", "150"]) == 0
        rows = read_csv(out / "stability.csv")
        assert rows[0] == ["shape", "epsilon", "c_theoretical", "c_empirical", "passed", "kappa_used"]
        assert len(rows) == 1 + 6
        assert all(r[4] == "true" for r in rows[1:])
        kappas = {r[5] for r in rows[1:]}
        assert len(kappas) == 1
        profiles = [p for p in os.listdir(out) if p.startswith("ratio_profile_")]
        assert len(profiles) == 6

    def test_requires_perturbations(self, tmp_path):
        path = write_config(tmp_path, ZERO_F_CONFIG, out=str(tmp_path / "o"))
        assert main(["stability", "--config", path]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path, WORKED_CONFIG, out=str(out_a), fmt="csv", seed=7)
        assert main(["stability", "--config", path, "--grid", "120"]) == 0
        assert main(["stability", "--config", path, "--grid", "120", "--out", str(out_b)]) == 0
        for name in sorted(os.listdir(out_a)):
            with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
                assert fa.read() == fb.read(), name


class TestOutputFiles:
    def test_bytes_match_a_per_value_formatter(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, WORKED_CONFIG, out=str(out), fmt="csv", seed=5)
        assert main(["solve", "--config", path, "--grid", "150"]) == 0
        assert main(["stability", "--config", path, "--grid", "150"]) == 0
        cfg = parse_config(path)
        cfg.solve = replace(cfg.solve, grid_size=150)
        result = solve(cfg.problem, cfg.solve)
        traj, psi, its = result.trajectory, cfg.problem.psi, result.iterations
        grid = traj.grid
        lines = ["t,psi_t,weighted_u,u,residual_iter_count"]
        for t, u in zip(grid.history_nodes, traj.history_values):
            lines.append(f"{t:.17g},{psi.fn(t):.17g},,{u:.17g},{its}")
        u_int = traj.unweight(traj.weighted_values)
        for t, w, u in zip(grid.nodes[1:], traj.weighted_values, u_int):
            lines.append(f"{t:.17g},{psi.fn(t):.17g},{w:.17g},{u:.17g},{its}")
        assert (out / "solution.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        for pert in (cfg.perturbations[0], cfg.perturbations[-1]):
            report = verify_uhml(cfg.problem, pert, cfg.solve, base=result)
            lines = ["t,ratio"] + [f"{t:.17g},{r:.17g}"
                                   for t, r in zip(report.profile_times, report.ratio_profile)]
            name = f"ratio_profile_{pert.shape}_{pert.epsilon:g}.csv"
            assert (out / name).read_bytes() == ("\n".join(lines) + "\n").encode(), name

    @pytest.mark.parametrize("argv", [
        ["check"], ["solve", "--grid", "100"], ["stability", "--grid", "100"],
        ["verify-operators", "--psi", "identity", "--grid", "64", "--grid", "128"],
    ], ids=lambda argv: argv[0])
    def test_json_mirrors_csv(self, tmp_path, argv):
        path = write_config(tmp_path, WORKED_CONFIG, out=str(tmp_path / "unused"), fmt="csv", seed=2)
        config = [] if argv[0] == "verify-operators" else ["--config", path]
        for fmt in ("csv", "json"):
            assert main(argv + config + ["--out", str(tmp_path / fmt), "--format", fmt]) == 0
        names = sorted(os.listdir(tmp_path / "csv"))
        assert names and sorted(os.listdir(tmp_path / "json")) == [
            n.replace(".csv", ".json") for n in names]
        for name in names:
            assert_json_mirrors_csv(tmp_path / "csv" / name,
                                    tmp_path / "json" / name.replace(".csv", ".json"))


LAMBDA_CONFIG = """
[problem]
psi = identity
alpha = 0.5
beta = 1.0
b = 1.0
r = 0.5
u0 = 1.0
f = linear
f_c1 = 0.2
h = none
g = no_delay
phi = constant
phi_value = 1.0
lip_f = 0.2

[solve]
grid_size = 600
tol = 1e-12

[output]
directory = {out}
"""


class TestCatalog:
    def test_polynomial_kernel(self):
        h = catalog.make_h("polynomial", scale=0.5, degree=2.0)
        s = np.array([0.1, 0.2])
        vals = h(1.0, s, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert vals == pytest.approx(0.5 * (1.0 - s) ** 2 * 3.0)

    def test_proportional_lag_bounds(self):
        g = catalog.make_g("proportional_lag", scale=0.5, lag=0.25)
        t = np.linspace(0.0, 1.0, 11)
        assert np.all(g(t) <= t)
        with pytest.raises(ConfigError):
            catalog.make_g("proportional_lag", scale=1.5)

    def test_unexpected_parameter_rejected(self):
        with pytest.raises(ConfigError, match="does not accept"):
            catalog.make_f("linear", c9=1.0)

    def test_unknown_names_list_alternatives(self):
        with pytest.raises(ConfigError, match="available"):
            catalog.make_phi("sawtooth")

    def test_polynomial_kernel_in_a_solve(self, worked_problem):
        problem = DelayFFIDE(
            order=worked_problem.order, psi=worked_problem.psi, f=worked_problem.f,
            h_kernel=catalog.make_h("polynomial", scale=0.1, degree=1.0),
            g=worked_problem.g, phi=worked_problem.phi,
            u0=1.0, b=1.0, r=0.5, lip_f=0.05, lip_h=0.2,
        )
        result = solve(problem, SolveConfig(grid_size=100))
        assert result.converged


class TestSolveCsvAgainstClosedForm:
    def test_lambda_linear_matches_series(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, LAMBDA_CONFIG, out=str(out))
        assert main(["solve", "--config", path]) == 0
        rows = read_csv(out / "solution.csv")
        worst = 0.0
        for row in rows[1:]:
            t = float(row[0])
            if t <= 0.0 or row[2] == "":
                continue
            ref = ml_series(0.5, 1.0, 0.2 * math.sqrt(t))
            worst = max(worst, abs(float(row[2]) - ref))
        assert worst <= 1e-3


class TestCmdVerifyOperators:
    def test_errors_decrease_with_refinement(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "verify-operators", "--psi", "identity",
            "--grid", "250", "--grid", "500", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "operator_checks.csv")
        assert rows[0] == ["identity", "psi", "n", "max_rel_error", "observed_order"]
        by_identity = {}
        for identity, _, n, err, _ in rows[1:]:
            by_identity.setdefault(identity, {})[int(n)] = float(err)
        assert by_identity["power_rule"][500] < by_identity["power_rule"][250]
        assert by_identity["semigroup"][500] < by_identity["semigroup"][250]
        assert by_identity["classical_alpha1"][500] <= 1e-12


def test_cli_import_leaves_scipy_signal_unloaded(tmp_path):
    # numpy is the only runtime dependency: importing scipy.fft alone costs about 0.3 s,
    # so neither the CLI import nor a verify-operators run may load any scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(hilferlab.__file__)))
    code = ("import sys, hilferlab.cli; "
            "assert hilferlab.cli.main(['verify-operators', '--grid', '64', "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert (tmp_path / "out" / "operator_checks.csv").is_file()
    assert done.stdout.splitlines()[-1] == "[]"
