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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hilferlab
from hilferlab import (
    ConfigError,
    DelayFFIDE,
    Perturbation,
    SolveConfig,
    catalog,
    picard_solver,
    solve,
    stability_lab,
    verify_uhml,
)
from hilferlab.cli import _csv_rows, _g17, _parser, _tokens, _write, build_parser, main
from hilferlab.config import ExperimentConfig, parse_config

from conftest import ml_series
from test_acceptance import STABILITY_CONFIG

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


SERIES_RANGE_CONFIG = """
[problem]
psi = exponential
alpha = 0.5
beta = 1.0
b = 8.0
r = 0.5
u0 = 1.0
f = linear
f_c1 = 0.05
h = none
g = constant_lag
g_lag = 0.5
phi = cosine
lip_f = 0.05

[solve]
grid_size = 200

[stability]
shapes = constant
epsilons = 1e-3

[output]
directory = {out}
"""


# gamma = 0.75 < 1 with exponential psi, shaped like the singular_exp_psi benchmark:
# weighted_u differs from u and psi_t from t, so a swapped column shows
SINGULAR_EXP_CONFIG = """
[problem]
psi = exponential
alpha = 0.5
beta = 0.5
b = 1.0
r = 0.5
u0 = 1.0
f = linear
f_c1 = 0.05
h = none
g = no_delay
phi = constant
phi_value = 1.0
lip_f = 0.05

[solve]
grid_size = 200

[stability]
shapes = constant, smooth_random
epsilons = 1e-3

[output]
directory = {out}
format = {fmt}
seed = {seed}
"""


# D^{1/2} u = c1 u with u0 = 1 on (0, b]; at b = 0.5, Theta = 2.39 * lip_f / 3
LINEAR_F_CONFIG = """
[problem]
psi = identity
alpha = 0.5
beta = 1.0
b = {b}
r = 0.5
u0 = 1.0
f = linear
f_c1 = {c1}
h = none
g = no_delay
phi = constant
phi_value = 1.0
lip_f = {lip_f}

[solve]
grid_size = 100

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

    def test_percent_in_a_value_is_literal(self, tmp_path):
        # no interpolation: a directory with a % is created and written, as key or as flag
        key_dir, flag_dir = tmp_path / "key%1", tmp_path / "flag%(x)s"
        path = write_config(tmp_path, WORKED_CONFIG, out=str(key_dir), fmt="csv", seed=0)
        assert main(["check", "--config", path]) == 0
        assert main(["check", "--config", path, "--out", str(flag_dir)]) == 0
        assert (key_dir / "hypotheses.csv").is_file() and (flag_dir / "hypotheses.csv").is_file()

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

    def test_lipschitz_warning(self, tmp_path, capsys):
        # f_c1 = 3 declared as 0.5: certified by the declared constant, refuted by the spot check
        path = write_config(tmp_path, LINEAR_F_CONFIG, out=str(tmp_path / "o"),
                            b=0.5, c1=3, lip_f=0.5)
        assert main(["check", "--config", path]) == 0
        printed = capsys.readouterr().out
        assert "lipschitz spot check f / h    = 2.6355437301007303 / 0" in printed
        assert "WARNING: observed Lipschitz ratio exceeds the declared constant" in printed

    def test_malformed_exit_one(self, tmp_path, capsys):
        bad = WORKED_CONFIG.replace("alpha = 0.5", "alpha = maybe")
        path = write_config(tmp_path, bad, out="o", fmt="csv", seed=0)
        assert main(["check", "--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("format = {fmt}", "format = xml", "format must be csv or json"),
        ("grid_size = 200", "grid_size = 1", "grid_size must be >= 2"),
        ("max_iter = 60", "max_iter = 60\nhistory_size = 0", "history_size must be >= 1"),
        ("shapes = constant, sinusoid, square_wave", "shapes =", "non-empty 'shapes'"),
        ("epsilons = 1e-2, 1e-3", "epsilons = 1e-2, abc", "epsilons: bad number 'abc'"),
        ("epsilons = 1e-2, 1e-3", "epsilons = 1e-2\nmodes = 0", "modes must be >= 1"),
        (WORKED_CONFIG.split("[solve]")[0], "", "missing required section [problem]"),
        ("psi = identity", "psi = shifted_power\npsi_rho = -1", "requires rho > 0"),
        ("g_lag = 0.5", "g_lag = -0.1", "requires lag >= 0"),
        ("r = 0.5", "r = 0", "delay depth r must be positive"),
        ("phi = cosine\nphi_amplitude = 1.0\nphi_frequency = 1.0",
         "phi = linear\nphi_intercept = inf", "phi must be finite"),
        ("max_iter = 60", "max_iter = 60\nuniform_in = tee",
         "[solve] grid_uniform_in must be 'psi' or 't', got 'tee'"),
        ("seed = {seed}", "seed = -1", "[output] seed must be >= 0, got -1"),
        ("tol = 1e-10", "tol = inf", "[solve] tol must be positive and finite, got inf"),
        ("max_iter = 60", "max_iter = 60\nbielecki_delta = nan",
         "[solve] bielecki_delta must be >= 0 and finite, got nan"),
        ("u0 = 1.0", "u0 = nan", "[problem] u0 must be finite, got nan"),
        ("u0 = 1.0", "u0 = inf", "[problem] u0 must be finite, got inf"),
        ("b = 1.0", "b = inf", "[problem] horizon b must be positive and finite, got inf"),
        ("r = 0.5", "r = inf", "[problem] delay depth r must be positive and finite, got inf"),
        ("lip_f = 0.05", "lip_f = inf",
         "[problem] Lipschitz constants must be nonnegative and finite"),
        ("lip_f = 0.05", "lip_f = nan",
         "[problem] Lipschitz constants must be nonnegative and finite"),
        ("lip_h = 0.1", "lip_h = nan",
         "[problem] Lipschitz constants must be nonnegative and finite"),
        ("epsilons = 1e-2, 1e-3", "epsilons = 1e-2, inf",
         "[stability] epsilon must be positive and finite, got inf"),
        ("epsilons = 1e-2, 1e-3", "epsilons = 1e-2\nfrequency = nan",
         "[stability] frequency must be finite, got nan"),
        ("epsilons = 1e-2, 1e-3", "epsilons = 1e-2\nfrequency = inf",
         "[stability] frequency must be finite, got inf"),
        ("g_lag = 0.5", "g_lag = nan",
         "g must be finite: form 'constant_lag' parameter 'lag' is nan"),
        ("f_c1 = 0.05", "f_c1 = inf", "f must be finite: form 'linear' parameter 'c1' is inf"),
        ("h_d1 = 0.1", "h_d1 = nan", "h must be finite: form 'linear' parameter 'd1' is nan"),
    ], ids=["format", "grid_size", "history_size", "no_shapes", "bad_epsilon", "modes",
            "no_problem", "psi_rho", "g_lag", "r", "phi_intercept", "uniform_in", "seed",
            "tol_inf", "bielecki_delta_nan", "u0_nan", "u0_inf", "b_inf", "r_inf", "lip_f_inf",
            "lip_f_nan", "lip_h_nan", "epsilon_inf", "frequency_nan", "frequency_inf",
            "g_lag_nan", "f_c1_inf", "h_d1_nan"])
    def test_invalid_input_exits_one(self, tmp_path, capsys, old, new, message):
        assert old in WORKED_CONFIG
        bad = WORKED_CONFIG.replace(old, new)
        path = write_config(tmp_path, bad, out=str(tmp_path / "o"), fmt="csv", seed=0)
        assert main(["check", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("command, flags, message", [
        ("check", ["--grid", "1"], "[solve] grid_size must be >= 2, got 1"),
        ("solve", ["--tol", "0"], "[solve] tol must be positive and finite, got 0.0"),
        ("solve", ["--tol", "inf"], "[solve] tol must be positive and finite, got inf"),
        ("check", ["--seed", "-1"], "[output] seed must be >= 0, got -1"),
        ("stability", ["--seed", "-2"], "[output] seed must be >= 0, got -2"),
        ("check", ["--format", "xml"], "[output] format must be csv or json, got 'xml'"),
        ("solve", ["--grid", "abc"], "[solve] grid_size: expected an integer, got 'abc'"),
        ("stability", ["--tol", "x"], "[solve] tol: expected a number, got 'x'"),
        ("check", ["--seed", "1.5"], "[output] seed: expected an integer, got '1.5'"),
    ], ids=["grid", "tol_zero", "tol_inf", "seed_check", "seed_stability", "format_text",
            "grid_text", "tol_text", "seed_text"])
    def test_invalid_flag_exits_one(self, tmp_path, capsys, command, flags, message):
        # a flag's text is read and checked like the key it overrides, before anything runs
        config = WORKED_CONFIG.replace("constant, sinusoid", "smooth_random, sinusoid")
        out = tmp_path / "o"
        path = write_config(tmp_path, config, out=str(out), fmt="csv", seed=0)
        assert main([command, "--config", path, *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists()


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

    def test_tol_override(self, tmp_path, capsys):
        path = write_config(tmp_path, WORKED_CONFIG, out=str(tmp_path / "o"), fmt="csv", seed=0)
        iterations = []
        for extra in ([], ["--tol", "1e-6"]):
            assert main(["solve", "--config", path, *extra]) == 0
            printed = capsys.readouterr().out
            iterations.append(int(printed.split("iterations=")[1].split()[0]))
        assert iterations[1] < iterations[0]

    def test_uncertified_solve_warns(self, tmp_path, capsys):
        path = write_config(tmp_path, LINEAR_F_CONFIG, out=str(tmp_path / "o"),
                            b=0.5, c1=3, lip_f=3)
        assert main(["solve", "--config", path]) == 0
        printed = capsys.readouterr().out
        assert "theta=2.3936536824085977 certified_by=none" in printed
        assert "WARNING: contraction uncertified: theta=2.39365 >= 1" in printed

    def test_divergence_exit_three_without_warnings(self, tmp_path, capsys):
        # the iterate overflows within a few sweeps; RuntimeWarning is an error here
        path = write_config(tmp_path, LINEAR_F_CONFIG, out=str(tmp_path / "o"),
                            b=1.0, c1=1e6, lip_f=1e6)
        assert main(["solve", "--config", path]) == 3
        assert "solver divergence" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, ZERO_F_CONFIG.replace(
            "directory = {out}", "directory = {out}\nformat = json"), out=str(out))
        assert main(["solve", "--config", path]) == 0
        with open(out / "solution.json") as fh:
            rows = json.load(fh)
        assert rows[0].keys() == {"t", "psi_t", "weighted_u", "u", "residual_iter_count"}


class TestCmdStability:
    def test_diverging_perturbation_exits_three(self, tmp_path, capsys):
        # the base solve converges; the second perturbation's forced solve overflows.
        # The perturbations are solved together, so no file is written before the error.
        out = tmp_path / "o"
        config = LINEAR_F_CONFIG.replace(
            "[output]", "[stability]\nshapes = constant\nepsilons = 1e-2, 1e307\n\n[output]")
        path = write_config(tmp_path, config, out=str(out), b=1.0, c1=2, lip_f=2)
        assert main(["solve", "--config", path]) == 0
        capsys.readouterr()
        assert main(["stability", "--config", path, "--out", str(tmp_path / "s")]) == 3
        assert "solver divergence: fixed-point iterate left float64 range" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

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

    @pytest.mark.parametrize("lists,first,second,stem", [
        ("shapes = constant\nepsilons = 1e-2, 0.0100000001",
         "constant eps=0.01", "constant eps=0.0100000001", "ratio_profile_constant_0.01"),
        ("shapes = sinusoid, constant, sinusoid\nepsilons = 1e-3",
         "sinusoid eps=0.001", "sinusoid eps=0.001", "ratio_profile_sinusoid_0.001"),
    ])
    def test_shared_profile_file_exits_one(self, tmp_path, capsys, monkeypatch,
                                           lists, first, second, stem):
        # the names clash before any solve, so no file is overwritten or written
        def refuse(*args, **kwargs):
            raise AssertionError("solved a run whose profile files clash")

        monkeypatch.setattr(hilferlab.cli, "solve", refuse)
        config = WORKED_CONFIG.replace(
            "shapes = constant, sinusoid, square_wave\nepsilons = 1e-2, 1e-3", lists)
        out = tmp_path / "out"
        path = write_config(tmp_path, config, out=str(out), fmt="json", seed=0)
        assert main(["stability", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"config error: perturbations {first} and {second} share the "
            f"ratio-profile file {stem}.json\n")
        assert not out.exists()

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

    def test_seed_override(self, tmp_path):
        # --seed 7 is the config's seed = 7: same bytes, and another smooth_random profile
        runs, seven = {}, STABILITY_CONFIG.replace("seed = 42", "seed = 7")
        for name, text, extra in (("flag", STABILITY_CONFIG, ["--seed", "7"]),
                                  ("config", seven, []), ("default", STABILITY_CONFIG, [])):
            out = tmp_path / name
            path = write_config(tmp_path, text, name=f"{name}.ini", out=str(out))
            assert main(["stability", "--config", path, *extra]) == 0
            runs[name] = {p: (out / p).read_bytes() for p in sorted(os.listdir(out))}
        assert runs["flag"] == runs["config"]
        profile = "ratio_profile_smooth_random_0.01.csv"
        assert runs["flag"][profile] != runs["default"][profile]

    def test_envelope_caveat_printed_once(self, tmp_path, capsys):
        short = WORKED_CONFIG.replace("b = 1.0", "b = 0.5")
        path = write_config(tmp_path, short, out=str(tmp_path / "o"), fmt="csv", seed=0)
        assert main(["stability", "--config", path]) == 0
        assert capsys.readouterr().out.count("note: psi(b)-psi(0) < 1") == 1

    def test_envelope_built_once_per_run(self, tmp_path, monkeypatch):
        # four perturbations share one grid, so one (N+1)-point Mittag-Leffler evaluation
        sizes = []
        series = stability_lab.mittag_leffler_values

        def counted(params, z):
            sizes.append(np.size(z))
            return series(params, z)

        monkeypatch.setattr(stability_lab, "mittag_leffler_values", counted)
        config = WORKED_CONFIG.replace("constant, sinusoid, square_wave", "constant, sinusoid")
        path = write_config(tmp_path, config, out=str(tmp_path / "out"), fmt="csv", seed=0)
        assert main(["stability", "--config", path, "--grid", "150"]) == 0
        assert len(os.listdir(tmp_path / "out")) == 1 + 4
        assert sizes.count(151) == 1

    def test_problem_checks_once_per_run(self, tmp_path, monkeypatch):
        # the four forced solves are of the base problem on the base grid, so they
        # reuse the hypothesis checks and the stability constant of the base solve
        calls = []
        for module, name in ((picard_solver, "validate_problem"),
                             (picard_solver, "certify_contraction"),
                             (stability_lab, "estimate_zeta")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        config = WORKED_CONFIG.replace("constant, sinusoid, square_wave", "constant, sinusoid")
        path = write_config(tmp_path, config, out=str(tmp_path / "out"), fmt="csv", seed=0)
        assert main(["stability", "--config", path, "--grid", "150"]) == 0
        assert sorted(calls) == ["certify_contraction", "estimate_zeta", "validate_problem"]

    def test_envelope_beyond_series_range_exits_one(self, tmp_path, capsys):
        # exponential psi on b = 8: E_0.5(x^0.5) reaches |z| = 54.6 > 30
        path = write_config(tmp_path, SERIES_RANGE_CONFIG, out=str(tmp_path / "out"))
        assert main(["stability", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "|z| <= 30.0" in err
        assert "Traceback" not in err


# one short run of each command; verify-operators takes no config
CLI_RUNS = [
    ["check"], ["solve", "--grid", "100"], ["stability", "--grid", "100"],
    ["verify-operators", "--psi", "identity", "--grid", "64", "--grid", "128"],
]


def assert_files_match_a_per_value_formatter(tmp_path, stem, config, grid, profiles=2):
    """solve and stability at ``grid``: solution.csv and the ratio profiles of the first
    and last perturbation (the first ``profiles`` of them) equal per-value f-string files.

    Returns the bytes of solution.csv.
    """
    out = tmp_path / stem
    path = write_config(tmp_path, config, name=f"{stem}.ini", out=str(out), fmt="csv", seed=5)
    assert main(["solve", "--config", path, "--grid", str(grid)]) == 0
    assert main(["stability", "--config", path, "--grid", str(grid)]) == 0
    cfg = parse_config(path)
    cfg = replace(cfg, solve=replace(cfg.solve, grid_size=grid))
    result = solve(cfg.problem, cfg.solve)
    traj, psi, its = result.trajectory, cfg.problem.psi, result.iterations
    grid = traj.grid
    lines = ["t,psi_t,weighted_u,u,residual_iter_count"]
    for t, u in zip(grid.history_nodes, traj.history_values):
        lines.append(f"{t:.17g},{psi.fn(t):.17g},,{u:.17g},{its}")
    u_int = traj.unweight(traj.weighted_values)
    for t, w, u in zip(grid.nodes[1:], traj.weighted_values, u_int):
        lines.append(f"{t:.17g},{psi.fn(t):.17g},{w:.17g},{u:.17g},{its}")
    solution = (out / "solution.csv").read_bytes()
    assert solution == ("\n".join(lines) + "\n").encode()
    for pert in (cfg.perturbations[0], cfg.perturbations[-1])[:profiles]:
        [report] = verify_uhml(cfg.problem, [pert], cfg.solve, base=result)
        lines = ["t,ratio"] + [f"{t:.17g},{r:.17g}"
                               for t, r in zip(report.profile_times, report.ratio_profile)]
        name = f"ratio_profile_{pert.shape}_{pert.epsilon:g}.csv"
        assert (out / name).read_bytes() == ("\n".join(lines) + "\n").encode(), name
    return solution


def g17_edge_values() -> np.ndarray:
    """Values where a %.17g formatter goes wrong first, both signs (see TestG17Kernel)."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            2.0 ** np.arange(-1074, 1024)]
    for c in (2 ** 53, 10 ** 16, 10 ** 17):  # integers around the 17-digit limits
        near.append(np.array([float(c + d) for d in range(-64, 65)]))
    ties = np.arange(10 ** 15, 10 ** 15 + 200, dtype=float)  # m + 0.25 scales to a tie
    near += [ties + 0.25, ties + 0.75, [1234567890123456.25]]
    near.append([5e-324, 1e-310, 2.2250738585072014e-308, 2.2250738585072009e-308,
                 1.7976931348623157e308, 0.0, np.inf, np.nan])
    # the notation boundaries (k = -5, -4, 16, 17), 2- and 3-digit exponents, the kernel's range
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-99, 1e-100, 1e99, 1e100, 1e-280, 1e281])
    near += [np.nextafter(edges, 0.0), edges * 5.5, np.nextafter(10.0 * edges, 0.0)]
    values = np.concatenate([np.asarray(v, dtype=float) for v in near])
    return np.concatenate([values, -values])


class TestG17Kernel:
    def test_cells_are_percent_17g(self):
        # 200k random bit patterns (every exponent, subnormals, nan payloads) plus the edges
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), g17_edge_values()])
        with np.errstate(all="raise"):
            cells = b"".join(_csv_rows([values])).decode().splitlines()
        assert cells == ["%.17g" % v for v in values.tolist()]

    def test_cells_are_nul_padded_rows(self):
        values = np.array([0.5, -1e-300, math.nan, 12.0, 1.5e22])
        cells = _g17(values)
        assert cells.dtype == np.uint8 and cells.shape[0] == values.size
        assert [bytes(c).replace(b"\0", b"") for c in cells] == [b"%.17g" % v for v in values]


class TestOutputFiles:
    def test_bytes_match_a_per_value_formatter(self, tmp_path):
        # the gamma = 1 identity-psi worked problem and a gamma < 1 exponential-psi one
        for stem, config in (("worked", WORKED_CONFIG), ("singular", SINGULAR_EXP_CONFIG)):
            assert_files_match_a_per_value_formatter(tmp_path, stem, config, 150)

    def test_bytes_match_a_per_value_formatter_at_benchmark_size(self, tmp_path):
        # the singular_exp_psi shape at N = 4000, where the time cell 0.77558772205807402
        # lies 3.7e-7 from a rounding tie of its 17th digit
        solution = assert_files_match_a_per_value_formatter(
            tmp_path, "bench", SINGULAR_EXP_CONFIG, 4000, profiles=1)
        assert b"\n0.77558772205807402," in solution

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=30))
    @example([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310, 2.2250738585072014e-308,
              1e300, -1e300, 3.0, -42.0, 2.0 ** 53, 0.1])
    def test_writer_matches_per_value_formatting(self, tmp_path_factory, values):
        out = tmp_path_factory.getbasetemp() / "writer"
        out.mkdir(exist_ok=True)  # _write writes into an existing directory
        arr = np.array(values)
        assert [bytes(c).replace(b"\0", b"").decode() for c in _g17(arr)] == [
            f"{v:.17g}" for v in values]
        assert _tokens(arr) == [json.dumps(v) for v in values]
        # a float column, the same values as ready-made cells, a literal with % in it,
        # an empty cell; then a block of one row whose cells are all shared values
        note = "5% of 100%s"
        header = ["v", "cells", "note", "k"]
        last = [values[0], "x", True, 7]
        for fmt, cells in (("csv", _g17(arr)), ("json", _tokens(arr))):
            _write(str(out), "rows", header, [[arr, cells, note, None], last], fmt)
        lines = [",".join(header), *(f"{v:.17g},{v:.17g},{note}," for v in values),
                 f"{values[0]:.17g},x,true,7"]
        assert (out / "rows.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        records = [dict(zip(header, [v, v, note, None])) for v in values]
        expected = json.dumps([*records, dict(zip(header, last))], indent=2) + "\n"
        assert (out / "rows.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: argv[0])
    def test_json_files_are_json_dump_bytes(self, tmp_path, argv):
        path = write_config(tmp_path, WORKED_CONFIG, out=str(tmp_path / "o"), fmt="json", seed=2)
        config = [] if argv[0] == "verify-operators" else ["--config", path]
        for run in ("a", "b"):
            assert main(argv + config + ["--out", str(tmp_path / run), "--format", "json"]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names and names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            data = (tmp_path / "a" / name).read_bytes()
            rows = json.loads(data)
            assert data == (json.dumps(rows, indent=2) + "\n").encode(), name
            assert (tmp_path / "b" / name).read_bytes() == data, name
            if name == "operator_checks.json":
                assert any(row["observed_order"] is None for row in rows)

    @pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: argv[0])
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


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # 27 add_argument calls take about 1 ms, parse_args 0.06 ms: main keeps one parser
    built = []
    monkeypatch.setattr("hilferlab.cli.build_parser", lambda: built.append(1) or build_parser())
    _parser.cache_clear()
    path = write_config(tmp_path, WORKED_CONFIG, out=str(tmp_path / "o"), fmt="csv", seed=1)
    assert main(["check", "--config", path]) == 0
    assert main(["check", "--config", path, "--format", "json"]) == 0
    assert len(built) == 1
    assert build_parser() is not build_parser()


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
