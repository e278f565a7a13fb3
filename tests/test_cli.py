"""Config parsing, subcommands, output formats and exit codes."""

import json
import re

import numpy as np
import pytest

from neqatom import response
from neqatom.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _COLUMNS,
    ConfigError,
    load_config,
    run_command,
)
from neqatom.quadrature import QuadratureSpec

FIG5A = """
material = sic
omega_31 = omega_p
omega_32 = omega_r
T_W = 570
T_M = 170
z = log:2e-7:6e-7:3
delta = 1e-2
"""

RATES_POINT = "omega = omega_r\nT_W = 470\nT_M = 170\nz = 1e-6\ndelta = 110e-9\n"

# one subdivision at a tolerance no panel meets: every point fails
FAILING_SPEC = "rel_tol = 1e-14\nabs_tol = 0\nmax_subdivisions = 1\n"


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rows_of(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestLoadConfig:
    def test_minimal_config_fully_defaulted(self, tmp_path):
        cfg = load_config(write(tmp_path, """
omega_31 = 2*omega_r
omega_32 = omega_r
T_W = 300
T_M = 200
z = 1e-6
"""))
        assert cfg.material_name == "sic"
        assert cfg.delta_values.tolist() == [1e-2]
        assert cfg.weights_31 == (1 / 3, 1 / 3, 1 / 3)
        assert cfg.spec.rel_tol == 1e-9
        assert cfg.omega_31 == pytest.approx(2 * 1.495e14)
        for key in ("material", "delta", "weights_31", "rel_tol", "abs_tol",
                    "max_subdivisions", "thermal_search"):
            assert key in cfg.resolved

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(write(tmp_path, "bogus = 1\n"))

    def test_equal_frequencies_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="omega_31"):
            load_config(write(tmp_path, """
omega_31 = omega_r
omega_32 = omega_r
T_W = 300
T_M = 200
z = 1e-6
"""))

    def test_zero_height_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="z"):
            load_config(write(tmp_path, "z = 0\n"))

    def test_negative_temperature_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="T_W"):
            load_config(write(tmp_path, "T_W = -20\n"))

    def test_grid_forms(self, tmp_path):
        cfg = load_config(write(tmp_path, "z = 1e-8,1e-7,1e-6\n"))
        assert cfg.z_values.tolist() == [1e-8, 1e-7, 1e-6]
        cfg = load_config(write(tmp_path, "z = lin:1e-6:2e-6:5\n", "b.cfg"))
        assert len(cfg.z_values) == 5
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "z = log:0:1e-6:5\n", "c.cfg"))

    def test_frequency_forms(self, tmp_path):
        cfg = load_config(write(tmp_path, "omega = 0.5*omega_r\n"))
        assert cfg.omega == pytest.approx(0.5 * 1.495e14)
        cfg = load_config(write(tmp_path, "omega = 1.7e14\n", "b.cfg"))
        assert cfg.omega == 1.7e14
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "omega = fast\n", "c.cfg"))

    @pytest.mark.parametrize("key", ["t", "delta"])
    def test_negative_grid_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"{key}: values must be >= 0"):
            load_config(write(tmp_path, f"{key} = -1,0\n"))

    @pytest.mark.parametrize("key,value", [
        ("T_W", "inf"), ("z", "1e-6,inf"), ("delta", "nan"), ("t", "0,inf"),
        ("z", "log:abc:1e-6:3"), ("omega", "e*omega_r"),
        ("bracket", "1e-8,inf"), ("thermal_search", "1,nan"),
        ("weights", "-1,0,0"), ("weights", "nan,0,1"), ("weights_31", "0.5,0.6,0"),
        ("initial", "0.5,0.6,0"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, key, value):
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, f"{key} = {value}\n"))
        assert str(info.value).startswith(f"{key}: ")
        assert f"{key}: {key}:" not in str(info.value)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key: 'z'"):
            load_config(write(tmp_path, "z = 1e-6\nz = 2e-6\n"))

    def test_material_error_prefixed(self, tmp_path):
        mat = tmp_path / "bad.dat"
        mat.write_text("eps_inf = 2.0\neps_inf = 3.0\n")
        with pytest.raises(ConfigError, match="material: duplicate key: 'eps_inf'"):
            load_config(write(tmp_path, f"material = {mat}\n"))

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            load_config(write(tmp_path, "just some words\n"))

    def test_custom_material_file(self, tmp_path):
        mat = tmp_path / "custom.dat"
        mat.write_text("eps_inf = 2.0\nomega_L = 2e14\nomega_T = 1e14\ngamma_damp = 1e11\n")
        cfg = load_config(write(tmp_path, f"material = {mat}\nomega = 0.5*omega_r\n"))
        assert cfg.model.eps_inf == 2.0
        assert cfg.omega == pytest.approx(0.5e14)


class TestCommands:
    def test_steady_equilibrium_constant_csv(self, tmp_path):
        cfg = write(tmp_path, """
omega_31 = 2*omega_r
omega_32 = omega_p
T_W = 400
T_M = 400
z = log:1e-7:1e-5:4
delta = 110e-9
""")
        out = tmp_path / "out.csv"
        assert run_command(["steady", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = rows_of(out)
        assert header[:6] == ["delta", "z", "p1", "p2", "p3", "inverted"]
        assert len(rows) == 4
        p1 = [float(row["p1"]) for row in rows]
        assert max(p1) - min(p1) < 1e-9

    def test_csv_determinism_and_metadata(self, tmp_path):
        cfg = write(tmp_path, FIG5A)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_command(["thermal-track", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        # --threads is accepted and changes nothing
        assert run_command(["thermal-track", "--config", cfg, "--out", str(out2),
                            "--threads", "2"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        for needle in ("# command = thermal-track", "# version =", "# rel_tol =",
                       "# omega_31 =", "# material = sic"):
            assert needle in text

    def test_thermal_track_columns(self, tmp_path):
        cfg = write(tmp_path, FIG5A)
        out = tmp_path / "out.csv"
        assert run_command(["thermal-track", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, rows = rows_of(out)
        assert header == ["delta", "z", "p1", "p2", "p3", "T_eff_31", "T_eff_32",
                          "closest_T", "distance", "is_thermal", "at_boundary", "error"]
        closest = [float(r["closest_T"]) for r in rows]
        assert all(20.0 < T < 600.0 for T in closest)

    def test_json_schema(self, tmp_path):
        cfg = write(tmp_path, """
omega = omega_r
T_W = 470
T_M = 170
z = 1e-7,1e-6
delta = 110e-9
""")
        out = tmp_path / "out.json"
        assert run_command(["rates", "--config", cfg, "--out", str(out),
                            "--format", "json"]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema"] == "neqatom.v1"
        assert doc["columns"][0] == "delta"
        assert len(doc["rows"]) == 2
        assert doc["metadata"]["command"] == "rates"

    def test_teff_map_near_field_limit(self, tmp_path):
        cfg = write(tmp_path, """
omega = 0.5*omega_r
T_W = 470
T_M = 170
z = 1e-8,1e-6
delta = 110e-9,1e-2
""")
        out = tmp_path / "out.csv"
        assert run_command(["teff-map", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = rows_of(out)
        assert len(rows) == 4
        for row in rows:
            if float(row["z"]) == 1e-8:
                assert abs(float(row["T_eff"]) - 170.0) < 1.0

    def test_evolve(self, tmp_path):
        cfg = write(tmp_path, """
omega_31 = omega_p
omega_32 = omega_r
T_W = 570
T_M = 170
z = 3.6e-7
delta = 1e-2
t = lin:0:5:3
initial = 0,0,1
""")
        out = tmp_path / "out.csv"
        assert run_command(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = rows_of(out)
        assert [float(r["t"]) for r in rows] == [0.0, 2.5, 5.0]
        assert float(rows[0]["p3"]) == 1.0
        assert float(rows[-1]["p3"]) < 1.0

    def test_evolve_at_one_kelvin(self, tmp_path):
        # both occupations underflow to 0: no unique steady state, but the
        # evolution from a given state is well defined
        cfg = write(tmp_path, """
omega_31 = omega_p
omega_32 = omega_r
T_W = 1
T_M = 1
z = 3.6e-7
delta = 1e-2
t = 0,1e-3
initial = 0,0,1
""")
        out = tmp_path / "out.csv"
        assert run_command(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = rows_of(out)
        assert [float(rows[0][k]) for k in ("t", "p1", "p2", "p3")] == [0.0, 0.0, 0.0, 1.0]

    def test_evolve_far_beyond_relaxation_gives_the_steady_state(self, tmp_path):
        # at t = 1e20 s and beyond expm(G t) overflows unless t is capped
        # at 50 of the slowest relaxation times
        scenario = ("omega_31 = omega_p\nomega_32 = omega_r\nT_W = 570\nT_M = 170\n"
                    "z = 1e-7\ndelta = 110e-9\n")
        steady_out, evolve_out = tmp_path / "steady.csv", tmp_path / "evolve.csv"
        cfg = write(tmp_path, scenario, name="steady.cfg")
        assert run_command(["steady", "--config", cfg, "--out", str(steady_out)]) == EXIT_OK
        cfg = write(tmp_path, scenario + "t = 1e20,1e300\ninitial = 0,0,1\n", name="evolve.cfg")
        assert run_command(["evolve", "--config", cfg, "--out", str(evolve_out)]) == EXIT_OK
        keys = ("p1", "p2", "p3")
        steady = np.array([float(rows_of(steady_out)[1][0][k]) for k in keys])
        _, rows = rows_of(evolve_out)
        assert [float(r["t"]) for r in rows] == [1e20, 1e300]
        for row in rows:
            p = np.array([float(row[k]) for k in keys])
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.abs(p - steady).max() < 1e-12

    def test_crossover(self, tmp_path):
        cfg = write(tmp_path, """
omega = 0.5*omega_r
delta = 1e-2
bracket = 1e-8,1e-4
""")
        out = tmp_path / "out.csv"
        assert run_command(["crossover", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = rows_of(out)
        z_star = float(rows[0]["z_star"])
        assert 1e-8 < z_star < 1e-4


class TestExitCodes:
    def test_missing_required_key(self, tmp_path):
        cfg = write(tmp_path, "omega = omega_r\n")
        assert run_command(["rates", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = write(tmp_path, "whatever = 3\n")
        assert run_command(["rates", "--config", cfg]) == EXIT_CONFIG

    def test_unreadable_config(self, tmp_path):
        assert run_command(["rates", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_output(self, tmp_path, capsys, target):
        cfg = write(tmp_path, "omega = omega_r\nT_W = 470\nT_M = 170\nz = 1e-7\n"
                              "delta = 110e-9\n")
        out = str(tmp_path / target)
        assert run_command(["rates", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("cannot write output: ")

    def test_numerical_failure_names_point(self, tmp_path, capsys):
        cfg = write(tmp_path, """
omega = omega_r
T_W = 470
T_M = 170
z = 1e-7
delta = 110e-9
rel_tol = 1e-14
abs_tol = 0
max_subdivisions = 1
""")
        out = tmp_path / "out.csv"
        code = run_command(["rates", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "z=1e-07" in captured.err
        _, rows = rows_of(out)
        assert rows[0]["error"]

    def test_evolve_failure_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "omega_31 = omega_p\nomega_32 = omega_r\nT_W = 570\n"
                              "T_M = 170\nz = 1e-7\ndelta = 110e-9\nt = 0,1\n" + FAILING_SPEC)
        assert run_command(["evolve", "--config", cfg]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert re.fullmatch(r"numerical failure at z=1e-07, delta=1\.1e-07: "
                            r"QuadratureToleranceError: .* \(integral [BCD]\)\n", captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command,text", [
        ("teff-map", "omega = omega_r\nT_W = 470\nT_M = 170\nz = 1e-7,1e-6\ndelta = 110e-9\n"),
        ("steady", FIG5A),
        ("thermal-track", FIG5A),
    ])
    def test_failure_rows_are_full_width(self, tmp_path, command, text, fmt):
        cfg = write(tmp_path, text + FAILING_SPEC)
        out = tmp_path / f"out.{fmt}"
        code = run_command([command, "--config", cfg, "--out", str(out), "--format", fmt])
        assert code == EXIT_NUMERICAL
        columns = list(_COLUMNS[command])
        if fmt == "csv":
            lines = [line for line in out.read_text().splitlines()
                     if not line.startswith("#")]
            assert lines[0].split(",") == columns
            rows = [line.split(",", len(columns) - 1) for line in lines[1:]]
            missing = "nan"
        else:
            doc = json.loads(out.read_text())
            assert doc["columns"] == columns
            rows = doc["rows"]
            missing = None
        assert rows
        for row in rows:
            assert len(row) == len(columns)
            assert row[2:-1] == [missing] * (len(columns) - 3)
            assert re.search(r" \(integral [BCD]\)$", row[-1]), row[-1]

    def test_negative_time_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, """
omega = omega_r
T_W = 470
T_M = 170
z = 1e-6
delta = 110e-9
t = -1,0
""")
        assert run_command(["rates", "--config", cfg]) == EXIT_CONFIG
        assert "t: values must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text", [
        ("rates", RATES_POINT + "weights = -1,0,0\n"),
        ("crossover", "omega = 0.5*omega_r\nbracket = 1e-8,1e-4\nweights = 2,0,0\n"),
    ])
    def test_bad_weights_are_config_error(self, tmp_path, capsys, command, text):
        assert run_command([command, "--config", write(tmp_path, text)]) == EXIT_CONFIG
        assert "config error: weights: orientation weights" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("eps_inf", "abc", "eps_inf: cannot parse 'abc'"),
        ("omega_L", "inf", "omega_L: values must be finite"),
    ])
    def test_bad_material_value_is_config_error(self, tmp_path, capsys, key, value, message):
        values = {"eps_inf": "2.0", "omega_L": "2e14", "omega_T": "1e14",
                  "gamma_damp": "1e11", key: value}
        mat = tmp_path / "bad.dat"
        mat.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        cfg = write(tmp_path, f"material = {mat}\n" + RATES_POINT)
        assert run_command(["rates", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: material: {message}\n"

    def test_initial_checked_before_integration(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("alpha_pair called")
        monkeypatch.setattr("neqatom.response.alpha_pair", fail)
        cfg = write(tmp_path, """
omega_31 = omega_p
omega_32 = omega_r
T_W = 570
T_M = 170
z = 3.6e-7
delta = 1e-2
t = 0,1
initial = 0.5,0.6,0
""")
        assert run_command(["evolve", "--config", cfg]) == EXIT_CONFIG
        assert "config error: initial: populations must sum to 1" in capsys.readouterr().err

    def test_crossover_without_sign_change_is_numerical(self, tmp_path):
        cfg = write(tmp_path, """
omega = 0.5*omega_r
delta = 1e-2
bracket = 1e-8,2e-8
""")
        assert run_command(["crossover", "--config", cfg]) == EXIT_NUMERICAL

    def test_crossover_failure_names_height_and_integral(self, tmp_path, capsys):
        # the search runs at its own spec and converges; the alpha pair
        # reported at z* runs at the config's one subdivision and fails there
        cfg = write(tmp_path, "omega = omega_r\ndelta = 110e-9\nbracket = 1e-8,1e-4\n"
                              + FAILING_SPEC)
        assert run_command(["crossover", "--config", cfg]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        got = re.fullmatch(r"numerical failure at z=(\S+), delta=1\.1e-07: "
                           r"QuadratureToleranceError: tolerance not met after 1 subdivisions "
                           r"\(integral [BCD]\)\n", captured.err)
        assert got and 1e-8 < float(got.group(1)) < 1e-4
        assert captured.out == ""

    def test_crossover_search_failure_names_its_height(self, tmp_path, capsys, monkeypatch):
        # a root spec of one subdivision fails the search at its lower bracket end
        monkeypatch.setattr(response, "_ROOT_SPEC", QuadratureSpec(1e-10, 1e-15, 1))
        cfg = write(tmp_path, "omega = omega_r\ndelta = 110e-9\nbracket = 1e-8,1e-4\n")
        assert run_command(["crossover", "--config", cfg]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure at z=1e-08, delta=1.1e-07: QuadratureToleranceError: "
            "tolerance not met after 1 subdivisions (integral D)\n")

    def test_frequency_without_a_default_dipole_names_omega(self, tmp_path, capsys,
                                                            monkeypatch):
        # unit_rate_dipole(5e102) underflows to 0; the rates probe atom's
        # omega_31 = 2 omega is not a config key, so the error names omega,
        # before any integral, and is a config error like thermal-track's
        def fail(*args, **kwargs):
            raise AssertionError("response_vectors_many called")
        monkeypatch.setattr("neqatom.analysis.response_vectors_many", fail)
        cfg = write(tmp_path, "omega = 5e102\nT_W = 570\nT_M = 170\nz = 1e-7\n"
                              "delta = 110e-9\n")
        assert run_command(["rates", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: omega = 5e+102 has no default dipole magnitude" in err
        assert "omega_31" not in err


class TestOverrides:
    def test_rel_tol_flag_wins(self, tmp_path):
        cfg = write(tmp_path, "omega = omega_r\nrel_tol = 1e-6\n")
        loaded = load_config(cfg, {"rel_tol": "1e-3"})
        assert loaded.spec.rel_tol == 1e-3

    def test_env_override(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, """
omega = omega_r
T_W = 470
T_M = 170
z = 1e-6
delta = 110e-9
""")
        monkeypatch.setenv("NEQATOM_REL_TOL", "1e-5")
        out = tmp_path / "out.csv"
        assert run_command(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "# rel_tol = 1e-05" in out.read_text()
