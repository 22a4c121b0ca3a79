import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfsim
from dfsim import cli, dynamics, prepare_b, readout_fluorescence
from dfsim.cli import ConfigError, list_scenarios, main, run


@pytest.fixture
def no_solve(monkeypatch):
    """Fail any solve: config errors must come before the first one."""
    def fail(*args, **kwargs):
        raise AssertionError("a solve started before the config check")

    for name in ("_propagate", "solve_ivp", "expm"):
        monkeypatch.setattr(dynamics, name, fail)


KINDS = ("prepare", "rotate", "readout", "cphase4", "merit-prepare",
         "merit-rotate", "table-prepare", "table-rotate", "cluster-growth")
# Scenario types that read a key class: an array geometry with its drive
# phase, a Raman (two-tone) drive, a merit search or a tolerance table.
ARRAY = {"prepare", "rotate", "readout", "cphase4", "table-prepare",
         "table-rotate"}
RAMAN = {"rotate", "merit-rotate", "table-rotate"}
MERIT = {"merit-prepare", "merit-rotate"}
TABLE = {"table-prepare", "table-rotate"}


def _one_key_config(tmp_path, kind, section, key, value):
    """A config of scenario type `kind` in which every other key the type
    reads is present and valid, and no key it does not read, so a run can
    only fail on the key under test."""
    valid = {"scenario": {"name": "x", "type": kind},
             "geometry": {"xi12": "0.5", "alpha": "0",
                          "n": "4" if kind == "cphase4" else "3"},
             "drive": {"e_mu": "1.0", "e_nu": "1.0",
                       "omega_delta": "170.0", "e_pulse": "1.0",
                       "detuning_offset": "0.0"},
             "merit": {"xi_values": "0.5"},
             "sweep": {"variances": "0.005"},
             "cluster": {"p": "0.5", "ops": "10"}}
    reads = {**cli._COMMON, **cli._TYPES[kind][1]}
    sections = {name: {k: v for k, v in keys.items()
                       if f"{name}.{k}" in reads}
                for name, keys in valid.items()}
    sections.setdefault(section, {})[key] = value
    sections = {name: keys for name, keys in sections.items() if keys}
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    return cfg


class TestListScenarios:
    def test_contains_reference_runs(self):
        names = list_scenarios()
        assert "prep-fig2a" in names
        assert len(names) >= 9

    def test_stable_ordering(self):
        assert list_scenarios() == list_scenarios()

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list_scenarios()


# Printed by a fresh interpreter: which scipy solver modules it has loaded.
SCIPY_LOADED = ("import sys\nprint(sorted(m for m in "
                "('scipy.integrate', 'scipy.linalg') if m in sys.modules))")


def _fresh(code: str) -> str:
    """Last line that ``code`` prints in a fresh interpreter importing this
    dfsim."""
    src = str(Path(dfsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True,
                          text=True).stdout.splitlines()[-1]


class TestStartup:
    """scipy is imported on the first solve that needs it: importing dfsim
    and running scenarios without a one-tone batch never load it."""

    def test_import_loads_no_scipy_solver(self):
        assert _fresh("import dfsim, dfsim.cli\n" + SCIPY_LOADED) == "[]"

    @pytest.mark.parametrize("name", ["prep-fig2a", "cluster-growth"])
    def test_one_tone_run_loads_no_scipy_solver(self, tmp_path, name):
        code = (f"from dfsim import cli\n"
                f"cli.run({name!r}, out_dir={str(tmp_path)!r})\n")
        assert _fresh(code + SCIPY_LOADED) == "[]"

    def test_two_tone_rotation_loads_no_scipy_solver(self, tmp_path):
        # Calibration grids and the rotation all propagate from Floquet
        # modes.
        code = (f"from dfsim import cli\n"
                f"cli.run('rot-fig3a', out_dir={str(tmp_path)!r})\n")
        assert _fresh(code + SCIPY_LOADED) == "[]"


class TestRun:
    def test_cluster_growth_outputs(self, tmp_path):
        written = run("cluster-growth", out_dir=str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert "cluster-growth_growth.csv" in names
        assert "cluster-growth_summary.txt" in names
        assert "cluster-growth_manifest.cfg" in names

    @pytest.mark.parametrize("name,outputs", [
        ("cluster-growth", ("growth.csv", "summary.txt")),
        ("tbl", ("tolerances.csv", "table.txt", "summary.txt")),
    ])
    def test_byte_identical_reruns(self, tmp_path, table_cfg, name, outputs):
        source = table_cfg if name == "tbl" else name
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(source, out_dir=str(a))
        run(source, out_dir=str(b))
        for suffix in outputs:
            file = f"{name}_{suffix}"
            assert (a / file).read_bytes() == (b / file).read_bytes()

    def test_table_at_zero_propagation_phase(self, tmp_path, table_cfg):
        # With every emitter driven in phase the position sweep still
        # builds one member per draw.
        with open(table_cfg) as fh:
            text = fh.read().replace("e_mu = 1.0\n",
                                     "e_mu = 1.0\nk_dot_r = 0\n")
        cfg = tmp_path / "k0.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "tbl_tolerances.csv").read_text()
        assert "nan" not in rows.lower()

    def test_manifest_round_trip(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run("cluster-growth", out_dir=str(first))
        run(str(first / "cluster-growth_manifest.cfg"), out_dir=str(second))
        assert ((first / "cluster-growth_growth.csv").read_bytes()
                == (second / "cluster-growth_growth.csv").read_bytes())

    def test_percent_in_output_directory(self, tmp_path, capsys):
        # A '%' is a plain character in any config value, and the manifest
        # keeps it.
        out = tmp_path / "a%b"
        cfg = tmp_path / "growth.cfg"
        cfg.write_text("[scenario]\nname = g\ntype = cluster-growth\n"
                       "[cluster]\np = 0.9\nops = 10\n"
                       f"[run]\nout = {out}\n")
        assert main(["run", str(cfg)]) == 0
        manifest = (out / "g_manifest.cfg").read_text()
        assert f"out = {out}\n" in manifest
        assert cli._configure(str(out / "g_manifest.cfg"))[1]["run.out"] \
            == str(out)

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run("cluster-growth", out_dir=str(a), seed=1)
        run("cluster-growth", out_dir=str(b), seed=2)
        assert ((a / "cluster-growth_growth.csv").read_bytes()
                != (b / "cluster-growth_growth.csv").read_bytes())

    def test_prepare_scenario_summary(self, tmp_path):
        run("prep-fig2a", out_dir=str(tmp_path))
        summary = (tmp_path / "prep-fig2a_summary.txt").read_text()
        values = dict(line.split(" = ") for line in summary.strip().splitlines())
        assert abs(float(values["fidelity"]) - 0.988) < 0.005
        assert abs(float(values["t_pi"]) - 0.987) / 0.987 < 0.02
        assert (tmp_path / "prep-fig2a_trajectory.csv").exists()

    def test_merit_rotate_flags_unsaturated_points(self, tmp_path,
                                                   monkeypatch):
        def point(xi, *args, **kwargs):
            return {"scale": 1.0, "t_pi": 0.1, "fidelity": 0.99 - xi,
                    "gamma_mean": 1.0, "merit": 1.0 / xi,
                    "saturated": xi < 0.2}

        monkeypatch.setattr(cli, "rotate_merit_point", point)
        cfg = tmp_path / "m.cfg"
        cfg.write_text("[scenario]\nname = m\ntype = merit-rotate\n"
                       "[merit]\nxi_values = 0.1, 0.2, 0.3\n")
        run(str(cfg), out_dir=str(tmp_path))
        rows = (tmp_path / "m_merit.csv").read_text().splitlines()
        assert rows[0].split(",")[-1] == "saturated"
        assert [r.split(",")[-1] for r in rows[1:]] == ["1", "0", "0"]
        summary = (tmp_path / "m_summary.txt").read_text()
        assert "unsaturated_points = 2\n" in summary

    def test_trajectory_header(self, tmp_path):
        run("prep-fig2a", out_dir=str(tmp_path))
        header = (tmp_path / "prep-fig2a_trajectory.csv").read_text() \
            .splitlines()[0]
        assert header.split(",")[:2] == ["time", "pop_a"]
        assert header.split(",")[-1] == "norm"


def _csv_oracle(header, columns) -> str:
    """The per-value writer: every cell through `_fmt`, row by row."""
    return "".join(",".join(cli._fmt(v) for v in row) + "\n"
                   for row in [header, *zip(*columns)])


def _csv_cells(path) -> np.ndarray:
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


class TestCsvWriter:
    FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e16])

    @pytest.mark.parametrize("header,columns", [
        (["a", "b"], [FLOATS, FLOATS[::-1] * 3.0]),
        (["i", "j", "x"], [np.array([-2**63, -2, -1, 0, 1, 2, 2**62]),
                           [0, 1, -2, 3, 2**70, -5, 6], FLOATS]),
        (["flag", "x"], [[True, False, True], FLOATS[:3]]),
        (["axis", "threshold", "tolerance"],
         [["rabi", "detuning", "position"], [0.9, 0.95, 0.98],
          [0.25, "", np.float64(1e-6)]]),
        (["t", "n"], [np.array([0.5]), np.array([7])]),
        (["t", "n", "s"], [np.array([]), np.array([], dtype=int), []]),
    ])
    def test_bytes_match_per_value_formatter(self, header, columns):
        out = cli._Output("t")
        out.add_csv("x", header, columns)
        assert out.files["t_x.csv"] == _csv_oracle(header, columns)

    def test_prepare_trajectory_round_trips(self, tmp_path, monkeypatch):
        results = []

        def keep(*args, **kwargs):
            results.append(prepare_b(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "prepare_b", keep)
        run("prep-fig2a", out_dir=str(tmp_path))
        traj = results[0].trajectory
        cells = _csv_cells(tmp_path / "prep-fig2a_trajectory.csv")
        want = np.column_stack([traj.times, traj.populations, traj.norms])
        assert cells.shape == want.shape
        assert np.all(cells == want)

    def test_readout_trajectories_round_trip(self, tmp_path, monkeypatch):
        results = {}

        def keep(g, e_mu, logical, *args, **kwargs):
            results[logical] = readout_fluorescence(g, e_mu, logical, *args,
                                                    **kwargs)
            return results[logical]

        monkeypatch.setattr(cli, "readout_fluorescence", keep)
        run("readout", out_dir=str(tmp_path))
        assert set(results) == {0, 1}
        for logical, res in results.items():
            traj = res.trajectory
            cells = _csv_cells(
                tmp_path / f"readout_trajectory_logical{logical}.csv")
            assert cells[:, 0].tolist() == traj.times.tolist()
            assert cells[:, 1].tolist() == [float(w)**2 for w in traj.norms]


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            run("no-such-scenario")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = x\ntype = prepare\n"
                       "[geometry]\nxi12 = 0.5\nalpha = 0\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            run(str(cfg))

    def test_malformed_config_writes_nothing(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = x\ntype = prepare\n"
                       "[geometry]\nxi12 = not-a-number\nalpha = 0\n")
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            run(str(cfg), out_dir=str(out))
        assert not out.exists()

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = x\ntype = prepare\n"
                       "[geometry]\nalpha = 0\n")
        with pytest.raises(ConfigError):
            run(str(cfg))

    def test_main_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = x\ntype = mystery\n")
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", ["-1", "0", "inf", "soon"])
    def test_rejects_bad_end_time(self, tmp_path, t_end):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = x\ntype = prepare\n"
                       "[geometry]\nxi12 = 0.5\nalpha = 0\n"
                       "[drive]\ne_mu = 1.0\n"
                       f"[run]\nt_end = {t_end}\n")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="t_end"):
            run(str(cfg), out_dir=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("kind,section,key,value", [
        ("prepare", "run", "t_end", "0.9,high"),
        ("prepare", "drive", "k_dot_r", "nan"),
        ("merit-prepare", "merit", "xi_values", "0.9,high"),
        ("merit-prepare", "merit", "xi_values", ","),
        ("table-prepare", "sweep", "thresholds", "0.9,high"),
        ("table-prepare", "sweep", "thresholds", "0.9,nan"),
        ("table-prepare", "sweep", "variances", "0.9,high"),
        ("prepare", "drive", "e_mu", "-1.0"),
        ("rotate", "drive", "e_nu", "-1.0"),
        ("rotate", "drive", "omega_delta", "0"),
        ("cphase4", "drive", "e_pulse", "-1.0"),
        ("table-prepare", "sweep", "samples", "0"),
        ("table-prepare", "sweep", "variances", "-0.1"),
        ("table-prepare", "sweep", "thresholds", "0.9,1.5"),
        ("table-prepare", "sweep", "thresholds", "0"),
        ("table-prepare", "sweep", "thresholds", "1"),
        ("prepare", "geometry", "n", "5"),
        ("prepare", "geometry", "xi12", "0"),
        ("prepare", "geometry", "xi12", "-0.5"),
        ("cluster-growth", "cluster", "p", "1.5"),
        ("cluster-growth", "cluster", "ops", "0"),
        ("merit-prepare", "merit", "xi_values", "0.5,-0.1"),
        ("merit-prepare", "merit", "f_target", "1.5"),
        ("table-prepare", "run", "seed", "-1"),
        ("cluster-growth", "run", "seed", "-1"),
        ("prepare", "integrator", "rtol", "-1"),
        ("prepare", "integrator", "rtol", "0"),
        ("merit-prepare", "merit", "xi_values", "0.5, 0.50"),
        ("table-prepare", "sweep", "thresholds", "0.9, 0.95, 0.9"),
        ("table-prepare", "sweep", "variances", "1e-6, 1e-6"),
        ("merit-prepare", "geometry", "n", "4"),
        ("merit-rotate", "geometry", "n", "4"),
        ("prepare", "geometry", "n", "4"),
        ("rotate", "geometry", "n", "4"),
        ("readout", "geometry", "n", "4"),
        ("table-prepare", "geometry", "n", "4"),
        ("table-rotate", "geometry", "n", "4"),
        ("cphase4", "geometry", "n", "3"),
        ("readout", "drive", "transition", "xy"),
    ])
    def test_malformed_numbers_exit_2(self, tmp_path, capsys, no_solve,
                                      kind, section, key, value):
        cfg = _one_key_config(tmp_path, kind, section, key, value)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"[{section}]" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,section,key,value", [
        (kind, section, key, value)
        for section, key, value, readers in (
            ("run", "t_end", "3.0", {"prepare", "rotate", "readout",
                                     "cphase4"}),
            ("drive", "calibrate", "true", {"rotate"}),
            ("drive", "coherent", "true", {"cphase4"}),
            ("drive", "e_pulse", "1.0", {"cphase4"}),
            ("drive", "detuning_offset", "0.0", {"cphase4"}),
            ("drive", "transition", "cg", {"readout"}),
            ("drive", "e_nu", "1.0", RAMAN),
            ("drive", "omega_delta", "170.0", RAMAN),
            ("drive", "e_mu", "1.0", ARRAY - {"cphase4"} | RAMAN),
            ("drive", "k_dot_r", "auto", ARRAY),
            ("geometry", "xi12", "0.5", ARRAY),
            ("geometry", "alpha", "0", ARRAY | MERIT),
            ("merit", "xi_values", "0.5", MERIT),
            ("merit", "f_target", "0.98", MERIT),
            ("sweep", "thresholds", "0.9", TABLE),
            ("sweep", "variances", "0.005", TABLE),
            ("sweep", "samples", "3", TABLE),
            ("cluster", "p", "0.5", {"cluster-growth"}),
            ("cluster", "ops", "10", {"cluster-growth"}))
        for kind in KINDS if kind not in readers])
    def test_key_a_type_never_reads_exits_2(self, tmp_path, capsys, no_solve,
                                            kind, section, key, value):
        cfg = _one_key_config(tmp_path, kind, section, key, value)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err and repr(kind) in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_without_variances_exit_2(
            self, tmp_path, capsys, no_solve, samples):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = x\ntype = table-prepare\n"
                       "[geometry]\nxi12 = 0.5\nalpha = 0\n"
                       f"[drive]\ne_mu = 1.0\n[sweep]\nsamples = {samples}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "[sweep] samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", list_scenarios())
    def test_bundled_configs_and_their_manifests_parse(self, tmp_path,
                                                       no_solve, name):
        cfg, values = cli._configure(name, out_dir=str(tmp_path))
        manifest = tmp_path / "manifest.cfg"
        with open(manifest, "w") as fh:
            cfg.write(fh)
        assert cli._configure(str(manifest)) == (cfg, values)

    def test_percent_in_a_number_exits_2(self, tmp_path, capsys, no_solve):
        cfg = _one_key_config(tmp_path, "cluster-growth", "cluster", "p",
                              "0.9%")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[cluster] p" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["r_nm", "lambda0_nm"])
    def test_spacing_given_twice_exits_2(self, tmp_path, capsys, no_solve,
                                         key):
        # xi12 and a physical spacing: one of them would go unread.
        cfg = _one_key_config(tmp_path, "prepare", "geometry", key, "100")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "xi12 or r_nm and lambda0_nm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_rejects_bad_tolerance_flag(self, tmp_path, capsys, no_solve,
                                        tol):
        out = tmp_path / "out"
        assert main(["run", "prep-fig2a", "--out", str(out), "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[integrator] rtol" in err
        assert not out.exists()
