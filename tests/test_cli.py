import os

import pytest

from dfsim import cli, dynamics
from dfsim.cli import ConfigError, list_scenarios, main, run


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

    def test_manifest_round_trip(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run("cluster-growth", out_dir=str(first))
        run(str(first / "cluster-growth_manifest.cfg"), out_dir=str(second))
        assert ((first / "cluster-growth_growth.csv").read_bytes()
                == (second / "cluster-growth_growth.csv").read_bytes())

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
    ])
    def test_malformed_numbers_exit_2(self, tmp_path, capsys, monkeypatch,
                                      kind, section, key, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the config check")

        monkeypatch.setattr(dynamics, "solve_ivp", no_solve)
        monkeypatch.setattr(dynamics, "expm", no_solve)
        # Every other key the scenario type reads is present and valid, so
        # the run can only fail on the key under test.
        sections = {"scenario": {"name": "x", "type": kind},
                    "geometry": {"xi12": "0.5", "alpha": "0",
                                 "n": "4" if kind == "cphase4" else "3"},
                    "drive": {"e_mu": "1.0", "e_nu": "1.0",
                              "omega_delta": "170.0", "e_pulse": "1.0",
                              "detuning_offset": "0.0"},
                    "merit": {"xi_values": "0.5"},
                    "sweep": {"variances": "0.005"},
                    "cluster": {"p": "0.5", "ops": "10"}}
        sections.setdefault(section, {})[key] = value
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"[{section}]" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_rejects_bad_tolerance_flag(self, tmp_path, capsys, monkeypatch,
                                        tol):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the config check")

        monkeypatch.setattr(dynamics, "solve_ivp", no_solve)
        monkeypatch.setattr(dynamics, "expm", no_solve)
        out = tmp_path / "out"
        assert main(["run", "prep-fig2a", "--out", str(out), "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[integrator] rtol" in err
        assert not out.exists()
