import logging

import numpy as np
import pytest

from dfsim import (ProtocolError, ScenarioBase, SweepSpec, linear_array_xi,
                   sweep, tolerance)
from dfsim import cli, robustness
from dfsim.robustness import rotate_merit_point, tolerance_table


@pytest.fixture(scope="module")
def prep_base():
    return ScenarioBase(geometry=linear_array_xi(0.5, alpha=0.0), e_mu=1.0,
                        protocol="prepare", rtol=1e-7)


@pytest.fixture(scope="module")
def rot_base():
    return ScenarioBase(geometry=linear_array_xi(0.15, alpha=np.pi / 2),
                        e_mu=24.0, e_nu=60.0, omega_delta=170.0,
                        protocol="rotate", rtol=1e-5)


class TestSweep:
    @pytest.mark.parametrize("base_name", ["prep_base", "rot_base"])
    def test_zero_deviation_reproduces_base(self, request, base_name):
        # The sweep rebuilds the protocol's states, drive and tones from the
        # shared transfer definition; at zero deviation it must land on the
        # protocol's own fidelity.
        base = request.getfixturevalue(base_name)
        spec = SweepSpec(protocol=base.protocol, axis="rabi", values=(0.0,))
        res = sweep(spec, base)
        assert res.mean_fidelity[0] == pytest.approx(res.base_fidelity,
                                                     abs=5e-4)

    def test_rabi_curve_symmetric_and_decreasing(self, prep_base):
        spec = SweepSpec(protocol="prepare", axis="rabi",
                         values=(-0.1, -0.05, 0.0, 0.05, 0.1))
        res = sweep(spec, prep_base)
        f = res.mean_fidelity
        assert f[2] == max(f)
        assert f[0] < f[2] and f[4] < f[2]

    def test_rejects_negative_amplitude(self, prep_base):
        with pytest.raises(ValueError):
            sweep(SweepSpec(protocol="prepare", axis="rabi", values=(-1.5,)),
                  prep_base)

    def test_detuning_errors_reduce_fidelity(self, prep_base):
        spec = SweepSpec(protocol="prepare", axis="detuning",
                         values=(0.05, 0.1))
        res = sweep(spec, prep_base)
        assert np.all(res.mean_fidelity < res.base_fidelity)
        assert res.mean_fidelity[1] < res.mean_fidelity[0]

    def test_position_sweep_seed_reproducible(self, prep_base):
        spec = SweepSpec(protocol="prepare", axis="position",
                         values=(1e-6,), samples=12, seed=5)
        a = sweep(spec, prep_base)
        b = sweep(spec, prep_base)
        assert a.mean_fidelity[0] == b.mean_fidelity[0]
        assert a.swap_probability is not None

    def test_position_sample_convergence(self, prep_base):
        v = 2e-7
        f = {}
        for n in (24, 48):
            spec = SweepSpec(protocol="prepare", axis="position",
                             values=(v,), samples=n, seed=9)
            res = sweep(spec, prep_base)
            f[n] = (float(res.mean_fidelity[0]), float(res.stderr[0]))
        diff = abs(f[24][0] - f[48][0])
        assert diff < 2.0 * (f[24][1] + f[48][1]) + 1e-6

    def test_large_disorder_swaps_order(self, prep_base):
        spec = SweepSpec(protocol="prepare", axis="position",
                         values=(0.08,), samples=30, seed=2)
        res = sweep(spec, prep_base)
        assert res.swap_probability[0] > 0.3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(protocol="prepare", axis="phase", values=(0.1,))
        with pytest.raises(ValueError):
            SweepSpec(protocol="prepare", axis="rabi", values=())
        with pytest.raises(ValueError, match="variances"):
            SweepSpec(protocol="prepare", axis="position", values=(0.1, -0.1))
        with pytest.raises(ValueError):
            ScenarioBase(geometry=linear_array_xi(0.5), e_mu=1.0,
                         protocol="rotate")


class TestSweepEngine:
    def test_table_run_draws_each_variance_once(self, tmp_path, monkeypatch,
                                                table_cfg):
        draws, runs, tables = [], [], []
        draw = robustness._position_fidelities
        table = cli.tolerance_table

        def counted_draw(run, variance, samples, seed, rtol):
            draws.append((variance, seed))
            return draw(run, variance, samples, seed, rtol)

        class CountedRun(robustness._BaseRun):
            def __init__(self, base):
                runs.append(base)
                super().__init__(base)

        def kept_table(*args, **kwargs):
            tables.append(table(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(robustness, "_position_fidelities", counted_draw)
        monkeypatch.setattr(robustness, "_BaseRun", CountedRun)
        monkeypatch.setattr(cli, "tolerance_table", kept_table)
        cli.run(table_cfg, out_dir=str(tmp_path / "out"))
        # One base run, and every variance drawn once from the run seed.
        assert len(runs) == 1
        assert draws == [(1e-6, 7), (0.005, 7)]
        summary = dict(line.split(" = ") for line in
                       (tmp_path / "out" / "tbl_summary.txt").read_text()
                       .splitlines())
        disorder = tables[0].position
        assert list(disorder.spec.values) == [1e-6, 0.005]
        for k, v in enumerate(disorder.spec.values):
            assert float(summary[f"mean_fidelity_v_{v:g}"]) \
                == disorder.mean_fidelity[k]
            assert float(summary[f"stderr_v_{v:g}"]) == disorder.stderr[k]
            assert float(summary[f"swap_probability_v_{v:g}"]) \
                == disorder.swap_probability[k]

    def test_variance_draws_do_not_depend_on_the_list(self):
        base = ScenarioBase(geometry=linear_array_xi(0.5, alpha=0.0),
                            e_mu=1.0, protocol="prepare", rtol=1e-5)

        def position(values):
            return sweep(SweepSpec(protocol="prepare", axis="position",
                                   values=values, samples=3, seed=11), base)

        pair, alone = position((1e-6, 0.005)), position((0.005,))
        assert pair.mean_fidelity[1] == alone.mean_fidelity[0]
        assert pair.stderr[1] == alone.stderr[0]
        assert pair.swap_probability[1] == alone.swap_probability[0]


class TestTolerance:
    def test_positive_and_nested(self, prep_base):
        t95 = tolerance(prep_base, "rabi", 0.95)
        t98 = tolerance(prep_base, "rabi", 0.98)
        assert 0.0 < t98 < t95

    def test_table_nesting_holds(self, prep_base):
        table = tolerance_table(prep_base, thresholds=(0.9, 0.98))
        assert table.validate_nesting()
        text = table.to_text()
        assert "rabi" in text and "detuning" in text

    def test_position_rejected_for_bisection(self, prep_base):
        with pytest.raises(ValueError):
            tolerance(prep_base, "position", 0.95)


def test_rotate_merit_point_logs_calibration_failure(monkeypatch, caplog):
    def fail(*args, **kwargs):
        raise ProtocolError("no interior fidelity maximum")

    monkeypatch.setattr(robustness, "calibrate_detuning", fail)
    monkeypatch.setattr(robustness, "rotate_logical", fail)
    with caplog.at_level(logging.WARNING, logger="dfsim.robustness"):
        with pytest.raises(ProtocolError, match="never converged"):
            rotate_merit_point(0.1, np.pi / 2, 0.98)
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert any("xi=0.1" in m and "no interior fidelity maximum" in m
               for m in warnings)
