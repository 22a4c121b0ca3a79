import logging

import numpy as np
import pytest

from dfsim import (ProtocolError, ScenarioBase, SweepSpec, coupling_matrices,
                   linear_array_xi, rotate_logical, spectral_params, sweep,
                   tolerance)
from dfsim import cli, protocols, robustness
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

    def test_table_matches_sequential_search(self, prep_base):
        table = tolerance_table(prep_base, thresholds=(0.9, 0.98))
        run = robustness._BaseRun(prep_base)
        for row in table.rows:
            for t in (0.9, 0.98):
                assert row.tolerances[t] == sequential_tolerance(run, row.axis,
                                                                 t)

    def test_two_tone_matches_sequential_search(self):
        # The Table 2 rotation base: the stronger rot_base drive reaches
        # only F = 0.855.
        base = ScenarioBase(geometry=linear_array_xi(0.15, alpha=np.pi / 2),
                            e_mu=6.0, e_nu=15.0, omega_delta=170.0,
                            protocol="rotate", rtol=1e-7)
        run = robustness._BaseRun(base)
        assert tolerance(base, "detuning", 0.98, run=run) \
            == sequential_tolerance(run, "detuning", 0.98)

    def test_table_takes_few_batched_solves(self, prep_base, monkeypatch):
        # One ladder solve plus one solve per bisection round; a search per
        # crossing with one solve per probe takes over a hundred.
        calls = []
        batch = protocols.evolve_nojump_batch

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return batch(*args, **kwargs)

        monkeypatch.setattr(protocols, "evolve_nojump_batch", counted)
        table = tolerance_table(prep_base, thresholds=(0.9, 0.95, 0.98))
        assert len(table.rows) == 2
        # The ladder: deviation 0 and 10 rungs on each side of both axes.
        assert calls[0] == 41
        assert len(calls) <= 10

    def test_threshold_above_base_fidelity_raises(self, prep_base):
        run = robustness._BaseRun(prep_base)
        assert run.result.fidelity < 0.995
        with pytest.raises(ProtocolError, match="below threshold 0.995"):
            tolerance(prep_base, "rabi", 0.995, run=run)
        with pytest.raises(ProtocolError, match="below threshold 0.995"):
            tolerance_table(prep_base, thresholds=(0.9, 0.995))

    def test_zero_threshold_is_capped_on_both_sides(self, prep_base):
        # Every deviation passes, so each side stops at the cap of 1 and the
        # half-width (mean of the two sides, each at most 1) is 1 only if
        # both are.
        assert tolerance(prep_base, "detuning", 0.0) == 1.0
        table = tolerance_table(prep_base, thresholds=(0.0,))
        assert [row.tolerances[0.0] for row in table.rows] == [1.0, 1.0]


def sequential_tolerance(run, axis, threshold):
    """Oracle for ``tolerance``: each crossing found on its own, doubling
    from the resolution and then bisecting, one batch-of-one solve per
    probe."""
    resolution = robustness.TOLERANCE_RESOLUTION

    def fidelity_at(eps):
        return float(robustness._grid_fidelities(run, [(axis, eps)],
                                                 run.base.rtol)[0])

    def crossing(sign):
        lo, hi = 0.0, resolution
        while fidelity_at(sign * hi) >= threshold:
            lo, hi = hi, hi * 2.0
            if hi > 1.0:
                return 1.0
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if fidelity_at(sign * mid) >= threshold:
                lo = mid
            else:
                hi = mid
        return lo

    return 0.5 * (crossing(1.0) + crossing(-1.0))


def test_rotate_merit_point_logs_calibration_failure(monkeypatch, caplog):
    def fail(*args, **kwargs):
        raise ProtocolError("no interior fidelity maximum")

    monkeypatch.setattr(robustness, "_merit_offset", fail)
    monkeypatch.setattr(robustness, "rotate_logical", fail)
    with caplog.at_level(logging.WARNING, logger="dfsim.robustness"):
        with pytest.raises(ProtocolError, match="never converged"):
            rotate_merit_point(0.1, np.pi / 2, 0.98)
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert any("xi=0.1" in m and "no interior fidelity maximum" in m
               for m in warnings)


def test_merit_calibration_finds_shifted_resonance(caplog):
    # At xi=0.1 the first-inversion fidelity peaks about 10% below the
    # lambda-scaled Raman offset, outside a narrow window around it.  The
    # merit calibration scans +-30% on that fidelity, at twice the scaled
    # default drive (6, 15), and must find the peak.
    def omega(xi):
        g = linear_array_xi(xi, alpha=np.pi / 2)
        return g, spectral_params(coupling_matrices(g)).omega

    g, om = omega(0.1)
    lam = om / omega(robustness.MERIT_XI_REF)[1]
    e_mu, e_nu, scaled = 12.0 * lam, 30.0 * lam, 170.0 * lam
    assert scaled == pytest.approx(577.31, abs=0.01)
    wd = robustness._merit_offset(g, e_mu, e_nu, scaled)
    assert scaled * (1.0 - robustness.MERIT_CALIBRATION_WINDOW) < wd < scaled

    def first_inversion(w):
        return rotate_logical(g, e_mu, e_nu, w, rtol=1e-4).fidelity

    assert first_inversion(wd) > first_inversion(scaled)

    with caplog.at_level(logging.WARNING, logger="dfsim.robustness"):
        point = rotate_merit_point(0.1, np.pi / 2, 0.98)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert point["saturated"]
