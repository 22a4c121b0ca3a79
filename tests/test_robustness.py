import logging

import numpy as np
import pytest
from scipy.linalg import expm

from dfsim import (DisorderSpec, ProtocolError, ScenarioBase, SweepSpec,
                   calibrate_detuning, collective_eigenbasis,
                   coupling_matrices, linear_array_xi, rotate_logical,
                   sample_disorder, spectral_params, sweep, tolerance)
from dfsim import cli, coupling, hilbert, protocols, robustness
from dfsim.hilbert import excitation_numbers
from dfsim.robustness import rotate_merit_point, tolerance_table

# The bundled table1 scenario: its base, integrator tolerance and seed.
TABLE1_SEED = 20260809


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

        def counted_draw(run, variance, samples, seed):
            draws.append((variance, seed))
            return draw(run, variance, samples, seed)

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


@pytest.fixture(scope="module")
def table1_run():
    return robustness._BaseRun(ScenarioBase(
        geometry=linear_array_xi(0.5, alpha=0.0), e_mu=1.0,
        protocol="prepare", rtol=1e-8))


@pytest.fixture(scope="module")
def table1_batches(table1_run):
    """Every batched solve of table1's two position variances: variance ->
    list of (arguments, keyword arguments, states)."""
    solves, batch = {}, protocols.evolve_nojump_batch
    with pytest.MonkeyPatch.context() as mp:
        for variance in (0.005, 0.08):
            calls = solves[variance] = []

            def kept(*args, **kwargs):
                calls.append((args, kwargs, batch(*args, **kwargs)))
                return calls[-1][2]

            mp.setattr(protocols, "evolve_nojump_batch", kept)
            robustness._position_fidelities(table1_run, variance, 100,
                                            TABLE1_SEED)
    return solves


class TestPositionBatches:
    def test_one_solve_below_twice_nominal(self, table1_batches):
        # Draws below twice the nominal coupling scale share one solve; only
        # the octaves above it are solved apart.  One solve per octave below
        # nominal as well would take 10 and 6.
        sizes = {v: [len(args[0]) for args, _, _ in calls]
                 for v, calls in table1_batches.items()}
        assert sizes == {0.005: [95, 3, 2], 0.08: [100]}

    def test_shared_batch_matches_expm_oracle(self, table1_run,
                                              table1_batches):
        # The step controller weighs the RMS error over the whole stacked
        # state, so each of the 95 members is checked on its own.  Members
        # are coherent and one-tone: G is constant and expm is exact.
        (psi0, hs, [(a, det)], times), kwargs, states = \
            table1_batches[0.005][0]
        assert len(psi0) == 95 and kwargs["rtol"] == 1e-8
        assert np.array_equal(times, table1_run.eval_times)
        number = excitation_numbers(3)
        for k in range(len(psi0)):
            gen = hs[k] - det[k] * np.diag(number) + a[k] + a[k].conj().T
            want = (np.exp(-1j * det[k] * np.outer(times, number))
                    * (expm(-1j * times[:, None, None] * gen) @ psi0[k]))
            assert np.max(np.abs(states[k] - want)) < 1e-8

    def test_small_disorder_is_a_detuned_two_level_transfer(self,
                                                             table1_run):
        # Each draw shifts E_b by d from the fixed control frequency; a
        # detuned two-level transfer at the nominal Rabi rate
        # Omega = pi/(2 t_pi) then reaches F0 Omega^2/W^2 sin^2(W t_pi),
        # W^2 = Omega^2 + (d/2)^2.  The Monte Carlo mean reads 0.9706 against
        # a predicted 0.9702.
        variance = 8e-7
        fids, _ = robustness._position_fidelities(table1_run, variance, 100,
                                                  TABLE1_SEED)
        geoms = sample_disorder(table1_run.base.geometry, DisorderSpec(
            variance=variance, samples=100, seed=TABLE1_SEED))
        d = np.array([collective_eigenbasis(coupling_matrices(g)).energy("b")
                      for g in geoms]) - table1_run.transfer.frequency
        res = table1_run.result
        rabi = np.pi / (2.0 * res.t_pi)
        w = np.sqrt(rabi**2 + (d / 2.0)**2)
        predicted = res.fidelity * rabi**2 / w**2 * np.sin(w * res.t_pi)**2
        assert fids.mean() < 0.975
        assert abs(fids.mean() - predicted.mean()) < 2e-3


class TestOneTransferPerRun:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Rows of every coupling build and every Hamiltonian
        eigendecomposition, by kind."""
        seen = {"couplings": [], "eigensystems": []}
        stack, eigensystems = coupling._coupling_stack, hilbert._eigensystems

        def counted_stack(positions, dipole):
            seen["couplings"].append(len(positions))
            return stack(positions, dipole)

        def counted_eigensystems(h):
            seen["eigensystems"].append(len(h))
            return eigensystems(h)

        monkeypatch.setattr(coupling, "_coupling_stack", counted_stack)
        monkeypatch.setattr(hilbert, "_eigensystems", counted_eigensystems)
        monkeypatch.setattr(protocols, "_eigensystems", counted_eigensystems)
        return seen

    @pytest.mark.parametrize("base", ["prep_base", "rot_base"])
    def test_base_run_builds_the_nominal_system_once(self, builds, base,
                                                     request):
        # The nominal run, the nominal member and the sweep drives all come
        # from one transfer: one coupling set, one eigendecomposition.
        run = robustness._BaseRun(request.getfixturevalue(base))
        assert builds == {"couplings": [1], "eigensystems": [1]}
        assert np.array_equal(run.nominal_member[2][0],
                              run.transfer.basis.vector(run.transfer.target))

    def test_calibration_builds_the_nominal_system_once(self, builds,
                                                        rot_base):
        # The probe rotation and the scan member share the calibration's
        # transfer.
        calibrate_detuning(rot_base.geometry, rot_base.e_mu, rot_base.e_nu,
                           rot_base.omega_delta)
        assert builds == {"couplings": [1], "eigensystems": [1]}


class TestStackedSweep:
    def test_every_draw_past_the_cutoff_scores_zero(self, table1_run,
                                                    monkeypatch):
        # A draw past the cutoff counts as fidelity 0 in the mean; with
        # every draw past it, no member stack is built and nothing solved.
        built = []
        members = protocols._Transfer.members

        def recorded(self, positions, delta, gammas):
            built.append(len(positions))
            return members(self, positions, delta, gammas)

        monkeypatch.setattr(protocols._Transfer, "members", recorded)
        monkeypatch.setattr(robustness, "SCALE_CUTOFF", 0.0)
        monkeypatch.setattr(protocols, "evolve_nojump_batch", None)
        res = robustness._sweep(table1_run, SweepSpec(
            protocol="prepare", axis="position", values=(0.005,),
            samples=5, seed=TABLE1_SEED))
        assert res.mean_fidelity.tolist() == [0.0]
        assert res.stderr.tolist() == [0.0]
        fids, _ = robustness._position_fidelities(table1_run, 0.005, 5,
                                                  TABLE1_SEED)
        assert fids.tolist() == [0.0] * 5
        assert built == []

    def test_one_draw_sweep(self, table1_run):
        # Draw 0 is the same draw whatever the sample count; alone it is
        # solved on its own, so it agrees with the shared solve to the
        # integrator tolerance.
        one = robustness._sweep(table1_run, SweepSpec(
            protocol="prepare", axis="position", values=(0.005,),
            samples=1, seed=TABLE1_SEED))
        fids, _ = robustness._position_fidelities(table1_run, 0.005, 5,
                                                  TABLE1_SEED)
        assert one.stderr.tolist() == [0.0]
        assert 0.0 < one.mean_fidelity[0] < 1.0
        assert abs(one.mean_fidelity[0] - fids[0]) < 1e-6


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
        assert robustness._tolerances(run, ("detuning",), (0.98,))[
            "detuning", 0.98] == sequential_tolerance(run, "detuning", 0.98)

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
            robustness._tolerances(run, ("rabi",), (0.995,))
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
        return float(robustness._grid_fidelities(run, [(axis, eps)])[0])

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
        return rotate_logical(g, e_mu, e_nu, w).fidelity

    assert first_inversion(wd) > first_inversion(scaled)

    with caplog.at_level(logging.WARNING, logger="dfsim.robustness"):
        point = rotate_merit_point(0.1, np.pi / 2, 0.98)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert point["saturated"]


class TestPrepareMeritPoint:
    def test_unreachable_target_raises(self):
        # Seven halvings from the seed leave F = 0.999975 at best, short of
        # the target; no amplitude is returned as the crossing.
        with pytest.raises(ProtocolError, match=r"xi=0.5 never reaches "
                                                r"0.99999 \(best 0.999975\)"):
            robustness.prepare_merit_point(0.5, 0.0, 0.99999)

    def test_each_amplitude_solved_once(self, monkeypatch):
        # The seed fails at this target, so the search halves once and
        # bisects from the bracket the halving found.
        amplitudes = []
        solve = robustness.prepare_b

        def counted(g, e_mu, *args, **kwargs):
            amplitudes.append(e_mu)
            return solve(g, e_mu, *args, **kwargs)

        monkeypatch.setattr(robustness, "prepare_b", counted)
        point = robustness.prepare_merit_point(0.5, 0.0, 0.999)
        assert len(amplitudes) == len(set(amplitudes)) == 11
        assert point["e_mu"] == pytest.approx(0.29398008858471164, rel=1e-12)
        assert point["fidelity"] == pytest.approx(0.9990042018418894,
                                                  rel=1e-9)
