import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfsim import dynamics, protocols
from dfsim import (DisorderSpec, calibrate_detuning, collective_eigenbasis,
                   coupling_matrices, dicke_coupling, effective_prep_coupling,
                   jump_operators, linear_array_xi, prepare_b, readout_coupling,
                   readout_fluorescence, rotate_logical, sample_disorder,
                   spectral_params)
from dfsim.hilbert import (drive_operator, excitation_numbers, ground_state,
                           static_hamiltonian)
from dfsim.protocols import (CALIBRATION_GRID, ProtocolError, _calibrate,
                             _parabola_peak, _phases_for, cphase4, find_first_inversion,
                             rotation_rate_estimate)


@pytest.fixture(scope="module")
def fig2a():
    g = linear_array_xi(0.5, alpha=0.0)
    return g, prepare_b(g, 1.0)


@pytest.fixture(scope="module")
def fig3a():
    g = linear_array_xi(0.15, alpha=np.pi / 2)
    return g, rotate_logical(g, 6.0, 15.0, 170.0)


def double_sample_grid(monkeypatch):
    """Give every default sample grid twice as many samples, keeping each
    old one."""
    grid = dynamics._sample_times

    def doubled(c, d, basis, t_end, n_samples):
        n = len(grid(c, d, basis, t_end, n_samples))
        return np.linspace(0.0, t_end, 2 * n - 1)

    monkeypatch.setattr(dynamics, "_sample_times", doubled)


class TestPrepCoupling:
    def test_orthogonal_wavevector_form(self):
        sp = spectral_params(coupling_matrices(linear_array_xi(0.5, alpha=0.0)))
        val = effective_prep_coupling(sp, 2.0, 0.0)
        want = (1.0 / sp.omega) * np.sqrt(sp.omega / sp.kappa) * 2.0 \
            * (sp.kappa - 2.0 * sp.delta12)
        assert val == pytest.approx(want, rel=1e-12)

    def test_zero_nearest_shift_reduces(self):
        from dfsim import CouplingSet
        d = np.array([[0.0, 0.0, -3.0], [0.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])
        sp = spectral_params(CouplingSet(delta=d, gammas=np.eye(3)))
        assert sp.omega == pytest.approx(3.0)
        # kappa = 2 Omega here, so the coupling collapses to sqrt(2) E cos(kr).
        val = effective_prep_coupling(sp, 1.0, 0.3)
        assert val == pytest.approx(np.sqrt(2.0) * np.cos(0.3), rel=1e-12)

    def test_nonpositive_kappa_rejected(self):
        from dfsim import CouplingSet
        d = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        sp = spectral_params(CouplingSet(delta=d, gammas=np.eye(3)))
        with pytest.raises(ValueError):
            effective_prep_coupling(sp, 1.0, 0.0)

    def test_predicts_measured_inversion_time(self, fig2a):
        g, res = fig2a
        sp = spectral_params(coupling_matrices(g))
        est = np.pi / (2.0 * abs(effective_prep_coupling(sp, 1.0, g.xi12)))
        assert abs(est - res.t_pi) / res.t_pi < 0.05

    @pytest.mark.parametrize("xi,alpha", [(0.5, 0.0), (0.3, 0.0),
                                          (0.15, np.pi / 2)])
    @pytest.mark.parametrize("e_mu", [0.1, 0.25])
    def test_weak_drive_inversion_time(self, xi, alpha, e_mu):
        # The adiabatic elimination behind the analytic coupling holds at
        # weak drive: there the measured t_pi matches pi / (2 |coupling|)
        # to 1e-3 (largest deviation seen: 3.4e-4).
        g = linear_array_xi(xi, alpha=alpha)
        res = prepare_b(g, e_mu)
        coupling = effective_prep_coupling(spectral_params(coupling_matrices(
            g)), e_mu, res.params_used["k_dot_r"])
        assert res.t_pi * 2.0 * abs(coupling) / np.pi == pytest.approx(
            1.0, abs=1e-3)


class TestPrepareB:
    def test_benchmark_fidelity_and_time(self, fig2a):
        _, res = fig2a
        assert res.fidelity == pytest.approx(0.988, abs=0.005)
        assert res.t_pi == pytest.approx(0.987, rel=0.02)

    def test_undriven_raises(self):
        g = linear_array_xi(0.5, alpha=0.0)
        with pytest.raises(ProtocolError):
            prepare_b(g, 0.0)

    def test_merit_definition(self, fig2a):
        _, res = fig2a
        assert res.merit == pytest.approx(
            1.0 / (res.params_used["gamma_b"] * res.t_pi), rel=1e-12)

    def test_coherent_run_conserves_norm(self, fig2a):
        _, res = fig2a
        assert np.max(np.abs(res.trajectory.norms - 1.0)) < 1e-8

    def test_inversion_converged_in_sample_grid(self, fig2a, monkeypatch):
        # Twice as many samples (every old one kept) must not move t_pi or F
        # beyond the precision t_pi is quoted at.
        double_sample_grid(monkeypatch)
        g, res = fig2a
        fine = prepare_b(g, 1.0)
        assert len(fine.trajectory.times) == 2 * len(res.trajectory.times) - 1
        assert fine.t_pi == pytest.approx(res.t_pi, rel=1e-4)
        assert fine.fidelity == pytest.approx(res.fidelity, rel=1e-4)

    def test_decaying_run_reports_conditional_fidelity(self):
        g = linear_array_xi(0.5, alpha=0.0)
        res = prepare_b(g, 1.0, decay=True)
        assert res.fidelity_raw < res.fidelity
        assert res.trajectory.norms[-1] < 1.0


class TestRotationCouplings:
    def test_zero_phase_gradient_kills_transfer(self):
        sp = spectral_params(coupling_matrices(
            linear_array_xi(0.15, alpha=np.pi / 2)))
        assert rotation_rate_estimate(sp, 6.0, 15.0, 0.15, 170.0) > 0.0
        assert rotation_rate_estimate(sp, 6.0, 15.0, 0.0, 170.0) == 0.0

    def test_singular_prefactor_detected(self):
        # kappa*delta13 = 2*delta12^2 in the Dicke limit: the adiabatic
        # elimination breaks down and the estimate reports no rate.
        sp = spectral_params(dicke_coupling(3, delta=1.0))
        assert rotation_rate_estimate(sp, 6.0, 15.0, 0.15, 170.0) == 0.0

    def test_transfer_dies_at_large_separation(self):
        # Once the collective splittings shrink below the Raman detuning the
        # logical pair can no longer be addressed and the measured transfer
        # collapses (regardless of what the isolated three-level formula says).
        g = linear_array_xi(0.8, alpha=np.pi / 2)
        try:
            res = rotate_logical(g, 6.0, 15.0, 170.0, t_end=40.0)
            assert res.fidelity < 0.3
        except ProtocolError:
            pass

    def test_secular_estimate_within_multipath_factor(self, fig3a):
        # The isolated three-level formula misses the equally resonant
        # two-photon paths through the ground and doubly excited levels, so
        # it only sets the scale of the measured rate.
        g, res = fig3a
        sp = spectral_params(coupling_matrices(g))
        est = rotation_rate_estimate(sp, 6.0, 15.0, g.xi12, 170.0)
        measured = np.pi / (2.0 * res.t_pi)
        assert est == pytest.approx(measured, rel=2.0)


class TestRotateLogical:
    def test_benchmark_fidelity_and_time(self, fig3a):
        _, res = fig3a
        assert res.fidelity == pytest.approx(0.986, abs=0.01)
        assert res.t_pi == pytest.approx(9.271, rel=0.05)

    def test_leakage_confined_to_raman_manifold(self, fig3a):
        _, res = fig3a
        traj = res.trajectory
        basis_labels = traj.labels
        keep = [basis_labels.index(lab) for lab in "bcef"]
        mask = traj.times <= res.t_pi
        outside = np.delete(traj.populations_renormalized[mask], keep,
                            axis=1).sum(axis=1)
        assert outside.max() < 0.05

    def test_unbalanced_tones_drive_single_photon_transition(self):
        # One strong near-resonant tone swaps population with the shared
        # upper level instead of rotating within the logical pair.
        g = linear_array_xi(0.15, alpha=np.pi / 2)
        res = rotate_logical(g, 6.0, 0.0, 3.0, t_end=1.2)
        traj = res.trajectory
        pop_e = traj.populations_renormalized[:, traj.labels.index("e")]
        pop_c = traj.populations_renormalized[:, traj.labels.index("c")]
        assert pop_e.max() > 0.5
        assert pop_c.max() < 0.1

    @pytest.mark.parametrize("e_mu, e_nu, omega_delta",
                             [(6.0, 15.0, 170.18), (12.0, 30.0, 167.5)])
    def test_inversion_converged_in_sample_grid(self, monkeypatch, e_mu,
                                                e_nu, omega_delta):
        # The calibrated rotations at xi = 0.15: twice as many samples
        # must not move t_pi or F beyond the precision t_pi is quoted at.
        g = linear_array_xi(0.15, alpha=np.pi / 2)
        res = rotate_logical(g, e_mu, e_nu, omega_delta)
        double_sample_grid(monkeypatch)
        fine = rotate_logical(g, e_mu, e_nu, omega_delta)
        assert len(fine.trajectory.times) == 2 * len(res.trajectory.times) - 1
        assert fine.t_pi == pytest.approx(res.t_pi, rel=1e-4)
        assert fine.fidelity == pytest.approx(res.fidelity, rel=1e-4)

    def test_merit_uses_mean_linewidth(self, fig3a):
        _, res = fig3a
        gm = 0.5 * (res.params_used["gamma_b"] + res.params_used["gamma_c"])
        assert res.merit == pytest.approx(1.0 / (gm * res.t_pi), rel=1e-12)


class TestTransferMembers:
    @pytest.mark.parametrize("protocol,g,variance,k_dot_r", [
        ("prepare", linear_array_xi(0.5, alpha=0.0), 0.005, None),
        ("rotate", linear_array_xi(0.15, alpha=np.pi / 2), 0.0016, None),
        ("prepare", linear_array_xi(0.5, alpha=0.0), 0.005, 0.0),
        ("rotate", linear_array_xi(0.15, alpha=np.pi / 2), 0.0016, 0.0)])
    def test_rows_match_one_draw_stacks(self, monkeypatch, protocol, g,
                                        variance, k_dot_r):
        # Each row of a stacked solve equals that draw solved alone, and
        # the one-draw solve equals the row read off the draw's collective
        # basis: coherent H0, initial level, unit drive at the draw's
        # positions; the observed row is the draw's target level, and the
        # scores are the largest squared amplitudes on it.  The nominal
        # solve is row 0.  At k.r = 0 every drive is in phase.
        tr = protocols._Transfer(protocol, g, k_dot_r)
        geoms = [g] + sample_disorder(g, DisorderSpec(
            variance=variance, samples=12, seed=20260809))
        couplings = [coupling_matrices(gg) for gg in geoms]
        solves, batch = [], protocols.evolve_nojump_batch

        def kept(*args, **kwargs):
            solves.append((args, kwargs, batch(*args, **kwargs)))
            return solves[-1][2]

        monkeypatch.setattr(protocols, "evolve_nojump_batch", kept)
        drive = (((1.0,), tr.detunings(tr.frequency))
                 if protocol == "prepare" else
                 ((1.0, 1.0), tr.detunings(170.0)))
        times = np.linspace(0.0, 1.0, 21)

        def solve(draws, rows):
            scores = tr.fidelities([drive] * rows, times, draws=draws)
            (psi0, hs, tones, _), kwargs, amplitudes = solves[-1]
            return scores, (hs, psi0, tones[0][0]), (kwargs, amplitudes)

        scores, stack, (kwargs, amplitudes) = solve(
            (np.array([gg.positions for gg in geoms]),
             np.array([c.delta for c in couplings]),
             np.array([c.gammas for c in couplings])), len(geoms))
        assert all(len(x) == len(geoms) for x in stack)
        _, nominal, _ = solve(None, 1)
        assert all(np.array_equal(x, y[:1]) for x, y in zip(nominal, stack))
        targets = []
        for k, (gg, c) in enumerate(zip(geoms, couplings)):
            _, one, _ = solve((gg.positions[None], c.delta[None],
                               c.gammas[None]), 1)
            assert all(np.array_equal(x[k], y[0]) for x, y in zip(stack, one))
            basis = collective_eigenbasis(c)
            initial = (ground_state(3) if protocol == "prepare"
                       else basis.vector("b"))
            want = (static_hamiltonian(c, decay=False), initial,
                    drive_operator(tr.phases(gg.positions[:, 0])))
            assert all(np.array_equal(y[0], w) for y, w in zip(one, want))
            targets.append(basis.vector(tr.target))
        assert np.array_equal(kwargs["observe"], np.array(targets)[:, None])
        assert amplitudes.shape == (len(geoms), len(times), 1)
        assert np.array_equal(
            scores, (np.abs(amplitudes[..., 0]) ** 2).max(axis=1))
        if k_dot_r == 0.0:
            assert np.array_equal(stack[2][0], drive_operator(np.zeros(3)))


class TestSharedTransfer:
    @pytest.mark.parametrize("protocol,g,drives", [
        ("prepare", linear_array_xi(0.5, alpha=0.0),
         [((1.0,), None), ((2.0,), None), ((0.5,), None), ((1.0,), None)]),
        ("rotate", linear_array_xi(0.15, alpha=np.pi / 2),
         [((24.0, 60.0), 150.0), ((12.0, 30.0), 167.5),
          ((24.0, 60.0), 170.0), ((24.0, 60.0), 150.0)])])
    def test_runs_match_fresh_calls(self, protocol, g, drives):
        # One transfer runs every drive, the first again after the others;
        # each run equals the public call that builds its own transfer,
        # bit for bit, so no run leaves state behind for the next.
        tr = protocols._Transfer(protocol, g, None)
        for amplitudes, offset in drives:
            if protocol == "prepare":
                got = tr.run(amplitudes, tr.frequency)
                want = prepare_b(g, *amplitudes)
            else:
                got = tr.run(amplitudes, offset)
                want = rotate_logical(g, *amplitudes, offset)
            assert (got.fidelity, got.fidelity_raw, got.t_pi, got.merit) \
                == (want.fidelity, want.fidelity_raw, want.t_pi, want.merit)
            assert got.params_used == want.params_used
            assert np.array_equal(got.trajectory.states,
                                  want.trajectory.states)


class TestCalibration:
    # A strong drive on the rot-fig3a array keeps the scan short.
    G = linear_array_xi(0.15, alpha=np.pi / 2)

    def test_scan_finds_recorded_offset(self):
        # The offsets of the bundled rot-fig3a drive, the benchmark's
        # stronger one and the strong drive the other tests scan.
        for e_mu, e_nu, offset in ((6.0, 15.0, 170.18), (12.0, 30.0, 167.5),
                                   (24.0, 60.0, 149.83)):
            assert calibrate_detuning(self.G, e_mu, e_nu, 170.0) \
                == pytest.approx(offset, abs=1e-9)

    def test_maximum_outside_window_raises(self, monkeypatch):
        # The maximum at 149.83 lies below the +-5% window around 170.
        monkeypatch.setattr(protocols, "CALIBRATION_WINDOW", 0.05)
        with pytest.raises(ProtocolError, match="no interior"):
            calibrate_detuning(self.G, 24.0, 60.0, 170.0)

    def test_peak_search_takes_any_score(self):
        # Coarse grid, bracket grid, parabola and snap, on a score whose
        # vertex the parabola recovers exactly.  The bracket grid's ends
        # and middle are coarse offsets, and no offset is scored twice.
        calls = []

        def score(offsets):
            calls.append(offsets)
            return -(offsets - 101.234) ** 2

        assert _calibrate(score, 100.0, 0.3) == pytest.approx(101.23,
                                                               abs=1e-9)
        assert [len(c) for c in calls] == [CALIBRATION_GRID,
                                           CALIBRATION_GRID - 3]
        scored = np.concatenate(calls)
        assert len(np.unique(scored)) == len(scored)
        with pytest.raises(ProtocolError, match="no interior"):
            _calibrate(score, 200.0, 0.3)

    def test_zero_offset_rejected(self):
        # A zero Raman offset has no smoothing window and no rotation rate;
        # the rotation's transfer refuses it, whoever builds it.
        with pytest.raises(ValueError, match="Raman offset must be nonzero"):
            rotate_logical(self.G, 24.0, 60.0, 0.0, t_end=1.0)
        with pytest.raises(ValueError, match="Raman offset must be nonzero"):
            calibrate_detuning(self.G, 24.0, 60.0, 0.0)


def loop_first_inversion(times, pops, smooth_window=0.0):
    """Oracle for ``find_first_inversion``: the same search with the
    hysteresis scan written as a per-sample loop."""
    dt = times[1] - times[0]
    w = int(round(smooth_window / dt)) if smooth_window > 0 else 1
    if w > 1:
        smoothed = np.convolve(pops, np.ones(w) / w, mode="same")
        lo, hi = w, len(pops) - w
    else:
        smoothed = pops
        lo, hi = 1, len(pops) - 1
    if hi - lo < 3:
        raise ProtocolError("trace too short for inversion search")
    seg = smoothed[lo:hi]
    peak = float(seg.max())
    if peak <= 0:
        raise ProtocolError("no population transfer observed")
    reach = np.nonzero(seg >= 0.95 * peak)[0]
    if len(reach) == 0:
        raise ProtocolError("no population inversion found within the "
                            "integration window")
    k = int(reach[0])
    run_val, run_idx = seg[k], k
    dropped = False
    for m in range(k + 1, len(seg)):
        if seg[m] > run_val:
            run_val, run_idx = seg[m], m
        elif run_val - seg[m] > 0.02 * peak:
            dropped = True
            break
    if not dropped and run_idx >= len(seg) - 2:
        raise ProtocolError("population still rising at the end of the "
                            "integration window")
    idx = run_idx + lo
    a = max(idx - 2 * w, 1)
    b = min(idx + 2 * w + 1, len(pops) - 1)
    j = a + int(np.argmax(pops[a:b]))
    return _parabola_peak(times, pops, j), j


def _outcome(search, times, pops, smooth_window):
    try:
        return search(times, pops, smooth_window=smooth_window)
    except ProtocolError as exc:
        return str(exc)


class TestFirstInversion:
    @settings(max_examples=300, deadline=None)
    @given(levels=st.lists(st.one_of(st.integers(0, 50), st.integers(46, 50)),
                           min_size=4, max_size=60),
           smooth_window=st.sampled_from([0.0, 0.02, 0.05]))
    @example(levels=[0, 48, 47, 50, 0, 0], smooth_window=0.0)
    def test_matches_per_sample_loop(self, levels, smooth_window):
        # Integer levels give ties and plateaus; at a peak of 50 a drop of
        # one level sits exactly on the hysteresis margin (2 % of the peak),
        # so the scan must not stop at 47 in the example.
        times = np.linspace(0.0, 1.0, len(levels))
        pops = np.array(levels, dtype=float)
        assert _outcome(find_first_inversion, times, pops, smooth_window) \
            == _outcome(loop_first_inversion, times, pops, smooth_window)

    def test_clean_sine(self):
        t = np.linspace(0.0, 2.0, 4001)
        pop = np.sin(0.5 * np.pi * t / 0.9) ** 2
        t_pi, _ = find_first_inversion(t, pop)
        assert t_pi == pytest.approx(0.9, abs=1e-3)

    def test_ignores_fast_ripple(self):
        t = np.linspace(0.0, 2.0, 8001)
        pop = np.sin(0.5 * np.pi * t / 0.9) ** 2 + 0.01 * np.sin(170 * t)
        t_pi, _ = find_first_inversion(t, pop, smooth_window=3 * 2 * np.pi / 170)
        assert t_pi == pytest.approx(0.9, abs=0.02)

    def test_monotone_trace_raises(self):
        t = np.linspace(0.0, 1.0, 500)
        with pytest.raises(ProtocolError):
            find_first_inversion(t, t**2)

    def test_first_of_two_peaks(self):
        t = np.linspace(0.0, 4.0, 8001)
        pop = np.sin(0.5 * np.pi * t / 0.9) ** 2
        t_pi, _ = find_first_inversion(t, pop)
        assert t_pi == pytest.approx(0.9, abs=1e-3)


class TestReadout:
    def test_gamma_g_dicke_bound(self):
        c = coupling_matrices(linear_array_xi(1e-3, alpha=np.pi / 2))
        _, gamma_g = readout_coupling(c, 1.0, 1e-3)
        assert gamma_g == pytest.approx(4.0, abs=1e-3)

    def test_orthogonal_wavevector_blocks_readout(self):
        c = coupling_matrices(linear_array_xi(0.15, alpha=np.pi / 2))
        e_cg, _ = readout_coupling(c, 1.0, 0.0)
        assert abs(e_cg) < 1e-14

    def test_formula_matches_relaxation_mode_rate(self):
        # The analytic linewidth is the superradiant eigenvalue of the
        # two-excitation relaxation block; check against an independent
        # dense diagonalisation.
        for xi in (0.05, 0.15, 0.3, 0.5):
            c = coupling_matrices(linear_array_xi(xi, alpha=np.pi / 2))
            _, gamma_g = readout_coupling(c, 1.0, xi)
            g12, g13 = c.gammas[0, 1], c.gammas[0, 2]
            block = np.array([[2.0, g12, g13],
                              [g12, 2.0, g12],
                              [g13, g12, 2.0]])
            top = np.linalg.eigvalsh(block).max()
            assert abs(gamma_g - top) / top < 1e-12

    def test_eigenlevel_linewidth_close_but_distinct(self):
        # The full non-Hermitian level linewidth mixes the coherent and
        # dissipative eigenbases; it tracks the analytic rate only at the
        # percent level.
        c = coupling_matrices(linear_array_xi(0.15, alpha=np.pi / 2))
        _, gamma_g = readout_coupling(c, 1.0, 0.15)
        basis = collective_eigenbasis(c)
        rel = abs(gamma_g - basis.linewidth("g")) / gamma_g
        assert rel < 0.025
        assert gamma_g < 4.0

    def test_bright_dark_contrast(self):
        g = linear_array_xi(0.15, alpha=np.pi / 2)
        bright = readout_fluorescence(g, 7.0, logical=1, t_end=1.5)
        dark = readout_fluorescence(g, 7.0, logical=0, t_end=1.5)
        assert bright.emission_probability > 0.5
        assert dark.emission_probability < 0.1

    def test_undriven_dark_state_stays_dark(self):
        g = linear_array_xi(0.15, alpha=np.pi / 2)
        res = readout_fluorescence(g, 0.0, logical=1, t_end=1.0)
        assert res.emission_probability < 0.02

    def test_invalid_arguments(self):
        g = linear_array_xi(0.15, alpha=np.pi / 2)
        with pytest.raises(ValueError):
            readout_fluorescence(g, 1.0, logical=2)
        with pytest.raises(ValueError):
            readout_fluorescence(g, 1.0, transition="xy")


@pytest.fixture(scope="module")
def cphase_run():
    g4 = linear_array_xi(0.15, n=4, alpha=np.pi / 2)
    return g4, cphase4(g4, 1.0, 0.05, decay=False)


class TestCphase4:
    def test_requires_four_emitters(self):
        with pytest.raises(ValueError):
            cphase4(linear_array_xi(0.15, alpha=np.pi / 2), 1.0, 0.05)

    def test_zero_amplitude_is_identity(self):
        g4 = linear_array_xi(0.15, n=4, alpha=np.pi / 2)
        res = cphase4(g4, 0.0, 1.0, decay=False)
        for lab in "cbgf":
            assert abs(res.phases[lab]) < 1e-6
        assert not res.leakage_flag

    def test_target_phase_matches_two_level_oracle(self, cphase_run):
        # A detuned 2*pi pulse leaves the addressed level with phase
        # -(sqrt(4V^2 + d^2) - d) * t / 2.
        _, res = cphase_run
        rabi = np.sqrt(4.0 * res.rabi_element**2
                       + res.params_used["detuning_offset"] ** 2)
        want = -(rabi - res.params_used["detuning_offset"]) * res.t_gate / 2.0
        want = (want + np.pi) % (2 * np.pi) - np.pi
        assert res.phases["f"] == pytest.approx(want, abs=0.1)

    def test_all_phases_match_static_frame_propagator(self, cphase_run):
        # In the frame rotating with the single tone the Hamiltonian is
        # time independent; the matrix exponential gives an independent
        # route to every acquired phase.
        g4, res = cphase_run
        c = coupling_matrices(g4)
        basis = collective_eigenbasis(c)
        phases = _phases_for(g4.positions[:, 0], g4.spacing,
                             res.params_used["k_dot_r"])
        a = drive_operator(phases) * res.params_used["e_pulse"]
        n_op = np.diag(excitation_numbers(4).astype(complex))
        w = res.params_used["omega_tone"]
        h0 = static_hamiltonian(c, decay=False)
        h_rot = h0 - w * n_op + a + a.conj().T
        u = scipy.linalg.expm(-1j * h_rot * res.t_gate)
        u_free = scipy.linalg.expm(-1j * h0 * res.t_gate)
        for lab in "cbgf":
            v = basis.vector(lab)
            # Transforming back from the tone frame restores the phase
            # convention used by the time-dependent engine; the free
            # propagator supplies the reference phase.
            nexc = float(basis.n_excitations[basis.index(lab)])
            overlap = np.vdot(v, u @ v) * np.exp(-1j * w * nexc * res.t_gate)
            want = float(np.angle(overlap) - np.angle(np.vdot(v, u_free @ v)))
            want = (want + np.pi) % (2 * np.pi) - np.pi
            diff = abs((res.phases[lab] - want + np.pi) % (2 * np.pi) - np.pi)
            assert diff < 1e-4, lab

    def test_leakage_flag_semantics(self, cphase_run):
        _, res = cphase_run
        from dfsim.protocols import LEAKAGE_THRESHOLD
        assert res.leakage_flag == (max(res.leakage.values())
                                    > LEAKAGE_THRESHOLD)
        assert max(res.leakage.values()) < 0.05

    def test_coherent_pulse_conserves_norm(self, cphase_run):
        _, res = cphase_run
        assert all(abs(v) <= 1e-10 for v in res.norm_loss.values())

    def test_norm_losses_reported_with_decay(self):
        g4 = linear_array_xi(0.15, n=4, alpha=np.pi / 2)
        res = cphase4(g4, 2.0, 0.2, decay=True)
        assert all(0.0 <= v <= 1.0 for v in res.norm_loss.values())
        assert res.norm_loss["g"] > res.norm_loss["b"]
