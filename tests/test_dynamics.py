import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from dfsim import (CouplingSet, DriveSpec, collective_eigenbasis,
                   coupling_matrices, dicke_coupling, evolve_lindblad,
                   evolve_nojump, jump_operators, linear_array_xi)
from dfsim import dynamics, protocols, rotate_logical
from dfsim.coupling import spectral_params
from dfsim.dynamics import Tone, _tone_arrays, evolve_nojump_batch
from dfsim.hilbert import (drive_operator, excitation_numbers, ground_state,
                           lowering_operators, raising_operators,
                           static_hamiltonian)


def fig2a_system():
    g = linear_array_xi(0.5, alpha=0.0)
    c = coupling_matrices(g)
    sp = spectral_params(c)
    w_mu = 0.5 * (sp.delta13 - sp.omega)
    phases = np.array([-1.0, 0.0, 1.0]) * 0.5
    return c, DriveSpec.single(1.0, w_mu, phases)


def gamma_operator(c):
    sm = lowering_operators(c.n)
    sp = raising_operators(c.n)
    return sum(c.gammas[i, j] * (sp[i] @ sm[j])
               for i in range(c.n) for j in range(c.n))


def h_eff(c, d, t, decay=True):
    """Driven effective Hamiltonian at time t, assembled from the same
    operators the engines integrate."""
    h = static_hamiltonian(c, decay)
    for a, det in _tone_arrays(c, d):
        ph = np.exp(-1j * det * t)
        h = h + ph * a + np.conj(ph) * a.conj().T
    return h


class TestBuildHeff:
    """The driven effective Hamiltonian from static_hamiltonian and
    drive_operator."""

    def test_zero_drive_equals_static(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        assert _tone_arrays(c, DriveSpec.off()) == []
        h = h_eff(c, DriveSpec.off(), t=0.3)
        assert np.array_equal(h, static_hamiltonian(c))

    def test_single_tone_couples_each_flip(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        phases = np.array([-0.4, 0.1, 0.9])
        d = DriveSpec.single(0.7, -5.0, phases)
        h = h_eff(c, d, t=0.0)
        for q in range(3):
            row = int("".join("1" if k == q else "0" for k in range(3)), 2)
            assert h[row, 0] == pytest.approx(0.7 * np.exp(1j * phases[q]),
                                              abs=1e-14)
            assert h[0, row] == pytest.approx(0.7 * np.exp(-1j * phases[q]),
                                              abs=1e-14)

    def test_two_tone_interference_is_time_dependent(self):
        c = coupling_matrices(linear_array_xi(0.15, alpha=np.pi / 2))
        d = DriveSpec.two_tone(6.0, 170.0, 15.0, -101.0, np.zeros(3))
        h1 = h_eff(c, d, t=0.0)
        h2 = h_eff(c, d, t=0.01)
        assert not np.allclose(h1, h2)

    def test_coherent_variant_is_hermitian(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        d = DriveSpec.single(1.0, -20.0, np.zeros(3))
        h = h_eff(c, d, t=0.2, decay=False)
        assert np.allclose(h, h.conj().T, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("xi", [0.05, 0.15, 0.5, 1.3])
    def test_coherent_part_is_hermitian_part(self, n, xi):
        c = coupling_matrices(linear_array_xi(xi, n=n, alpha=np.pi / 3))
        h = static_hamiltonian(c)
        assert np.array_equal(static_hamiltonian(c, decay=False),
                              0.5 * (h + h.conj().T))

    def test_drive_operator_is_phased_collective_raising(self):
        phases = np.array([0.3, -1.2, 2.0, 0.7])
        sp = raising_operators(4)
        want = sum(np.exp(1j * phi) * op for phi, op in zip(phases, sp))
        assert np.allclose(drive_operator(phases), want, atol=1e-15)
        assert np.array_equal(drive_operator(np.zeros(4)), sum(sp))


class TestJumpOperators:
    def test_dicke_limit_channels(self):
        js = jump_operators(dicke_coupling(3))
        assert js.eigvals[0] == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(js.eigvals[1:], 0.0, atol=1e-12)
        b0 = np.abs(js.vecs[:, 0])
        assert np.allclose(b0, 1.0 / np.sqrt(3.0), atol=1e-12)

    def test_independent_decay_gives_local_operators(self):
        c = CouplingSet(delta=np.zeros((3, 3)), gammas=np.eye(3))
        js = jump_operators(c)
        sm = lowering_operators(3)
        got = sorted(js.operators, key=lambda m: np.argmax(np.abs(m.ravel())))
        want = sorted(sm, key=lambda m: np.argmax(np.abs(m.ravel())))
        for a, b in zip(got, want):
            assert np.allclose(np.abs(a), np.abs(b), atol=1e-12)

    def test_reconstruction_identity(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        js = jump_operators(c)
        total = sum(j.conj().T @ j for j in js.operators)
        assert np.max(np.abs(total - gamma_operator(c))) < 1e-10


class TestDampingDiagonal:
    """The no-jump decay and the jump operators read the same damping
    matrix, so emitters decaying at twice the rate unit lose norm at that
    rate and the master equation stays trace-preserving."""

    C = CouplingSet(delta=np.zeros((3, 3)), gammas=2.0 * np.eye(3))

    def test_master_equation_preserves_trace(self):
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[7, 7] = 1.0
        traj = evolve_lindblad(rho0, self.C, DriveSpec.off(), 1.0)
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.trace_error < 1e-9

    def test_single_excitation_decays_at_its_rate(self):
        psi0 = np.zeros(8, dtype=complex)
        psi0[1] = 1.0
        traj = evolve_nojump(psi0, self.C, DriveSpec.off(), 1.0)
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.norms[-1] ** 2 == pytest.approx(np.exp(-2.0), rel=1e-10)


class TestNoJump:
    def test_ground_state_stationary(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        traj = evolve_nojump(ground_state(3), c, DriveSpec.off(), 2.0)
        assert np.max(np.abs(traj.states - traj.states[0])) < 1e-9
        assert np.max(np.abs(traj.norms - 1.0)) < 1e-10

    def test_norm_nonincreasing_under_drive(self):
        c, d = fig2a_system()
        traj = evolve_nojump(ground_state(3), c, d, 2.0)
        assert np.all(np.diff(traj.norms) < 1e-10)

    def test_norm_loss_matches_damping_expectation(self):
        # d|psi|^2/dt = -<psi|Gamma|psi>; the integrated form must hold on
        # the sampled trajectory.
        c, d = fig2a_system()
        traj = evolve_nojump(ground_state(3), c, d, 1.5, n_samples=3000)
        gam = gamma_operator(c)
        expect = np.einsum("ti,ij,tj->t", traj.states.conj(), gam,
                           traj.states).real
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * (expect[1:] + expect[:-1])
                              * np.diff(traj.times))])
        predicted = 1.0 - integral
        assert np.max(np.abs(traj.norms**2 - predicted)) < 1e-6

    def test_one_tone_is_independent_of_tolerance(self):
        # Unbatched runs are exact under any drive, so neither engine takes
        # a tolerance.
        c, d = fig2a_system()
        psi = ground_state(3)
        with pytest.raises(TypeError, match="rtol"):
            evolve_nojump(psi, c, d, 1.0, rtol=1e-3)
        with pytest.raises(TypeError, match="rtol"):
            evolve_lindblad(np.outer(psi, psi), c, d, 1.0, rtol=1e-3)

    def test_integrator_error_scales_with_tolerance(self):
        # One tone is exact in evolve_nojump; the batched engine
        # integrates it with DOP853, whose error must fall with rtol.
        c, d = fig2a_system()
        a, det = _tone_arrays(c, d)[0]
        args = (ground_state(3)[None], static_hamiltonian(c)[None],
                [(a[None], np.array([det]))], np.linspace(0.0, 1.0, 50))
        ref = evolve_nojump_batch(*args, rtol=1e-12)
        errs = []
        for rtol in (1e-5, 1e-6):
            y = evolve_nojump_batch(*args, rtol=rtol)
            errs.append(np.linalg.norm(y[0, -1] - ref[0, -1]))
        ratio = errs[0] / errs[1]
        assert 5.0 <= ratio <= 20.0

    def test_rejects_unnormalised_state(self):
        c, d = fig2a_system()
        with pytest.raises(ValueError):
            evolve_nojump(0.5 * ground_state(3), c, d, 1.0)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, np.inf])
    def test_rejects_nonpositive_end_time(self, t_end):
        c, d = fig2a_system()
        with pytest.raises(ValueError, match="end time"):
            evolve_nojump(ground_state(3), c, d, t_end)

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_batch_rejects_nonpositive_end_time(self, t_end):
        c, d = fig2a_system()
        a, det = _tone_arrays(c, d)[0]
        with pytest.raises(ValueError, match="end time"):
            evolve_nojump_batch(ground_state(3)[None],
                                static_hamiltonian(c)[None],
                                [(a[None], np.array([det]))],
                                np.linspace(0.0, t_end, 5))

    @pytest.mark.parametrize("field, value", [
        ("rabi", np.nan), ("rabi", np.inf), ("detuning", np.inf),
        ("detuning", np.nan), ("phases", np.nan), ("n_samples", 0),
        ("n_samples", 1)])
    def test_rejects_nonfinite_drive_and_too_few_samples(self, field, value):
        # Refused up front, naming the field, rather than deep in a solve.
        c, d = fig2a_system()
        tone = dict(rabi=1.0, detuning=-5.0, phases=np.zeros(3))
        with pytest.raises(ValueError, match=field):
            if field == "n_samples":
                evolve_nojump(ground_state(3), c, d, 1.0, n_samples=value)
            elif field == "phases":
                Tone(**dict(tone, phases=np.array([0.0, value, 0.0])))
            else:
                Tone(**dict(tone, **{field: value}))

    def test_rejects_phase_count_mismatch(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        d = DriveSpec.single(1.0, -5.0, np.zeros(4))
        with pytest.raises(ValueError, match="phase list"):
            evolve_nojump(ground_state(3), c, d, 1.0)

    def test_rejects_more_than_two_tones(self):
        # Both engines take one or two tones; a third is refused when the
        # drive is built rather than run as one tone.
        tone = Tone(1.0, -5.0, np.zeros(3))
        with pytest.raises(ValueError, match="at most two tones"):
            DriveSpec((tone, tone, tone))

    def test_rejects_state_of_wrong_dimension(self):
        # A three-emitter state with a four-emitter coupling set: both
        # engines name the argument and both dimensions.
        c = coupling_matrices(linear_array_xi(0.5, n=4))
        psi = ground_state(3)
        with pytest.raises(ValueError, match=r"psi0 .*\(8,\).*\(16,\)"):
            evolve_nojump(psi, c, DriveSpec.off(), 1.0)
        with pytest.raises(ValueError,
                           match=r"rho0 .*\(8, 8\).*\(16, 16\)"):
            evolve_lindblad(np.outer(psi, psi), c, DriveSpec.off(), 1.0)


def raman_system(xi, alpha, e_mu, e_nu, omega_delta):
    """A rotation-style two-tone drive on a three-emitter array: tone 1 at
    ``omega_delta``, tone 2 one two-photon difference above it."""
    g = linear_array_xi(xi, alpha=alpha)
    c = coupling_matrices(g)
    sp = spectral_params(c)
    beat = 0.5 * (3.0 * sp.delta13 - sp.omega)
    d = DriveSpec.two_tone(e_mu, omega_delta, e_nu, beat + omega_delta,
                           xi * np.array([-1.0, 0.0, 1.0]))
    psi0 = collective_eigenbasis(c).vector("b")
    return c, d, psi0 / np.linalg.norm(psi0), beat


def rk45_oracle(psi0, c, d, times, decay, rtol=1e-11):
    """Plain RK45 on the effective Hamiltonian in the carrier frame, the
    reference for the tone-frame and beat-period propagators."""
    hs = static_hamiltonian(c, decay)
    tones = [(a, a.conj().T, det) for a, det in _tone_arrays(c, d)]

    def rhs(t, y):
        out = hs @ y
        for a, ad, det in tones:
            out += np.exp(-1j * det * t) * (a @ y) \
                + np.exp(1j * det * t) * (ad @ y)
        return -1j * out

    sol = solve_ivp(rhs, (0.0, times[-1]), psi0, method="RK45", rtol=rtol,
                    atol=1e-13, t_eval=times)
    return sol.y.T


def exact_inputs(hs, tones):
    """The frame generator, modulated tone (A2, D) and frame frequencies
    that the dispatcher hands the exact engine for a one-row stack of
    three emitters under two tones at a nonzero beat: the frame is the
    stronger tone's."""
    (a1, w1), (a2, w2) = sorted(
        tones, key=lambda tone: -np.linalg.norm(tone[0][0], 2))
    number = excitation_numbers(3)
    gen = (hs + a1 + a1.conj().transpose(0, 2, 1)
           - w1[:, None, None] * np.diag(number))
    return gen, (a2, float(w2[0] - w1[0])), w1[:, None] * number


def master_oracle(rho0, c, d, times, rtol=1e-11):
    """Plain RK45 on the master equation in the carrier frame (no-jump
    generator plus jump refilling), the reference for the vectorised
    tone-frame and beat-period propagators."""
    dim = rho0.shape[0]
    hs = static_hamiltonian(c)
    tones = [(a, a.conj().T, det) for a, det in _tone_arrays(c, d)]
    jumps = [(j, j.conj().T) for j in jump_operators(c).operators]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        he = hs.copy()
        for a, ad, det in tones:
            he += np.exp(-1j * det * t) * a + np.exp(1j * det * t) * ad
        drho = -1j * (he @ rho - rho @ he.conj().T)
        for j, jd in jumps:
            drho += j @ rho @ jd
        return drho.ravel()

    sol = solve_ivp(rhs, (0.0, times[-1]), rho0.ravel(), method="RK45",
                    rtol=rtol, atol=1e-13, t_eval=times)
    return sol.y.T.reshape(-1, dim, dim)


def mixed_state(n):
    """A full-rank density matrix with coherences between every pair of
    excitation sectors."""
    psi = np.exp(1j * np.arange(2**n)) / np.sqrt(2**n)
    return 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.eye(2**n) / 2**n


class TestOneTone:
    """At most one tone is propagated exactly in the tone frame."""

    @settings(max_examples=12, deadline=None)
    @given(xi=st.floats(0.15, 1.0), alpha=st.floats(0.0, np.pi / 2),
           n=st.sampled_from([3, 4]), rabi=st.floats(0.0, 8.0),
           detuning=st.floats(-60.0, 60.0), decay=st.booleans(),
           driven=st.booleans())
    def test_matches_rk45_oracle(self, xi, alpha, n, rabi, detuning, decay,
                                 driven):
        c = coupling_matrices(linear_array_xi(xi, n=n, alpha=alpha))
        d = (DriveSpec.single(rabi, detuning, xi * np.arange(n)) if driven
             else DriveSpec.off())
        # A generic state with weight in every excitation sector.
        psi0 = np.exp(1j * np.arange(2**n)) / np.sqrt(2**n)
        traj = evolve_nojump(psi0, c, d, 0.5, decay=decay, n_samples=60)
        want = rk45_oracle(psi0, c, d, traj.times, decay, rtol=1e-12)
        assert np.max(np.abs(traj.states - want)) < 1e-8

    def test_ill_conditioned_generator_is_stepped(self, monkeypatch, caplog):
        c, d = fig2a_system()
        want = evolve_nojump(ground_state(3), c, d, 2.0, n_samples=400)
        monkeypatch.setattr(dynamics, "CONDITION_LIMIT", 0.0)
        with caplog.at_level(logging.WARNING, logger="dfsim.dynamics"):
            got = evolve_nojump(ground_state(3), c, d, 2.0, n_samples=400)
        assert "ill-conditioned" in caplog.text
        assert np.max(np.abs(got.states - want.states)) < 1e-10

    def test_each_propagation_logs_its_engine_and_work(self, caplog):
        c, d = fig2a_system()
        c2, d2, psi0, beat = raman_system(0.15, np.pi / 2, 6.0, 15.0, 170.0)
        with caplog.at_level(logging.DEBUG, logger="dfsim.dynamics"):
            evolve_nojump(ground_state(3), c, d, 1.0, n_samples=50)
            evolve_nojump(ground_state(3), c, d, 1.0, decay=False,
                          n_samples=50)
            evolve_nojump(psi0, c2, d2, 2.5 * 2.0 * np.pi / abs(beat),
                          n_samples=40)
        lines = [re.fullmatch(r"exact \((\w+)\): 1 members, (\d+) samples, "
                              r"dim (\d+), K (\d+), tail (\S+), "
                              r"eigenvector cond \S+", r.getMessage())
                 for r in caplog.records]
        assert len(lines) == 3
        # One tone is the K = 0 case: the Sambe matrix is the generator.
        assert lines[0].groups() == ("eig", "50", "8", "0", "0")
        assert lines[1].groups() == ("eigh", "50", "8", "0", "0")
        method, samples, dim, k, tail = lines[2].groups()
        assert (method, samples) == ("eig", "40")
        assert int(dim) == 8 * (2 * int(k) + 1)
        assert float(tail) <= dynamics._TAIL_LIMIT

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("decay", [False, True])
    def test_batch_matches_expm_oracle(self, n, decay):
        # Members differ in amplitude and detuning, and the batch samples
        # lie in a window away from 0, as in the robustness sweeps.  Each
        # member also runs unbatched over several thousand samples, where
        # the engine is exact.
        c = coupling_matrices(linear_array_xi(0.4, n=n, alpha=0.3))
        hs = static_hamiltonian(c, decay)
        phases = 0.4 * np.arange(n)
        unit = drive_operator(phases)
        number = excitation_numbers(n)
        psi0 = np.exp(1j * np.arange(2**n)) / np.sqrt(2**n)
        members = [(1.0, -4.0), (2.5, 3.0), (0.4, 12.0)]
        times = np.linspace(0.7, 1.3, 25)
        states = evolve_nojump_batch(
            np.array([psi0] * 3), np.array([hs] * 3),
            [(np.array([rabi * unit for rabi, _ in members]),
              np.array([det for _, det in members]))], times, rtol=1e-10)

        def oracle(gen, det, times):
            return (np.exp(-1j * det * np.outer(times, number))
                    * (expm(-1j * times[:, None, None] * gen) @ psi0))

        for k, (rabi, det) in enumerate(members):
            gen = hs - det * np.diag(number) + rabi * (unit + unit.conj().T)
            assert np.max(np.abs(states[k] - oracle(gen, det, times))) < 1e-8
            traj = evolve_nojump(psi0, c, DriveSpec.single(rabi, det, phases),
                                 1.3, decay=decay, n_samples=4000)
            want = oracle(gen, det, traj.times)
            assert np.max(np.abs(traj.states - want)) < 1e-10


class TestTwoTone:
    """Two-tone drives are propagated exactly from their Floquet modes."""

    @settings(max_examples=12, deadline=None)
    @given(xi=st.floats(0.12, 0.6), alpha=st.floats(0.0, np.pi / 2),
           e_mu=st.floats(0.5, 20.0), e_nu=st.floats(0.5, 20.0),
           omega_delta=st.floats(-300.0, 300.0), decay=st.booleans(),
           periods=st.floats(0.3, 6.0))
    def test_matches_rk45_oracle(self, xi, alpha, e_mu, e_nu, omega_delta,
                                 decay, periods):
        c, d, psi0, beat = raman_system(xi, alpha, e_mu, e_nu, omega_delta)
        t_end = periods * 2.0 * np.pi / abs(beat)
        traj = evolve_nojump(psi0, c, d, t_end, decay=decay, n_samples=60)
        want = rk45_oracle(psi0, c, d, traj.times, decay)
        assert np.max(np.abs(traj.states - want)) < 1e-8

    def test_batch_members_with_different_tone_detunings(self):
        c, _, psi0, beat = raman_system(0.3, np.pi / 2, 6.0, 15.0, 0.0)
        hs = static_hamiltonian(c, decay=False)
        unit = drive_operator(0.3 * np.array([-1.0, 0.0, 1.0]))
        members = [(6.0, 15.0, 40.0), (3.0, 9.0, -25.0), (8.0, 2.0, 110.0)]
        times = np.linspace(0.0, 4.5 * 2.0 * np.pi / abs(beat), 50)
        det1 = np.array([w for _, _, w in members])
        states = evolve_nojump_batch(
            np.array([psi0] * 3), np.array([hs] * 3),
            [(np.array([e1 * unit for e1, _, _ in members]), det1),
             (np.array([e2 * unit for _, e2, _ in members]), det1 + beat)],
            times)
        for k, (e1, e2, w) in enumerate(members):
            d = DriveSpec.two_tone(e1, w, e2, w + beat,
                                   0.3 * np.array([-1.0, 0.0, 1.0]))
            want = rk45_oracle(psi0, c, d, times, decay=False)
            assert np.max(np.abs(states[k] - want)) < 1e-8

    @pytest.mark.parametrize("decay", [False, True])
    def test_members_without_mirror_symmetry(self, decay):
        # Drive phases that the emitter mirror does not map onto their
        # conjugates, as in position-disordered members.
        c, _, psi0, beat = raman_system(0.3, np.pi / 2, 6.0, 15.0, 40.0)
        phases = np.array([-0.4, 0.1, 0.3])
        d = DriveSpec.two_tone(6.0, 40.0, 15.0, 40.0 + beat, phases)
        times = np.linspace(0.0, 3.5 * 2.0 * np.pi / abs(beat), 40)
        tones = [(a[None], np.array([det])) for a, det in _tone_arrays(c, d)]
        states = evolve_nojump_batch(psi0[None],
                                     static_hamiltonian(c, decay)[None],
                                     tones, times)[0]
        want = rk45_oracle(psi0, c, d, times, decay)
        assert np.max(np.abs(states - want)) < 1e-8

    def test_no_beat_matches_one_tone_of_summed_amplitude(self):
        c, d = fig2a_system()
        tone = d.tones[0]
        split = DriveSpec.two_tone(0.3, tone.detuning, 0.7, tone.detuning,
                                   tone.phases)
        two = evolve_nojump(ground_state(3), c, split, 2.0)
        one = evolve_nojump(ground_state(3), c, d, 2.0)
        assert np.max(np.abs(two.states - one.states)) < 1e-12

    def test_members_with_different_beats_raise(self):
        c, d = fig2a_system()
        a = _tone_arrays(c, d)[0][0]
        with pytest.raises(ValueError, match="beat"):
            evolve_nojump_batch(
                np.array([ground_state(3)] * 2),
                np.array([static_hamiltonian(c)] * 2),
                [(np.array([a, a]), np.array([0.0, 0.0])),
                 (np.array([a, a]), np.array([100.0, 101.0]))],
                np.linspace(0.0, 1.0, 5))

    def test_uneven_sample_grid_raises(self):
        # Floquet sampling splits every phase over an even grid.
        c, d, psi0, _ = raman_system(0.15, np.pi / 2, 6.0, 15.0, 170.0)
        tones = [(a[None], np.array([det])) for a, det in _tone_arrays(c, d)]
        with pytest.raises(ValueError, match="even sample grid"):
            evolve_nojump_batch(psi0[None], static_hamiltonian(c)[None],
                                tones, np.array([0.1, 0.2, 0.4]))

    def test_ill_conditioned_period_is_stepped(self, monkeypatch, caplog):
        # The expm steps check the Sambe state's edge harmonics as the
        # Floquet modes do: a start far below the truncation that passes is
        # stepped, fails the check and is raised until it passes.
        c, d, psi0, beat = raman_system(0.15, np.pi / 2, 6.0, 15.0, 170.0)
        t_end = 7.3 * 2.0 * np.pi / abs(beat)
        want = evolve_nojump(psi0, c, d, t_end, decay=True, n_samples=40)
        monkeypatch.setattr(dynamics, "CONDITION_LIMIT", 0.0)
        with caplog.at_level(logging.WARNING, logger="dfsim.dynamics"):
            got = evolve_nojump(psi0, c, d, t_end, decay=True, n_samples=40)
        assert "ill-conditioned" in caplog.text
        assert np.max(np.abs(got.states - want.states)) < 1e-10
        caplog.clear()
        tones = [(a[None], np.array([det])) for a, det in _tone_arrays(c, d)]
        gen, mod, frame = exact_inputs(static_hamiltonian(c)[None], tones)
        with caplog.at_level(logging.DEBUG, logger="dfsim.dynamics"):
            raised = dynamics._evolve_exact(psi0[None], gen, mod, want.times,
                                            frame, k=0)[0]
        assert caplog.text.count("ill-conditioned") > 1
        k, tail = re.search(r" K (\d+), tail (\S+),", caplog.text).groups()
        assert int(k) > 0 and float(tail) <= dynamics._TAIL_LIMIT
        assert np.max(np.abs(raised - want.states)) < 1e-8

    @pytest.mark.parametrize("gap", [1e-6, "ulp"])
    def test_beat_far_below_the_drive_is_integrated(self, caplog, gap):
        # A beat period far longer than the window would need a Floquet
        # truncation of order drive / beat; such a window is integrated in
        # one span, unbatched and batched.
        c, _, psi0, _ = raman_system(0.15, np.pi / 2, 6.0, 15.0, 170.0)
        w2 = np.nextafter(170.0, 171.0) if gap == "ulp" else 170.0 + gap
        d = DriveSpec.two_tone(6.0, 170.0, 15.0, w2,
                               0.15 * np.array([-1.0, 0.0, 1.0]))
        with caplog.at_level(logging.DEBUG, logger="dfsim.dynamics"):
            traj = evolve_nojump(psi0, c, d, 0.3, n_samples=60)
        want = rk45_oracle(psi0, c, d, traj.times, decay=True)
        assert np.max(np.abs(traj.states - want)) < 1e-8
        tones = [(a[None], np.array([det])) for a, det in _tone_arrays(c, d)]
        with caplog.at_level(logging.DEBUG, logger="dfsim.dynamics"):
            states = evolve_nojump_batch(psi0[None],
                                         static_hamiltonian(c)[None], tones,
                                         traj.times, rtol=1e-10)[0]
        assert np.max(np.abs(states - want)) < 1e-8
        assert caplog.text.count("DOP853: 1 members, 2 tones") == 2
        assert "Floquet" not in caplog.text

    @pytest.mark.parametrize("xi, e_mu, e_nu, omega_delta", [
        (0.15, 6.0, 15.0, 170.18), (0.15, 12.0, 30.0, 167.5),
        (0.2, 6.0, 15.0, 72.44), (0.3, 3.0, 7.5, 20.1)])
    def test_truncation_converges(self, caplog, xi, e_mu, e_nu,
                                  omega_delta):
        # Calibrated rotations over their default windows and sample grids
        # (30 to 1000 beat periods): the truncation the tail check accepts
        # agrees with two more harmonics, and a start far below it fails
        # the check and is raised until it agrees too.
        g = linear_array_xi(xi, alpha=np.pi / 2)
        with caplog.at_level(logging.DEBUG, logger="dfsim.dynamics"):
            traj = rotate_logical(g, e_mu, e_nu, omega_delta).trajectory
        k = int(re.search(r" K (\d+),", caplog.text).group(1))
        tr = protocols._Transfer("rotate", g, (e_mu, e_nu), omega_delta, None)
        hs, psi0, _, unit = tr.nominal_member()
        tones = [(amp * unit, np.array([det])) for amp, det in
                 zip(tr.amplitudes, tr.detunings(omega_delta))]
        gen, mod, frame = exact_inputs(hs, tones)

        def states(start):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="dfsim.dynamics"):
                out = dynamics._evolve_exact(
                    psi0 / np.linalg.norm(psi0), gen, mod, traj.times, frame,
                    k=start)[0]
            return out, int(re.search(r" K (\d+),", caplog.text).group(1))

        wider, k_wider = states(k + 2)
        assert k_wider == k + 2
        assert np.max(np.abs(wider - traj.states)) <= 1e-10
        raised, k_raised = states(1)
        assert k_raised > 1
        assert np.max(np.abs(raised - traj.states)) <= 1e-10


# The one selection rule: DOP853 integrates two tones whose beat period
# spans the window, and one-tone batches; every other run is exact.
ENGINES = [  # drive, window in beat periods, batched, engine
    ("one tone", 2.5, False, "exact"),
    ("zero beat", 2.5, False, "exact"),
    ("two tones", 2.5, False, "exact"),
    ("two tones", 2.5, True, "exact"),
    ("two tones", 0.5, False, "DOP853"),
    ("two tones", 0.5, True, "DOP853"),
    ("one tone", 2.5, True, "DOP853"),
    ("zero beat", 2.5, True, "DOP853"),
]


@pytest.mark.parametrize("drive, periods, batched, engine", ENGINES)
def test_engine_selection(caplog, drive, periods, batched, engine):
    c, d, psi0, beat = raman_system(0.15, np.pi / 2, 6.0, 15.0, 170.0)
    first, second = d.tones
    if drive == "one tone":
        d = DriveSpec((first,))
    elif drive == "zero beat":
        d = DriveSpec((first, Tone(second.rabi, first.detuning,
                                   second.phases)))
    t_end = periods * 2.0 * np.pi / abs(beat)
    with caplog.at_level(logging.DEBUG, logger="dfsim.dynamics"):
        if batched:
            evolve_nojump_batch(
                psi0[None], static_hamiltonian(c)[None],
                [(a[None], np.array([w])) for a, w in _tone_arrays(c, d)],
                np.linspace(0.0, t_end, 40))
        else:
            evolve_nojump(psi0, c, d, t_end, n_samples=40)
    assert [re.match(r"exact|DOP853", r.getMessage()).group()
            for r in caplog.records] == [engine]


class TestLindblad:
    def test_ground_state_stationary(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        traj = evolve_lindblad(rho0, c, DriveSpec.off(), 5.0)
        assert np.max(np.abs(traj.states[-1] - rho0)) < 1e-9

    @pytest.mark.parametrize("system", ["equal-couplings", "chain"])
    def test_collective_decay_beats_independent_emitters(self, system):
        # Fully inverted emitters at small spacing decay through the
        # collective channel faster than three independent ones.  The
        # equal-coupling reference is the exactly collective case; the
        # chain at spacing 0.1 has cross-damping within 0.1% of it.
        if system == "equal-couplings":
            c = dicke_coupling(3, delta=10.0)
        else:
            c = coupling_matrices(linear_array_xi(0.1, alpha=0.0))
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[7, 7] = 1.0
        traj = evolve_lindblad(rho0, c, DriveSpec.off(), 1.5)
        sm = lowering_operators(3)
        number = sum(m.conj().T @ m for m in sm)
        n_t = np.einsum("tij,ji->t", traj.states, number).real
        for t_check in (0.5, 1.0, 1.5):
            k = np.argmin(np.abs(traj.times - t_check))
            assert n_t[k] < 3.0 * np.exp(-traj.times[k]) * 0.98

    def test_dark_state_stationary_at_equal_couplings(self):
        c = dicke_coupling(3, delta=10.0)
        basis = collective_eigenbasis(c)
        cvec = basis.vector("c")
        rho0 = np.outer(cvec, cvec.conj())
        traj = evolve_lindblad(rho0, c, DriveSpec.off(), 100.0)
        assert traj.trace_error < 1e-6
        assert np.max(np.abs(traj.states[-1] - rho0)) < 1e-6

    def test_trace_preserved_under_drive(self):
        c, d = fig2a_system()
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        traj = evolve_lindblad(rho0, c, d, 10.0)
        assert traj.trace_error < 1e-9

    @pytest.mark.parametrize("t_end", [0.0, -1.0, np.inf])
    def test_rejects_nonpositive_end_time(self, t_end):
        c, d = fig2a_system()
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        with pytest.raises(ValueError, match="end time"):
            evolve_lindblad(rho0, c, d, t_end)

    def test_rejects_phase_count_mismatch(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        d = DriveSpec.single(1.0, -5.0, np.zeros(2))
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        with pytest.raises(ValueError, match="phase list"):
            evolve_lindblad(rho0, c, d, 1.0)

    def test_validates_initial_state(self):
        c, d = fig2a_system()
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            evolve_lindblad(bad, c, d, 1.0)
        half = np.zeros((8, 8), dtype=complex)
        half[0, 0] = 0.5
        with pytest.raises(ValueError):
            evolve_lindblad(half, c, d, 1.0)

    def test_conditional_norm_matches_no_jump_probability(self):
        # The squared norm of the no-jump state vector equals the trace of
        # the unnormalised conditional density matrix (independent
        # integration of the jump-free master equation).
        c, d = fig2a_system()
        t_end = 1.0
        traj = evolve_nojump(ground_state(3), c, d, t_end)

        hs = static_hamiltonian(c)
        tone = d.tones[0]
        a = tone.rabi * drive_operator(tone.phases)

        def rhs(t, y):
            rho = y.reshape(8, 8)
            he = hs + np.exp(-1j * tone.detuning * t) * a \
                + np.exp(1j * tone.detuning * t) * a.conj().T
            return (-1j * (he @ rho - rho @ he.conj().T)).ravel()

        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        sol = solve_ivp(rhs, (0, t_end), rho0.ravel(), rtol=1e-10,
                        atol=1e-13, t_eval=[t_end])
        cond_trace = np.trace(sol.y[:, -1].reshape(8, 8)).real
        assert abs(traj.norms[-1] ** 2 - cond_trace) < 1e-6


class TestMasterEquation:
    """The master equation goes through the no-jump propagator as a
    vectorised Liouvillian."""

    # Spacings below 0.25 make the RK45 oracle slow (couplings ~ xi^-3).
    @settings(max_examples=8, deadline=None)
    @given(xi=st.floats(0.25, 1.0), alpha=st.floats(0.0, np.pi / 2),
           n=st.sampled_from([3, 4]), rabi=st.floats(0.0, 8.0),
           detuning=st.floats(-60.0, 60.0), driven=st.booleans())
    # At a drive of 6e-22 eig's vectors are inexact (2.4e-6 off); see
    # test_vanishing_drive_matches_undriven.
    @example(xi=1.0, alpha=0.0, n=4, rabi=5.85e-22, detuning=0.0,
             driven=True)
    def test_matches_master_oracle(self, xi, alpha, n, rabi, detuning,
                                   driven):
        c = coupling_matrices(linear_array_xi(xi, n=n, alpha=alpha))
        d = (DriveSpec.single(rabi, detuning, xi * np.arange(n)) if driven
             else DriveSpec.off())
        rho0 = mixed_state(n)
        traj = evolve_lindblad(rho0, c, d, 0.3)
        want = master_oracle(rho0, c, d, traj.times)
        assert np.max(np.abs(traj.states - want)) < 1e-8

    @pytest.mark.parametrize("tones", [1, 2])
    def test_vanishing_drive_matches_undriven(self, tones, caplog):
        # Under a drive of 1e-22 the Liouvillian's near-equal eigenvalues
        # leave eig's vectors far from eigenvectors (2e-5 off at t = 0.3)
        # at a condition number of 300; their residual sends the one-tone
        # and the Floquet engine to their expm steps.
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        phases = 0.5 * np.arange(3)
        d = (DriveSpec.single(1e-22, 0.0, phases) if tones == 1 else
             DriveSpec.two_tone(1e-22, 0.0, 1e-22, 70.0, phases))
        with caplog.at_level(logging.WARNING, logger="dfsim.dynamics"):
            got = evolve_lindblad(mixed_state(3), c, d, 0.3)
        assert "ill-conditioned" in caplog.text
        want = evolve_lindblad(mixed_state(3), c, DriveSpec.off(), 0.3)
        assert np.max(np.abs(got.states - want.states)) < 1e-12

    def test_two_tones_match_master_oracle(self):
        c, d, psi0, beat = raman_system(0.3, np.pi / 2, 6.0, 15.0, 40.0)
        rho0 = np.outer(psi0, psi0.conj())
        t_end = 2.5 * 2.0 * np.pi / abs(beat)
        traj = evolve_lindblad(rho0, c, d, t_end)
        want = master_oracle(rho0, c, d, traj.times)
        assert np.max(np.abs(traj.states - want)) < 1e-8

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("driven", [False, True])
    def test_one_tone_matches_expm_oracle(self, n, driven):
        # The Liouvillian is built by applying the master equation, in the
        # tone frame, to each matrix unit; its exponential acts on rho0 at
        # every sample.
        c = coupling_matrices(linear_array_xi(0.4, n=n, alpha=0.3))
        d = (DriveSpec.single(2.5, 3.0, 0.4 * np.arange(n)) if driven
             else DriveSpec.off())
        det = d.tones[0].detuning if driven else 0.0
        number = excitation_numbers(n)
        heff = (static_hamiltonian(c) - det * np.diag(number)
                + sum(a + a.conj().T for a, _ in _tone_arrays(c, d)))
        jumps = jump_operators(c).operators
        dim = 2**n

        def master(rho):
            return (-1j * (heff @ rho - rho @ heff.conj().T)
                    + sum(j @ rho @ j.conj().T for j in jumps))

        liouvillian = np.array([master(unit.reshape(dim, dim)).ravel()
                                for unit in np.eye(dim * dim)]).T
        rho0 = mixed_state(n)
        traj = evolve_lindblad(rho0, c, d, 0.5)
        times = traj.times
        tone_frame = expm_multiply(liouvillian, rho0.ravel(), start=0.0,
                                   stop=times[-1], num=len(times),
                                   endpoint=True).reshape(-1, dim, dim)
        frame = np.exp(-1j * det * np.outer(times, number))
        want = frame[:, :, None] * tone_frame * frame[:, None, :].conj()
        assert np.allclose(times, np.linspace(0.0, 0.5, len(times)))
        assert np.max(np.abs(traj.states - want)) < 1e-10

    def test_equal_couplings_are_stepped(self, caplog):
        # The equal-coupling Liouvillian has ill-conditioned eigenvectors,
        # so the state is stepped along the sample grid with the step
        # propagator instead.
        c = dicke_coupling(3, delta=10.0)
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[7, 7] = 1.0
        with caplog.at_level(logging.WARNING, logger="dfsim.dynamics"):
            traj = evolve_lindblad(rho0, c, DriveSpec.off(), 1.5)
        assert "ill-conditioned" in caplog.text
        want = master_oracle(rho0, c, DriveSpec.off(), traj.times)
        assert np.max(np.abs(traj.states - want)) < 1e-8

    @pytest.mark.parametrize("driven", [False, True])
    def test_at_most_one_tone_calls_no_integrator(self, monkeypatch, driven):
        def no_solver(*args, **kwargs):
            raise AssertionError("integrator called")

        c, d = fig2a_system()
        monkeypatch.setattr(dynamics, "solve_ivp", no_solver)
        traj = evolve_lindblad(mixed_state(3), c,
                               d if driven else DriveSpec.off(), 2.0)
        assert traj.trace_error < 1e-9
