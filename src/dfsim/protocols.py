"""Entangled-state preparation, leakage-free logical rotation, fluorescence
readout, and the four-emitter controlled-phase gate.

The transfer benchmarks (preparation and rotation) evolve the coherent part
of the effective Hamiltonian; level linewidths for figures of merit come
from the full non-Hermitian eigenbasis.  Drive detunings are always derived
from the nominal (mirror-symmetric) geometry, matching an experiment whose
control fields cannot track position errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import (GAMMA, CouplingSet, SpectralParams, coupling_matrices,
                       spectral_params)
from .dynamics import (DEFAULT_RTOL, DriveSpec, Tone, Trajectory,
                       evolve_nojump, evolve_nojump_batch)
from .geometry import Geometry
from .hilbert import (LABELS, _eigensystems, _hamiltonians,
                      collective_eigenbasis, drive_operator, fidelity,
                      fidelity_raw, ground_state)


# Raman-offset calibration: points per scan grid, the step the returned
# offset is snapped to, and the relative half-width of the scan around the
# nominal offset.
CALIBRATION_GRID = 11
CALIBRATION_RESOLUTION = 0.01
CALIBRATION_WINDOW = 0.2


class ProtocolError(RuntimeError):
    pass


@dataclass
class ProtocolResult:
    """Outcome of a pulse protocol: conditional and raw fidelity at the
    first population inversion, the inversion time, a rate figure of merit,
    and the trajectory behind the numbers."""

    fidelity: float
    fidelity_raw: float
    t_pi: float
    merit: float
    trajectory: Trajectory
    params_used: dict = field(default_factory=dict)


@dataclass
class ReadoutResult:
    """Accumulated-emission readout of one logical value."""

    emission_probability: float
    logical: int
    trajectory: Trajectory
    params_used: dict = field(default_factory=dict)


@dataclass
class CPhaseResult:
    """Phases acquired by the four logical levels under a detuned 2*pi
    pulse, plus leakage and norm-loss diagnostics."""

    phases: dict
    controlled_phase: float
    t_gate: float
    rabi_element: float
    leakage: dict
    leakage_flag: bool
    norm_loss: dict
    params_used: dict = field(default_factory=dict)


def effective_prep_coupling(sp: SpectralParams, e_mu: float,
                            k_dot_r: float) -> complex:
    """Analytic ground-to-target coupling for single-tone preparation with
    the tone tuned halfway between the shift constant and the collective
    splitting."""
    if sp.kappa <= 0:
        raise ValueError("kappa must be positive")
    return (1.0 / sp.omega) * np.sqrt(sp.omega / sp.kappa) * e_mu * (
        sp.kappa * np.cos(k_dot_r) - 2.0 * sp.delta12)


def rotation_rate_estimate(sp: SpectralParams, e_mu: float, e_nu: float,
                           k_dot_r: float, omega_delta: float) -> float:
    """Magnitude of the secular part of the analytic rotation rate (the
    slowly varying tone product only).  Used to size integration windows."""
    om, ka, eta = sp.omega, sp.kappa, sp.eta
    d12, d13 = sp.delta12, sp.delta13
    kr = k_dot_r
    denom = ka * d13 - 2.0 * d12**2
    if denom == 0 or omega_delta == 0:
        return 0.0
    mag = (ka**1.5 / (4.0 * np.sqrt(2.0) * abs(omega_delta) * denom**2 * om**1.5)) \
        * abs(np.exp(2j * kr) - 1.0) * abs(d12 * eta) * e_mu * e_nu \
        * abs(2.0 * d12**2 - d13 * ka - 2.0 * d12 * eta * np.cos(kr))
    return float(mag)


def find_first_inversion(times: np.ndarray, pops: np.ndarray,
                         smooth_window: float = 0.0) -> tuple[float, int]:
    """Time of the first significant population maximum.

    With a nonzero ``smooth_window`` the trace is first averaged over that
    window to suppress fast off-resonant ripples, the first smoothed local
    maximum above half the peak level is located, and the raw trace is then
    refined inside the window (parabolic fit through the raw crest).
    Returns (t_pi, raw grid index of the crest).
    """
    dt = times[1] - times[0]
    w = int(round(smooth_window / dt)) if smooth_window > 0 else 1
    if w > 1:
        kernel = np.ones(w) / w
        smoothed = np.convolve(pops, kernel, mode="same")
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
    # First time the trace enters the near-complete-transfer band, then the
    # crest of the stretch before the trace first falls below its running
    # maximum by a hysteresis margin.  Small beats and residual ripples on
    # the rise are thereby ignored.
    reach = np.nonzero(seg >= 0.95 * peak)[0]
    if len(reach) == 0:
        raise ProtocolError("no population inversion found within the "
                            "integration window")
    tail = seg[reach[0]:]
    fall = np.maximum.accumulate(tail) - tail > 0.02 * peak
    end = int(np.argmax(fall)) if fall.any() else len(tail)
    idx = int(reach[0]) + int(np.argmax(tail[:end]))
    if end == len(tail) and idx >= len(seg) - 2:
        raise ProtocolError("population still rising at the end of the "
                            "integration window")
    idx += lo
    a = max(idx - 2 * w, 1)
    b = min(idx + 2 * w + 1, len(pops) - 1)
    j = a + int(np.argmax(pops[a:b]))
    return _parabola_peak(times, pops, j), j


def _parabola_peak(x: np.ndarray, y: np.ndarray, j: int) -> float:
    """Vertex of the parabola through the samples around ``y[j]`` on the
    even grid ``x``, kept within one step of ``x[j]``; ``x[j]`` itself at
    either end of the grid."""
    shift = 0.0
    if 0 < j < len(y) - 1:
        y0, y1, y2 = y[j - 1], y[j], y[j + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0:
            shift = float(np.clip(0.5 * (y0 - y2) / denom, -1.0, 1.0))
    return float(x[j] + shift * (x[1] - x[0]))


def _phases_for(positions_x: np.ndarray, spacing: float, k_dot_r: float) -> np.ndarray:
    """Per-emitter propagation phases with adjacent-emitter step k_dot_r,
    referenced to the nominal chain spacing."""
    if k_dot_r == 0.0:
        return np.zeros(np.shape(positions_x))
    return k_dot_r * positions_x / spacing


class _Transfer:
    """A transfer protocol on a nominal geometry, whose coupling set and
    collective basis it builds once: the preparation (ground state -> b,
    one tone) or the logical rotation (b -> c, two tones).

    The swept ``frequency`` is the preparation tone or the Raman offset.
    Drive phases and tone detunings come from the nominal geometry, so a
    member built for displaced emitters keeps them: control fields do not
    track position errors.
    """

    def __init__(self, protocol: str, g: Geometry, amplitudes: tuple,
                 omega_delta: float | None, k_dot_r: float | None):
        if protocol == "rotate" and omega_delta == 0:
            raise ValueError("Raman offset must be nonzero")
        self.protocol = protocol
        self.geometry = g
        self.coupling = coupling_matrices(g)
        self.sp = sp = spectral_params(self.coupling)
        self.basis = collective_eigenbasis(self.coupling)
        self.kdr = g.xi12 if k_dot_r is None else k_dot_r
        self.amplitudes = amplitudes
        self.target = "b" if protocol == "prepare" else "c"
        self.frequency = (0.5 * (sp.delta13 - sp.omega)
                          if protocol == "prepare" else omega_delta)
        # Three periods of the rotation's ripple; the preparation has none.
        self.ripple = (0.0 if protocol == "prepare"
                       else 3.0 * 2.0 * np.pi / abs(omega_delta))

    def detunings(self, frequency) -> tuple:
        """Tone detunings at the swept frequency.  The rotation's second
        tone keeps the two-photon difference the nominal levels fix."""
        if self.protocol == "prepare":
            return (frequency,)
        sp = self.sp
        return (frequency, 0.5 * (3.0 * sp.delta13 - sp.omega) + frequency)

    def drive(self, axis: str, deviation: float) -> tuple:
        """Tone amplitudes and detunings with the drive off nominal by
        ``deviation`` along ``axis``.  A detuning deviation scales the swept
        frequency.  A single-tone rabi deviation scales the amplitude; a
        two-tone one is the product deviation, so each amplitude takes its
        square root."""
        scale = 1.0 + deviation
        if axis != "rabi":
            return [*self.amplitudes], self.detunings(self.frequency * scale)
        scale = scale if len(self.amplitudes) == 1 else np.sqrt(scale)
        return ([amp * scale for amp in self.amplitudes],
                self.detunings(self.frequency))

    def phases(self, x: np.ndarray) -> np.ndarray:
        """Drive phases of emitters at x-positions ``x``: (n,), or (B, n)
        for a stack of geometries."""
        return _phases_for(x, self.geometry.spacing, self.kdr)

    def states(self, vectors: np.ndarray) -> tuple:
        """Initial and target state from collective level ``vectors``
        (columns): (dim, dim), or (B, dim, dim) for one row per stack."""
        initial = (np.broadcast_to(ground_state(self.geometry.n),
                                   vectors.shape[:-1])
                   if self.protocol == "prepare"
                   else vectors[..., LABELS.index("b")])
        return initial, vectors[..., LABELS.index(self.target)]

    def members(self, positions: np.ndarray, delta: np.ndarray,
                gammas: np.ndarray) -> tuple:
        """Batch members for emitters at positions (B, n, 3) with coupling
        matrices ``delta`` and ``gammas`` (B, n, n), as stacks with one row
        per position set: coherent H0, initial states, target states and
        unit drives."""
        _, v, _ = _eigensystems(_hamiltonians(delta - 0.5j * gammas))
        return self._rows(positions, delta, v)

    def nominal_member(self) -> tuple:
        """``members`` of the nominal geometry alone (one row), read off
        the nominal basis."""
        return self._rows(self.geometry.positions[None],
                          self.coupling.delta[None], self.basis.vectors[None])

    def _rows(self, positions, delta, vectors) -> tuple:
        return (_hamiltonians(delta), *self.states(vectors),
                drive_operator(self.phases(positions[..., 0])))

    def window(self) -> float:
        """Default integration window: 1.8 inversion times of the analytic
        rate for the preparation, 1.1 for the rotation, whose secular
        two-path estimate undershoots the full multi-level rate."""
        if self.protocol == "prepare":
            rate, cycles = abs(effective_prep_coupling(
                self.sp, *self.amplitudes, self.kdr)), 1.8
        else:
            rate, cycles = rotation_rate_estimate(
                self.sp, *self.amplitudes, self.kdr, self.frequency), 1.1
        if rate == 0:
            raise ProtocolError("estimated transfer rate vanishes; pass "
                                "t_end explicitly")
        return cycles * np.pi / (2.0 * rate)

    def run(self, t_end: float | None = None,
            decay: bool = False) -> ProtocolResult:
        """Evolve the nominal drive from the initial state over ``t_end``
        (default ``window()``) and score the first inversion into the
        target level, smoothed over the ripple.  The merit is inversions
        per lifetime at the mean linewidth of the levels transferred
        between (b, or b and c)."""
        t_end = self.window() if t_end is None else t_end
        basis, detunings = self.basis, self.detunings(self.frequency)
        phases = self.phases(self.geometry.positions[:, 0])
        drive = DriveSpec(tuple(Tone(amp, det, phases) for amp, det in
                                zip(self.amplitudes, detunings)))
        psi0, target = self.states(basis.vectors)
        traj = evolve_nojump(psi0 / np.linalg.norm(psi0), self.coupling,
                             drive, t_end, decay=decay, basis=basis)
        pop = traj.populations_renormalized[:, basis.index(self.target)]
        t_pi, j = find_first_inversion(
            traj.times, pop, smooth_window=min(self.ripple, t_end / 10.0))
        gammas = {f"gamma_{lab}": basis.linewidth(lab)
                  for lab in "bc"[:len(self.amplitudes)]}
        params = dict(zip(("e_mu", "e_nu"), self.amplitudes))
        if self.protocol == "rotate":
            params["omega_delta"] = self.frequency
        params.update(zip(("omega_mu", "omega_nu"), detunings))
        params.update(k_dot_r=self.kdr, **gammas, decay=decay, t_end=t_end)
        psi = traj.states[j]
        return ProtocolResult(
            fidelity(psi, target), fidelity_raw(psi, target), t_pi,
            len(gammas) / (sum(gammas.values()) * t_pi), traj, params)


def _batched_fidelities(members: tuple, drives: list, times: np.ndarray,
                        rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Best fidelity over ``times`` for each batch member, all in one
    solve; member ``i`` (row ``i`` of the ``_Transfer.members`` stacks, or
    their one row for every drive) is driven at the tone amplitudes and
    detunings ``drives[i]``.  ``rtol`` governs one-tone batches only."""
    h_stack, psi0, targets, units = (
        np.broadcast_to(x, (len(drives),) + x.shape[1:]) for x in members)
    tone_stacks = [(np.array([amps[k] * unit
                              for (amps, _), unit in zip(drives, units)]),
                    np.array([dets[k] for _, dets in drives]))
                   for k in range(len(drives[0][0]))]
    states = evolve_nojump_batch(psi0, h_stack, tone_stacks, times, rtol=rtol)
    norms2 = np.sum(np.abs(states) ** 2, axis=2)
    overlaps = np.abs(np.einsum("bi,bti->bt", targets.conj(), states)) ** 2
    return (overlaps / norms2).max(axis=1)


def prepare_b(g: Geometry, e_mu: float = 1.0, t_end: float | None = None,
              *, k_dot_r: float | None = None,
              decay: bool = False) -> ProtocolResult:
    """Drive the ground state into the lowest one-excitation level with a
    single tone tuned to that transition.

    ``k_dot_r`` is the adjacent-emitter propagation phase; the default is
    the dimensionless spacing (wavevector along the chain), which is the
    configuration the published benchmark numbers correspond to.
    """
    return _Transfer("prepare", g, (e_mu,), None, k_dot_r).run(t_end, decay)


def rotate_logical(g: Geometry, e_mu: float = 6.0, e_nu: float = 15.0,
                   omega_delta: float = 170.0, t_end: float | None = None,
                   *, k_dot_r: float | None = None,
                   decay: bool = False) -> ProtocolResult:
    """Two-tone Raman rotation between the two lowest one-excitation levels.

    Tone detunings are w_mu = omega_delta and
    w_nu = (3*delta13 - Omega)/2 + omega_delta, so both tones sit
    ``omega_delta`` above the shared upper level of the Raman pair.
    """
    return _Transfer("rotate", g, (e_mu, e_nu), omega_delta,
                     k_dot_r).run(t_end, decay)


def calibrate_detuning(g: Geometry, e_mu: float, e_nu: float,
                       omega_delta_nominal: float, *,
                       k_dot_r: float | None = None) -> float:
    """Scan the Raman detuning near its nominal value and return the value
    maximising the transfer fidelity over the first cycle.

    The scan covers ``+- CALIBRATION_WINDOW`` (relative) around the nominal
    value with two successive batched grids (``_calibrate``); each
    candidate scores its best transfer fidelity
    over a window of 1.45 probe inversion times, the probe being the
    nominal rotation.  Raises if the maximum sits at the scan edge.
    """
    tr = _Transfer("rotate", g, (e_mu, e_nu), omega_delta_nominal, k_dot_r)
    probe = tr.run()
    # Detunings at the low scan edge slow the transfer; size the window so
    # every candidate completes its first inversion.
    t_end = 1.45 * probe.t_pi
    times = np.linspace(0.0, t_end, int(min(max(t_end / 2e-3, 1000), 10000)))
    member = tr.nominal_member()

    def scores(offsets: np.ndarray) -> np.ndarray:
        return _batched_fidelities(
            member, [(tr.amplitudes, tr.detunings(w)) for w in offsets],
            times)

    return _calibrate(scores, omega_delta_nominal, CALIBRATION_WINDOW)


def _calibrate(scores, nominal: float, window: float) -> float:
    """Offset maximising ``scores`` (offsets -> one score each) within
    ``+- window`` (relative) of ``nominal``.

    A grid of ``CALIBRATION_GRID`` offsets brackets the maximum, a second
    grid of the same size spans the winning bracket, scoring only offsets
    the first did not, and a parabola through its best point refines the
    flat-topped maximum, snapped to ``CALIBRATION_RESOLUTION``.  Raises
    ``ProtocolError`` if the maximum sits at the scan edge.
    """
    lo = nominal * (1.0 - window)
    hi = nominal * (1.0 + window)
    grid = np.linspace(lo, hi, CALIBRATION_GRID)
    coarse = scores(grid)
    k = int(np.argmax(coarse))
    if k in (0, len(grid) - 1):
        raise ProtocolError("no interior fidelity maximum in the detuning "
                            f"scan window [{lo:g}, {hi:g}]")

    fine = np.linspace(grid[k - 1], grid[k + 1], CALIBRATION_GRID)
    done = np.isin(fine, grid)
    fine_scores = np.empty(len(fine))
    fine_scores[done] = coarse[np.isin(grid, fine)]
    fine_scores[~done] = scores(fine[~done])
    j = min(max(int(np.argmax(fine_scores)), 1), len(fine) - 2)
    best = _parabola_peak(fine, fine_scores, j)
    return float(np.round(best / CALIBRATION_RESOLUTION)
                 * CALIBRATION_RESOLUTION)


def readout_coupling(c: CouplingSet, e_mu: float,
                     k_dot_r: float) -> tuple[complex, float]:
    """Resonant coupling for fluorescence readout of the antisymmetric
    logical level, and the analytic linewidth of the superradiant readout
    level (bounded by four times the single-emitter rate)."""
    sp = spectral_params(c)
    om, d12, d13 = sp.omega, sp.delta12, sp.delta13
    denom = 2.0 * d12**2 + d13 * (om + d13)
    if abs(denom) < 1e-12:
        raise ValueError("readout coupling denominator vanishes")
    e_cg = (1j / np.sqrt(2.0)) * np.sqrt(1.0 + d13 / om) \
        * (d12 * (om + 3.0 * d13) * e_mu * np.sin(k_dot_r)) / denom
    g12, g13 = c.gammas[0, 1], c.gammas[0, 2]
    gamma_g = 0.5 * (4.0 * GAMMA + g13 + np.sqrt(8.0 * g12**2 + g13**2))
    return e_cg, float(gamma_g)


def readout_fluorescence(g: Geometry, e_mu: float = 1.0, logical: int = 1,
                         t_end: float = 5.0, *, k_dot_r: float | None = None,
                         transition: str = "cg") -> ReadoutResult:
    """Drive the bright readout transition and accumulate the emission
    probability 1 - |psi|^2 from the conditional no-emission evolution.

    logical 1 starts in the antisymmetric level (bright under the 'cg'
    tone); logical 0 starts in the prepared level and stays dark.
    """
    if logical not in (0, 1):
        raise ValueError("logical must be 0 or 1")
    if transition not in ("cg", "bg"):
        raise ValueError("transition must be 'cg' or 'bg'")
    coupling = coupling_matrices(g)
    sp = spectral_params(coupling)
    w_mu = 0.5 * (3.0 * sp.delta13 + sp.omega) if transition == "cg" else sp.omega
    kdr = g.xi12 if k_dot_r is None else k_dot_r
    basis = collective_eigenbasis(coupling)
    psi0 = basis.vector("c") if logical == 1 else basis.vector("b")
    phases = _phases_for(g.positions[:, 0], g.spacing, kdr)
    drive = DriveSpec.single(e_mu, w_mu, phases)
    traj = evolve_nojump(psi0 / np.linalg.norm(psi0), coupling, drive, t_end,
                         decay=True, basis=basis)
    p_emit = 1.0 - float(traj.norms[-1] ** 2)
    return ReadoutResult(
        emission_probability=p_emit,
        logical=logical,
        trajectory=traj,
        params_used={"e_mu": e_mu, "omega_mu": w_mu, "k_dot_r": kdr,
                     "transition": transition, "t_end": t_end},
    )


LEAKAGE_THRESHOLD = 0.05


def cphase4(g4: Geometry, e_pulse: float, detuning_offset: float,
            t_end: float | None = None, *, k_dot_r: float | None = None,
            decay: bool = True) -> CPhaseResult:
    """Controlled-phase gate on the four-emitter logical basis via a
    detuned 2*pi pulse on the transition between the lowest two- and
    three-excitation levels.

    Evolves each of the four logical levels under the pulse and reports the
    phases acquired relative to free evolution; success means phases close
    to (0, 0, 0, pi) on the (00, 01, 10, 11) encoding.  The pulse duration
    is one generalised Rabi cycle of the addressed transition.
    """
    if g4.n != 4:
        raise ValueError("the controlled-phase gate needs four emitters")
    coupling = coupling_matrices(g4)
    basis = collective_eigenbasis(coupling)
    kdr = g4.xi12 if k_dot_r is None else k_dot_r
    phases = _phases_for(g4.positions[:, 0], g4.spacing, kdr)

    f_vec = basis.vector("f")
    l_vec = basis.vector("l")
    unit = drive_operator(phases)
    v_fl = complex(np.vdot(l_vec, e_pulse * (unit @ f_vec)))
    rabi = np.sqrt(4.0 * abs(v_fl) ** 2 + detuning_offset**2)
    if rabi == 0:
        raise ProtocolError("pulse has zero generalised Rabi frequency")
    t_gate = 2.0 * np.pi / rabi
    if t_end is not None and t_gate > t_end:
        raise ProtocolError(f"2*pi gate time {t_gate:g} exceeds t_end {t_end:g}")

    w_tone = (basis.energy("l") - basis.energy("f")) + detuning_offset
    drive = DriveSpec.single(e_pulse, w_tone, phases)
    reference = DriveSpec.single(0.0, w_tone, phases)

    acquired: dict[str, float] = {}
    leak: dict[str, float] = {}
    loss: dict[str, float] = {}
    for lab in "cbgf":
        psi0 = basis.vector(lab)
        psi0 = psi0 / np.linalg.norm(psi0)
        traj = evolve_nojump(psi0, coupling, drive, t_gate, decay=decay,
                             basis=basis, n_samples=800)
        ref = evolve_nojump(psi0, coupling, reference, t_gate, decay=decay,
                            basis=basis, n_samples=400)
        psi = traj.final_state()
        # Pulse-acquired phase, referenced to the free evolution of the
        # same level so that a vanishing pulse gives exactly zero.
        phase = float(np.angle(np.vdot(psi0, psi))
                      - np.angle(np.vdot(psi0, ref.final_state())))
        acquired[lab] = float((phase + np.pi) % (2.0 * np.pi) - np.pi)
        norm2 = float(np.vdot(psi, psi).real)
        leak[lab] = float(abs(np.vdot(l_vec, psi)) ** 2 / norm2)
        loss[lab] = 1.0 - float(np.sqrt(norm2))
    controlled = acquired["f"] - acquired["b"] - acquired["g"] + acquired["c"]
    controlled = float((controlled + np.pi) % (2.0 * np.pi) - np.pi)
    return CPhaseResult(
        phases=acquired,
        controlled_phase=controlled,
        t_gate=float(t_gate),
        rabi_element=float(abs(v_fl)),
        leakage=leak,
        leakage_flag=max(leak.values()) > LEAKAGE_THRESHOLD,
        norm_loss=loss,
        params_used={"e_pulse": e_pulse, "detuning_offset": detuning_offset,
                     "omega_tone": w_tone, "k_dot_r": kdr, "decay": decay},
    )
