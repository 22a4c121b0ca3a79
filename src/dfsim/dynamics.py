"""Time evolution engines: jump operators, no-jump (conditional)
integration of the driven effective Hamiltonian, and the full master
equation.

Dynamics run in the frame rotating at the carrier frequency; tone
frequencies are stored as detunings from the carrier in units of the
single-emitter decay rate.  The two-tone interference is kept exactly; no
secular approximation is made in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .coupling import CouplingSet
from .hilbert import (CollectiveBasis, collective_eigenbasis, drive_operator,
                      lowering_operators, static_hamiltonian)

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Tone:
    """One classical field tone: amplitude (units of gamma), detuning from
    the carrier, and the per-emitter propagation phases k.r_i."""

    rabi: float
    detuning: float
    phases: np.ndarray

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError("rabi amplitude must be nonnegative")
        object.__setattr__(self, "phases",
                           np.atleast_1d(np.asarray(self.phases, dtype=float)))


@dataclass(frozen=True)
class DriveSpec:
    """One or two tones driving all emitters simultaneously."""

    tones: tuple[Tone, ...]

    @classmethod
    def off(cls) -> "DriveSpec":
        return cls(tones=())

    @classmethod
    def single(cls, rabi: float, detuning: float, phases) -> "DriveSpec":
        return cls(tones=(Tone(rabi, detuning, phases),))

    @classmethod
    def two_tone(cls, rabi1, det1, rabi2, det2, phases) -> "DriveSpec":
        return cls(tones=(Tone(rabi1, det1, phases), Tone(rabi2, det2, phases)))


@dataclass(frozen=True)
class JumpSet:
    """Collapse operators from diagonalising the relaxation matrix."""

    operators: tuple[np.ndarray, ...]
    eigvals: np.ndarray
    vecs: np.ndarray


def jump_operators(c: CouplingSet) -> JumpSet:
    """Collapse operators J_l = sqrt(lam_l) sum_i b_li sigma_i^-, with
    lam_l the relaxation-matrix eigenvalues sorted descending."""
    w, v = np.linalg.eigh(c.gammas)
    if w.min() < -1e-10 * c.gamma:
        raise ValueError("relaxation matrix not positive semidefinite")
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    sm = lowering_operators(c.n)
    ops = tuple(np.sqrt(w[k]) * sum(v[i, k] * sm[i] for i in range(c.n))
                for k in range(c.n))
    return JumpSet(operators=ops, eigvals=w, vecs=v)


@dataclass
class Trajectory:
    """Time-stamped states with collective-level populations.

    For state vectors ``norms`` holds ||psi|| (the squared norm is the
    no-emission probability); for density matrices it holds the trace.
    ``populations`` are raw level weights; renormalised weights divide by
    the squared norm (or trace).
    """

    kind: str
    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    populations: np.ndarray
    labels: tuple[str, ...]
    positivity_warning: bool = False
    trace_error: float = 0.0

    @property
    def populations_renormalized(self) -> np.ndarray:
        w = self.norms**2 if self.kind == "nojump" else self.norms
        return self.populations / w[:, None]

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _tone_arrays(c: CouplingSet, d: DriveSpec):
    """(A, A^dag, detuning) per tone, A the raising drive at the tone's
    amplitude."""
    out = []
    for tone in d.tones:
        if len(tone.phases) != c.n:
            raise ValueError("tone phase list does not match emitter count")
        a = tone.rabi * drive_operator(tone.phases)
        out.append((a, a.conj().T, tone.detuning))
    return out


def _check_end(t_end: float) -> None:
    if not t_end > 0:
        raise ValueError(f"end time must be positive, got {t_end:g}")


def _fast_scale(c: CouplingSet, d: DriveSpec, basis: CollectiveBasis) -> float:
    scale = float(np.max(np.abs(basis.energies))) if basis.dim else 1.0
    for tone in d.tones:
        scale += abs(tone.detuning) + 2.0 * tone.rabi * np.sqrt(c.n)
    return max(scale, 1.0)


def _sample_times(c: CouplingSet, d: DriveSpec, basis: CollectiveBasis,
                  t_end: float, n_samples: int | None) -> np.ndarray:
    """Even grid on [0, t_end]; by default eight samples per period of the
    fastest frequency, clipped to [800, 60000]."""
    if n_samples is None:
        n = int(t_end * _fast_scale(c, d, basis) * 8.0 / (2.0 * np.pi)) + 1
        n_samples = int(min(max(n, 800), 60000))
    return np.linspace(0.0, t_end, n_samples)


def evolve_nojump(psi0: np.ndarray, c: CouplingSet, d: DriveSpec,
                  t_end: float, rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL, decay: bool = True,
                  n_samples: int | None = None,
                  basis: CollectiveBasis | None = None) -> Trajectory:
    """Integrate i dpsi/dt = H_eff(t) psi with adaptive step control.

    With ``decay`` (the default) the generator is the conditional no-jump
    Hamiltonian and the squared norm tracks the no-emission probability;
    with ``decay=False`` only the coherent part evolves.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalised")
    _check_end(t_end)
    basis = basis if basis is not None else collective_eigenbasis(c)
    hs = static_hamiltonian(c, decay)
    tones = _tone_arrays(c, d)

    def rhs(t, y):
        out = hs @ y
        for a, ad, det in tones:
            ph = np.exp(-1j * det * t)
            out += ph * (a @ y) + np.conj(ph) * (ad @ y)
        return -1j * out

    times = _sample_times(c, d, basis, t_end, n_samples)
    sol = solve_ivp(rhs, (0.0, t_end), psi0, method="RK45",
                    rtol=rtol, atol=atol, t_eval=times)
    if not sol.success:
        raise IntegrationError(f"no-jump integration failed: {sol.message} "
                               f"(t reached {sol.t[-1] if len(sol.t) else 0.0:g} "
                               f"of {t_end:g})")
    states = sol.y.T
    norms = np.linalg.norm(states, axis=1)
    pops = np.abs(basis.left @ states.T).T ** 2
    return Trajectory(kind="nojump", times=times, states=states, norms=norms,
                      populations=pops, labels=basis.labels)


def evolve_lindblad(rho0: np.ndarray, c: CouplingSet, d: DriveSpec,
                    t_end: float, rtol: float = 1e-8,
                    atol: float = DEFAULT_ATOL,
                    n_samples: int | None = None,
                    basis: CollectiveBasis | None = None) -> Trajectory:
    """Integrate the master equation with the no-jump generator plus jump
    refilling.  The trace is preserved; Hermiticity is enforced on every
    sampled state."""
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-9:
        raise ValueError("initial density matrix must be Hermitian")
    if abs(np.trace(rho0).real - 1.0) > 1e-9:
        raise ValueError("initial density matrix must have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() < -1e-9:
        raise ValueError("initial density matrix must be positive semidefinite")
    _check_end(t_end)

    basis = basis if basis is not None else collective_eigenbasis(c)
    hs = static_hamiltonian(c)
    tones = _tone_arrays(c, d)
    jumps = [(j, j.conj().T) for j in jump_operators(c).operators]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        he = hs.copy()
        for a, ad, det in tones:
            ph = np.exp(-1j * det * t)
            he += ph * a + np.conj(ph) * ad
        drho = -1j * (he @ rho - rho @ he.conj().T)
        for j, jd in jumps:
            drho += j @ rho @ jd
        return drho.ravel()

    times = _sample_times(c, d, basis, t_end, n_samples)
    sol = solve_ivp(rhs, (0.0, t_end), rho0.ravel(), method="RK45",
                    rtol=rtol, atol=atol, t_eval=times)
    if not sol.success:
        raise IntegrationError(f"master-equation integration failed: {sol.message}")

    states = np.array([0.5 * (m + m.conj().T) for m in
                       sol.y.T.reshape(-1, dim, dim)])
    traces = np.einsum("kii->k", states).real
    pops = np.einsum("lk,tkm,ml->tl", basis.left, states,
                     basis.left.conj().T).real
    positivity = bool(min(np.linalg.eigvalsh(states[k]).min()
                          for k in range(0, len(states),
                                         max(1, len(states) // 32))) < -1e-7)
    return Trajectory(kind="lindblad", times=times, states=states,
                      norms=traces, populations=pops, labels=basis.labels,
                      positivity_warning=positivity,
                      trace_error=float(np.max(np.abs(traces - 1.0))))


def evolve_nojump_batch(psi0: np.ndarray, hs: np.ndarray,
                        tones: list[tuple[np.ndarray, np.ndarray]],
                        times: np.ndarray, rtol: float = 1e-7,
                        atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Integrate a stack of independent no-jump problems in one solver call.

    psi0 : (B, dim) initial states
    hs   : (B, dim, dim) static Hamiltonians
    tones: list of (A, detunings) with A of shape (B, dim, dim) and
           detunings of shape (B,)
    times: sample times from 0; the last one ends the integration
    Returns the sampled history (B, nt, dim).  Sharing one solver keeps the
    per-call overhead small for parameter scans; the step controller tracks
    the least forgiving member of the batch.
    """
    _check_end(times[-1])
    b, dim = psi0.shape
    tone_arrays = [(a, a.conj().transpose(0, 2, 1), det) for a, det in tones]

    def rhs(t, y):
        psi = y.reshape(b, dim)
        out = np.einsum("bij,bj->bi", hs, psi)
        for a, ad, det in tone_arrays:
            ph = np.exp(-1j * det * t)
            out += ph[:, None] * np.einsum("bij,bj->bi", a, psi)
            out += np.conj(ph)[:, None] * np.einsum("bij,bj->bi", ad, psi)
        return (-1j * out).ravel()

    sol = solve_ivp(rhs, (0.0, times[-1]), psi0.ravel().astype(complex),
                    method="RK45", rtol=rtol, atol=atol, t_eval=times)
    if not sol.success:
        raise IntegrationError(f"batched integration failed: {sol.message}")
    return sol.y.reshape(b, dim, -1).transpose(0, 2, 1)
