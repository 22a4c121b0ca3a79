"""Time evolution engines: jump operators, and one tone-frame propagator
for the no-jump (conditional) state vector and for the full master
equation.

Dynamics run in the frame rotating at the carrier frequency; tone
frequencies are stored as detunings from the carrier in units of the
single-emitter decay rate.  The two-tone interference is kept exactly; no
secular approximation is made in the engine.

The drive-free Hamiltonian conserves the excitation number N, so in the
frame rotating at tone 1 the no-jump generator is
G = H0 - w1 N + A1 + A1^dag (+ e^{-i D t} A2 + h.c. for a second tone at
beat D = w2 - w1), and the state at time t is e^{-i w1 N t} phi(t) with
i dphi/dt = G phi.  The master equation has the same form for the
row-major vectorised density matrix: its static generator is
H⊗1 - 1⊗H* + i sum_l J_l⊗J_l* (H the no-jump Hamiltonian, J_l the jump
operators), a tone contributes S = A⊗1 - 1⊗A^T and its adjoint S^dag,
and N⊗1 - 1⊗N takes the place of N (``_propagate`` serves both).

Under one tone or none, G is constant and an unbatched propagation is
exact: from one eigendecomposition G = V Lambda V^-1 the state is
e^{-i w1 N t} V e^{-i Lambda t} V^-1 psi0 at every sample, no integrator
and no tolerance involved.  When V is ill-conditioned the state is stepped
along the even sample grid t_k = k dt instead, as U(dt)^k psi0 with
U(dt) = expm(-i G dt).  Everything else, two-tone runs and batches, is
integrated with DOP853 at tolerance ``rtol``.  A two-tone G is periodic
with the beat (Floquet propagation): the propagator U(s) over one period
T = 2 pi/|D| is integrated once (at ``rtol`` divided by the number of
periods), and the state at t = n T + s is e^{-i w1 N t} U(s) U(T)^n psi0.
U(T)^n psi0 is formed once per distinct n from the eigendecomposition of
U(T), or stepped one period at a time when its eigenvectors are
ill-conditioned.  On each solver step, DOP853's dense output U(s) is a
degree-7 polynomial in the step fraction: a step holding more than 8
samples is evaluated at 8 Chebyshev nodes only, and each sample is the
Lagrange combination of the node propagators applied to its period power;
a step holding 8 or fewer is evaluated at its samples.  One-tone batches, and
two tones with no beat or a period no shorter than the window, integrate
the initial states over the window itself in one span; the solver samples
that span at the requested times and keeps no interpolant.  The frame
factor is evaluated once per distinct excitation number.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .coupling import GAMMA, PSD_TOLERANCE, CouplingSet
from .hilbert import (CONDITION_LIMIT, CollectiveBasis, collective_eigenbasis,
                      drive_operator, excitation_numbers, lowering_operators,
                      static_hamiltonian)

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12

# Floor of the per-period tolerance of two-tone propagation.
PERIOD_RTOL_FLOOR = 1e-13

# DOP853's dense output is a degree-7 polynomial in the step fraction, so
# its values at these 8 Chebyshev nodes of a step fix it on the whole step.
_NODES = 0.5 - 0.5 * np.cos(np.pi * (np.arange(8) + 0.5) / 8)

_log = logging.getLogger("dfsim.dynamics")


# scipy is imported on first use: runs under at most one tone never load it.
def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``."""
    from scipy.integrate import solve_ivp as solve
    return solve(*args, **kwargs)


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``."""
    from scipy.linalg import expm as exponential
    return exponential(a)


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
    """At most two tones driving all emitters simultaneously."""

    tones: tuple[Tone, ...]

    def __post_init__(self):
        if len(self.tones) > 2:
            raise ValueError("a drive has at most two tones")

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
    if w.min() < -PSD_TOLERANCE * GAMMA:
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
    """(A, detuning) per tone, A the raising drive at the tone's
    amplitude."""
    out = []
    for tone in d.tones:
        if len(tone.phases) != c.n:
            raise ValueError("tone phase list does not match emitter count")
        out.append((tone.rabi * drive_operator(tone.phases), tone.detuning))
    return out


def _check_end(t_end: float) -> None:
    if not t_end > 0:
        raise ValueError(f"end time must be positive, got {t_end:g}")


def _sample_times(c: CouplingSet, d: DriveSpec, basis: CollectiveBasis,
                  t_end: float, n_samples: int | None) -> np.ndarray:
    """Even grid on [0, t_end]; by default eight samples per period of the
    fastest frequency, clipped to [800, 60000]."""
    if n_samples is None:
        scale = float(np.max(np.abs(basis.energies))) if basis.dim else 1.0
        for tone in d.tones:
            scale += abs(tone.detuning) + 2.0 * tone.rabi * np.sqrt(c.n)
        n = int(t_end * max(scale, 1.0) * 8.0 / (2.0 * np.pi)) + 1
        n_samples = int(min(max(n, 800), 60000))
    return np.linspace(0.0, t_end, n_samples)


def _conditioned_eig(m: np.ndarray, psi0: np.ndarray, what: str):
    """Eigenvalues (B, dim), eigenvectors (B, dim, dim), the coefficients
    (B, dim, 1) of ``psi0`` in them and the largest eigenvector condition
    number of a stack of matrices, or None (with a warning) when that
    condition number exceeds ``CONDITION_LIMIT``."""
    lam, vecs = np.linalg.eig(m)
    cond = float(np.max(np.linalg.cond(vecs)))
    if cond > CONDITION_LIMIT:
        _log.warning("%s eigenvectors ill-conditioned (cond %.3g > %.3g); "
                     "stepping instead", what, cond, CONDITION_LIMIT)
        return None
    return lam, vecs, np.linalg.solve(vecs, psi0[:, :, None]), cond


def _stepped_powers(u: np.ndarray, psi0: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    """States U^n psi0 (B, dim, m) for ascending distinct counts n (m,),
    applying U one step at a time."""
    table = np.empty(psi0.shape + (len(counts),), dtype=complex)
    psi, done = psi0, 0
    for k, n in enumerate(counts):
        for _ in range(n - done):
            psi = np.einsum("bij,bj->bi", u, psi)
        table[:, :, k], done = psi, n
    return table


def _period_powers(u_t: np.ndarray, psi0: np.ndarray, counts: np.ndarray):
    """States U(T)^n psi0 (B, dim, m) for ascending distinct period counts
    n (m,).  Powers come from the eigendecomposition of U(T); with an
    ill-conditioned eigenvector matrix the states are stepped one period
    at a time instead."""
    eig = _conditioned_eig(u_t, psi0, "period propagator")
    if eig is None:
        return _stepped_powers(u_t, psi0, counts)
    lam, vecs, coef, _ = eig
    return vecs @ (np.exp(np.log(lam)[:, :, None] * counts) * coef)


def _node_weights(x: np.ndarray) -> np.ndarray:
    """Lagrange weights (8, m) of ``_NODES`` at step fractions x (m,)."""
    gap = _NODES[:, None] - _NODES + np.eye(8)
    fac = (x - _NODES[:, None]) / gap[:, :, None]
    fac[np.arange(8), np.arange(8)] = 1.0
    return fac.prod(axis=1)


def _evolve_integrated(psi0: np.ndarray, hs: np.ndarray,
                       tones: list[tuple[np.ndarray, np.ndarray]],
                       times: np.ndarray, number: np.ndarray,
                       rtol: float) -> np.ndarray:
    """Sampled states (B, nt, dim) of a stack of one- or two-tone problems,
    integrated with DOP853 in the frame of the first tone (see the module
    docstring).  Arguments as for ``evolve_nojump_batch``, plus the number
    diagonal."""
    (a1, det1), *second = tones
    b, dim = psi0.shape
    psi0 = psi0.astype(complex)
    t_end = float(times[-1])
    # The factor -i of the equation is taken into every generator term
    # once per solve, so that each right-hand side is a single matmul.
    static = -1j * (hs + a1 + a1.conj().transpose(0, 2, 1)
                    - det1[:, None, None] * np.diag(number))
    delta = 0.0
    if second:
        (a2, det2), = second
        beats = det2 - det1
        delta = float(beats[0])
        if np.max(np.abs(beats - delta)) > 1e-10 * np.max(np.abs(beats)):
            raise ValueError("batch members must share the beat between the "
                             "two tones")
        a2, a2d = -1j * a2, -1j * a2.conj().transpose(0, 2, 1)
    period = 2.0 * np.pi / abs(delta) if delta else np.inf
    n_periods = int(np.ceil(t_end / period)) if period < t_end else 1
    span = period if n_periods > 1 else t_end
    y0 = (np.broadcast_to(np.eye(dim, dtype=complex), (b, dim, dim))
          if n_periods > 1 else psi0[:, :, None])
    cols = y0.shape[2]

    def rhs(t, y):
        gen = static
        if second:
            ph = np.exp(-1j * delta * t)
            gen = static + ph * a2 + np.conj(ph) * a2d
        return (gen @ y.reshape(b, dim, cols)).ravel()

    sol = solve_ivp(rhs, (0.0, span), y0.ravel(), method="DOP853",
                    t_eval=None if n_periods > 1 else times,
                    dense_output=n_periods > 1, atol=DEFAULT_ATOL,
                    rtol=max(rtol / n_periods, PERIOD_RTOL_FLOOR))
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    _log.debug("DOP853: %d members, %d periods, nfev %d", b, n_periods,
               sol.nfev)
    levels, lev = np.unique(number, return_inverse=True)

    def frame(t):
        return np.exp(-1j * det1[:, None, None] * t[None, :, None]
                      * levels)[:, :, lev]

    if n_periods == 1:
        return frame(times) * sol.y.reshape(b, dim, -1).transpose(0, 2, 1)
    counts = np.minimum(np.floor(times / span), n_periods - 1).astype(int)
    phase_in_period = times - counts * span
    needed, which = np.unique(counts, return_inverse=True)
    powers = _period_powers(sol.y[:, -1].reshape(b, dim, dim), psi0, needed)
    step = np.clip(np.searchsorted(sol.t, phase_in_period) - 1, 0,
                   len(sol.t) - 2)
    order = np.argsort(step, kind="stable")
    out = np.empty((b, len(times), dim), dtype=complex)
    for idx in np.split(order, np.flatnonzero(np.diff(step[order])) + 1):
        p, x = powers[:, :, which[idx]], phase_in_period[idx]
        if len(idx) > len(_NODES):
            t0, t1 = sol.t[step[idx[0]]:step[idx[0]] + 2]
            u_n = sol.sol(t0 + (t1 - t0) * _NODES).T.reshape(-1, b, dim, dim)
            weights = _node_weights((x - t0) / (t1 - t0))
            psi = sum(u @ (w * p) for u, w in zip(u_n, weights))
        else:
            u_s = sol.sol(x).reshape(b, dim, dim, len(idx))
            psi = np.einsum("bijm,bjm->bim", u_s, p)
        out[:, idx] = frame(times[idx]) * psi.transpose(0, 2, 1)
    return out


def _evolve_one_tone(psi0: np.ndarray, hs: np.ndarray, tones: list,
                     times: np.ndarray, number: np.ndarray) -> np.ndarray:
    """Sampled states (nt, dim) of a problem under at most one tone,
    propagated exactly in the tone frame from the eigendecomposition of its
    constant generator G (see the module docstring).

    With ill-conditioned eigenvectors ``times`` must be an even grid from
    0: the state at t_k = k dt is then stepped as U(dt)^k psi0 with
    U(dt) = expm(-i G dt).
    """
    det = tones[0][1] if tones else 0.0
    gen = hs - det * np.diag(number) + sum(a + a.conj().T for a, _ in tones)
    eig = _conditioned_eig(gen[None], psi0[None], "generator")
    if eig is None:
        step = times[1] if len(times) > 1 else 0.0
        phi = _stepped_powers(expm(-1j * step * gen)[None], psi0[None],
                              np.arange(len(times)))[0]
        _log.debug("one-tone expm steps: dim %d, %d samples", len(gen),
                   len(times))
    else:
        lam, vecs, coef, cond = eig
        phi = vecs[0] @ (np.exp(-1j * np.outer(lam[0], times)) * coef[0])
        _log.debug("one-tone eig: dim %d, %d samples, eigenvector cond %.3g",
                   len(gen), len(times), cond)
    return np.exp(-1j * det * np.outer(times, number)) * phi.T


def _propagate(y0: np.ndarray, static: np.ndarray, tones: list,
               number: np.ndarray, times: np.ndarray,
               rtol: float) -> np.ndarray:
    """Sampled states (nt, dim) of i dy/dt = G(t) y from ``y0``, G being
    ``static`` plus e^{-i w t} A + h.c. for each tone (A, w) in ``tones``,
    with ``number`` the diagonal ``static`` conserves (see the module
    docstring)."""
    if len(tones) == 2:
        return _evolve_integrated(
            y0[None], static[None],
            [(a[None], np.array([det])) for a, det in tones],
            times, number, rtol)[0]
    return _evolve_one_tone(y0, static, tones, times, number)


def evolve_nojump(psi0: np.ndarray, c: CouplingSet, d: DriveSpec,
                  t_end: float, rtol: float = DEFAULT_RTOL,
                  decay: bool = True, n_samples: int | None = None,
                  basis: CollectiveBasis | None = None) -> Trajectory:
    """Evolve i dpsi/dt = H_eff(t) psi on an even grid of ``n_samples``
    times over [0, t_end]: exactly in the tone frame for at most one tone,
    through one integrated beat period for two tones (see the module
    docstring).  ``rtol`` applies to the two-tone period integration
    only.

    With ``decay`` (the default) the generator is the conditional no-jump
    Hamiltonian and the squared norm tracks the no-emission probability;
    with ``decay=False`` only the coherent part evolves.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2**c.n,):
        raise ValueError(f"psi0 has shape {psi0.shape}, but the coupling set "
                         f"needs {(2**c.n,)}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalised")
    _check_end(t_end)
    basis = basis if basis is not None else collective_eigenbasis(c)
    hs = static_hamiltonian(c, decay)
    tones = _tone_arrays(c, d)
    times = _sample_times(c, d, basis, t_end, n_samples)
    states = _propagate(psi0, hs, tones, excitation_numbers(c.n), times, rtol)
    norms = np.linalg.norm(states, axis=1)
    pops = np.abs(basis.left @ states.T).T ** 2
    return Trajectory(kind="nojump", times=times, states=states, norms=norms,
                      populations=pops, labels=basis.labels)


def evolve_lindblad(rho0: np.ndarray, c: CouplingSet, d: DriveSpec,
                    t_end: float, rtol: float = DEFAULT_RTOL) -> Trajectory:
    """Evolve the master equation (no-jump generator plus jump refilling)
    through the propagator of ``evolve_nojump``, as a vectorised density
    matrix (see the module docstring); ``rtol`` applies to two tones
    only.  Hermiticity is enforced on every sampled state."""
    rho0 = np.asarray(rho0, dtype=complex)
    dim = 2**c.n
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 has shape {rho0.shape}, but the coupling set "
                         f"needs {(dim, dim)}")
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-9:
        raise ValueError("initial density matrix must be Hermitian")
    if abs(np.trace(rho0).real - 1.0) > 1e-9:
        raise ValueError("initial density matrix must have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() < -1e-9:
        raise ValueError("initial density matrix must be positive semidefinite")
    _check_end(t_end)

    basis = collective_eigenbasis(c)
    hs = static_hamiltonian(c)
    eye = np.eye(dim)
    static = (np.kron(hs, eye) - np.kron(eye, hs.conj())
              + 1j * sum(np.kron(j, j.conj())
                         for j in jump_operators(c).operators))
    tones = [(np.kron(a, eye) - np.kron(eye, a.T), det)
             for a, det in _tone_arrays(c, d)]
    number = excitation_numbers(c.n)
    times = _sample_times(c, d, basis, t_end, None)
    states = _propagate(rho0.ravel(), static, tones,
                        np.subtract.outer(number, number).ravel(), times,
                        rtol).reshape(-1, dim, dim)
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
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
                        times: np.ndarray,
                        rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Integrate a stack of independent no-jump problems in one solver call.

    psi0 : (B, dim) initial states
    hs   : (B, dim, dim) static Hamiltonians
    tones: one or two (A, detunings), A of shape (B, dim, dim) and
           detunings of shape (B,)
    times: strictly ascending sample times; the integration runs from 0
           to the last of them
    Returns the sampled history (B, nt, dim).  Sharing one solver keeps the
    per-call overhead small for parameter scans.  Every member is
    integrated with DOP853 in the frame of its first tone, at relative
    tolerance ``rtol``; two tones go through one beat period, which all
    members must share (see the module docstring).  The step controller
    bounds the RMS of the scaled local error over the whole stacked state
    (B dim entries, B dim^2 for a beat-period propagator), so one member's
    error enters with weight 1/sqrt(entries): a member can err more than
    ``rtol`` alone would allow, and a member with faster dynamics shortens
    every member's steps.
    """
    _check_end(times[-1])
    n = psi0.shape[1].bit_length() - 1
    return _evolve_integrated(psi0, hs, tones, times, excitation_numbers(n),
                              rtol)
