"""Time evolution engines: jump operators, and one tone-frame propagator
for the no-jump (conditional) state vector and for the full master
equation.

Dynamics run in the frame rotating at the carrier frequency; tone
frequencies are stored as detunings from the carrier in units of the
single-emitter decay rate.  The two-tone interference is kept exactly; no
secular approximation is made in the engine.

The drive-free Hamiltonian conserves the excitation number N, so in the
frame rotating at tone 1 the no-jump generator is G (+ e^{-i D t} A2 + h.c.
for a second tone at beat D = w2 - w1), G = H0 - w1 N + A1 + A1^dag, and
the state at time t is e^{-i w1 N t} phi(t) with i dphi/dt = G phi.  The
master equation has the same form for the row-major vectorised density
matrix: its static generator is H⊗1 - 1⊗H* + i sum_l J_l⊗J_l* (H the
no-jump Hamiltonian, J_l the jump operators), a tone contributes
A⊗1 - 1⊗A^T and its adjoint, and N⊗1 - 1⊗N takes the place of N.

Every run is a stack (an unbatched run is a one-row stack) and passes
through one dispatcher, ``_propagate``: it merges two tones at zero beat
into one of summed amplitude, makes the stronger tone tone 1, builds G
and picks the engine.  The exact engine diagonalises the Sambe matrix
(Shirley, Phys. Rev. 138, B979 (1965); Sambe, Phys. Rev. A 7, 2203
(1973)), G - q D on the diagonal for |q| <= K and A2, A2^dag beside it,
with one eigh (eig if G is not Hermitian); under one tone K = 0 and the
Sambe matrix is G itself.  Each Floquet state's copy centred nearest
q = 0 is kept, under two tones its harmonics +-(K+1) are added to first
order, and psi(t) = e^{-i w1 N t} sum_k e^{-i e_k t} a_k sum_q
e^{-i q D t} phi_{k,q}.  K starts from the bound min(1, (2r)^q / q!) on
harmonic q, r = |A2| / |D|, stopped near r/2 + 12, and grows by a
quarter until the edge amplitude, the state's or
sum_k |a_k| |phi_{k,+-(K+1)}|, is <= ``_TAIL_LIMIT``; ill-conditioned or
inexact eigenvectors (``_cond``) step the Sambe state with expm.  DOP853
integrates only two tones whose beat period spans the window, where K
would grow as r without bound, and one-tone batches.  A batch may ask for
the overlaps <row|psi(t)> with a few rows instead of the states: the exact
engine then projects the modes (after the tail check) and samples only
the projections; the other paths project the sampled states.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .coupling import GAMMA, PSD_TOLERANCE, CouplingSet
from .hilbert import (CONDITION_LIMIT, CollectiveBasis, collective_eigenbasis,
                      drive_operator, excitation_numbers, lowering_operators,
                      static_hamiltonian)

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12

# Largest amplitude a Floquet propagation may leave in its edge harmonics
# (the states err by up to a few times as much), and the tolerance that
# makes unbatched two-tone runs that integrate err about as little.
_TAIL_LIMIT = 1e-9
_WINDOW_RTOL = 1e-10

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
        object.__setattr__(self, "phases",
                           np.atleast_1d(np.asarray(self.phases, dtype=float)))
        for name in ("rabi", "detuning", "phases"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"tone {name} must be finite")
        if self.rabi < 0:
            raise ValueError("rabi amplitude must be nonnegative")


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
    if not 0 < t_end < math.inf:
        raise ValueError(
            f"end time must be positive and finite, got {t_end:g}")


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
    elif n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    return np.linspace(0.0, t_end, n_samples)


def _stepped(gen: np.ndarray, psi0: np.ndarray, times: np.ndarray,
             cond: float):
    """States e^{-i gen t} psi0 (B, dim) of a stack at each time of the even
    grid ``times``, stepped from its first time with expm(-i gen dt)
    because gen's eigenvectors have condition number ``cond``."""
    _log.warning("Sambe eigenvectors ill-conditioned (cond %.3g > %.3g); "
                 "stepping instead", cond, CONDITION_LIMIT)
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    u = expm(-1j * dt * gen)
    psi = np.einsum("bij,bj->bi", expm(-1j * times[0] * gen), psi0)
    for _ in times:
        yield psi
        psi = np.einsum("bij,bj->bi", u, psi)


def _observed(states: np.ndarray, observe: np.ndarray | None) -> np.ndarray:
    """Sampled ``states`` (B, nt, dim), or their overlaps <row|psi(t)>
    (B, nt, m) with the rows ``observe`` (B, m, dim) if it is given."""
    return (states if observe is None
            else np.einsum("bmi,bti->btm", observe.conj(), states))


def _cond(basis: np.ndarray, eig: tuple | None = None) -> float:
    """Largest condition number of the stack ``basis``; given eig's
    (h, vals, vecs), times the largest entry of the residual h v - e v of
    the unit eigenpairs over h's largest entry, in rounding units, at least
    1 (eig errs near degeneracies; eigh's vectors are unitary to rounding)."""
    cond = float(np.max(np.linalg.cond(basis)))
    if eig is None:
        return cond
    h, vals, vecs = eig
    res = np.abs(h @ vecs - vecs * vals[:, None]).max() / np.abs(h).max()
    return cond * max(1.0, res / np.finfo(float).eps)


def _grid_phases(freqs: np.ndarray, times: np.ndarray) -> tuple:
    """Factors (..., A, W) and (..., J, W) of e^{-i f t} for ``freqs``
    (..., W) on the even grid ``times``: sample J a + c is the product of
    row a of the first and row c of the second, J about sqrt(nt)."""
    nt = len(times)
    dt = (times[-1] - times[0]) / max(nt - 1, 1)
    span = math.isqrt(nt - 1) + 1
    f = np.asarray(freqs)[..., None, :]
    coarse = times[0] + span * dt * np.arange(-(-nt // span))
    return (np.exp(-1j * f * coarse[:, None]),
            np.exp(-1j * f * (dt * np.arange(span))[:, None]))


def _sambe(static: np.ndarray, a2: np.ndarray, delta: float,
           k: int) -> np.ndarray:
    """Sambe matrices (B, (2k+1) dim, (2k+1) dim): static - q delta on the
    diagonal for q = -k..k, a2 below it and a2^dag above it."""
    (b, dim, _), n = static.shape, 2 * k + 1
    h = np.zeros((b, n, dim, n, dim), dtype=np.result_type(static, a2))
    for i in range(n):
        h[:, i, :, i] = static - (i - k) * delta * np.eye(dim)
        if i:
            h[:, i, :, i - 1] = a2
            h[:, i - 1, :, i] = a2.conj().transpose(0, 2, 1)
    return h.reshape(b, n * dim, n * dim)


def _evolve_exact(psi0: np.ndarray, gen: np.ndarray, mod: tuple | None,
                  times: np.ndarray, frame: np.ndarray, k: int | None = None,
                  observe: np.ndarray | None = None) -> np.ndarray:
    """States (B, nt, dim) of a stack from the eigenmodes of its Sambe
    matrix (see the module docstring): ``gen`` the frame generators
    (B, dim, dim), ``mod`` the modulated tone (A2, D) or None (then K = 0),
    ``frame`` the frame frequencies (B, dim), and a K to start from instead
    of the a-priori one; given ``observe``, see ``_observed``."""
    if np.max(np.abs(np.diff(times, 2)), initial=0) > 1e-9 * times[-1]:
        raise ValueError("exact propagation needs an even sample grid")
    (b, dim), eye = psi0.shape, np.eye(psi0.shape[1])
    a2, delta = mod or (np.zeros_like(gen), 0.0)
    edge = int(mod is not None)  # harmonics +-(K+1), added to first order
    if k is None:  # the bound overestimates
        r = edge and np.max(np.linalg.norm(a2, 2, axis=(1, 2))) / abs(delta)
        k, term = -1, 1.0
        while term > 10 * _TAIL_LIMIT and k < r / 2 + 12:
            k += 1
            term = min(1.0, term * 2.0 * r / (k + 1))
    hermitian = np.array_equal(gen, gen.conj().transpose(0, 2, 1))
    while True:
        h = _sambe(gen, a2, delta, k)
        quasi, vecs = (np.linalg.eigh if hermitian else np.linalg.eig)(h)
        # Per member, the dim modes whose weight is centred nearest q = 0.
        vecs = vecs.reshape(b, 2 * k + 1, dim, -1)
        centre = np.arange(-k, k + 1) @ np.sum(np.abs(vecs) ** 2, axis=2)
        keep = np.argsort(np.abs(centre), axis=1, kind="stable")[:, :dim]
        quasi = np.take_along_axis(quasi, keep, axis=1)
        modes = vecs = np.take_along_axis(vecs, keep[:, None, None, :], axis=3)
        if edge:
            # (e - G +- (K+1) D) u_{+-(K+1)} = A2 u_K or A2^dag u_{-K}.
            edges = [np.linalg.solve(
                quasi[:, :, None, None] * eye - gen[:, None]
                + sign * (k + 1) * delta * eye,
                (op @ inner).transpose(0, 2, 1)[..., None])[..., 0]
                .transpose(0, 2, 1)
                for sign, op, inner in ((-1, a2.conj().transpose(0, 2, 1),
                                         vecs[:, 0]), (1, a2, vecs[:, -1]))]
            modes = np.concatenate([edges[0][:, None], vecs,
                                    edges[1][:, None]], axis=1)
        start, n = modes.sum(axis=1), k + edge
        cond = _cond(start, None if hermitian
                     else (h, quasi, vecs.reshape(b, -1, dim)))
        tail = 0.0
        if cond > CONDITION_LIMIT:
            # The Sambe state itself, stepped from psi0 at q = 0.
            q, phi = np.arange(-n, n + 1), []
            psi = np.pad(psi0[:, None].astype(complex),
                         ((0, 0), (n, n), (0, 0))).reshape(b, -1)
            for t, state in zip(times, _stepped(_sambe(gen, a2, delta, n),
                                                psi, times, cond)):
                state = state.reshape(b, -1, dim)
                if edge:
                    tail = max(tail, float(np.max(np.linalg.norm(
                        state[:, [0, -1]], axis=2))))
                phi.append(np.exp(-1j * delta * t * q) @ state)
        else:
            coef = np.linalg.solve(start, psi0[:, :, None])[:, :, 0]
            if edge:
                tail = float(np.max(np.sum(np.abs(coef) * np.linalg.norm(
                    modes[:, [0, -1]], axis=(1, 2)), axis=1)))
        if tail <= _TAIL_LIMIT:
            break
        k += max(2, k // 4)
    if cond <= CONDITION_LIMIT and observe is not None:
        # One piece of each row per frame frequency (phase) it touches, below
        # 1e-12 of its largest entry counting as round-off: the modes'
        # overlaps with the pieces are sampled, then summed per row.
        freqs, sector = np.unique(frame, axis=1, return_inverse=True)
        big = np.abs(observe) > 1e-12 * np.abs(observe).max(2, keepdims=True)
        used = np.unique(sector[np.any(big, axis=(0, 1))])
        pieces = observe.conj()[:, :, None] * (sector == used[:, None])
        modes = np.einsum("bqjk,brj->bqrk", modes, pieces.reshape(b, -1, dim))
        frame = np.tile(freqs[:, used], (1, observe.shape[1]))
    _log.debug("exact (%s): %d members, %d samples, dim %d, K %d, "
               "tail %.3g, eigenvector cond %.3g, sampled %d of %d",
               "expm steps" if cond > CONDITION_LIMIT else "eigh" if hermitian
               else "eig", b, len(times), h.shape[1], k, tail, cond,
               modes.shape[2], dim)
    if cond > CONDITION_LIMIT:
        return _observed(np.stack(phi, axis=1) * np.exp(
            -1j * frame[:, None] * times[:, None]), observe)
    # Phases split into coarse and fine grid factors, so that the sum over
    # (k, q) of e^{-i (e_k + q D) t} a_k phi_{k,q} is one product.
    (ce, fe), (cq, fq), (cf, ff) = (_grid_phases(f, times) for f in (
        quasi, delta * np.arange(-n, n + 1), frame))
    width = modes.shape[2]
    coarse = ((ce[..., None] * cq[:, None])[..., None] * (
        coef[:, :, None, None] * modes.transpose(0, 3, 1, 2))[:, None])
    fine = (fe[..., None] * fq[:, None]).reshape(b, len(fq), -1)
    phi = fine @ coarse.transpose(0, 2, 3, 1, 4).reshape(
        b, fine.shape[2], len(cq) * width)
    phi = phi.reshape(b, len(fq), len(cq), width) * ff[:, :, None] * cf[:, None]
    phi = phi.swapaxes(1, 2).reshape(b, len(fq) * len(cq), width)[
        :, :len(times)]
    return phi if observe is None else phi.reshape(
        b, len(times), observe.shape[1], len(used)).sum(axis=3)


def _evolve_integrated(psi0: np.ndarray, gen: np.ndarray, mod: tuple | None,
                       times: np.ndarray, rtol: float) -> np.ndarray:
    """States (B, nt, dim) of a stack integrated with DOP853 from 0 at
    relative tolerance ``rtol``, before the frame factor; other arguments
    as for ``_evolve_exact``."""
    b, dim = psi0.shape
    gen = -1j * gen
    terms = [] if mod is None else [
        (-1j * mod[0], -1j * mod[0].conj().transpose(0, 2, 1), mod[1])]

    def rhs(t, y):
        g = gen
        for up, down, delta in terms:
            g = (g + np.exp(-1j * delta * t) * up
                 + np.exp(1j * delta * t) * down)
        return (g @ y.reshape(b, dim, 1)).ravel()

    sol = solve_ivp(rhs, (0.0, float(times[-1])),
                    psi0.astype(complex).ravel(), method="DOP853",
                    t_eval=times, atol=DEFAULT_ATOL, rtol=rtol)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    _log.debug("DOP853: %d members, %d tones, nfev %d", b, 1 + len(terms),
               sol.nfev)
    return sol.y.reshape(b, dim, -1).transpose(0, 2, 1)


def _beat(tones: list) -> tuple:
    """A stack's tones, the stronger first, and the beat from the first to
    the second, which all members share; two tones at zero beat become one
    tone of summed amplitude, at beat 0."""
    if len(tones) < 2:
        return tones, 0.0
    beats = tones[1][1] - tones[0][1]
    delta = float(beats[0])
    if np.max(np.abs(beats - delta)) > 1e-10 * np.max(np.abs(beats)):
        raise ValueError("batch members must share the beat between the "
                         "two tones")
    if not delta:
        return [(tones[0][0] + tones[1][0], tones[0][1])], 0.0
    norms = [np.max(np.linalg.norm(a, 2, axis=(1, 2))) for a, _ in tones]
    return (tones, delta) if norms[0] >= norms[1] else (tones[::-1], -delta)


def _propagate(psi0: np.ndarray, hs: np.ndarray, tones: list,
               times: np.ndarray, number: np.ndarray,
               rtol: float | None = None,
               observe: np.ndarray | None = None) -> np.ndarray:
    """States (B, nt, dim) of i dy/dt = G(t) y for a stack, G being ``hs``
    (which conserves the diagonal ``number``) plus e^{-i w t} A + h.c. for
    each tone (A, w) in ``tones``, in the frame of the stronger tone (see
    the module docstring; given ``observe``, see ``_observed``); ``rtol``
    is a batch's tolerance, None for an unbatched run."""
    tones, delta = _beat(tones)
    (a1, det1), *rest = tones or [(np.zeros_like(hs), np.zeros(len(hs)))]
    gen = (hs + a1 + a1.conj().transpose(0, 2, 1)
           - det1[:, None, None] * np.diag(number))
    mod = (rest[0][0], delta) if rest else None
    if abs(delta) * times[-1] > 2.0 * np.pi or (rtol is None and not delta):
        return _evolve_exact(psi0, gen, mod, times, det1[:, None] * number,
                             observe=observe)
    # DOP853 takes two tones whose beat period spans the window, where the
    # truncation would grow as |A2| / |D| without bound, and one-tone
    # batches: those stay integrated while perfbench's span test
    # (perfbench/tests/test_perfbench.py) counts the solver work of the
    # prep-disorder sweep, whose one-tone batch is its only solver call.
    states = _evolve_integrated(psi0, gen, mod, times,
                                _WINDOW_RTOL if rtol is None else rtol)
    return _observed(np.exp(-1j * det1[:, None, None] * times[None, :, None]
                            * number) * states, observe)


def evolve_nojump(psi0: np.ndarray, c: CouplingSet, d: DriveSpec,
                  t_end: float, decay: bool = True,
                  n_samples: int | None = None,
                  basis: CollectiveBasis | None = None) -> Trajectory:
    """Evolve i dpsi/dt = H_eff(t) psi on an even grid of ``n_samples``
    (at least 2) times over [0, t_end]: exactly, or integrated at
    ``_WINDOW_RTOL`` under two tones whose beat period spans the window
    (see the module docstring).

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
    tones = [(a[None], np.array([det])) for a, det in _tone_arrays(c, d)]
    times = _sample_times(c, d, basis, t_end, n_samples)
    states = _propagate(psi0[None], static_hamiltonian(c, decay)[None],
                        tones, times, excitation_numbers(c.n))[0]
    norms = np.linalg.norm(states, axis=1)
    pops = np.abs(basis.left @ states.T).T ** 2
    return Trajectory(kind="nojump", times=times, states=states, norms=norms,
                      populations=pops, labels=basis.labels)


def evolve_lindblad(rho0: np.ndarray, c: CouplingSet, d: DriveSpec,
                    t_end: float) -> Trajectory:
    """Evolve the master equation (no-jump generator plus jump refilling)
    through the propagator of ``evolve_nojump``, as a vectorised density
    matrix (see the module docstring).  Hermiticity is enforced on every
    sampled state."""
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
    tones = [((np.kron(a, eye) - np.kron(eye, a.T))[None], np.array([det]))
             for a, det in _tone_arrays(c, d)]
    number = excitation_numbers(c.n)
    times = _sample_times(c, d, basis, t_end, None)
    states = _propagate(rho0.ravel()[None], static[None], tones, times,
                        np.subtract.outer(number, number).ravel()
                        )[0].reshape(-1, dim, dim)
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    traces = np.einsum("kii->k", states).real
    pops = np.einsum("lk,tkm,ml->tl", basis.left, states,
                     basis.left.conj().T).real
    # Every stride-th sampled state and the final one.
    checked = states[np.r_[0:len(states):max(1, len(states) // 32), -1]]
    positivity = bool(np.linalg.eigvalsh(checked).min() < -1e-7)
    return Trajectory(kind="lindblad", times=times, states=states,
                      norms=traces, populations=pops, labels=basis.labels,
                      positivity_warning=positivity,
                      trace_error=float(np.max(np.abs(traces - 1.0))))


def evolve_nojump_batch(psi0: np.ndarray, hs: np.ndarray,
                        tones: list[tuple[np.ndarray, np.ndarray]],
                        times: np.ndarray, rtol: float = DEFAULT_RTOL,
                        observe: np.ndarray | None = None) -> np.ndarray:
    """Propagate a stack of independent no-jump problems in one call.

    psi0   : (B, dim) initial states
    hs     : (B, dim, dim) static Hamiltonians
    tones  : one or two (A, detunings), A of shape (B, dim, dim) and
             detunings of shape (B,)
    times  : ascending sample times, an even grid under two tones
    observe: optional rows (B, m, dim)
    Returns the sampled history (B, nt, dim), or only its overlaps
    <row|psi(t)> (B, nt, m) with ``observe``; all members share their beat.
    Two tones over more than one beat period are exact (see the module
    docstring) and sample the Floquet modes' overlaps with the rows; one
    tone, or two whose beat period spans the window, is integrated with
    DOP853 from 0 at relative tolerance ``rtol`` on the RMS error of the
    whole stack, so one member can err more than ``rtol`` alone would allow.
    """
    _check_end(times[-1])
    return _propagate(psi0, hs, tones, times, excitation_numbers(
        psi0.shape[1].bit_length() - 1), rtol, observe)
