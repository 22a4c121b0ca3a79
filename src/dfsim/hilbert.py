"""Computational and collective bases for small emitter arrays.

Product-basis amplitudes are ordered |0...0> to |1...1> with qubit 1 as the
leftmost (most significant) label.  Collective levels are labelled
'a', 'b', ... in order of increasing energy, grouping by excitation number
first because the carrier frequency dominates the physical energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import CouplingSet

LABELS = "abcdefghijklmnop"

# Levels whose real energies differ by less than this (relative to the
# spectral scale) are treated as degenerate and aligned to reference states.
DEGENERACY_TOLERANCE = 1e-8

CONDITION_LIMIT = 1e8


@lru_cache(maxsize=None)
def lowering_operators(n: int) -> tuple[np.ndarray, ...]:
    """Single-emitter lowering operators embedded in the n-qubit space."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    ops = []
    for q in range(n):
        out = np.array([[1.0]], dtype=complex)
        for k in range(n):
            out = np.kron(out, sm if k == q else eye)
        ops.append(out)
    return tuple(ops)


def raising_operators(n: int) -> tuple[np.ndarray, ...]:
    return tuple(op.conj().T for op in lowering_operators(n))


def excitation_numbers(n: int) -> np.ndarray:
    """Excitation count of each computational basis state."""
    return np.array([bin(i).count("1") for i in range(2**n)])


def ground_state(n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return psi


def static_hamiltonian(c: CouplingSet, decay: bool = True) -> np.ndarray:
    """Drive-free effective Hamiltonian in the rotating frame,
    sum_ij (delta - i gammas/2)_ij sigma_i^+ sigma_j^-: coherent pair hopping
    plus, with ``decay``, the anti-Hermitian damping terms (the diagonal of
    ``gammas`` gives each emitter's own decay).  Without ``decay`` only the
    coherent part remains."""
    return _hamiltonians(c.delta - 0.5j * c.gammas if decay else c.delta)


def _hamiltonians(coeff: np.ndarray) -> np.ndarray:
    """sum_ij coeff_ij sigma_i^+ sigma_j^- for an (n, n) coefficient matrix
    or a (B, n, n) stack of them, summed in (i, j) order either way."""
    n = coeff.shape[-1]
    terms = coeff[..., None, None] * _hopping(n)
    h = np.zeros(coeff.shape[:-2] + (2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(n):
            h += terms[..., i, j, :, :]
    return h


@lru_cache(maxsize=None)
def _hopping(n: int) -> np.ndarray:
    """Pair hopping operators sigma_i^+ sigma_j^- as one read-only
    (n, n, dim, dim) array."""
    sm, sp = lowering_operators(n), raising_operators(n)
    hop = np.array([[sp[i] @ sm[j] for j in range(n)] for i in range(n)])
    hop.flags.writeable = False
    return hop


def drive_operator(phases) -> np.ndarray:
    """Unit raising drive sum_i e^{i phi_i} sigma_i^+ for per-emitter
    propagation phases (n,), or a (B, dim, dim) stack of them for (B, n)
    phases; a tone of amplitude E contributes E times this.

    The full interaction at time t is e^{-i w t} A + e^{+i w t} A^dag with
    w the tone detuning, which makes a tone at detuning w resonant with an
    upward transition of rotating-frame energy w.
    """
    phases = np.asarray(phases)
    sp = raising_operators(phases.shape[-1])
    factors = np.exp(1j * phases)[..., None, None]
    return sum(factors[..., i, :, :] * sp[i] for i in range(len(sp)))


@dataclass(frozen=True)
class CollectiveBasis:
    """Sorted eigensystem of the drive-free effective Hamiltonian.

    energies are the real parts, linewidths are -2x the imaginary parts
    (the population decay rate of each level).  ``vectors`` holds right
    eigenvectors as columns, ``left`` the bi-orthogonal left vectors as
    rows, so ``left @ psi`` gives level amplitudes whether or not the
    basis is orthogonal.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    left: np.ndarray
    labels: tuple[str, ...]
    n_excitations: np.ndarray
    condition: float

    @property
    def ill_conditioned(self) -> bool:
        return self.condition > CONDITION_LIMIT

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def energies(self) -> np.ndarray:
        return self.eigenvalues.real

    @property
    def linewidths(self) -> np.ndarray:
        return -2.0 * self.eigenvalues.imag

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def vector(self, label: str) -> np.ndarray:
        return self.vectors[:, self.index(label)]

    def energy(self, label: str) -> float:
        return float(self.energies[self.index(label)])

    def linewidth(self, label: str) -> float:
        return float(self.linewidths[self.index(label)])

    def amplitudes(self, psi: np.ndarray) -> np.ndarray:
        """Level amplitudes of a state (array of states: last axis is time)."""
        return self.left @ psi

    def populations(self, psi: np.ndarray) -> np.ndarray:
        return np.abs(self.amplitudes(psi)) ** 2


def collective_eigenbasis(c: CouplingSet) -> CollectiveBasis:
    """Eigendecomposition of the full non-Hermitian drive-free Hamiltonian.

    Levels are sorted by excitation number, then by real energy.  Exactly
    degenerate groups are rotated onto reference zero-separation states so
    labels stay stable across parameter sweeps.
    """
    w, v, nexc = (x[0] for x in _eigensystems(static_hamiltonian(c)[None]))
    return CollectiveBasis(
        eigenvalues=w,
        vectors=v,
        left=np.linalg.inv(v),
        labels=tuple(LABELS[: len(w)]),
        n_excitations=nexc,
        condition=float(np.linalg.cond(v)),
    )


def _eigensystems(h: np.ndarray) -> tuple[np.ndarray, ...]:
    """Eigenvalues (B, dim), unit right eigenvectors (B, dim, dim, as
    columns) and excitation numbers (B, dim) of a (B, dim, dim) stack of
    Hamiltonians, each sorted, aligned and phase-fixed as
    ``collective_eigenbasis`` describes."""
    w, v = np.linalg.eig(h)
    n = h.shape[-1].bit_length() - 1
    weights = np.abs(v) ** 2
    nexc = np.rint(excitation_numbers(n) @ weights
                   / weights.sum(axis=1)).astype(int)
    order = np.lexsort((w.real, nexc))
    rows = np.arange(len(h))[:, None]
    w, nexc = w[rows, order], nexc[rows, order]
    # Indexed this way the sorted matrices come out column-major, as LAPACK
    # fills them, which fixes the order each column norm is summed in.
    v = v[rows, :, order].transpose(0, 2, 1)
    v = v / np.linalg.norm(v, axis=1)[:, None]

    # A level starts a new group unless it is exactly degenerate with the
    # one below; only rows with such a pair go through the alignment.
    scale = np.maximum(1.0, np.max(np.abs(w.real), axis=1))
    degenerate = ((nexc[:, 1:] == nexc[:, :-1])
                  & (np.abs(np.diff(w.real, axis=1))
                     < DEGENERACY_TOLERANCE * scale[:, None]))
    refs = _reference_states(n)
    for r in np.flatnonzero(degenerate.any(axis=1)):
        starts = np.flatnonzero(~np.r_[False, degenerate[r]])
        for a, b in zip(starts, np.r_[starts[1:], len(w[r])]):
            if b - a > 1:
                v[r, :, a:b] = _align_degenerate(v[r, :, a:b],
                                                 refs[nexc[r, a]])
    return w, _fix_phases(v), nexc


def dfs4_states() -> tuple[np.ndarray, np.ndarray]:
    """The two four-qubit collective-noise-free logical states.

    zero_L = (|01> - |10>)(|01> - |10>) / 2
    one_L  = (2|0011> + 2|1100> - |0101> - |1010> - |0110> - |1001>) / sqrt(12)
    """
    zero = np.zeros(16, dtype=complex)
    for bits, amp in (("0101", 1), ("0110", -1), ("1001", -1), ("1010", 1)):
        zero[int(bits, 2)] = amp / 2.0
    one = np.zeros(16, dtype=complex)
    for bits, amp in (("0011", 2), ("1100", 2), ("0101", -1),
                      ("1010", -1), ("0110", -1), ("1001", -1)):
        one[int(bits, 2)] = amp / np.sqrt(12.0)
    return zero, one


def fidelity(psi: np.ndarray, target: np.ndarray) -> float:
    """Conditional fidelity |<target|psi>|^2 / <psi|psi> for states whose
    norm may have shrunk under no-jump evolution."""
    norm2 = float(np.vdot(psi, psi).real)
    if norm2 <= 0.0:
        raise ValueError("state has zero norm")
    return float(abs(np.vdot(target, psi)) ** 2 / norm2)


def fidelity_raw(psi: np.ndarray, target: np.ndarray) -> float:
    """Unconditional overlap |<target|psi>|^2."""
    return float(abs(np.vdot(target, psi)) ** 2)


@lru_cache(maxsize=None)
def _reference_states(n: int) -> tuple[np.ndarray, ...]:
    """Reference vectors used to resolve exactly degenerate level groups,
    as read-only rows of one array per excitation number.

    For three emitters these are the conventional zero-separation doublet
    states in the one- and two-excitation sectors; for four emitters, the
    two collective-noise-free logical states in the two-excitation sector.
    """
    refs = [np.empty((0, 2**n), dtype=complex)] * (n + 1)
    if n == 3:
        b = np.zeros(8, dtype=complex)
        b[int("001", 2)], b[int("010", 2)], b[int("100", 2)] = -2, 1, 1
        b /= np.sqrt(6.0)
        cst = np.zeros(8, dtype=complex)
        cst[int("010", 2)], cst[int("100", 2)] = 1, -1
        cst /= np.sqrt(2.0)
        sp = sum(raising_operators(3))
        b2, c2 = sp @ b, sp @ cst
        refs[1] = np.array([b, cst])
        refs[2] = np.array([b2 / np.linalg.norm(b2), c2 / np.linalg.norm(c2)])
    elif n == 4:
        refs[2] = np.array(dfs4_states())
    for r in refs:
        r.flags.writeable = False
    return tuple(refs)


def _align_degenerate(block: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Rotate an exactly degenerate eigenvector group onto reference states.

    References with more than half their weight inside the group span claim
    slots (in listed order); remaining slots are filled from the orthogonal
    complement within the span.
    """
    q, _ = np.linalg.qr(block)
    chosen: list[np.ndarray] = []
    for ref in refs:
        proj = q @ (q.conj().T @ ref)
        for c in chosen:
            proj = proj - c * np.vdot(c, proj)
        if np.linalg.norm(proj) ** 2 > 0.5:
            chosen.append(proj / np.linalg.norm(proj))
    for k in range(q.shape[1]):
        if len(chosen) == q.shape[1]:
            break
        cand = q[:, k].copy()
        for c in chosen:
            cand = cand - c * np.vdot(c, cand)
        if np.linalg.norm(cand) > 1e-8:
            chosen.append(cand / np.linalg.norm(cand))
    return np.column_stack(chosen)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector phases for a (B, dim, dim) stack of
    column vectors: largest component of each column real positive."""
    top = v[np.arange(len(v))[:, None], np.argmax(np.abs(v), axis=1),
            np.arange(v.shape[2])]
    # hypot is the scalar abs() bit for bit (np.abs is not), and row-major
    # order keeps later products bit-identical whatever order ``v`` has.
    return np.ascontiguousarray(v / (top / np.hypot(top.real, top.imag))
                                [:, None])
