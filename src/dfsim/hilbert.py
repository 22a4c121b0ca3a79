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
import scipy.linalg

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
    n = c.n
    sm = lowering_operators(n)
    sp = raising_operators(n)
    coeff = c.delta - 0.5j * c.gammas if decay else c.delta
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(n):
            h += coeff[i, j] * (sp[i] @ sm[j])
    return h


def drive_operator(phases) -> np.ndarray:
    """Unit raising drive sum_i e^{i phi_i} sigma_i^+ for per-emitter
    propagation phases; a tone of amplitude E contributes E times this.

    The full interaction at time t is e^{-i w t} A + e^{+i w t} A^dag with
    w the tone detuning, which makes a tone at detuning w resonant with an
    upward transition of rotating-frame energy w.
    """
    sp = raising_operators(len(phases))
    return sum(np.exp(1j * phases[i]) * sp[i] for i in range(len(phases)))


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
    h = static_hamiltonian(c)
    w, v = scipy.linalg.eig(h)
    nexc_basis = excitation_numbers(c.n)
    nexc = np.array([int(round(float(nexc_basis @ (np.abs(v[:, k]) ** 2)
                                     / np.sum(np.abs(v[:, k]) ** 2))))
                     for k in range(len(w))])
    order = np.lexsort((w.real, nexc))
    w, v, nexc = w[order], v[:, order], nexc[order]
    v = v / np.linalg.norm(v, axis=0)

    scale = max(1.0, float(np.max(np.abs(w.real))))
    refs = _reference_states(c.n)
    k = 0
    while k < len(w):
        grp = [k]
        while (grp[-1] + 1 < len(w)
               and nexc[grp[-1] + 1] == nexc[k]
               and abs(w[grp[-1] + 1].real - w[grp[-1]].real)
               < DEGENERACY_TOLERANCE * scale):
            grp.append(grp[-1] + 1)
        if len(grp) > 1:
            v[:, grp] = _align_degenerate(v[:, grp], refs.get(nexc[k], []))
        k = grp[-1] + 1

    v = _fix_phases(v)
    cond = float(np.linalg.cond(v))
    left = np.linalg.inv(v)
    return CollectiveBasis(
        eigenvalues=w,
        vectors=v,
        left=left,
        labels=tuple(LABELS[: len(w)]),
        n_excitations=nexc,
        condition=cond,
    )


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


def _reference_states(n: int) -> dict[int, list[np.ndarray]]:
    """Reference vectors used to resolve exactly degenerate level groups.

    For three emitters these are the conventional zero-separation doublet
    states in the one- and two-excitation sectors; for four emitters, the
    two collective-noise-free logical states in the two-excitation sector.
    """
    refs: dict[int, list[np.ndarray]] = {}
    if n == 3:
        b = np.zeros(8, dtype=complex)
        b[int("001", 2)], b[int("010", 2)], b[int("100", 2)] = -2, 1, 1
        b /= np.sqrt(6.0)
        cst = np.zeros(8, dtype=complex)
        cst[int("010", 2)], cst[int("100", 2)] = 1, -1
        cst /= np.sqrt(2.0)
        sp = sum(raising_operators(3))
        b2, c2 = sp @ b, sp @ cst
        refs[1] = [b, cst]
        refs[2] = [b2 / np.linalg.norm(b2), c2 / np.linalg.norm(c2)]
    elif n == 4:
        zero, one = dfs4_states()
        refs[2] = [zero, one]
    return refs


def _align_degenerate(block: np.ndarray, refs: list[np.ndarray]) -> np.ndarray:
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
    """Deterministic eigenvector phases: largest component real positive."""
    out = v.copy()
    for k in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, k])))
        phase = v[j, k] / abs(v[j, k])
        out[:, k] = v[:, k] / phase
    return out
