"""Stochastic growth of a one-dimensional cluster chain by probabilistic
gate attachment, plus exact state-vector checks of small cluster states.

Each attachment attempt succeeds with probability P (adding one qubit) or
fails (costing two: the damaged end qubit and its neighbour, recovered by a
computational-basis measurement and a conditional correction).  The nominal
per-attempt growth is therefore 3P - 2, positive above P = 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GrowthRun:
    """One seeded growth simulation.

    ``increments`` holds the nominal per-attempt change (+1 or -2);
    ``lengths`` applies the boundary rule that a failing chain of length at
    most two restarts from a single fresh qubit.
    """

    p_success: float
    ops: int
    lengths: np.ndarray
    increments: np.ndarray
    seed: int
    initial_length: int = 1

    @property
    def mean_growth(self) -> float:
        return float(self.increments.mean())

    @property
    def stderr_growth(self) -> float:
        return float(self.increments.std(ddof=1) / np.sqrt(len(self.increments)))


def expected_growth(p: float) -> float:
    """Nominal growth per attachment attempt."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")
    return 3.0 * p - 2.0


def grow_chain(p: float, m: int, seed: int = 0,
               initial_length: int = 1) -> GrowthRun:
    """Simulate ``m`` attachment attempts; deterministic for a given seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")
    if m < 1:
        raise ValueError("at least one attempt is required")
    if initial_length < 1:
        raise ValueError("the chain starts with at least one qubit")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    wins = rng.random(m) < p
    increments = np.where(wins, 1, -2).astype(int)
    # The boundary rule makes each length max(previous + increment, 1), a
    # walk reflected at 1.  With S the running sum of the increments, its
    # closed form is S plus the larger of the initial length and 1 - min S.
    steps = np.cumsum(increments)
    lengths = steps + np.maximum(initial_length,
                                 1 - np.minimum.accumulate(steps))
    return GrowthRun(p_success=p, ops=m, lengths=lengths,
                     increments=increments, seed=seed,
                     initial_length=initial_length)


def cluster_state(n: int) -> np.ndarray:
    """Linear cluster state: |+>^n with a controlled-phase between each
    neighbouring pair."""
    if n < 1:
        raise ValueError("need at least one qubit")
    psi = np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)
    for q in range(n - 1):
        psi = apply_cz(psi, q, q + 1, n)
    return psi


def apply_cz(psi: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Controlled-phase between qubits i and j (0-based, leftmost = 0)."""
    idx = np.arange(2**n)
    bi = (idx >> (n - 1 - i)) & 1
    bj = (idx >> (n - 1 - j)) & 1
    out = psi.copy()
    out[(bi & bj) == 1] *= -1.0
    return out


def pauli(n: int, q: int, kind: str) -> np.ndarray:
    mats = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    out = np.array([[1.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    for k in range(n):
        out = np.kron(out, mats[kind] if k == q else eye)
    return out


def stabilizer_expectations(psi: np.ndarray) -> list[float]:
    """Expectation of every chain stabiliser X_i Z_{i-1} Z_{i+1}."""
    n = int(np.log2(len(psi)))
    out = []
    for q in range(n):
        op = pauli(n, q, "X")
        if q > 0:
            op = op @ pauli(n, q - 1, "Z")
        if q < n - 1:
            op = op @ pauli(n, q + 1, "Z")
        out.append(float(np.vdot(psi, op @ psi).real))
    return out


def measure_z(psi: np.ndarray, q: int, outcome: int) -> tuple[np.ndarray, float]:
    """Project qubit q onto a computational-basis outcome and renormalise.
    Returns the post-measurement state (qubit retained) and the outcome
    probability."""
    n = int(np.log2(len(psi)))
    idx = np.arange(2**n)
    mask = ((idx >> (n - 1 - q)) & 1) == outcome
    proj = np.where(mask, psi, 0.0)
    prob = float(np.vdot(proj, proj).real)
    if prob <= 0:
        raise ValueError("outcome has zero probability")
    return proj / np.sqrt(prob), prob


def discard_qubit(psi: np.ndarray, q: int, outcome: int) -> np.ndarray:
    """Drop a qubit that has just been measured (its state is a product
    factor), keeping the remaining amplitudes in order."""
    n = int(np.log2(len(psi)))
    idx = np.arange(2**n)
    keep = ((idx >> (n - 1 - q)) & 1) == outcome
    return psi[keep]


def verify_cluster_state_small(n: int) -> dict:
    """Exact checks of the n-qubit chain cluster state (n >= 2).

    Verifies the two-branch recursive decomposition over the last three
    qubits (for n >= 4), that the cross branches vanish, and that all n
    chain stabilisers have unit expectation.  Returns the maximum absolute
    errors found.
    """
    if n < 2:
        raise ValueError("the chain needs at least two qubits")
    psi = cluster_state(n)
    stabs = stabilizer_expectations(psi)
    result = {"stabilizer_error": float(max(abs(1.0 - s) for s in stabs))}
    if n >= 4:
        tensor = psi.reshape((2,) * n)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        u_plus = (np.kron([1, 0], plus) + np.kron([0, 1], minus))
        u_minus = (np.kron([1, 0], plus) - np.kron([0, 1], minus))

        def contract(branch: int, tail: np.ndarray) -> np.ndarray:
            block = tensor[..., branch, :, :].reshape(-1, 4)
            return block @ tail.conj() / np.sqrt(2.0)

        phi0 = contract(0, u_plus)
        phi1 = contract(1, u_minus)
        cross0 = contract(0, u_minus)
        cross1 = contract(1, u_plus)
        rebuilt = np.zeros_like(tensor)
        head_shape = (2,) * (n - 3)
        rebuilt[..., 0, :, :] += (phi0.reshape(head_shape)[..., None]
                                  * u_plus / np.sqrt(2.0)).reshape(head_shape + (2, 2))
        rebuilt[..., 1, :, :] += (phi1.reshape(head_shape)[..., None]
                                  * u_minus / np.sqrt(2.0)).reshape(head_shape + (2, 2))
        result["recursion_error"] = float(np.max(np.abs(tensor - rebuilt)))
        result["cross_branch"] = float(max(np.max(np.abs(cross0)),
                                           np.max(np.abs(cross1))))
    return result


def recover_after_failed_attach(psi: np.ndarray, rng=None) -> np.ndarray:
    """Measurement-based recovery after a failed attachment to a chain.

    The failed gate dephases the end qubit, modelled as a computational-
    basis measurement with forgotten outcome; measuring it (outcome m1) and
    then its neighbour (outcome m2), discarding both, and applying the
    conditional phase correction on the new end returns the chain two
    qubits shorter.
    """
    rng = rng if rng is not None else np.random.default_rng()
    n = int(np.log2(len(psi)))
    if n < 3:
        raise ValueError("need at least three qubits to recover")
    for _ in range(2):
        n = int(np.log2(len(psi)))
        _, p1 = measure_z(psi, n - 1, 1)
        outcome = int(rng.random() < p1)
        post, _ = measure_z(psi, n - 1, outcome)
        psi = discard_qubit(post, n - 1, outcome)
        if outcome == 1:
            m = int(np.log2(len(psi)))
            psi = pauli(m, m - 1, "Z") @ psi
    return psi
