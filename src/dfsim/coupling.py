"""Dipole-dipole coupling coefficients and derived spectral constants.

All rates are expressed in units of the single-emitter decay rate
``GAMMA = 1`` and all times in its inverse.  The complex pair coefficient
splits into a coherent shift (real part) and a cross-damping rate
(-2x imaginary part).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import TWO_PI

GAMMA = 1.0

# Negative relaxation-matrix eigenvalues above this are numerical noise and
# clamped to zero; anything below signals an invalid geometry.
PSD_TOLERANCE = 1e-10

# Closed-form spectral constants assume a mirror-symmetric chain.
SYMMETRY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CouplingSet:
    """Pair-coupling matrices of an emitter array.

    delta  : real symmetric NxN coherent-shift matrix, zero diagonal
    gammas : real symmetric NxN damping matrix, diagonal equal to GAMMA

    The carrier frequency does not appear: all dynamics run in the frame
    rotating at the carrier.
    """

    delta: np.ndarray
    gammas: np.ndarray

    @property
    def n(self) -> int:
        return self.delta.shape[0]


@dataclass(frozen=True)
class SpectralParams:
    """Closed-form level-structure constants of a symmetric three-emitter
    chain, all in units of gamma."""

    omega: float
    kappa: float
    eta: float
    delta_plus: float
    delta_minus: float
    delta12: float
    delta13: float


def _pair_coefficients(xi: np.ndarray,
                       alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the pair coefficient, elementwise over
    separations ``xi`` and dipole angles ``alpha``.  Powers go through
    ``np.float_power``, which rounds as a scalar ``**`` does, so a value
    does not depend on the shape of the array it is computed in."""
    sin_xi, cos_xi, xi3 = np.sin(xi), np.cos(xi), np.float_power(xi, 3)
    x2 = xi * xi
    # The radiative kernel (sin x - x cos x) / x^3 is series-evaluated at
    # small argument, where the direct form loses ~x^-2 digits to
    # cancellation (the damping matrix must stay positive semidefinite to
    # 1e-10 even deep in the small-spacing regime).
    kernel = np.where(xi < 0.1,
                      1.0 / 3.0 + x2 * (-1.0 / 30.0 + x2 * (1.0 / 840.0
                                                            - x2 / 45360.0)),
                      (sin_xi - xi * cos_xi) / xi3)
    sin2 = np.float_power(np.sin(alpha), 2)
    b = 1.0 - 3.0 * np.float_power(np.cos(alpha), 2)
    re = -0.75 * GAMMA / xi3 * (cos_xi * (x2 * sin2 - b) - sin_xi * xi * b)
    im = -0.75 * GAMMA * (sin2 * sin_xi / xi - b * kernel)
    return re, im


def xi_coefficient(xi: float, alpha: float) -> complex:
    """Complex pair coefficient for dimensionless separation ``xi`` and
    dipole angle ``alpha``.

    The real part is the coherent shift, and -2x the imaginary part is the
    cross-damping rate; the latter tends to the single-emitter rate as
    xi -> 0.
    """
    if xi <= 0:
        raise ValueError("xi must be positive: the coefficient diverges at contact")
    return complex(*_pair_coefficients(np.float64(xi), np.float64(alpha)))


def coupling_matrices(g) -> CouplingSet:
    """Pair-coupling matrices for a geometry, including every pair.

    The per-pair dipole angle is taken between the common dipole direction
    and the actual separation vector, so disordered (non-collinear)
    geometries are handled correctly.  This is the one-row case of the
    stacked build a position-disorder sweep runs over all its draws.
    """
    delta, gammas = _coupling_stack(g.positions[None], g.dipole)
    return CouplingSet(delta=delta[0], gammas=gammas[0])


def _coupling_stack(positions: np.ndarray,
                    dipole: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coherent-shift and damping matrices (B, N, N) of emitters at
    positions (B, N, 3) with a common ``dipole`` direction, all pairs of
    all rows at once.  Separations and projections onto the dipole are
    taken as (1, 3) @ (3, 1) products, one BLAS dot per pair as a scalar
    ``np.dot`` takes them."""
    b, n = positions.shape[:2]
    i, j = _pairs(n)
    rij = (positions[:, i] - positions[:, j])[..., None]
    dist = np.sqrt(rij.transpose(0, 1, 3, 2) @ rij)[..., 0, 0]
    cos_a = np.minimum(np.maximum((dipole[None] @ rij)[..., 0, 0] / dist,
                                  -1.0), 1.0)
    re, im = _pair_coefficients(TWO_PI * dist, np.arccos(cos_a))
    delta = np.zeros((b, n, n))
    gammas = np.zeros((b, n, n))
    delta[:, i, j] = delta[:, j, i] = re
    gammas[:, i, j] = gammas[:, j, i] = -2.0 * im
    gammas[:, np.arange(n), np.arange(n)] = GAMMA
    return delta, _enforce_psd(gammas)


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (i < j) of every pair of n emitters."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def dicke_coupling(n: int = 3, delta: float = 10.0) -> CouplingSet:
    """Idealised zero-separation limit: equal coherent shifts and uniform
    damping matrix.  Useful as an exactly solvable reference."""
    d = np.full((n, n), float(delta))
    np.fill_diagonal(d, 0.0)
    gam = np.full((n, n), GAMMA)
    return CouplingSet(delta=d, gammas=gam)


def spectral_params(c: CouplingSet) -> SpectralParams:
    """Closed-form spectral constants for a symmetric three-emitter chain.

    Requires delta_12 == delta_23 (mirror symmetry); the formulas do not
    apply otherwise.
    """
    if c.n != 3:
        raise ValueError("spectral constants are defined for three emitters")
    d12 = c.delta[0, 1]
    d23 = c.delta[1, 2]
    if abs(d12 - d23) > SYMMETRY_TOLERANCE:
        raise ValueError("chain is not mirror symmetric: "
                         f"|delta12 - delta23| = {abs(d12 - d23):.3e}")
    d13 = c.delta[0, 2]
    omega = float(np.sqrt(8.0 * d12**2 + d13**2))
    return SpectralParams(
        omega=omega,
        kappa=omega - d13,
        eta=omega - 3.0 * d13,
        delta_plus=-d13 + 0.5 * (d13 + omega),
        delta_minus=-d13 - 0.5 * (d13 + omega),
        delta12=float(d12),
        delta13=float(d13),
    )


def _enforce_psd(gammas: np.ndarray) -> np.ndarray:
    """Clamp tiny negative relaxation eigenvalues of a (B, N, N) stack of
    damping matrices; reject real violations.  One ``eigh`` covers the
    stack, and only rows with a negative eigenvalue are rebuilt."""
    w, v = np.linalg.eigh(gammas)
    for r in np.flatnonzero(w[:, 0] < 0.0):
        if w[r, 0] < -PSD_TOLERANCE * GAMMA:
            raise ValueError("relaxation matrix is not positive semidefinite "
                             f"(min eigenvalue {w[r, 0]:.3e}); geometry "
                             "outside the validity regime")
        fixed = (v[r] * np.clip(w[r], 0.0, None)) @ v[r].T
        gammas[r] = 0.5 * (fixed + fixed.T)
    return gammas
