"""Dipole-dipole coupling coefficients and derived spectral constants.

All rates are expressed in units of the single-emitter decay rate
``GAMMA = 1`` and all times in its inverse.  The complex pair coefficient
splits into a coherent shift (real part) and a cross-damping rate
(-2x imaginary part).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _radiative_kernel(xi: float) -> float:
    """(sin x - x cos x) / x^3, series-evaluated at small argument where the
    direct form loses ~x^-2 digits to cancellation (the damping matrix must
    stay positive semidefinite to 1e-10 even deep in the small-spacing
    regime)."""
    if xi < 0.1:
        x2 = xi * xi
        return (1.0 / 3.0 + x2 * (-1.0 / 30.0 + x2 * (1.0 / 840.0
                                                      - x2 / 45360.0)))
    return (np.sin(xi) - xi * np.cos(xi)) / xi**3


def xi_coefficient(xi: float, alpha: float) -> complex:
    """Complex pair coefficient for dimensionless separation ``xi`` and
    dipole angle ``alpha``.

    The real part is the coherent shift, and -2x the imaginary part is the
    cross-damping rate; the latter tends to the single-emitter rate as
    xi -> 0.
    """
    if xi <= 0:
        raise ValueError("xi must be positive: the coefficient diverges at contact")
    sin2 = np.sin(alpha) ** 2
    b = 1.0 - 3.0 * np.cos(alpha) ** 2
    re = -0.75 * GAMMA / xi**3 * (np.cos(xi) * (xi * xi * sin2 - b)
                                  - np.sin(xi) * xi * b)
    im = -0.75 * GAMMA * (sin2 * np.sin(xi) / xi - b * _radiative_kernel(xi))
    return complex(re, im)


def coupling_matrices(g) -> CouplingSet:
    """Pair-coupling matrices for a geometry, including every pair.

    The per-pair dipole angle is taken between the common dipole direction
    and the actual separation vector, so disordered (non-collinear)
    geometries are handled correctly.
    """
    n = g.n
    delta = np.zeros((n, n))
    gammas = np.zeros((n, n))
    dip = g.dipole
    for i in range(n):
        gammas[i, i] = GAMMA
        for j in range(i + 1, n):
            rij = g.positions[i] - g.positions[j]
            dist = np.linalg.norm(rij)
            cos_a = float(np.dot(dip, rij) / dist)
            cos_a = min(1.0, max(-1.0, cos_a))
            coeff = xi_coefficient(TWO_PI * dist, float(np.arccos(cos_a)))
            delta[i, j] = delta[j, i] = coeff.real
            gammas[i, j] = gammas[j, i] = -2.0 * coeff.imag
    gammas = _enforce_psd(gammas)
    return CouplingSet(delta=delta, gammas=gammas)


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
    """Clamp tiny negative relaxation eigenvalues; reject real violations."""
    w, v = np.linalg.eigh(gammas)
    if w.min() >= 0.0:
        return gammas
    if w.min() < -PSD_TOLERANCE * GAMMA:
        raise ValueError("relaxation matrix is not positive semidefinite "
                         f"(min eigenvalue {w.min():.3e}); geometry outside "
                         "the validity regime")
    w = np.clip(w, 0.0, None)
    fixed = (v * w) @ v.T
    return 0.5 * (fixed + fixed.T)
