"""Emitter placement, dipole orientation, and position disorder.

All lengths are in units of the resonant wavelength, so the resonant
wavenumber is fixed at ``k0 = TWO_PI`` and the dimensionless pair separation
is ``xi_ij = k0 * |r_i - r_j|``.  Linear arrays lie along x with the dipole
tilted by ``alpha`` from that axis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi

# Below this separation (wavelength units) the pair coefficient is treated
# as divergent and disorder draws are rejected.
MIN_SEPARATION = 1e-6


@dataclass(frozen=True)
class Geometry:
    """Emitter positions plus a common dipole orientation.

    positions : (N, 3) array, wavelength units
    alpha     : angle in radians between the dipole direction and the
                array axis (x); the dipole unit vector is
                (cos alpha, sin alpha, 0)
    """

    positions: np.ndarray
    alpha: float

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        if pos.shape[0] < 2:
            raise ValueError("at least two emitters are required")
        object.__setattr__(self, "positions", pos)
        if _coincident(pos):
            raise ValueError("coincident emitters: pairwise separation below "
                             f"{MIN_SEPARATION} wavelengths")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dipole(self) -> np.ndarray:
        return np.array([np.cos(self.alpha), np.sin(self.alpha), 0.0])

    def separations(self) -> np.ndarray:
        """Pairwise distance matrix |r_i - r_j| (wavelength units)."""
        return _separations(self.positions)

    def xi_matrix(self) -> np.ndarray:
        """Dimensionless separations xi_ij = k0 |r_i - r_j|."""
        return TWO_PI * self.separations()

    @property
    def xi12(self) -> float:
        return float(self.xi_matrix()[0, 1])

    @property
    def spacing(self) -> float:
        """Smallest pairwise separation (the lattice constant for a chain)."""
        sep = self.separations()
        return float(sep[~np.eye(self.n, dtype=bool)].min())


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian position scatter: per-axis variance (wavelength^2 units),
    sample count, and RNG seed."""

    variance: float
    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


def _separations(positions: np.ndarray) -> np.ndarray:
    """Pairwise distances (..., N, N) of positions (..., N, 3)."""
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    return np.linalg.norm(diff, axis=-1)


def _coincident(positions: np.ndarray) -> np.ndarray:
    """Whether two emitters of positions (..., N, 3) lie closer than
    MIN_SEPARATION, one flag per position set."""
    off = ~np.eye(positions.shape[-2], dtype=bool)
    return np.any(_separations(positions)[..., off] < MIN_SEPARATION,
                  axis=-1)


def linear_array(r: float, n: int = 3, alpha: float = 0.0) -> Geometry:
    """Equally spaced collinear emitters centred on the origin.

    ``r`` is the nearest-neighbour spacing in wavelength units; for n=3 the
    positions are (-r, 0, +r) along x.
    """
    if r <= 0:
        raise ValueError("spacing r must be positive")
    if n not in (3, 4):
        raise ValueError("supported array sizes are 3 and 4")
    offsets = (np.arange(n) - (n - 1) / 2.0) * r
    positions = np.zeros((n, 3))
    positions[:, 0] = offsets
    return Geometry(positions=positions, alpha=alpha)


def linear_array_xi(xi12: float, n: int = 3, alpha: float = 0.0) -> Geometry:
    """Linear array specified by the dimensionless spacing xi12 = k0 * r."""
    if xi12 <= 0:
        raise ValueError("xi12 must be positive")
    return linear_array(xi12 / TWO_PI, n=n, alpha=alpha)


def sample_disorder(g: Geometry, spec: DisorderSpec) -> list[Geometry]:
    """Draw geometries with independent Gaussian displacement of every
    position component (std = sqrt(variance), wavelength units).

    Deterministic for a given seed; the seed stream is split per sample so
    samples can be regenerated independently.  Draws that bring two emitters
    closer than MIN_SEPARATION are redrawn (the pair coefficient diverges);
    redraws are counted in the log.
    """
    return [Geometry(positions=pos, alpha=g.alpha)
            for pos in _disorder_positions(g, spec)]


def _disorder_positions(g: Geometry, spec: DisorderSpec) -> np.ndarray:
    """Positions (samples, N, 3) of the draws ``sample_disorder`` returns.

    Every sample draws from its own generator.  The minimum separation is
    checked once per pass over all samples still to draw, and a sample
    that fails it draws again from its own generator until it passes.
    """
    sigma = np.sqrt(spec.variance)
    rngs = [np.random.default_rng(ss)
            for ss in np.random.SeedSequence(spec.seed).spawn(spec.samples)]
    out = np.empty((spec.samples,) + g.positions.shape)
    todo = np.arange(spec.samples)
    redraws = 0
    while todo.size:
        out[todo] = g.positions + np.array(
            [rngs[k].normal(0.0, sigma, size=g.positions.shape)
             for k in todo])
        todo = todo[_coincident(out[todo])]
        redraws += todo.size
    if redraws:
        log.info("sample_disorder: %d redraws due to near-coincident emitters",
                 redraws)
    return out
