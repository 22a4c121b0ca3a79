import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsim import (CouplingSet, DisorderSpec, coupling, coupling_matrices,
                   dicke_coupling, linear_array_xi, spectral_params,
                   xi_coefficient)
from dfsim.coupling import GAMMA, _coupling_stack
from dfsim.geometry import TWO_PI, _disorder_positions
from dfsim.hilbert import excitation_numbers, static_hamiltonian

# Frozen 50-digit evaluations of the pair-coefficient formula (mpmath).
ORACLE = {
    (0.5, 0.0): -13.407543974309690595 - 0.48761109190819970658j,
    (0.15, np.pi / 2): 219.764321900782493 - 0.4977527105473564436j,
    (1.0, 0.0): -2.0726599360140543361 - 0.45175301840963518388j,
}


def oracle_coefficient(xi, alpha):
    """Independent high-precision evaluation of the pair coefficient."""
    import mpmath as mp
    mp.mp.dps = 50
    x = mp.mpf(repr(xi))
    br = x**2 * mp.sin(alpha)**2 - (1 - 1j * x) * (1 - 3 * mp.cos(alpha)**2)
    val = -mp.mpf(3) / 4 * mp.exp(1j * x) / x**3 * br
    return complex(val)


def scalar_coefficient(xi, alpha):
    """The pair coefficient one pair at a time, in scalar arithmetic."""
    sin2 = np.sin(alpha) ** 2
    b = 1.0 - 3.0 * np.cos(alpha) ** 2
    if xi < 0.1:
        x2 = xi * xi
        kernel = (1.0 / 3.0 + x2 * (-1.0 / 30.0 + x2 * (1.0 / 840.0
                                                        - x2 / 45360.0)))
    else:
        kernel = (np.sin(xi) - xi * np.cos(xi)) / xi**3
    re = -0.75 * GAMMA / xi**3 * (np.cos(xi) * (xi * xi * sin2 - b)
                                  - np.sin(xi) * xi * b)
    im = -0.75 * GAMMA * (sin2 * np.sin(xi) / xi - b * kernel)
    return complex(re, im)


def pair_loop_coupling(positions, alpha, clamp=True):
    """Coupling matrices built pair by pair (scalar norm, dot and arccos).
    With ``clamp`` the damping matrix is then checked with one eigh: a tiny
    negative eigenvalue is clamped, one below -PSD_TOLERANCE raises."""
    n = len(positions)
    delta = np.zeros((n, n))
    gammas = np.zeros((n, n))
    dip = np.array([np.cos(alpha), np.sin(alpha), 0.0])
    for i in range(n):
        gammas[i, i] = GAMMA
        for j in range(i + 1, n):
            rij = positions[i] - positions[j]
            dist = np.linalg.norm(rij)
            cos_a = min(1.0, max(-1.0, float(np.dot(dip, rij) / dist)))
            coeff = scalar_coefficient(TWO_PI * dist,
                                       float(np.arccos(cos_a)))
            delta[i, j] = delta[j, i] = coeff.real
            gammas[i, j] = gammas[j, i] = -2.0 * coeff.imag
    w, v = np.linalg.eigh(gammas)
    if clamp and w.min() < 0.0:
        if w.min() < -coupling.PSD_TOLERANCE * GAMMA:
            raise ValueError("relaxation matrix is not positive semidefinite")
        fixed = (v * np.clip(w, 0.0, None)) @ v.T
        gammas = 0.5 * (fixed + fixed.T)
    return delta, gammas


# A Dicke-limit chain whose damping matrix comes out of eigh with a
# negative eigenvalue of order 1e-16, so its row goes through the clamp.
CLAMPED = linear_array_xi(1e-4, n=3, alpha=0.0)


class TestXiCoefficient:
    @pytest.mark.parametrize("xi,alpha", list(ORACLE))
    def test_matches_high_precision_oracle(self, xi, alpha):
        want = ORACLE[(xi, alpha)]
        assert oracle_coefficient(xi, alpha) == pytest.approx(want, rel=1e-15)
        assert xi_coefficient(xi, alpha) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.4, np.pi / 2, 2.0])
    def test_cross_damping_reaches_single_emitter_rate_at_contact(self, alpha):
        # Leading small-separation behaviour: -2 Im Xi -> gamma = 1, with a
        # quadratic correction of order xi^2 / 10.
        for xi in (1e-3, 1e-2):
            g_od = -2.0 * xi_coefficient(xi, alpha).imag
            assert abs(g_od - 1.0) < xi**2 / 5.0 + 1e-6

    @pytest.mark.parametrize("alpha", [0.3, np.pi / 2])
    def test_far_field_decays_like_inverse_separation(self, alpha):
        xi = 200.0
        val = xi_coefficient(xi, alpha)
        assert abs(val) * xi <= 0.76 * (np.sin(alpha)**2 + 3.1 / xi)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            xi_coefficient(0.0, 0.0)
        with pytest.raises(ValueError):
            xi_coefficient(-0.5, 0.0)


class TestCouplingMatrices:
    def test_mirror_symmetry(self):
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        assert c.delta[0, 1] == pytest.approx(c.delta[1, 2], rel=1e-12)
        assert c.gammas[0, 1] == pytest.approx(c.gammas[1, 2], rel=1e-12)
        assert np.allclose(c.delta, c.delta.T)
        assert np.allclose(c.gammas, c.gammas.T)
        assert np.allclose(np.diag(c.delta), 0.0)
        assert np.allclose(np.diag(c.gammas), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(xi=st.floats(min_value=0.02, max_value=1.0),
           alpha=st.floats(min_value=0.0, max_value=np.pi))
    def test_relaxation_matrix_positive_semidefinite(self, xi, alpha):
        c = coupling_matrices(linear_array_xi(xi, alpha=alpha))
        assert np.linalg.eigvalsh(c.gammas).min() >= -1e-10

    def test_dicke_limit_damping(self):
        c = coupling_matrices(linear_array_xi(1e-3, alpha=0.0))
        off = c.gammas[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off - 1.0)) < 1e-3
        w = np.sort(np.linalg.eigvalsh(c.gammas))
        assert abs(w[-1] - 3.0) < 1e-3
        assert np.all(np.abs(w[:2]) < 1e-3)

    def test_disordered_geometry_uses_pair_angles(self):
        # Displacing the middle emitter off-axis changes the pair angles,
        # so the matrix loses its mirror symmetry but stays symmetric.
        g = linear_array_xi(0.5, alpha=0.0)
        pos = g.positions.copy()
        pos[1, 1] += 0.02
        from dfsim import Geometry
        c = coupling_matrices(Geometry(positions=pos, alpha=0.0))
        assert np.allclose(c.delta, c.delta.T)
        assert abs(c.delta[0, 1] - c.delta[1, 2]) < 1e-12  # still mirror-even
        pos[1, 0] += 0.01
        c2 = coupling_matrices(Geometry(positions=pos, alpha=0.0))
        assert abs(c2.delta[0, 1] - c2.delta[1, 2]) > 1e-6


class TestStackedCoupling:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([3, 4]),
           xi=st.floats(min_value=1e-4, max_value=1.0),
           alpha=st.floats(min_value=0.0, max_value=np.pi),
           variance=st.sampled_from([0.0, 1e-8, 1e-5, 1e-3, 0.005]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_rows_match_pair_loop_bit_for_bit(self, n, xi, alpha, variance,
                                              seed):
        g = linear_array_xi(xi, n=n, alpha=alpha)
        positions = np.concatenate([g.positions[None], _disorder_positions(
            g, DisorderSpec(variance=variance, samples=6, seed=seed))])
        delta, gammas = _coupling_stack(positions, g.dipole)
        for pos, d, gm in zip(positions, delta, gammas):
            want_d, want_g = pair_loop_coupling(pos, alpha)
            assert np.array_equal(d, want_d)
            assert np.array_equal(gm, want_g)
        one = coupling_matrices(g)
        assert np.array_equal(one.delta, delta[0])
        assert np.array_equal(one.gammas, gammas[0])

    def test_clamped_row_among_plain_rows(self):
        # Only the Dicke-limit row has a negative damping eigenvalue; it is
        # rebuilt from its clamped eigensystem, and the rows around it are
        # left as built.
        g = linear_array_xi(0.5, alpha=0.0)
        positions = np.array([g.positions, CLAMPED.positions,
                              g.positions + 0.01])
        raw = [pair_loop_coupling(pos, 0.0, clamp=False)[1]
               for pos in positions]
        assert [np.linalg.eigh(x)[0].min() < 0.0 for x in raw] == [
            False, True, False]
        delta, gammas = _coupling_stack(positions, g.dipole)
        for pos, d, gm in zip(positions, delta, gammas):
            want_d, want_g = pair_loop_coupling(pos, 0.0)
            assert np.array_equal(d, want_d)
            assert np.array_equal(gm, want_g)
        assert not np.array_equal(gammas[1], raw[1])
        assert np.array_equal(gammas[1], gammas[1].T)
        assert np.allclose(gammas[1], raw[1], rtol=0.0, atol=1e-14)

    def test_row_below_tolerance_raises(self, monkeypatch):
        # With no tolerance, the clamped row's negative eigenvalue is a
        # violation, and it rejects the whole stack.
        monkeypatch.setattr(coupling, "PSD_TOLERANCE", 0.0)
        g = linear_array_xi(0.5, alpha=0.0)
        positions = np.array([g.positions, CLAMPED.positions])
        with pytest.raises(ValueError, match="positive semidefinite"):
            pair_loop_coupling(CLAMPED.positions, 0.0)
        with pytest.raises(ValueError, match="positive semidefinite"):
            _coupling_stack(positions, g.dipole)
        with pytest.raises(ValueError, match="positive semidefinite"):
            coupling_matrices(CLAMPED)
        _coupling_stack(positions[:1], g.dipole)


class TestSpectralParams:
    def test_zero_nearest_neighbour_shift(self):
        d = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        c = CouplingSet(delta=d, gammas=np.eye(3))
        sp = spectral_params(c)
        assert sp.omega == pytest.approx(2.0)
        assert sp.kappa == pytest.approx(0.0)
        assert sp.eta == pytest.approx(-4.0)
        assert sp.delta_plus == pytest.approx(0.0)
        assert sp.delta_minus == pytest.approx(-4.0)

    def test_gap_identities_against_eigensolver(self):
        # delta_plus equals the depth of the lowest one-excitation level and
        # delta_minus the (negated) readout transition, both to high accuracy
        # against a dense Hermitian eigensolver.
        c = coupling_matrices(linear_array_xi(0.5, alpha=0.0))
        sp = spectral_params(c)
        h = static_hamiltonian(c)
        hh = 0.5 * (h + h.conj().T)
        nexc = excitation_numbers(3)
        w = np.linalg.eigvalsh(hh[np.ix_(nexc == 1, nexc == 1)])
        w2 = np.linalg.eigvalsh(hh[np.ix_(nexc == 2, nexc == 2)])
        e_b, e_c = w[0], sorted(w)[1]
        e_g = sorted(w2)[2]
        assert sp.delta_plus == pytest.approx(-e_b, rel=1e-9)
        assert sp.delta_minus == pytest.approx(-(e_g - e_c), rel=1e-9)

    def test_strong_coupling_regime(self):
        sp = spectral_params(coupling_matrices(
            linear_array_xi(0.15, alpha=np.pi / 2)))
        assert sp.omega > 100.0

    def test_rejects_asymmetric_chain(self):
        d = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 1.1], [0.2, 1.1, 0.0]])
        c = CouplingSet(delta=d, gammas=np.eye(3))
        with pytest.raises(ValueError, match="mirror"):
            spectral_params(c)

    def test_consistency_with_definitions(self):
        sp = spectral_params(coupling_matrices(
            linear_array_xi(0.3, alpha=1.0)))
        assert sp.kappa == pytest.approx(sp.omega - sp.delta13, rel=1e-12)
        assert sp.eta == pytest.approx(sp.omega - 3 * sp.delta13, rel=1e-12)
        assert sp.delta_plus - sp.delta_minus == pytest.approx(
            sp.delta13 + sp.omega, rel=1e-12)


class TestDickeCoupling:
    def test_uniform_matrices(self):
        c = dicke_coupling(3, delta=7.0)
        assert np.allclose(c.delta[~np.eye(3, dtype=bool)], 7.0)
        assert np.allclose(c.gammas, 1.0)

    def test_relaxation_spectrum(self):
        c = dicke_coupling(4)
        w = np.sort(np.linalg.eigvalsh(c.gammas))
        assert w[-1] == pytest.approx(4.0)
        assert np.allclose(w[:3], 0.0, atol=1e-12)
