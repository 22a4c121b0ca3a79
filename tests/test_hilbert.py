import numpy as np
import pytest

from dfsim import (collective_eigenbasis, coupling_matrices, dfs4_states,
                   dicke_coupling, fidelity, fidelity_raw, linear_array_xi)
from dfsim.hilbert import (excitation_numbers, ground_state,
                           lowering_operators, static_hamiltonian)


def ket(bits: str) -> np.ndarray:
    psi = np.zeros(2 ** len(bits), dtype=complex)
    psi[int(bits, 2)] = 1.0
    return psi


class TestCollectiveBasis:
    def test_ground_level_is_vacuum(self):
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(0.5, alpha=0.0)))
        a = basis.vector("a")
        assert abs(np.vdot(ket("000"), a)) ** 2 > 1.0 - 1e-12
        assert abs(basis.linewidth("a")) < 1e-12
        assert abs(basis.energy("a")) < 1e-12

    def test_top_level_is_fully_excited(self):
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(0.5, alpha=0.0)))
        h = basis.vector("h")
        assert abs(np.vdot(ket("111"), h)) ** 2 > 1.0 - 1e-12
        assert basis.linewidth("h") == pytest.approx(3.0, abs=1e-10)

    def test_labels_sorted_by_sector_then_energy(self):
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(0.15, alpha=np.pi / 2)))
        assert list(basis.n_excitations) == [0, 1, 1, 1, 2, 2, 2, 3]
        for sector in (1, 2):
            e = basis.energies[basis.n_excitations == sector]
            assert np.all(np.diff(e) > 0)
        assert basis.energy("b") < basis.energy("c")

    def test_exact_dicke_limit_reference_states(self):
        # With all pair couplings equal, the lower one-excitation pair is
        # exactly degenerate and is aligned to the conventional
        # zero-separation doublet states.
        basis = collective_eigenbasis(dicke_coupling(3, delta=10.0))
        b_ref = (-2 * ket("001") + ket("010") + ket("100")) / np.sqrt(6.0)
        c_ref = (ket("010") - ket("100")) / np.sqrt(2.0)
        assert abs(np.vdot(b_ref, basis.vector("b"))) ** 2 > 0.999
        assert abs(np.vdot(c_ref, basis.vector("c"))) ** 2 > 0.999
        assert abs(basis.linewidth("b")) < 1e-9
        assert abs(basis.linewidth("c")) < 1e-9
        assert basis.linewidth("d") == pytest.approx(3.0, abs=1e-9)

    def test_small_separation_chain_keeps_fixed_coupling_ratios(self):
        # A linear chain never reaches the equal-coupling point: the
        # nearest/next-nearest shift ratio stays 8, so at small spacing the
        # lowest one-excitation level is the bright symmetric combination
        # (for axial dipoles) and the antisymmetric combination is exact.
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(1e-3, alpha=0.0)))
        sym = (ket("100") + ket("010") + ket("001")) / np.sqrt(3.0)
        antisym = (ket("100") - ket("001")) / np.sqrt(2.0)
        assert abs(np.vdot(sym, basis.vector("b"))) ** 2 > 0.97
        assert abs(np.vdot(antisym, basis.vector("c"))) ** 2 > 1.0 - 1e-9
        assert basis.linewidth("c") < 1e-5
        assert basis.linewidth("b") > 2.8

    def test_completeness(self):
        c = coupling_matrices(linear_array_xi(0.3, alpha=1.0))
        h = static_hamiltonian(c)
        basis = collective_eigenbasis(c)
        rebuilt = basis.vectors @ np.diag(basis.eigenvalues) @ basis.left
        rel = np.linalg.norm(rebuilt - h) / np.linalg.norm(h)
        assert rel < 1e-8

    def test_left_right_biorthogonality(self):
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(0.5, alpha=0.0)))
        assert np.allclose(basis.left @ basis.vectors, np.eye(8), atol=1e-10)

    def test_populations_sum_to_one_for_unit_states(self):
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(0.15, alpha=np.pi / 2)))
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        pops = basis.populations(psi)
        # Slightly non-orthogonal basis: the amplitude weights still
        # resolve the identity through the left vectors.
        assert pops.sum() == pytest.approx(1.0, abs=5e-3)

    def test_decaying_eigenvalues(self):
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(0.4, alpha=0.7)))
        assert np.all(basis.eigenvalues.imag < 1e-12)


class TestDfs4:
    def test_orthonormal(self):
        zero, one = dfs4_states()
        assert np.vdot(zero, zero) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(one, one) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(zero, one)) < 1e-12

    def test_annihilated_by_collective_lowering(self):
        zero, one = dfs4_states()
        s_minus = sum(lowering_operators(4))
        assert np.linalg.norm(s_minus @ zero) < 1e-12
        assert np.linalg.norm(s_minus @ one) < 1e-12

    def test_two_excitation_eigenstates(self):
        zero, one = dfs4_states()
        nexc = excitation_numbers(4)
        for psi in (zero, one):
            weights = np.abs(psi) ** 2
            assert set(nexc[weights > 1e-14]) == {2}

    def test_exact_dicke_dark_subspace_matches(self):
        # At the equal-coupling point the two-excitation sector has exactly
        # two zero-linewidth levels spanned by the logical pair.
        basis = collective_eigenbasis(dicke_coupling(4, delta=10.0))
        dark = [k for k in range(16)
                if basis.n_excitations[k] == 2 and basis.linewidths[k] < 1e-9]
        assert len(dark) == 2
        zero, one = dfs4_states()
        p_ref = np.outer(zero, zero.conj()) + np.outer(one, one.conj())
        v = basis.vectors[:, dark]
        p_dark = v @ np.linalg.pinv(v)
        overlap = np.trace(p_ref @ p_dark).real / 2.0
        assert overlap > 0.999


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(0)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert fidelity(psi, psi / np.linalg.norm(psi)) == pytest.approx(1.0)

    def test_orthogonal_sectors(self):
        basis = collective_eigenbasis(coupling_matrices(
            linear_array_xi(1e-3, alpha=0.0)))
        assert fidelity(ground_state(3), basis.vector("b")) < 1e-20

    def test_conditional_renormalises_shrunk_states(self):
        target = ket("100")
        psi = 0.1 * target
        assert fidelity(psi, target) == pytest.approx(1.0)
        assert fidelity_raw(psi, target) == pytest.approx(0.01)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros(8), ket("000"))
