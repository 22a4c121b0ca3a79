import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsim import (DisorderSpec, collective_eigenbasis, coupling_matrices,
                   dfs4_states, dicke_coupling, fidelity, fidelity_raw,
                   hilbert, linear_array_xi, sample_disorder)
from dfsim.hilbert import (DEGENERACY_TOLERANCE, _align_degenerate,
                           _eigensystems, _fix_phases, _reference_states,
                           excitation_numbers, ground_state,
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


def fix_phases_loop(v: np.ndarray) -> np.ndarray:
    """Oracle for ``_fix_phases``: one column at a time, the largest
    component divided by its scalar ``abs``."""
    out = v.copy()
    for k in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, k])))
        out[:, k] = v[:, k] / (v[j, k] / abs(v[j, k]))
    return out


class TestVectorisedBasis:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_phases_match_column_loop_bit_for_bit(self, order):
        # One stack of 200 matrices, each row-major (C) or column-major (F).
        rng = np.random.default_rng(3)
        v = rng.normal(size=(200, 8, 8)) + 1j * rng.normal(size=(200, 8, 8))
        if order == "F":
            v = np.ascontiguousarray(v.transpose(0, 2, 1)).transpose(0, 2, 1)
        got = _fix_phases(v)
        assert got.flags["C_CONTIGUOUS"]
        for k in range(len(v)):
            assert np.array_equal(got[k], fix_phases_loop(v[k]))

    @pytest.mark.parametrize("n", [3, 4])
    def test_excitation_counts_match_column_loop(self, n):
        g = linear_array_xi(0.3, n=n, alpha=0.4)
        numbers = excitation_numbers(n)
        for gg in [g] + sample_disorder(g, DisorderSpec(variance=0.005,
                                                        samples=20, seed=4)):
            basis = collective_eigenbasis(coupling_matrices(gg))
            w = np.abs(basis.vectors) ** 2
            want = [int(round(float(numbers @ w[:, k] / np.sum(w[:, k]))))
                    for k in range(basis.dim)]
            assert basis.n_excitations.tolist() == want


def eigensystem_oracle(c):
    """One matrix at a time, as a plain loop over levels and degenerate
    groups: scipy's eig, sort, column norms, alignment and phase fix."""
    w, v = scipy.linalg.eig(static_hamiltonian(c))
    weights = np.abs(v) ** 2
    nexc = np.rint(excitation_numbers(c.n) @ weights
                   / weights.sum(axis=0)).astype(int)
    order = np.lexsort((w.real, nexc))
    w, v, nexc = w[order], v[:, order], nexc[order]
    v = v / np.linalg.norm(v, axis=0)
    scale = max(1.0, float(np.max(np.abs(w.real))))
    k = 0
    while k < len(w):
        end = k
        while (end + 1 < len(w) and nexc[end + 1] == nexc[k]
               and abs(w[end + 1].real - w[end].real)
               < DEGENERACY_TOLERANCE * scale):
            end += 1
        if end > k:
            v[:, k:end + 1] = _align_degenerate(
                v[:, k:end + 1], _reference_states(c.n)[nexc[k]])
        k = end + 1
    return w, fix_phases_loop(v), nexc


def assert_rows_match_one_row_calls(couplings):
    """Each row of one stacked ``_eigensystems`` call equals
    ``collective_eigenbasis`` of its coupling alone, bit for bit."""
    w, v, nexc = _eigensystems(np.array([static_hamiltonian(c)
                                         for c in couplings]))
    for k, c in enumerate(couplings):
        basis = collective_eigenbasis(c)
        assert np.array_equal(w[k], basis.eigenvalues)
        assert np.array_equal(v[k], basis.vectors)
        assert np.array_equal(nexc[k], basis.n_excitations)


def mixed_couplings(n: int) -> list:
    """Nominal chains, table1 and table2 disorder draws (for n = 3; one
    chain's draws for n = 4) and exactly degenerate Dicke couplings."""
    chains = ([linear_array_xi(0.5, alpha=0.0),
               linear_array_xi(0.15, alpha=np.pi / 2)] if n == 3 else
              [linear_array_xi(0.15, n=4, alpha=np.pi / 2)])
    variances = (0.005, 0.0016)
    draws = [gg for g, var in zip(chains, variances)
             for gg in sample_disorder(g, DisorderSpec(
                 variance=var, samples=6, seed=20260809))]
    geoms = [coupling_matrices(g) for g in chains + draws]
    return (geoms[:4] + [dicke_coupling(n)] + geoms[4:]
            + [dicke_coupling(n, delta=-4.0)])


class TestStackedEigensystems:
    @pytest.mark.parametrize("n,groups", [
        (3, [2, 2, 2, 2]), (4, [3, 2, 3, 3, 3, 3, 2, 3])])
    def test_rows_match_one_row_calls_bit_for_bit(self, monkeypatch, n,
                                                  groups):
        # Only the two Dicke rows hold exactly degenerate groups, so only
        # they go through the alignment: for n = 3 a doublet in each of the
        # one- and two-excitation sectors; for n = 4 triplets in the one-
        # and three-excitation sectors, and the dark pair and a triplet in
        # the two-excitation sector, ordered by the sign of the shift.
        couplings = mixed_couplings(n)
        aligned, align = [], hilbert._align_degenerate

        def counted(block, refs):
            aligned.append(block.shape[1])
            return align(block, refs)

        monkeypatch.setattr(hilbert, "_align_degenerate", counted)
        _eigensystems(np.array([static_hamiltonian(c) for c in couplings]))
        assert aligned == groups
        assert_rows_match_one_row_calls(couplings)

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([3, 4]), xi=st.floats(0.1, 1.0),
           alpha=st.floats(0.0, np.pi / 2),
           variance=st.floats(1e-7, 0.01),
           seed=st.integers(0, 2**32 - 1))
    def test_random_draws_match_one_row_calls(self, n, xi, alpha, variance,
                                              seed):
        g = linear_array_xi(xi, n=n, alpha=alpha)
        draws = sample_disorder(g, DisorderSpec(variance=variance,
                                                samples=5, seed=seed))
        assert_rows_match_one_row_calls(
            [coupling_matrices(gg) for gg in [g] + draws])

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_per_matrix_oracle_bit_for_bit(self, n):
        for c in mixed_couplings(n):
            basis = collective_eigenbasis(c)
            w, v, nexc = eigensystem_oracle(c)
            assert np.array_equal(basis.eigenvalues, w)
            assert np.array_equal(basis.vectors, v)
            assert np.array_equal(basis.n_excitations, nexc)

    def test_one_row_hamiltonian_is_the_stacked_one(self):
        couplings = mixed_couplings(3)
        for decay in (True, False):
            coeff = np.array([c.delta - 0.5j * c.gammas if decay
                              else c.delta for c in couplings])
            stack = hilbert._hamiltonians(coeff)
            for k, c in enumerate(couplings):
                assert np.array_equal(stack[k], static_hamiltonian(c, decay))


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
