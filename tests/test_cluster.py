import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsim import expected_growth, grow_chain, verify_cluster_state_small
from dfsim.cluster import (apply_cz, cluster_state, measure_z, pauli,
                           recover_after_failed_attach,
                           stabilizer_expectations)


def ket(bits: str) -> np.ndarray:
    psi = np.zeros(2 ** len(bits), dtype=complex)
    psi[int(bits, 2)] = 1.0
    return psi


def loop_lengths(increments, initial_length):
    """Chain lengths one attempt at a time: a success adds a qubit, a
    failure removes two, and a chain that would fall below one qubit
    restarts from a single fresh one."""
    lengths = np.empty(len(increments), dtype=int)
    length = initial_length
    for k, inc in enumerate(increments):
        length = length + 1 if inc > 0 else max(length - 2, 1)
        lengths[k] = length
    return lengths


class TestExpectedGrowth:
    def test_always_succeeding(self):
        assert expected_growth(1.0) == pytest.approx(1.0)

    def test_break_even_point(self):
        assert expected_growth(2.0 / 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_always_failing(self):
        assert expected_growth(0.0) == pytest.approx(-2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_growth(1.5)
        with pytest.raises(ValueError):
            expected_growth(-0.1)


class TestGrowChain:
    def test_perfect_attachment(self):
        run = grow_chain(1.0, 10, seed=0, initial_length=4)
        assert run.lengths[-1] == 14
        assert np.all(run.increments == 1)

    def test_deterministic_per_seed(self):
        a = grow_chain(0.7, 500, seed=11)
        b = grow_chain(0.7, 500, seed=11)
        assert np.array_equal(a.lengths, b.lengths)
        c = grow_chain(0.7, 500, seed=12)
        assert not np.array_equal(a.increments, c.increments)

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_increments_and_floor(self, p, seed):
        run = grow_chain(p, 200, seed=seed)
        assert set(np.unique(run.increments)).issubset({1, -2})
        assert np.all(run.lengths >= 1)

    @pytest.mark.parametrize("p", [0.0, 0.3, 2.0 / 3.0, 0.9, 1.0])
    @pytest.mark.parametrize("initial_length", [1, 2, 7])
    def test_lengths_match_attempt_loop(self, p, initial_length):
        for m, seed in [(1, 0), (2, 5), (37, 1), (1000, 202608),
                        (10000, 7)]:
            run = grow_chain(p, m, seed=seed, initial_length=initial_length)
            want = loop_lengths(run.increments, initial_length)
            assert run.lengths.dtype == want.dtype
            assert np.array_equal(run.lengths, want)

    @pytest.mark.parametrize("initial_length", [0, -4])
    def test_rejects_empty_start(self, initial_length):
        with pytest.raises(ValueError):
            grow_chain(0.9, 2, seed=0, initial_length=initial_length)

    @pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 0.75, 0.9])
    def test_mean_growth_matches_law(self, p):
        m = 10000
        run = grow_chain(p, m, seed=202608)
        sigma = 3.0 * np.sqrt(p * (1.0 - p) / m)
        assert abs(run.mean_growth - expected_growth(p)) < 3.0 * sigma


class TestClusterState:
    def test_two_qubit_form(self):
        psi = cluster_state(2)
        want = (ket("00") + ket("01") + ket("10") - ket("11")) / 2.0
        assert np.allclose(psi, want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stabilizers_unit_expectation(self, n):
        psi = cluster_state(n)
        for s in stabilizer_expectations(psi):
            assert abs(s - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [4, 5])
    def test_recursive_decomposition(self, n):
        result = verify_cluster_state_small(n)
        assert result["stabilizer_error"] < 1e-10
        assert result["recursion_error"] < 1e-10
        assert result["cross_branch"] < 1e-10

    def test_cz_is_involution(self):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        assert np.allclose(apply_cz(apply_cz(psi, 0, 2, 3), 0, 2, 3), psi)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            verify_cluster_state_small(1)


class TestMeasurementRecovery:
    def test_measure_z_projects(self):
        psi = cluster_state(3)
        post, prob = measure_z(psi, 2, 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.vdot(post, post).real == pytest.approx(1.0)
        idx = np.arange(8)
        assert np.all(post[(idx & 1) == 1] == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_failed_attach_recovers_shorter_chain(self, seed):
        # Losing the damaged end qubit plus its neighbour through
        # computational-basis measurements and a conditional phase
        # correction returns the chain two qubits shorter.
        psi4 = cluster_state(4)
        rng = np.random.default_rng(seed)
        recovered = recover_after_failed_attach(psi4, rng=rng)
        target = cluster_state(2)
        assert abs(np.vdot(target, recovered)) == pytest.approx(1.0, abs=1e-10)

    def test_end_measurement_reduces_cluster(self):
        # Measuring the end qubit of a chain cluster leaves the shorter
        # cluster up to a known phase correction on the new end.
        psi = cluster_state(5)
        for outcome in (0, 1):
            post, _ = measure_z(psi, 4, outcome)
            from dfsim.cluster import discard_qubit
            reduced = discard_qubit(post, 4, outcome)
            if outcome == 1:
                reduced = pauli(4, 3, "Z") @ reduced
            assert abs(np.vdot(cluster_state(4), reduced)) == pytest.approx(
                1.0, abs=1e-10)
