import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsim import DisorderSpec, Geometry, linear_array, linear_array_xi, sample_disorder
from dfsim import geometry
from dfsim.geometry import _disorder_positions


def draw_loop(g, spec):
    """Disorder draws one sample at a time: a ``Geometry`` per attempt,
    redrawn from the sample's own generator until it validates.  Returns
    the positions and the number of redraws."""
    sigma = np.sqrt(spec.variance)
    out, redraws = [], 0
    for ss in np.random.SeedSequence(spec.seed).spawn(spec.samples):
        rng = np.random.default_rng(ss)
        while True:
            displaced = g.positions + rng.normal(0.0, sigma,
                                                 size=g.positions.shape)
            try:
                out.append(Geometry(positions=displaced,
                                    alpha=g.alpha).positions)
                break
            except ValueError:
                redraws += 1
    return np.array(out), redraws


def logged_redraws(caplog):
    return [r.args[0] for r in caplog.records
            if r.name == "dfsim.geometry"
            and r.getMessage().startswith("sample_disorder:")]


class TestLinearArray:
    def test_xi13_doubles_xi12(self):
        g = linear_array_xi(0.5, n=3, alpha=0.0)
        xi = g.xi_matrix()
        assert xi[0, 1] == pytest.approx(0.5, rel=1e-12)
        assert xi[0, 2] == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_placement(self):
        g = linear_array_xi(0.37, n=3, alpha=0.3)
        xi = g.xi_matrix()
        assert xi[1, 2] == pytest.approx(xi[0, 1], rel=1e-12)

    def test_perpendicular_dipole_geometry(self):
        g = linear_array_xi(0.15, n=3, alpha=np.pi / 2)
        assert g.xi12 == pytest.approx(0.15, rel=1e-12)
        assert np.allclose(g.dipole, [0.0, 1.0, 0.0], atol=1e-12)

    def test_three_emitters_centred(self):
        g = linear_array(0.1, n=3)
        assert np.allclose(g.positions[:, 0], [-0.1, 0.0, 0.1])
        assert np.allclose(g.positions[:, 1:], 0.0)

    def test_four_emitters_equally_spaced(self):
        g = linear_array(0.2, n=4)
        gaps = np.diff(g.positions[:, 0])
        assert np.allclose(gaps, 0.2)
        assert abs(g.positions[:, 0].sum()) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            linear_array(0.0, n=3)
        with pytest.raises(ValueError):
            linear_array(-0.1, n=3)
        with pytest.raises(ValueError):
            linear_array(0.1, n=5)

    def test_rejects_coincident_positions(self):
        pos = np.zeros((3, 3))
        pos[2, 0] = 0.5
        with pytest.raises(ValueError):
            Geometry(positions=pos, alpha=0.0)


class TestXiMatrixProperties:
    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(min_value=0.005, max_value=0.2),
           alpha=st.floats(min_value=0.0, max_value=np.pi),
           shift=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)))
    def test_translation_invariance(self, r, alpha, shift):
        g = linear_array(r, n=3, alpha=alpha)
        moved = Geometry(positions=g.positions + np.asarray(shift),
                         alpha=alpha)
        assert np.allclose(moved.xi_matrix(), g.xi_matrix(), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(min_value=0.005, max_value=0.2))
    def test_symmetric_zero_diagonal(self, r):
        g = linear_array(r, n=4)
        xi = g.xi_matrix()
        assert np.allclose(xi, xi.T)
        assert np.allclose(np.diag(xi), 0.0)


class TestDisorder:
    def test_zero_variance_reproduces_nominal(self):
        g = linear_array_xi(0.5)
        samples = sample_disorder(g, DisorderSpec(variance=0.0, samples=5, seed=1))
        for s in samples:
            assert np.max(np.abs(s.positions - g.positions)) < 1e-12

    def test_seed_determinism(self):
        g = linear_array_xi(0.5)
        spec = DisorderSpec(variance=0.005, samples=20, seed=42)
        a = sample_disorder(g, spec)
        b = sample_disorder(g, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.positions, y.positions)

    def test_alpha_preserved(self):
        g = linear_array_xi(0.5, alpha=0.4)
        samples = sample_disorder(g, DisorderSpec(variance=1e-4, samples=3, seed=0))
        assert all(s.alpha == 0.4 for s in samples)

    def test_displacement_statistics(self):
        # Sample variance of the displacements should sit within three
        # standard errors of the requested variance.
        g = linear_array_xi(0.5)
        v = 1e-4
        n = 10000
        samples = sample_disorder(g, DisorderSpec(variance=v, samples=n, seed=7))
        disp = np.array([s.positions - g.positions for s in samples]).ravel()
        sample_var = disp.var(ddof=1)
        se = v * np.sqrt(2.0 / (len(disp) - 1))
        assert abs(sample_var - v) < 3.0 * se
        assert abs(disp.mean()) < 3.0 * np.sqrt(v / len(disp))

    @pytest.mark.parametrize("n,xi,variance,seed", [
        (3, 0.5, 0.005, 20260809), (4, 0.15, 0.0016, 3), (3, 0.5, 0.0, 1)])
    def test_stack_matches_draw_loop(self, caplog, n, xi, variance, seed):
        g = linear_array_xi(xi, n=n, alpha=0.7)
        spec = DisorderSpec(variance=variance, samples=40, seed=seed)
        want, redraws = draw_loop(g, spec)
        assert redraws == 0
        with caplog.at_level(logging.INFO, logger="dfsim.geometry"):
            stack = _disorder_positions(g, spec)
        assert np.array_equal(stack, want)
        assert np.array_equal(
            [s.positions for s in sample_disorder(g, spec)], want)
        assert logged_redraws(caplog) == []

    def test_forced_redraws_match_draw_loop(self, caplog, monkeypatch):
        # Raising the minimum separation above the chain spacing (0.08)
        # makes many draws fail; each sample redraws from its own
        # generator, and the logged count is the loop's.
        g = linear_array_xi(0.5)
        monkeypatch.setattr(geometry, "MIN_SEPARATION", 0.12)
        spec = DisorderSpec(variance=0.005, samples=30, seed=11)
        want, redraws = draw_loop(g, spec)
        assert redraws > spec.samples
        with caplog.at_level(logging.INFO, logger="dfsim.geometry"):
            stack = _disorder_positions(g, spec)
        assert np.array_equal(stack, want)
        assert logged_redraws(caplog) == [redraws]
        assert not geometry._coincident(stack).any()

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            DisorderSpec(variance=-1.0, samples=10)
        with pytest.raises(ValueError):
            DisorderSpec(variance=0.1, samples=0)
