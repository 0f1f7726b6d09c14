"""Tests for Bessel bases and the polynomial cutoff envelope."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.nn import BesselBasis, PerPairBesselBasis, PolynomialCutoff


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestPolynomialCutoff:
    def test_boundary_values(self):
        env = PolynomialCutoff(6)
        x = ad.Tensor(np.array([0.0, 0.5, 1.0, 1.5]))
        u = env(x).data
        assert np.isclose(u[0], 1.0)
        assert 0 < u[1] < 1
        assert u[2] == 0.0 and u[3] == 0.0

    def test_smooth_derivatives_at_cutoff(self):
        """p−1 derivatives vanish at x = 1: check the first two numerically."""
        env = PolynomialCutoff(6)
        eps = 1e-5
        for x0 in (1.0 - eps,):
            x = ad.Tensor(np.array([x0]), requires_grad=True)
            env(x).sum().backward()
            assert abs(x.grad.data[0]) < 1e-3

    def test_monotone_decreasing(self):
        env = PolynomialCutoff(6)
        x = np.linspace(0, 1, 100)
        u = env.numpy(x)
        assert np.all(np.diff(u) <= 1e-12)

    def test_numpy_matches_tensor_path(self, rng):
        env = PolynomialCutoff(4)
        x = rng.random(20) * 1.4
        assert np.allclose(env.numpy(x), env(ad.Tensor(x)).data)

    @pytest.mark.parametrize("p", [2, 3, 6, 9])
    def test_kernel_derivative_matches_central_differences(self, rng, p):
        """du/ds of the fused pair kernels against differences of u."""
        env = PolynomialCutoff(p)
        x = np.concatenate([rng.random(30), [0.0, 1.0, 1.3]])
        h = 1e-6
        numeric = (env.numpy(x + h) - env.numpy(x - h)) / (2 * h)
        exact = ad.kernels.envelope(np.minimum(x, 1.0), p, ds=True)
        np.testing.assert_allclose(exact, numeric, rtol=1e-7, atol=1e-8)
        assert np.all(exact[-2:] == 0.0) and np.all(env.numpy(x[-2:]) == 0.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            PolynomialCutoff(1)

    def test_gradcheck(self, rng):
        env = PolynomialCutoff(6)
        x = rng.random(8) * 0.9 + 0.02
        ad.gradcheck(lambda v: env(v), [x])


class TestBesselBasis:
    def test_shape_and_envelope(self, rng):
        basis = BesselBasis(4.0, num_basis=8)
        r = ad.Tensor(rng.random(10) * 3.5 + 0.3)
        out = basis(r)
        assert out.shape == (10, 8)
        beyond = basis(ad.Tensor(np.array([4.5, 6.0]))).data
        assert np.allclose(beyond, 0.0)

    def test_trainable_frequencies(self, rng):
        basis = BesselBasis(4.0, num_basis=4)
        r = ad.Tensor(rng.random(5) * 3 + 0.5)
        basis(r).sum().backward()
        assert basis.frequencies.grad is not None
        fixed = BesselBasis(4.0, num_basis=4, trainable=False)
        assert not fixed.frequencies.requires_grad

    def test_gradcheck_wrt_distance(self, rng):
        basis = BesselBasis(4.0, num_basis=4)
        ad.gradcheck(lambda r: basis(r), [rng.random(5) * 3 + 0.5], atol=1e-4)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            BesselBasis(-1.0)


class TestPerPairBesselBasis:
    def _cutoffs(self):
        # 2 species; ordered: (0→1) much stricter than (1→0), as in §V-B4.
        return np.array([[3.0, 1.25], [4.0, 4.0]])

    def test_ordered_asymmetry(self, rng):
        basis = PerPairBesselBasis(self._cutoffs(), num_basis=4)
        r = ad.Tensor(np.array([2.0, 2.0]))
        # pair index 0*2+1 = (0→1) cutoff 1.25: r=2 is beyond → zero.
        # pair index 1*2+0 = (1→0) cutoff 4.0: r=2 within → nonzero.
        out = basis(r, np.array([1, 2])).data
        assert np.allclose(out[0], 0.0)
        assert not np.allclose(out[1], 0.0)

    def test_envelope_of_uses_pair_cutoff(self):
        basis = PerPairBesselBasis(self._cutoffs())
        u = basis.envelope_of(ad.Tensor(np.array([2.0, 2.0])), np.array([1, 2])).data
        assert u[0] == 0.0 and u[1] > 0.0

    def test_gradcheck(self, rng):
        basis = PerPairBesselBasis(self._cutoffs(), num_basis=3)
        pair_idx = np.array([0, 3, 2])
        ad.gradcheck(
            lambda r: basis(r, pair_idx), [np.array([1.0, 2.0, 1.5])], atol=1e-4
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PerPairBesselBasis(np.ones((2, 3)))
        with pytest.raises(ValueError):
            PerPairBesselBasis(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_per_pair_frequencies_are_parameters(self):
        basis = PerPairBesselBasis(self._cutoffs(), num_basis=4)
        assert basis.frequencies.data.shape == (4, 4)  # S² pairs × B
        assert basis.frequencies.requires_grad
