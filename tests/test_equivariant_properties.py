"""Hypothesis property tests over the equivariant substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.autodiff as ad
from repro.equivariant import (
    FusedTensorProduct,
    Irrep,
    StridedLayout,
    enumerate_paths,
    reachable_output_irreps,
    wigner_3j,
)
from repro.equivariant.spherical_harmonics import _sh_numpy_single_l
from repro.equivariant.wigner import random_rotation, rotation_to_wigner_d

irrep_l = st.integers(0, 3)
parity = st.sampled_from([1, -1])


class TestWignerProperties:
    @given(irrep_l, irrep_l, irrep_l)
    @settings(max_examples=30, deadline=None)
    def test_w3j_norm_is_zero_or_one(self, l1, l2, l3):
        """Allowed triples are unit-normalized; forbidden ones are zero."""
        w = wigner_3j(l1, l2, l3)
        total = float((w**2).sum())
        if abs(l1 - l2) <= l3 <= l1 + l2:
            assert total == pytest.approx(1.0, abs=1e-10)
        else:
            assert total == 0.0

    @given(irrep_l, irrep_l)
    @settings(max_examples=20, deadline=None)
    def test_w3j_shape(self, l1, l2):
        l3 = l1 + l2
        w = wigner_3j(l1, l2, l3)
        assert w.shape == (2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_sh_unit_norm_random_directions(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(8, 3))
        u = v / np.linalg.norm(v, axis=1, keepdims=True)
        for l in range(4):
            Y = _sh_numpy_single_l(l, u)
            assert np.allclose((Y**2).sum(axis=1), 2 * l + 1, atol=1e-9)

    @given(st.integers(0, 100), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_wigner_d_determinant_is_one(self, seed, l):
        R = random_rotation(np.random.default_rng(seed))
        D = rotation_to_wigner_d(l, R)
        assert np.linalg.det(D) == pytest.approx(1.0, abs=1e-7)


class TestPathProperties:
    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_paths_obey_selection_rules(self, lmax1, lmax2):
        lay1 = StridedLayout.full_o3(lmax1, mul=1)
        lay2 = StridedLayout.spherical(lmax2, mul=1)
        for p in enumerate_paths(lay1, lay2):
            assert abs(p.ir1.l - p.ir2.l) <= p.ir_out.l <= p.ir1.l + p.ir2.l
            assert p.ir_out.p == p.ir1.p * p.ir2.p

    @given(st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_reachable_monotone_in_layers(self, lmax, layers):
        env = [Irrep(l, (-1) ** l) for l in range(lmax + 1)]
        smaller = reachable_output_irreps(lmax, layers, env)
        larger = reachable_output_irreps(lmax, layers + 1, env)
        assert smaller <= larger
        assert Irrep(0, 1) in smaller

    @given(st.integers(1, 2), st.integers(0, 400))
    @settings(max_examples=10, deadline=None)
    def test_tp_linearity_in_both_args(self, lmax, seed):
        rng = np.random.default_rng(seed)
        lay1 = StridedLayout.full_o3(lmax, mul=2)
        lay2 = StridedLayout.spherical(lmax, mul=2)
        tp = FusedTensorProduct(lay1, lay2)
        x = ad.Tensor(rng.normal(size=(3, 2, lay1.dim)))
        y = ad.Tensor(rng.normal(size=(3, 2, lay2.dim)))
        a = float(rng.normal())
        with ad.no_grad():
            lhs = tp(x * a, y).data
            rhs = a * tp(x, y).data
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1, abs(a)))


class TestLayoutProperties:
    @given(st.integers(1, 4), st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_full_o3_dim_formula(self, lmax, mul):
        lay = StridedLayout.full_o3(lmax, mul=mul)
        assert lay.dim == 2 * (lmax + 1) ** 2  # paper §V-B1 bound

    @given(st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_spherical_dim_formula(self, lmax):
        lay = StridedLayout.spherical(lmax, mul=1)
        assert lay.dim == (lmax + 1) ** 2


class TestValidationUtilities:
    def test_check_potential_invariance_passes_for_allegro(self):
        from repro.equivariant import check_potential_invariance
        from repro.md import System
        from repro.models import AllegroConfig, AllegroModel

        rng = np.random.default_rng(5)
        model = AllegroModel(
            AllegroConfig(
                n_species=2, n_tensor=2, latent_dim=8, two_body_hidden=(8,),
                latent_hidden=(8,), edge_energy_hidden=(4,), r_cut=3.0,
                avg_num_neighbors=8.0,
            )
        )
        s = System(rng.uniform(0, 5, (10, 3)), rng.integers(0, 2, 10), None)
        report = check_potential_invariance(model, s, n_trials=2)
        assert report.passed, str(report)
        assert "PASS" in str(report)

    def test_check_potential_invariance_catches_broken_symmetry(self):
        from repro.equivariant import check_potential_invariance
        from repro.md import System
        from repro.models import LennardJones

        class Broken(LennardJones):
            def atomic_energies(self, positions, species, nl):
                base = super().atomic_energies(positions, species, nl)
                return base + positions[:, 0] * 0.1  # explicit x-dependence

        rng = np.random.default_rng(6)
        s = System(rng.uniform(0, 5, (8, 3)), np.zeros(8, int), None)
        report = check_potential_invariance(
            Broken(epsilon=0.01, sigma=1.5, cutoff=3.0), s, n_trials=2
        )
        assert not report.passed

    def test_check_potential_invariance_rejects_periodic(self):
        from repro.equivariant import check_potential_invariance
        from repro.md import Cell, System
        from repro.models import LennardJones

        s = System(np.zeros((2, 3)), np.zeros(2, int), Cell.cubic(5.0))
        with pytest.raises(ValueError):
            check_potential_invariance(LennardJones(cutoff=2.0), s)

    def test_check_feature_equivariance_accepts_and_rejects(self):
        from repro.equivariant import check_feature_equivariance

        lay = StridedLayout.full_o3(1, mul=2)
        # Per-irrep scaling commutes with every D: equivariant.
        scales = np.concatenate(
            [np.full(ir.dim, 1.0 + 0.5 * k) for k, ir in enumerate(lay.irreps)]
        )
        err = check_feature_equivariance(lambda x: x * scales, lay, lay, n_trials=2)
        assert err < 1e-10

        # Mixing columns across irreps breaks equivariance: must register.
        rng = np.random.default_rng(7)
        M = rng.normal(size=(lay.dim, lay.dim))
        err_bad = check_feature_equivariance(lambda x: x @ M, lay, lay, n_trials=2)
        assert err_bad > 1e-3

    @pytest.mark.parametrize("improper", [False, True])
    def test_block_diagonal_rep_is_scipy_block_diag(self, improper):
        """The numpy-filled representation equals the scipy one it replaced
        (scipy.linalg is no longer imported with the package)."""
        import scipy.linalg

        from repro.equivariant.validate import block_diagonal_rep
        from repro.equivariant.wigner import random_rotation, rotation_to_wigner_d

        R = random_rotation(np.random.default_rng(3))
        for lay in (StridedLayout.full_o3(2, mul=3), StridedLayout.spherical(3, mul=2)):
            blocks = [
                rotation_to_wigner_d(ir.l, R) * (ir.p if improper else 1)
                for ir in lay.irreps
            ]
            assert np.array_equal(
                block_diagonal_rep(lay, R, improper), scipy.linalg.block_diag(*blocks)
            )
