"""Tests shared across all interatomic potentials: symmetries and physics."""

import numpy as np
import pytest

from repro.equivariant.wigner import random_rotation
from repro.md import Cell, System, neighbor_list
from repro.models import (
    AllegroConfig,
    AllegroModel,
    ClassicalConfig,
    ClassicalForceField,
    DeepMDConfig,
    DeepMDModel,
    LennardJones,
    MorsePotential,
    NequIPConfig,
    NequIPModel,
    ZBLRepulsion,
)


@pytest.fixture
def rng():
    return np.random.default_rng(83)


def small_allegro(n_species=2, **kw):
    defaults = dict(
        n_species=n_species,
        n_tensor=4,
        latent_dim=16,
        two_body_hidden=(16,),
        latent_hidden=(16,),
        edge_energy_hidden=(8,),
        r_cut=3.5,
        avg_num_neighbors=10.0,
    )
    defaults.update(kw)
    return AllegroModel(AllegroConfig(**defaults))


def all_ml_models(n_species=2):
    return {
        "allegro": small_allegro(n_species),
        "nequip": NequIPModel(NequIPConfig(n_species=n_species, n_features=4, n_layers=2)),
        "deepmd": DeepMDModel(DeepMDConfig(n_species=n_species)),
        "classical": ClassicalForceField(ClassicalConfig(n_species=n_species)),
    }


@pytest.fixture
def cluster(rng):
    """Open-boundary random cluster (so rigid motions are exact symmetries)."""
    n = 14
    pos = rng.uniform(0, 6.5, size=(n, 3))
    spec = rng.integers(0, 2, size=n)
    return System(pos, spec, None)


class TestSymmetries:
    @pytest.mark.parametrize("name", ["allegro", "nequip", "deepmd", "classical"])
    def test_e3_invariance_and_equivariance(self, name, cluster, rng):
        model = all_ml_models()[name]
        E0, F0 = model.energy_and_forces(cluster)
        R = random_rotation(rng)
        t = rng.normal(size=3) * 4

        rotated = System(cluster.positions @ R.T + t, cluster.species, None)
        E1, F1 = model.energy_and_forces(rotated)
        assert E1 == pytest.approx(E0, abs=1e-9)
        assert np.allclose(F1, F0 @ R.T, atol=1e-8)

        inverted = System(-cluster.positions, cluster.species, None)
        E2, F2 = model.energy_and_forces(inverted)
        assert E2 == pytest.approx(E0, abs=1e-9)
        assert np.allclose(F2, -F0, atol=1e-8)

    @pytest.mark.parametrize("name", ["allegro", "nequip", "deepmd"])
    def test_permutation_invariance(self, name, cluster, rng):
        model = all_ml_models()[name]
        E0, F0 = model.energy_and_forces(cluster)
        perm = rng.permutation(cluster.n_atoms)
        permuted = System(cluster.positions[perm], cluster.species[perm], None)
        E1, F1 = model.energy_and_forces(permuted)
        assert E1 == pytest.approx(E0, abs=1e-9)
        assert np.allclose(F1, F0[perm], atol=1e-8)

    @pytest.mark.parametrize("name", ["allegro", "nequip", "deepmd", "classical"])
    def test_zero_net_force(self, name, cluster):
        _, F = all_ml_models()[name].energy_and_forces(cluster)
        assert np.abs(F.sum(axis=0)).max() < 1e-9

    def test_forces_are_exact_energy_gradient(self, cluster):
        """Central-difference check of F = −∂E/∂r on a few coordinates."""
        model = small_allegro()
        nl = model.prepare_neighbors(cluster)
        _, F = model.energy_and_forces(cluster, nl)
        eps = 1e-5
        for atom, axis in [(0, 0), (5, 2), (9, 1)]:
            plus = cluster.copy()
            plus.positions[atom, axis] += eps
            minus = cluster.copy()
            minus.positions[atom, axis] -= eps
            ep, _ = model.energy_and_forces(plus, nl)
            em, _ = model.energy_and_forces(minus, nl)
            fd = -(ep - em) / (2 * eps)
            assert fd == pytest.approx(F[atom, axis], abs=1e-5, rel=1e-4)


class TestAllegroSpecifics:
    def test_paper_scale_parameter_count(self):
        model = AllegroModel(AllegroConfig.paper(n_species=4))
        n = model.num_parameters()
        assert 7.0e6 < n < 8.5e6  # paper: 7.85M weights

    def test_per_pair_cutoffs_reduce_edges(self, rng):
        n = 60
        s = System(rng.uniform(0, 9, (n, 3)), rng.integers(0, 2, n), Cell.cubic(9.0))
        ppc = np.array([[1.5, 1.2], [3.5, 3.5]])
        model = small_allegro(per_pair_cutoffs=ppc)
        nl_full = neighbor_list(s, model.cutoff)
        nl_model = model.prepare_neighbors(s)
        assert nl_model.n_edges < nl_full.n_edges

    def test_energy_continuous_at_cutoff(self, rng):
        """Moving an atom through the cutoff must not jump the energy.

        The difference across the cutoff must scale linearly with the probe
        step (finite slope), i.e. no O(1) discontinuity as the neighbor list
        drops the edge.
        """
        model = small_allegro()
        base = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

        def energy(d):
            pos = np.vstack([base, [d, 0.0, 0.0]])
            s = System(pos, np.array([0, 1, 0, 1]), None)
            return model.energy_and_forces(s)[0]

        gaps = [abs(energy(3.5 - eps) - energy(3.5 + eps)) for eps in (1e-3, 1e-5)]
        # Continuous with bounded slope: gap shrinks proportionally to eps.
        assert gaps[1] < gaps[0] * 1e-1
        assert gaps[1] < 1e-4

    def test_zbl_requires_atomic_numbers(self):
        with pytest.raises(ValueError):
            AllegroModel(AllegroConfig(n_species=2, zbl=True))

    def test_zbl_adds_core_repulsion(self, rng):
        m_zbl = small_allegro(zbl=True, atomic_numbers=np.array([1.0, 6.0]))
        close = System(
            np.array([[0.0, 0.0, 0.0], [0.35, 0.0, 0.0]]), np.array([0, 1]), None
        )
        e_zbl, f_zbl = m_zbl.energy_and_forces(close)
        # ZBL must dominate at 0.35 Å: strong mutual repulsion.
        assert f_zbl[0, 0] < -1.0 and f_zbl[1, 0] > 1.0

    def test_batched_prediction_matches_individual(self, rng):
        model = small_allegro()
        systems = [
            System(rng.uniform(0, 5, (8, 3)), rng.integers(0, 2, 8), None)
            for _ in range(3)
        ]
        nls = [model.prepare_neighbors(s) for s in systems]
        # individual
        singles = [model.energy_and_forces(s, nl) for s, nl in zip(systems, nls)]
        # batched
        from repro.nn.training import LabeledFrame, _Batch

        frames = [
            LabeledFrame(s, e, f) for s, (e, f) in zip(systems, singles)
        ]
        batch = _Batch(frames, nls)
        # One evaluation of the merged graph: structures are independent,
        # so per-structure energies are a segment sum and forces are exact.
        e_atoms, f_b = model.evaluate(batch.positions, batch.species, batch.nl)
        e_b = np.bincount(batch.batch_index, e_atoms, 3)
        assert np.allclose(e_b, [e for e, _ in singles], atol=1e-10)
        assert np.allclose(f_b, np.concatenate([f for _, f in singles]), atol=1e-10)

    def test_empty_neighbor_list(self):
        model = small_allegro()
        s = System(np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]]), np.array([0, 1]), None)
        e, f = model.energy_and_forces(s)
        assert np.isfinite(e)
        assert np.allclose(f, 0.0)


class TestNequIPSpecifics:
    def test_receptive_field_grows_with_layers(self):
        m2 = NequIPModel(NequIPConfig(n_species=2, n_layers=2, r_cut=4.0))
        m4 = NequIPModel(NequIPConfig(n_species=2, n_layers=4, r_cut=4.0))
        assert m2.receptive_field() == 8.0
        assert m4.receptive_field() == 16.0

    def test_energy_depends_beyond_cutoff(self, rng):
        """Message passing: an atom OUTSIDE the cutoff (but within 2 hops)
        influences the energy — the non-locality that blocks decomposition."""
        model = NequIPModel(
            NequIPConfig(n_species=1, n_features=4, n_layers=2, r_cut=2.0, seed=1)
        )
        # chain: A(0) - B(1.5) - C(3.0): A-C distance 3.0 > cutoff 2.0
        def energy_with_c_at(x):
            pos = np.array([[0.0, 0, 0], [1.5, 0, 0], [x, 0, 0]])
            s = System(pos, np.zeros(3, int), None)
            e, _ = model.energy_and_forces(s)
            return e

        e1 = energy_with_c_at(3.0)
        e2 = energy_with_c_at(3.2)
        # Moving C (never within A's cutoff) changes B's messages to A.
        assert abs(e1 - e2) > 1e-10


class TestPairPotentials:
    def test_lj_minimum_location(self):
        lj = LennardJones(epsilon=1.0, sigma=1.0, cutoff=5.0)
        r_min = 2 ** (1 / 6)
        s = System(np.array([[0.0, 0, 0], [r_min, 0, 0]]), np.zeros(2, int), None)
        _, f = lj.energy_and_forces(s)
        assert np.abs(f).max() < 0.05  # near-zero force at the minimum

    def test_lj_validation(self):
        with pytest.raises(ValueError):
            LennardJones(epsilon=np.ones((2, 3)), sigma=1.0, n_species=2)

    def test_morse_well_depth(self):
        D = np.array([[0.5]])
        m = MorsePotential(D, np.array([[1.5]]), np.array([[1.2]]), cutoff=6.0)
        s = System(np.array([[0.0, 0, 0], [1.2, 0, 0]]), np.zeros(2, int), None)
        e, f = m.energy_and_forces(s)
        assert e < 0
        assert np.abs(f).max() < 0.05

    def test_morse_validation(self):
        with pytest.raises(ValueError):
            MorsePotential(np.ones(2), np.ones(2), np.ones(2))

    def test_morse_rejects_non_square_tables(self):
        """pair_idx = s_i·S + s_j reads an [S, S] table; [2, 3] would hand
        pair (1, 0) the entry D[0, 2]."""
        with pytest.raises(ValueError):
            MorsePotential(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)))

    def test_zbl_repulsive_and_monotone(self):
        zbl = ZBLRepulsion(np.array([1.0, 8.0]), cutoff=2.0)
        energies = []
        for r in (0.3, 0.5, 0.8, 1.2):
            s = System(np.array([[0.0, 0, 0], [r, 0, 0]]), np.array([0, 1]), None)
            e, _ = zbl.energy_and_forces(s)
            energies.append(e)
        assert all(e > 0 for e in energies)
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_zbl_validation(self):
        with pytest.raises(ValueError):
            ZBLRepulsion(np.array([1.0, -2.0]))
