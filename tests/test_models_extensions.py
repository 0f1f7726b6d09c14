"""Tests for deployment-mode inference (the pair_allegro analogue).

``inference_mode`` freezes parameters and pre-fuses tensor products for
the duration of a block, gives the training-mode result, and leaves the
model trainable afterwards.
"""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.md import System
from repro.models import AllegroConfig, AllegroModel


@pytest.fixture
def rng():
    return np.random.default_rng(151)


def tiny_allegro():
    return AllegroModel(
        AllegroConfig(
            n_species=4,
            n_tensor=2,
            latent_dim=12,
            two_body_hidden=(12,),
            latent_hidden=(12,),
            edge_energy_hidden=(8,),
            r_cut=3.0,
            avg_num_neighbors=8.0,
        )
    )


class TestInferenceMode:
    def test_identical_results_and_restoration(self, rng):
        model = tiny_allegro()
        s = System(rng.uniform(0, 5, (10, 3)), rng.integers(0, 4, 10), None)
        nl = model.prepare_neighbors(s)
        e0, f0 = model.energy_and_forces(s, nl)
        with model.inference_mode():
            e1, f1 = model.energy_and_forces(s, nl)
            assert all(not p.requires_grad for p in model.parameters())
        assert e1 == pytest.approx(e0, abs=1e-12)
        assert np.allclose(f1, f0, atol=1e-12)
        assert all(p.requires_grad for p in model.parameters())
        # TP caches cleared on exit.
        assert all(tp.frozen_weights is None for tp in model.tps)

    def test_training_still_works_after(self, rng):
        model = tiny_allegro()
        s = System(rng.uniform(0, 5, (8, 3)), rng.integers(0, 4, 8), None)
        nl = model.prepare_neighbors(s)
        with model.inference_mode():
            model.energy_and_forces(s, nl)
        pos = ad.Tensor(s.positions, requires_grad=True)
        e = model.total_energy(pos, s.species, nl)
        e.backward()
        assert any(p.grad is not None for p in model.parameters())
