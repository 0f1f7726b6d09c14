"""Integration tests of the force-matching training loop on real models."""

import numpy as np
import pytest

from repro.data import conformation_dataset, label_frames
from repro.models import (
    AllegroConfig,
    AllegroModel,
    ClassicalConfig,
    ClassicalForceField,
    DeepMDConfig,
    DeepMDModel,
)
from repro.nn import TrainConfig, Trainer
from repro.nn.training import LabeledFrame, _Batch


@pytest.fixture(scope="module")
def frames():
    return label_frames(conformation_dataset(20, n_heavy=4, seed=11, sigma=0.06))


def tiny_allegro():
    return AllegroModel(
        AllegroConfig(
            n_species=4,
            n_tensor=4,
            latent_dim=16,
            two_body_hidden=(16,),
            latent_hidden=(24,),
            edge_energy_hidden=(8,),
            r_cut=3.5,
            avg_num_neighbors=8.0,
        )
    )


class TestTrainer:
    def test_loss_decreases_allegro(self, frames):
        tr = Trainer(
            tiny_allegro(),
            frames[:12],
            frames[12:],
            TrainConfig(lr=5e-3, batch_size=6, max_epochs=12, seed=1),
        )
        hist = tr.fit()
        assert hist[-1].train_loss < 0.3 * hist[0].train_loss
        assert hist[-1].val_force_rmse is not None

    def test_validation_improves_over_untrained(self, frames):
        model = tiny_allegro()
        tr = Trainer(model, frames[:12], frames[12:], TrainConfig(lr=5e-3, batch_size=6))
        before = tr.evaluate(frames[12:])["force_rmse"]
        tr.fit(epochs=12)
        after = tr.evaluate(frames[12:], use_ema=True)["force_rmse"]
        assert after < before

    def test_deepmd_and_classical_train(self, frames):
        for model in (
            DeepMDModel(DeepMDConfig(n_species=4, r_cut=3.5)),
            ClassicalForceField(ClassicalConfig(n_species=4, r_cut=3.5)),
        ):
            tr = Trainer(model, frames[:12], config=TrainConfig(lr=1e-2, batch_size=6))
            hist = tr.fit(epochs=10)
            assert hist[-1].train_loss < hist[0].train_loss

    def test_force_scale_from_training_set(self, frames):
        tr = Trainer(tiny_allegro(), frames[:4])
        expected = max(np.abs(f.forces).max() for f in frames[:4])
        assert tr.force_scale == pytest.approx(expected)

    def test_lr_schedule_applied(self, frames):
        cfg = TrainConfig(lr=1e-3, batch_size=4, lr_schedule=lambda e: 1e-3 * 0.5**e)
        tr = Trainer(tiny_allegro(), frames[:4], config=cfg)
        tr.fit(epochs=2)
        assert tr.optimizer.lr == pytest.approx(5e-4)

    def test_energy_weight_loss_runs(self, frames):
        cfg = TrainConfig(lr=1e-3, batch_size=4, energy_weight=1.0, max_epochs=2)
        tr = Trainer(tiny_allegro(), frames[:4], config=cfg)
        hist = tr.fit()
        assert np.isfinite(hist[-1].train_loss)

    def test_requires_training_data(self):
        with pytest.raises(ValueError):
            Trainer(tiny_allegro(), [])

    def test_labeled_frame_validation(self, frames):
        with pytest.raises(ValueError):
            LabeledFrame(frames[0].system, 0.0, np.zeros((2, 3)))

    def test_labeled_frame_rejects_nonfinite_energy(self, frames):
        shape = frames[0].system.positions.shape
        with pytest.raises(ValueError, match="energy must be finite"):
            LabeledFrame(frames[0].system, float("nan"), np.zeros(shape))

    def test_labeled_frame_rejects_nonfinite_forces(self, frames):
        forces = np.zeros(frames[0].system.positions.shape)
        forces[0, 0] = np.inf
        with pytest.raises(ValueError, match="forces must be finite"):
            LabeledFrame(frames[0].system, 0.0, forces)

    def test_evaluate_empty_frames_is_descriptive(self, frames):
        tr = Trainer(tiny_allegro(), frames[:4])
        with pytest.raises(ValueError, match="at least one frame"):
            tr.evaluate([])


class TestBatching:
    def test_batch_offsets(self, frames):
        model = tiny_allegro()
        nls = [model.prepare_neighbors(f.system) for f in frames[:3]]
        batch = _Batch(frames[:3], nls)
        n0 = frames[0].system.n_atoms
        assert batch.positions.shape[0] == sum(f.system.n_atoms for f in frames[:3])
        # edges of structure 1 are offset beyond structure 0's atoms
        e1_edges = batch.nl.edge_index[:, nls[0].n_edges : nls[0].n_edges + nls[1].n_edges]
        assert e1_edges.min() >= n0

    def test_batched_loss_matches_sum_of_singles(self, frames):
        """One batch of 2 equals the average of 2 single-frame losses."""
        model = tiny_allegro()
        tr = Trainer(model, frames[:2], config=TrainConfig(batch_size=2, shuffle=False))
        b2 = _Batch(frames[:2], tr._train_nls)
        loss2 = float(tr._batch_loss(b2).data)
        losses1 = []
        for k in range(2):
            b1 = _Batch([frames[k]], [tr._train_nls[k]])
            losses1.append(float(tr._batch_loss(b1).data))
        n_comp = [f.forces.size for f in frames[:2]]
        expected = (losses1[0] * n_comp[0] + losses1[1] * n_comp[1]) / sum(n_comp)
        assert loss2 == pytest.approx(expected, rel=1e-10)


class TestContractionRoutesDoNotMoveTraining:
    """Parameter-gradient contractions on BLAS vs the routes they replaced.

    The reference run declines every ``_batched_contract`` pattern (so each
    einsum is ``c_einsum``'s) and sends the matmul weight gradient back
    through the blocked ``matmul`` kernel — a test-side patch; ``src/`` has
    no switch.  Only summation order differs, so three epochs of Adam must
    land on the same parameters to 1e-9.
    """

    @pytest.mark.parametrize("family", ["allegro", "classical"])
    def test_parameters_after_three_epochs(self, family, frames, monkeypatch):
        from repro.autodiff import kernels as K

        def train():
            model = (
                tiny_allegro() if family == "allegro"
                else ClassicalForceField(ClassicalConfig(n_species=4, r_cut=3.5))
            )
            tr = Trainer(model, frames[:6], frames[6:8],
                         TrainConfig(lr=5e-3, batch_size=3, seed=2))
            hist = tr.fit(epochs=3)
            return [p.data.copy() for p in model.parameters()], hist

        params, hist = train()
        monkeypatch.setattr(K, "_batched_contract", lambda spec, operands, out: None)
        monkeypatch.setattr(K, "contract_rowsk", lambda out, a, g: K.matmulk(out, a.T, g))
        ref_params, ref_hist = train()
        monkeypatch.undo()

        assert len(params) == len(ref_params) > 0
        for p, ref in zip(params, ref_params):
            scale = max(float(np.abs(ref).max()), 1e-300)
            assert np.abs(p - ref).max() <= 1e-9 * scale
        for h, ref in zip(hist, ref_hist):
            assert h.train_loss == pytest.approx(ref.train_loss, rel=1e-9)
            assert h.val_force_rmse == pytest.approx(ref.val_force_rmse, rel=1e-9)
