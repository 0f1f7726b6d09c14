"""Fault-tolerant training: bitwise resume, watchdog rollback, dataset screening."""

import numpy as np
import pytest

from repro.data import (
    DatasetValidationError,
    conformation_dataset,
    label_frames,
    validate_frames,
)
from repro.models import (
    AllegroConfig,
    AllegroModel,
    ClassicalConfig,
    ClassicalForceField,
)
from repro.nn import TrainConfig, Trainer
from repro.resilience import (
    TRAIN_LABEL_CORRUPTION,
    TRAIN_STEP_FAILURE,
    CheckpointManager,
    CorruptedFrames,
    FaultPlan,
    InjectedFault,
    NumericalInstabilityError,
    TrainingWatchdog,
    validate_loss_grads,
)
from repro import autodiff as ad


@pytest.fixture(scope="module")
def frames():
    return label_frames(conformation_dataset(12, n_heavy=4, seed=11, sigma=0.06))


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


def tiny_classical():
    return ClassicalForceField(ClassicalConfig(n_species=4, r_cut=3.5))


MODEL_FACTORIES = {"allegro": tiny_allegro, "classical": tiny_classical}


def _train_cfg(**kw):
    kw.setdefault("lr", 5e-3)
    kw.setdefault("batch_size", 4)
    kw.setdefault("seed", 7)
    return TrainConfig(**kw)


def _assert_trainers_bitwise_equal(a: Trainer, b: Trainer) -> None:
    sa, sb = a.model.state_dict(), b.model.state_dict()
    assert sorted(sa) == sorted(sb)
    for key in sa:
        np.testing.assert_array_equal(sa[key], sb[key])
    assert a.optimizer.t == b.optimizer.t
    for ma, mb in zip(a.optimizer._m, b.optimizer._m):
        np.testing.assert_array_equal(ma, mb)
    for va, vb in zip(a.optimizer._v, b.optimizer._v):
        np.testing.assert_array_equal(va, vb)
    for ea, eb in zip(a.ema.shadow, b.ema.shadow):
        np.testing.assert_array_equal(ea, eb)
    assert [s.__dict__ for s in a.history] == [s.__dict__ for s in b.history]


class TestBitwiseResume:
    """The headline property: kill + resume == never killed, bitwise."""

    @pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
    def test_killed_and_resumed_matches_uninterrupted(self, family, frames, tmp_path):
        make = MODEL_FACTORIES[family]
        cfg = _train_cfg()

        reference = Trainer(make(), frames[:8], frames[8:], cfg)
        reference.fit(5)

        killed = Trainer(make(), frames[:8], frames[8:], cfg)
        killed.fit(3, checkpoint_dir=tmp_path, checkpoint_every=2)
        # cadence 2 from a fresh run: anchor at epoch 0, snapshot at epoch 2
        assert CheckpointManager(tmp_path).steps() == [0, 2]

        resumed = Trainer(make(), frames[:8], frames[8:], cfg)
        assert resumed.resume(tmp_path) == 2
        resumed.fit(3)

        assert resumed.epochs_completed == 5
        _assert_trainers_bitwise_equal(reference, resumed)

    def test_resume_restores_shuffle_rng(self, frames, tmp_path):
        cfg = _train_cfg(shuffle=True)
        a = Trainer(tiny_classical(), frames[:8], config=cfg)
        a.fit(2, checkpoint_dir=tmp_path)
        b = Trainer(tiny_classical(), frames[:8], config=cfg)
        b.resume(tmp_path)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_epoch_numbering_continues_across_fits(self, frames):
        tr = Trainer(tiny_classical(), frames[:8], config=_train_cfg())
        tr.fit(2)
        tr.fit(2)
        assert [s.epoch for s in tr.history] == [0, 1, 2, 3]
        assert tr.epochs_completed == 4

    def test_resume_with_lr_schedule_sees_global_epochs(self, frames, tmp_path):
        cfg = _train_cfg(lr=1e-3, lr_schedule=lambda e: 1e-3 * 0.5**e)
        a = Trainer(tiny_classical(), frames[:8], config=cfg)
        a.fit(4, checkpoint_dir=tmp_path, checkpoint_every=2)
        b = Trainer(tiny_classical(), frames[:8], config=cfg)
        b.resume(tmp_path)
        b.fit(4 - b.epochs_completed)
        assert b.optimizer.lr == pytest.approx(1e-3 * 0.5**3)
        _assert_trainers_bitwise_equal(a, b)

    def test_unknown_checkpoint_format_rejected(self, frames):
        tr = Trainer(tiny_classical(), frames[:8], config=_train_cfg())
        with pytest.raises(ValueError, match="checkpoint format"):
            tr.load_state_dict({"format": "trainer-v999"})

    def test_checkpoint_every_requires_sink(self, frames):
        tr = Trainer(tiny_classical(), frames[:8], config=_train_cfg())
        with pytest.raises(ValueError, match="checkpoint_dir"):
            tr.fit(1, checkpoint_every=1)


class TestTrainingWatchdog:
    def test_healthy_losses_bank(self):
        wd = TrainingWatchdog()
        for k in range(8):
            assert wd.check(1.0 + 0.01 * k)
        assert wd.n_checks == 8 and wd.n_trips == 0

    def test_nonfinite_loss_aborts(self):
        wd = TrainingWatchdog(policy="abort")
        with pytest.raises(NumericalInstabilityError, match="non-finite training loss"):
            wd.check(float("nan"))

    def test_nonfinite_gradient_aborts(self):
        wd = TrainingWatchdog(policy="abort")
        grads = [np.zeros(3), np.array([1.0, np.inf])]
        with pytest.raises(NumericalInstabilityError, match="grad #1"):
            wd.check(0.5, grads)

    def test_loss_spike_detected(self):
        wd = TrainingWatchdog(policy="abort", spike_factor=10.0, min_history=4)
        for _ in range(6):
            wd.check(1.0)
        with pytest.raises(NumericalInstabilityError, match="loss spike"):
            wd.check(1e6, step=6)

    def test_recover_policy_returns_false_then_escalates(self):
        wd = TrainingWatchdog(policy="recover", max_rollbacks=2)
        assert wd.check(float("inf")) is False
        wd.on_rollback()
        assert wd.check(float("inf")) is False
        wd.on_rollback()
        with pytest.raises(NumericalInstabilityError):
            wd.check(float("inf"))

    def test_state_dict_roundtrip(self):
        wd = TrainingWatchdog(policy="recover", min_history=2)
        for k in range(5):
            wd.check(1.0 + k)
        wd.check(float("nan"))
        wd.on_rollback()
        clone = TrainingWatchdog(policy="recover", min_history=2)
        clone.load_state_dict(wd.state_dict())
        assert clone.state_dict() == wd.state_dict()
        assert clone.n_rollbacks == 1

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            TrainingWatchdog(policy="pray")

    def test_validate_loss_grads_is_the_watchdog_diagnosis(self):
        validate_loss_grads(0.5, [np.zeros(3)])
        with pytest.raises(NumericalInstabilityError, match=r"grad #1\) \(epoch 4\)"):
            validate_loss_grads(0.5, [np.zeros(3), np.array([np.nan])], "epoch 4")


class TestUnguardedTrainer:
    """Without a watchdog a non-finite loss or gradient raises before
    ``optimizer.step()``: the parameters never see it."""

    @pytest.mark.parametrize(
        "poison, message",
        [("loss", "non-finite training loss"), ("grad", "non-finite gradient")],
    )
    def test_nonfinite_step_raises_before_the_update(
        self, frames, monkeypatch, poison, message
    ):
        tr = Trainer(tiny_classical(), frames[:8], config=_train_cfg())
        before = {k: v.copy() for k, v in tr.model.state_dict().items()}
        real = tr._batch_loss
        param = tr.optimizer.params[0]

        def poisoned(batch):
            loss = real(batch)
            if poison == "loss":
                return loss * float("nan")
            # Finite value (sqrt(0) = 0), infinite slope into ``param``.
            return loss + ad.sqrt(param * 0.0).sum()

        monkeypatch.setattr(tr, "_batch_loss", poisoned)
        # The poison is deliberate: only the guard's error may report it.
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalInstabilityError, match=message):
                tr.fit(1)
        assert tr.optimizer.t == 0
        after = tr.model.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)


class TestRollbackIntegration:
    def test_rollback_restores_and_backs_off_lr(self, frames, tmp_path):
        # An absurdly tight spike threshold guarantees trips: every epoch
        # after the history warms up rolls back until escalation.
        wd = TrainingWatchdog(
            policy="recover", spike_factor=1e-9, min_history=2, max_rollbacks=2
        )
        cfg = _train_cfg(lr=1e-2, rollback_lr_factor=0.5)
        tr = Trainer(tiny_classical(), frames[:8], config=cfg, watchdog=wd)
        with pytest.raises(NumericalInstabilityError):
            tr.fit(10, checkpoint_dir=tmp_path)
        stats = tr.stats()
        assert stats["n_rollbacks"] == 2
        assert stats["lr_scale"] == pytest.approx(0.25)
        assert stats["watchdog"]["n_rollbacks"] == 2
        # escalation tripped mid-run, before the epoch budget was spent
        assert tr.epochs_completed < 10

    def test_recover_without_checkpointing_is_explicit(self, frames):
        wd = TrainingWatchdog(policy="recover", spike_factor=1e-9, min_history=2)
        tr = Trainer(tiny_classical(), frames[:8], config=_train_cfg(), watchdog=wd)
        with pytest.raises(NumericalInstabilityError, match="needs active checkpoint"):
            tr.fit(4)

    def test_grad_clipping_counts_events(self, frames):
        cfg = _train_cfg(grad_clip_norm=1e-6)
        tr = Trainer(tiny_classical(), frames[:8], config=cfg)
        tr.fit(1)
        assert tr.stats()["n_clip_events"] > 0


class TestDatasetValidation:
    def test_validate_catches_injected_nan(self, frames):
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [1, 3]})
        corrupted = CorruptedFrames(frames, plan, mode="nan").materialize()
        report = validate_frames(corrupted)
        assert report.flagged_indices(include_soft=False) == [1, 3]
        assert report.counts()["nonfinite_forces"] == 2

    def test_validate_catches_injected_inf_energy(self, frames):
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [0]})
        corrupted = CorruptedFrames(frames, plan, mode="inf").materialize()
        report = validate_frames(corrupted)
        assert report.counts()["nonfinite_energy"] == 1

    def test_validate_catches_outlier_forces(self, frames):
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [5]})
        corrupted = CorruptedFrames(frames, plan, mode="outlier").materialize()
        report = validate_frames(corrupted)
        assert 5 in [i.index for i in report.issues if i.kind == "force_outlier"]
        assert not report.hard_issues  # outliers are soft

    def test_validate_catches_duplicates(self, frames):
        doubled = list(frames) + [frames[2]]
        report = validate_frames(doubled)
        dup = [i for i in report.issues if i.kind == "duplicate"]
        assert len(dup) == 1 and dup[0].index == len(frames)

    def test_trainer_rejects_corrupted_labels(self, frames):
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [2]})
        corrupted = CorruptedFrames(frames, plan, mode="nan").materialize()
        with pytest.raises(DatasetValidationError, match="rejected"):
            Trainer(tiny_classical(), corrupted, config=_train_cfg())

    def test_trainer_quarantines_and_trains(self, frames):
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [2, 6]})
        corrupted = CorruptedFrames(frames, plan, mode="nan").materialize()
        cfg = _train_cfg(data_policy="quarantine")
        tr = Trainer(tiny_classical(), corrupted, config=cfg)
        assert len(tr.train_frames) == len(frames) - 2
        assert tr.stats()["n_quarantined_frames"] == 2
        hist = tr.fit(2)
        assert np.isfinite(hist[-1].train_loss)

    def test_quarantine_protects_force_scale(self, frames):
        # An outlier frame must not poison max|F| normalization.
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [0]})
        corrupted = CorruptedFrames(frames, plan, mode="outlier").materialize()
        cfg = _train_cfg(data_policy="quarantine")
        tr = Trainer(tiny_classical(), corrupted, config=cfg)
        clean_scale = max(np.abs(f.forces).max() for f in frames[1:])
        assert tr.force_scale == pytest.approx(clean_scale)

    def test_policy_off_skips_validation(self, frames):
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [1]})
        corrupted = CorruptedFrames(frames, plan, mode="outlier").materialize()
        tr = Trainer(tiny_classical(), corrupted, config=_train_cfg(data_policy="off"))
        assert tr.dataset_report is None

    def test_unknown_policy_rejected(self, frames):
        with pytest.raises(ValueError, match="data_policy"):
            Trainer(tiny_classical(), frames, config=_train_cfg(data_policy="yolo"))

    def test_corrupted_val_frames_rejected(self, frames):
        plan = FaultPlan(seed=0, at={TRAIN_LABEL_CORRUPTION: [0]})
        bad_val = CorruptedFrames(frames[8:], plan, mode="nan").materialize()
        with pytest.raises(DatasetValidationError, match="validation set"):
            Trainer(tiny_classical(), frames[:8], bad_val, _train_cfg())


class TestStepFailureInjection:
    def test_transient_failures_recover_bitwise(self, frames):
        """Retried steps recompute the identical batch: faulted == clean."""
        plan = FaultPlan(seed=1, at={TRAIN_STEP_FAILURE: [1, 4]})
        faulted = Trainer(
            tiny_classical(), frames[:8], config=_train_cfg(), fault_plan=plan
        )
        faulted.fit(3)
        clean = Trainer(tiny_classical(), frames[:8], config=_train_cfg())
        clean.fit(3)
        _assert_trainers_bitwise_equal(faulted, clean)
        assert faulted.stats()["n_step_failures"] == 2
        assert faulted.stats()["n_step_retries"] == 2

    def test_exhausted_retries_reraise(self, frames):
        plan = FaultPlan(seed=1, at={TRAIN_STEP_FAILURE: [0, 1, 2]})
        tr = Trainer(
            tiny_classical(),
            frames[:8],
            config=_train_cfg(max_step_retries=2),
            fault_plan=plan,
        )
        with pytest.raises(InjectedFault):
            tr.fit(1)

    def test_skip_failed_batches_counts(self, frames):
        plan = FaultPlan(seed=1, at={TRAIN_STEP_FAILURE: [0, 1, 2]})
        cfg = _train_cfg(max_step_retries=2, skip_failed_batches=True)
        tr = Trainer(tiny_classical(), frames[:8], config=cfg, fault_plan=plan)
        hist = tr.fit(1)
        assert tr.stats()["n_skipped_batches"] == 1
        assert np.isfinite(hist[-1].train_loss)

    def test_every_batch_failing_is_explicit(self, frames):
        # frames[:4] at batch_size 4 = one batch/epoch; fail all attempts.
        plan = FaultPlan(seed=1, rates={TRAIN_STEP_FAILURE: 1.0})
        cfg = _train_cfg(max_step_retries=1, skip_failed_batches=True)
        tr = Trainer(tiny_classical(), frames[:4], config=cfg, fault_plan=plan)
        with pytest.raises(NumericalInstabilityError, match="every batch"):
            tr.fit(1)


class TestNoSilentCorruption:
    """Acceptance: under a seeded FaultPlan a run either finishes with
    finite, watchdog-clean metrics or raises an explicit typed error —
    a NaN never reaches a saved model."""

    def test_guarded_run_under_faults_is_clean_or_typed(self, frames, tmp_path):
        plan = FaultPlan(
            seed=5,
            rates={TRAIN_STEP_FAILURE: 0.2},
            at={TRAIN_LABEL_CORRUPTION: [3]},
        )
        corrupted = CorruptedFrames(frames, plan, mode="nan").materialize()
        cfg = _train_cfg(data_policy="quarantine", skip_failed_batches=True)
        wd = TrainingWatchdog(policy="recover", max_rollbacks=2)
        tr = Trainer(
            tiny_classical(), corrupted, config=cfg, watchdog=wd, fault_plan=plan
        )
        try:
            hist = tr.fit(3, checkpoint_dir=tmp_path)
        except (NumericalInstabilityError, InjectedFault, DatasetValidationError):
            return  # explicit typed failure is an accepted outcome
        assert all(np.isfinite(s.train_loss) for s in hist)
        for arr in tr.model.state_dict().values():
            assert np.isfinite(arr).all()
        for arr in tr.ema.shadow:
            assert np.isfinite(arr).all()
        assert tr.watchdog.n_trips == tr.stats()["watchdog"]["n_trips"]

    def test_checkpoints_never_hold_nonfinite_state(self, frames, tmp_path):
        tr = Trainer(tiny_classical(), frames[:8], config=_train_cfg())
        tr.fit(2, checkpoint_dir=tmp_path)
        manager = CheckpointManager(tmp_path)
        for step in manager.steps():
            state = manager.load_step(step)
            for arr in state["model"].values():
                assert np.isfinite(arr).all()
            for arr in state["ema"]["shadow"]:
                assert np.isfinite(arr).all()
