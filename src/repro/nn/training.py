"""Force-matching training loop (paper §VI-D).

The paper trains Allegro with a force-only MSE loss, Adam (lr 1e-3, batch
16, default settings), force targets normalized by the maximum absolute
force component of the training set, an EMA of the weights (decay 0.99)
for evaluation, epoch-wise reshuffling, and a step-down LR schedule.  The
:class:`Trainer` reproduces that loop on any :class:`~repro.models.base.Potential`.

Force loss gradients require double backprop: forces are −∂E/∂r, so
∂loss/∂w goes through the gradient graph — ``ad.grad(..., create_graph=True)``
provides exactly that.

Batches concatenate structures along the atom axis with per-frame neighbor
lists (precomputed once) offset into the combined index space; one backward
pass produces every force in the batch.

Training at paper scale is a multi-day job, so the loop carries the same
failure model as the MD drivers (``repro.resilience``):

* **Resumable** — ``fit(checkpoint_every=, checkpoint_dir=)`` snapshots the
  complete training state (parameters, Adam moments + step counter, EMA
  shadow, epoch cursor, shuffle RNG state, force scale, history) through
  :class:`~repro.resilience.CheckpointManager`; a run killed at an epoch
  boundary and picked up via :meth:`Trainer.resume` reproduces the
  uninterrupted run's parameters and :class:`EpochStats` **bitwise**.
* **Guarded** — non-finite losses/gradients fail fast before the optimizer
  sees them; an optional :class:`~repro.resilience.TrainingWatchdog` adds
  loss-spike detection and a ``recover`` policy that rolls back to the
  last good checkpoint, backs off the learning rate, and replays with a
  reshuffled batch order.
* **Validated** — the training set is screened by
  :func:`repro.data.validate.validate_frames` before the first gradient
  step (``TrainConfig.data_policy``: reject / quarantine / off).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import autodiff as ad
from ..md.neighborlist import NeighborList, merged_neighbor_list
from ..md.system import System
from ..obs import Registry, get_tracer, span
from ..resilience.checkpoint import CheckpointManager, resolve_checkpoint_sink
from ..resilience.faults import TRAIN_STEP_FAILURE, InjectedFault
from ..resilience.guards import NumericalInstabilityError, validate_loss_grads
from .loss import mae, rmse
from .optim import Adam, ExponentialMovingAverage


class _RollbackNeeded(Exception):
    """Internal: the watchdog tripped under the recover policy."""


@dataclass
class LabeledFrame:
    """One training structure with reference labels."""

    system: System
    energy: float
    forces: np.ndarray

    def __post_init__(self) -> None:
        self.forces = np.asarray(self.forces, dtype=np.float64)
        if self.forces.shape != self.system.positions.shape:
            raise ValueError("forces must match positions shape")
        if not np.isfinite(self.energy):
            raise ValueError(
                f"LabeledFrame energy must be finite, got {self.energy!r}"
            )
        if not np.isfinite(self.forces).all():
            bad = int(np.count_nonzero(~np.isfinite(self.forces)))
            raise ValueError(
                f"LabeledFrame forces must be finite "
                f"({bad} non-finite component(s))"
            )


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 10
    force_weight: float = 1.0
    energy_weight: float = 0.0
    ema_decay: float = 0.99
    #: map epoch -> lr; None keeps lr constant (paper: halve after 119 epochs)
    lr_schedule: Optional[Callable[[int], float]] = None
    shuffle: bool = True
    seed: int = 0
    #: Initialize per-species energy shifts μ_Z by least squares over the
    #: training energies and scales σ_Z by the force RMS — the standard
    #: MLIP normalization that keeps the regression target O(1) (§V-B3).
    init_reference_energies: bool = True
    #: Clip the global gradient L2 norm to this value (None disables).
    grad_clip_norm: Optional[float] = None
    #: Dataset screening policy: "reject" raises on hard defects
    #: (non-finite labels, malformed shapes/species), "quarantine" also
    #: drops duplicates and σ-outliers, "off" skips validation.
    data_policy: str = "reject"
    #: Multiply the learning rate by this after each watchdog rollback.
    rollback_lr_factor: float = 0.5
    #: Transient step failures (``train.step_failure`` channel) are
    #: retried this many times — a retry recomputes the identical batch,
    #: so recovery is bitwise.
    max_step_retries: int = 2
    #: After retries are exhausted, skip the batch (counted) instead of
    #: re-raising the failure.
    skip_failed_batches: bool = False


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_force_mae: Optional[float] = None
    val_force_rmse: Optional[float] = None


class _Batch:
    """Concatenated structures with a merged neighbor list."""

    __slots__ = (
        "positions",
        "species",
        "nl",
        "batch_index",
        "n_structures",
        "energies",
        "forces",
        "n_atoms_per",
    )

    def __init__(self, frames: Sequence[LabeledFrame], nls: Sequence[NeighborList]):
        self.positions, self.species, self.nl, offsets = merged_neighbor_list(
            [f.system for f in frames], None, nls
        )
        self.n_structures = len(frames)
        self.n_atoms_per = np.diff(offsets)
        self.batch_index = np.repeat(np.arange(self.n_structures), self.n_atoms_per)
        self.energies = np.array([f.energy for f in frames])
        self.forces = np.concatenate([f.forces for f in frames], axis=0)


class Trainer:
    """Force-matching trainer for any Potential."""

    #: Checkpoint payload version (bumped on layout changes).
    STATE_FORMAT = "trainer-v1"

    def __init__(
        self,
        model,
        train_frames: Sequence[LabeledFrame],
        val_frames: Sequence[LabeledFrame] = (),
        config: Optional[TrainConfig] = None,
        watchdog=None,
        fault_plan=None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.train_frames = list(train_frames)
        self.val_frames = list(val_frames)
        self.watchdog = watchdog
        self.fault_plan = fault_plan
        if not self.train_frames:
            raise ValueError("need at least one training frame")
        # Resilience counters live in the shared observability registry
        # (named ``train.<event>``); the legacy "n_*" keys are preserved as
        # the view exposed by stats()/state_dict().
        self.obs = registry if registry is not None else Registry()
        self._counters = {
            key: self.obs.counter("train." + key[2:])
            for key in (
                "n_rollbacks",
                "n_skipped_batches",
                "n_clip_events",
                "n_step_failures",
                "n_step_retries",
                "n_checkpoints",
                "n_quarantined_frames",
            )
        }
        self.dataset_report = None
        self._validate_dataset()

        self._train_nls = [self.model.prepare_neighbors(f.system) for f in self.train_frames]
        self._val_nls = [self.model.prepare_neighbors(f.system) for f in self.val_frames]

        # Paper: "normalize the force targets by the maximum absolute force
        # component computed over the training set".
        self.force_scale = max(
            float(np.abs(f.forces).max()) for f in self.train_frames
        )
        if self.force_scale == 0.0:
            self.force_scale = 1.0

        if self.config.init_reference_energies:
            self._init_scale_shift()

        self.optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        self.ema = ExponentialMovingAverage(
            self.model.parameters(), decay=self.config.ema_decay
        )
        self.history: List[EpochStats] = []
        self._rng = np.random.default_rng(self.config.seed)
        #: next epoch index; advances across fit() calls and resume().
        self._epoch_cursor = 0
        #: persistent LR multiplier, halved on each watchdog rollback.
        self._lr_scale = 1.0

    # -- dataset screening ----------------------------------------------------
    def _validate_dataset(self) -> None:
        """Screen train/val frames under ``config.data_policy``.

        Runs *before* neighbor lists and the force-scale normalization —
        one corrupted |F| would otherwise silently poison the scale every
        clean frame is divided by.
        """
        policy = self.config.data_policy
        if policy not in ("reject", "quarantine", "off"):
            raise ValueError(
                f"unknown data_policy {policy!r} (reject|quarantine|off)"
            )
        if policy == "off":
            return
        from ..data.validate import DatasetValidationError, validate_frames

        report = validate_frames(self.train_frames)
        self.dataset_report = report
        if policy == "reject":
            if report.hard_issues:
                raise DatasetValidationError(
                    f"training set rejected: {report.summary()}"
                )
        else:  # quarantine
            drop = set(report.flagged_indices(include_soft=True))
            if drop:
                self._counters["n_quarantined_frames"].inc(len(drop))
                self.train_frames = [
                    f for k, f in enumerate(self.train_frames) if k not in drop
                ]
                if not self.train_frames:
                    raise DatasetValidationError(
                        f"every training frame quarantined: {report.summary()}"
                    )
        # Validation frames: hard defects only — an outlier is a legitimate
        # thing to *evaluate* on, a NaN label is not.
        if self.val_frames:
            val_report = validate_frames(
                self.val_frames,
                energy_sigma=None,
                force_sigma=None,
                check_duplicates=False,
            )
            if val_report.hard_issues:
                if policy == "reject":
                    raise DatasetValidationError(
                        f"validation set rejected: {val_report.summary()}"
                    )
                drop = set(val_report.flagged_indices())
                self._counters["n_quarantined_frames"].inc(len(drop))
                self.val_frames = [
                    f for k, f in enumerate(self.val_frames) if k not in drop
                ]

    def _init_scale_shift(self) -> None:
        """Regress μ_Z (per-species reference energies) and set σ_Z.

        Solves min ‖E_frame − Σ_s n_s(frame)·μ_s‖² over the training set and
        writes the solution into the model's PerSpeciesScaleShift, with
        σ_Z set to the force RMS — so the network only has to learn O(1)
        residuals (the normalization discipline of §V-B3).
        """
        ss = getattr(self.model, "scale_shift", None)
        if ss is None:
            return
        n_species = ss.n_species
        counts = np.zeros((len(self.train_frames), n_species))
        energies = np.zeros(len(self.train_frames))
        for k, f in enumerate(self.train_frames):
            counts[k] = np.bincount(f.system.species, minlength=n_species)
            energies[k] = f.energy
        # Ridge-regularized for species absent from the training set.
        A = counts.T @ counts + 1e-8 * np.eye(n_species)
        mu = np.linalg.solve(A, counts.T @ energies)
        ss.shifts.data = mu
        frms = np.sqrt(
            np.mean(np.concatenate([f.forces.ravel() for f in self.train_frames]) ** 2)
        )
        if frms > 0:
            ss.scales.data = np.full(n_species, frms)

    # -- core steps -----------------------------------------------------------
    def _batch_loss(self, batch: _Batch) -> ad.Tensor:
        cfg = self.config
        pos = ad.Tensor(batch.positions, requires_grad=True)
        e_atoms = self.model.atomic_energies(pos, batch.species, batch.nl)
        e_struct = ad.scatter_add(e_atoms, batch.batch_index, batch.n_structures)
        total = e_struct.sum()
        (gpos,) = ad.grad(total, [pos], create_graph=True)
        forces = -gpos

        diff = (forces - ad.Tensor(batch.forces)) * (1.0 / self.force_scale)
        loss = (diff * diff).mean() * cfg.force_weight
        if cfg.energy_weight > 0:
            de = (e_struct - ad.Tensor(batch.energies)) / ad.Tensor(
                batch.n_atoms_per.astype(np.float64)
            )
            loss = loss + (de * de).mean() * cfg.energy_weight
        return loss

    def _train_step(self, batch: _Batch, epoch: int) -> Optional[float]:
        """One guarded optimizer step; None when the batch was skipped.

        Transient step failures (the ``train.step_failure`` fault channel)
        are retried before any state mutates, so a retry recomputes the
        identical batch and recovery is bitwise.  The loss/gradient health
        check runs *before* ``optimizer.step()`` — a NaN never reaches the
        parameters, the EMA shadow, or a checkpoint.
        """
        cfg = self.config
        attempts = 0
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.raise_if_fires(TRAIN_STEP_FAILURE)
                with span("train.forward"):
                    loss = self._batch_loss(batch)
                with span("train.backward"):
                    self.model.zero_grad()
                    loss.backward()
            except InjectedFault:
                self._counters["n_step_failures"].inc()
                if attempts < cfg.max_step_retries:
                    attempts += 1
                    self._counters["n_step_retries"].inc()
                    continue
                if cfg.skip_failed_batches:
                    self._counters["n_skipped_batches"].inc()
                    return None
                raise
            break

        value = float(loss.data)
        grads = [p.grad.data for p in self.optimizer.params if p.grad is not None]
        if self.watchdog is None:
            validate_loss_grads(value, grads, context=f"epoch {epoch}")
        elif not self.watchdog.check(value, grads, step=epoch):
            raise _RollbackNeeded(self.watchdog.last_error)

        if cfg.grad_clip_norm is not None:
            total_norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
            if total_norm > cfg.grad_clip_norm:
                scale = cfg.grad_clip_norm / total_norm
                for g in grads:
                    g *= scale
                self._counters["n_clip_events"].inc()

        with span("train.optimizer"):
            self.optimizer.step()
            self.ema.update()
        return value

    def train_epoch(self, epoch: int) -> float:
        cfg = self.config
        base_lr = cfg.lr_schedule(epoch) if cfg.lr_schedule is not None else cfg.lr
        self.optimizer.set_lr(base_lr * self._lr_scale)
        order = np.arange(len(self.train_frames))
        if cfg.shuffle:
            self._rng.shuffle(order)
        losses = []
        with span("train.epoch") as sp:
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                with span("train.batch_build"):
                    batch = _Batch(
                        [self.train_frames[k] for k in idx],
                        [self._train_nls[k] for k in idx],
                    )
                value = self._train_step(batch, epoch)
                if value is not None:
                    losses.append(value)
                    sp.add("batches")
        if not losses:
            raise NumericalInstabilityError(
                f"every batch failed or was skipped in epoch {epoch}"
            )
        return float(np.mean(losses))

    def fit(
        self,
        epochs: Optional[int] = None,
        verbose: bool = False,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        checkpoint_manager: Optional[CheckpointManager] = None,
    ) -> List[EpochStats]:
        """Train for ``epochs`` more epochs (default ``config.max_epochs``).

        Epoch numbering continues from the cursor, so a resumed trainer
        sees the same global epoch indices (and LR schedule values) as an
        uninterrupted run.  With a checkpoint sink, the full training
        state is snapshotted every ``checkpoint_every`` epochs (default 1)
        plus an initial anchor — the rollback target for the watchdog's
        ``recover`` policy before the first interval completes.
        """
        epochs = epochs if epochs is not None else self.config.max_epochs
        manager, checkpoint_every = resolve_checkpoint_sink(
            checkpoint_every, checkpoint_dir, checkpoint_manager, 1
        )
        if manager is not None and not manager.steps():
            self._save_checkpoint(manager)

        start = self._epoch_cursor
        target = start + int(epochs)
        while self._epoch_cursor < target:
            e = self._epoch_cursor
            try:
                train_loss = self.train_epoch(e)
            except _RollbackNeeded as exc:
                self._rollback(manager, str(exc))
                continue
            stats = EpochStats(epoch=e, train_loss=train_loss)
            if self.val_frames:
                with self.ema.average_weights():
                    metrics = self.evaluate(self.val_frames, self._val_nls)
                stats.val_force_mae = metrics["force_mae"]
                stats.val_force_rmse = metrics["force_rmse"]
            self.history.append(stats)
            self._epoch_cursor = e + 1
            if verbose:
                msg = f"epoch {e}: loss={train_loss:.5f}"
                if stats.val_force_rmse is not None:
                    msg += f" val F rmse={stats.val_force_rmse:.5f}"
                print(msg)
            if manager is not None and (self._epoch_cursor - start) % checkpoint_every == 0:
                self._save_checkpoint(manager)
        return self.history

    def _save_checkpoint(self, manager: CheckpointManager) -> None:
        with span("train.checkpoint"):
            manager.save(self.state_dict(), self._epoch_cursor)
        self._counters["n_checkpoints"].inc()

    def _rollback(self, manager: Optional[CheckpointManager], reason: str) -> None:
        """Recover policy: restore the last good checkpoint, back off LR.

        The shuffle RNG is deliberately *not* restored — it has advanced
        past the order that led to the blow-up, so the replay reshuffles
        (still deterministically).  Watchdog counters are kept, not
        restored, or the escalation budget would reset on every rollback.
        """
        if manager is None:
            raise NumericalInstabilityError(
                f"{reason} — watchdog recover policy needs active "
                "checkpointing (pass checkpoint_dir/checkpoint_manager to fit)"
            )
        _, state = manager.load_latest()
        self.load_state_dict(state, restore_rng=False, restore_watchdog=False)
        self._lr_scale *= self.config.rollback_lr_factor
        self._counters["n_rollbacks"].inc()
        if self.watchdog is not None:
            self.watchdog.on_rollback()
            self.watchdog.reset_history()

    # -- checkpointable state -------------------------------------------------
    def state_dict(self) -> Dict:
        """Complete training state: everything a bitwise resume needs."""
        return {
            "format": self.STATE_FORMAT,
            "epoch": self._epoch_cursor,
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "ema": self.ema.state_dict(),
            "rng": self._rng.bit_generator.state,
            "force_scale": self.force_scale,
            "lr_scale": self._lr_scale,
            "history": [asdict(s) for s in self.history],
            "counters": {k: c.value for k, c in self._counters.items()},
            "watchdog": (
                self.watchdog.state_dict() if self.watchdog is not None else None
            ),
        }

    def load_state_dict(
        self,
        state: Dict,
        restore_rng: bool = True,
        restore_watchdog: bool = True,
    ) -> None:
        if state.get("format") != self.STATE_FORMAT:
            raise ValueError(
                f"unknown trainer checkpoint format {state.get('format')!r}"
            )
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.ema.load_state_dict(state["ema"])
        self.force_scale = float(state["force_scale"])
        self._lr_scale = float(state["lr_scale"])
        self._epoch_cursor = int(state["epoch"])
        self.history = [EpochStats(**h) for h in state["history"]]
        if restore_rng:
            rng = np.random.default_rng()
            rng.bit_generator.state = state["rng"]
            self._rng = rng
        if restore_watchdog and self.watchdog is not None and state["watchdog"]:
            self.watchdog.load_state_dict(state["watchdog"])

    def resume(self, source) -> int:
        """Restore the newest verified checkpoint; returns its epoch cursor.

        ``source`` is a checkpoint directory or a
        :class:`~repro.resilience.CheckpointManager`.  The trainer must
        have been built with the same model family, frames, and config as
        the original run; the restored run then continues — and matches
        the uninterrupted run — bitwise.
        """
        manager = (
            source
            if isinstance(source, CheckpointManager)
            else CheckpointManager(source)
        )
        epoch, state = manager.load_latest()
        self.load_state_dict(state)
        return epoch

    @property
    def epochs_completed(self) -> int:
        return self._epoch_cursor

    def stats(self) -> Dict:
        """Resilience counters for this trainer instance.

        A view over the trainer's slice of the observability registry
        (``train.*`` counters) plus watchdog/dataset context and — when
        tracing is enabled — per-phase wall times for
        epoch/batch_build/forward/backward/optimizer.
        """
        out = {k: c.value for k, c in self._counters.items()}
        out["epochs_completed"] = self._epoch_cursor
        out["lr_scale"] = self._lr_scale
        out["watchdog"] = self.watchdog.stats() if self.watchdog is not None else None
        out["dataset_issues"] = (
            self.dataset_report.counts() if self.dataset_report is not None else None
        )
        phases = get_tracer().phase_totals("train.")
        if phases:
            out["phases"] = phases
        return out

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
        self,
        frames: Sequence[LabeledFrame],
        nls: Optional[Sequence[NeighborList]] = None,
        use_ema: bool = False,
    ) -> Dict[str, float]:
        """Force/energy MAE & RMSE over frames (units of the labels)."""
        if len(frames) == 0:
            raise ValueError(
                "evaluate() needs at least one frame (got an empty sequence)"
            )
        if nls is None:
            nls = [self.model.prepare_neighbors(f.system) for f in frames]
        if use_ema:
            with self.ema.average_weights():
                return self.evaluate(frames, nls, use_ema=False)
        pf, tf, pe, te = [], [], [], []
        for f, nl in zip(frames, nls):
            e, forces = self.model.energy_and_forces(f.system, nl)
            pf.append(forces)
            tf.append(f.forces)
            pe.append(e / f.system.n_atoms)
            te.append(f.energy / f.system.n_atoms)
        pf = np.concatenate(pf, axis=0)
        tf = np.concatenate(tf, axis=0)
        return {
            "force_mae": mae(pf, tf),
            "force_rmse": rmse(pf, tf),
            "energy_per_atom_mae": mae(np.array(pe), np.array(te)),
            "energy_per_atom_rmse": rmse(np.array(pe), np.array(te)),
        }
