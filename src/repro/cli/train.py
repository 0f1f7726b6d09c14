"""``train``: a configured force-matching training run."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..config import build_training_frames, build_training_model, load_config
from ..nn import Trainer
from ..obs import write_json
from ..resilience import TrainingWatchdog
from .common import logger


def train_config(
    config: dict, resume: bool = False, quiet: bool = False, stats_json=None
):
    """Execute (or resume) one configured training run; returns the Trainer.

    With ``"train": {"checkpoint_dir": ...}`` the full training state is
    checkpointed as the run goes (and the config is copied next to the
    checkpoints); ``resume=True`` restores the newest verified snapshot
    and finishes the configured epoch budget — bitwise-identically to a
    run that was never interrupted.
    """
    log = logger(quiet)
    cfg = load_config(config)
    train = cfg.train
    train_frames, val_frames = build_training_frames(cfg.data)
    trainer = Trainer(
        build_training_model(cfg.model),
        train_frames,
        val_frames,
        train.trainer_config(),
        watchdog=TrainingWatchdog(policy=train.watchdog) if train.watchdog else None,
    )
    log(
        f"training {cfg.model.kind} on {len(train_frames)} frames "
        f"({len(val_frames)} validation)"
    )

    ckpt_dir = train.checkpoint_dir
    if ckpt_dir is not None:
        ckpt_dir = Path(ckpt_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        (ckpt_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    if resume:
        if ckpt_dir is None:
            raise ValueError("--resume needs 'train.checkpoint_dir' in the config")
        epoch = trainer.resume(ckpt_dir)
        log(f"resumed from checkpoint at epoch {epoch}")
    remaining = max(0, train.epochs - trainer.epochs_completed)
    trainer.fit(
        remaining,
        verbose=not quiet,
        checkpoint_every=train.checkpoint_every if ckpt_dir else None,
        checkpoint_dir=ckpt_dir,
    )

    if train.save_model:
        np.savez(train.save_model, **trainer.model.state_dict())
        log(f"model saved to {train.save_model}")
    if trainer.history:
        log(f"final train loss {trainer.history[-1].train_loss:.5f}")
    if stats_json is not None:
        payload = dict(trainer.stats())
        payload["history"] = [asdict(stats) for stats in trainer.history]
        write_json(stats_json, payload)
    return trainer
