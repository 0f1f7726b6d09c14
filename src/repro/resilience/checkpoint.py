"""Checkpoint/restart: atomic, checksummed, rolling simulation snapshots.

The paper's headline results are *long* runs on failure-prone hardware —
2.5M-step stability MD (§VII-B) and runs across thousands of GPUs
(§VII-D/E) — where preemption and node loss are expected events.  The
checkpoint layer therefore has three hard requirements:

* **Atomicity** — a crash mid-write must never corrupt the latest good
  checkpoint.  Snapshots are written to a temporary file in the same
  directory, fsynced, and ``os.replace``-d into place (rename is atomic
  on POSIX within one filesystem).
* **Integrity** — a SHA-256 digest of the payload is stored in the file
  header and verified on load, so silent disk corruption surfaces as a
  :class:`CheckpointError` instead of a subtly wrong trajectory.
* **Bounded footprint** — rolling retention keeps the last K snapshots
  (multi-day runs would otherwise fill the filesystem).

The payload is a plain ``dict`` of numpy arrays / scalars / nested dicts
(whatever :meth:`repro.md.Simulation.get_state` captures), serialized with
pickle.  Restoring that state reproduces the uninterrupted trajectory
*bitwise* — the property the resilience test-suite pins down.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .faults import TORN_WRITE, FaultPlan

__all__ = ["CheckpointError", "CheckpointManager", "resolve_checkpoint_sink"]

#: File magic: identifies the container format (bumped on layout changes).
_MAGIC = b"RPRCKPT1"
#: Hex SHA-256 digest length.
_DIGEST_LEN = 64


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or verified."""


class CheckpointManager:
    """Atomic, checksummed, rolling checkpoints in one directory.

    Parameters
    ----------
    directory:
        Where checkpoints live (created if missing).
    keep_last:
        Rolling retention: after each save, only the ``keep_last`` highest
        step numbers survive.  ``None`` disables pruning.
    prefix:
        Filename prefix (``{prefix}-{step:012d}.ckpt``), so independent
        streams can share a directory.
    fault_plan:
        Optional :class:`FaultPlan` consulted once per :meth:`save` on the
        ``checkpoint.torn_write`` channel.  A firing simulates the process
        being killed mid-write on a filesystem without atomic rename: a
        truncated file lands at the *target* path (not the tmp file), so
        recovery must detect and skip it.
    registry:
        Optional :class:`repro.obs.Registry`; torn writes and
        skipped-corrupt files during :meth:`load_latest` are counted under
        ``checkpoint.torn_writes`` / ``checkpoint.skipped_corrupt``.
    """

    def __init__(
        self,
        directory,
        keep_last: Optional[int] = 3,
        prefix: str = "ckpt",
        fault_plan: Optional[FaultPlan] = None,
        registry=None,
    ) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be >= 1 (or None to keep all)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last
        self.prefix = prefix
        self.fault_plan = fault_plan
        if registry is None:
            from ..obs import Registry

            registry = Registry()
        self.registry = registry
        self._c_torn = registry.counter("checkpoint.torn_writes")
        self._c_skipped = registry.counter("checkpoint.skipped_corrupt")
        self.n_saved = 0
        self.n_pruned = 0
        self.n_torn = 0

    # -- paths ----------------------------------------------------------------
    def path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{int(step):012d}.ckpt"

    def steps(self) -> List[int]:
        """Step numbers of every retained checkpoint, ascending."""
        out = []
        tail = len(".ckpt")
        for p in self.directory.glob(f"{self.prefix}-*.ckpt"):
            digits = p.name[len(self.prefix) + 1 : -tail]
            if digits.isdigit():
                out.append(int(digits))
        return sorted(out)

    def latest_path(self) -> Optional[Path]:
        steps = self.steps()
        return self.path_for(steps[-1]) if steps else None

    # -- write ----------------------------------------------------------------
    def save(self, state: Dict, step: int) -> Path:
        """Atomically persist ``state`` as the checkpoint for ``step``.

        When the ``checkpoint.torn_write`` fault channel fires, the write
        is *torn* instead: a truncated byte prefix lands at the target
        path, exactly what a kill mid-write leaves behind on a filesystem
        where rename is not atomic.  The torn file fails verification on
        load, so :meth:`load_latest` must walk past it.
        """
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        target = self.path_for(step)
        if self.fault_plan is not None and self.fault_plan.fires(TORN_WRITE):
            full = _MAGIC + digest + payload
            # Keep the header plus half the payload: starts like a real
            # checkpoint, fails the checksum — the worst torn shape.
            torn = full[: len(_MAGIC) + _DIGEST_LEN + max(1, len(payload) // 2)]
            target.write_bytes(torn)
            self.n_torn += 1
            self._c_torn.inc()
            self.prune()
            return target
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{self.prefix}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(digest)
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.n_saved += 1
        self.prune()
        return target

    def prune(self) -> None:
        """Apply rolling retention (keep the ``keep_last`` highest steps)."""
        if self.keep_last is None:
            return
        steps = self.steps()
        for step in steps[: -self.keep_last]:
            try:
                self.path_for(step).unlink()
                self.n_pruned += 1
            except OSError:
                pass

    # -- read -----------------------------------------------------------------
    def load(self, path) -> Dict:
        """Load and verify one checkpoint file."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        header = len(_MAGIC) + _DIGEST_LEN
        if len(raw) < header or not raw.startswith(_MAGIC):
            raise CheckpointError(f"{path} is not a checkpoint file")
        digest = raw[len(_MAGIC) : header].decode("ascii", errors="replace")
        payload = raw[header:]
        actual = hashlib.sha256(payload).hexdigest()
        if actual != digest:
            raise CheckpointError(
                f"checksum mismatch in {path}: stored {digest[:12]}..., "
                f"computed {actual[:12]}... (corrupt checkpoint)"
            )
        try:
            return pickle.loads(payload)
        except Exception as exc:  # corrupt-but-checksummed should be impossible
            raise CheckpointError(f"cannot deserialize {path}: {exc}") from exc

    def load_step(self, step: int) -> Dict:
        return self.load(self.path_for(step))

    def load_latest(self) -> Tuple[int, Dict]:
        """(step, state) of the newest verifiable checkpoint.

        Walks backwards past corrupt files — a torn disk should cost one
        checkpoint interval, not the run.
        """
        steps = self.steps()
        if not steps:
            raise CheckpointError(f"no checkpoints under {self.directory}")
        last_error: Optional[Exception] = None
        for step in reversed(steps):
            try:
                return step, self.load_step(step)
            except CheckpointError as exc:
                # Torn/truncated/corrupt file: costs one interval, not the
                # run — but never silently; the skip is counted.
                self._c_skipped.inc()
                last_error = exc
        raise CheckpointError(
            f"every checkpoint under {self.directory} failed verification"
        ) from last_error

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "retained_steps": self.steps(),
            "keep_last": self.keep_last,
            "n_saved": self.n_saved,
            "n_pruned": self.n_pruned,
            "n_torn": self.n_torn,
            "n_skipped_corrupt": self._c_skipped.value,
        }


def resolve_checkpoint_sink(
    checkpoint_every: Optional[int],
    checkpoint_dir,
    checkpoint_manager: Optional[CheckpointManager],
    default_every: int,
) -> Tuple[Optional[CheckpointManager], Optional[int]]:
    """(manager, interval) from a run's checkpoint kwargs; (None, None) = off.

    A directory becomes a manager with default retention; a sink without an
    interval gets ``default_every`` (MD counts steps, training epochs).
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    manager = checkpoint_manager
    if manager is None and checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir)
    if manager is None:
        if checkpoint_every is not None:
            raise ValueError(
                "checkpoint_every needs a checkpoint_dir or checkpoint_manager"
            )
        return None, None
    return manager, default_every if checkpoint_every is None else checkpoint_every
