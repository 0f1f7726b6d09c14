"""Deterministic fault injection: the test harness for every guard.

A resilience layer is only as trustworthy as the failures it has been
exercised against, and stochastic chaos testing cannot go in a unit
suite.  :class:`FaultPlan` therefore makes fault schedules *deterministic
and seedable*: every injection site draws from its own named channel, and
whether a given draw fires depends only on (seed, channel, draw index) —
never on wall-clock, thread timing, or global RNG state.  The same plan
replayed against the same workload injects the same faults.

Channels used by the built-in injection sites:

* ``comm.drop`` / ``comm.delay`` — :class:`repro.parallel.comm.VirtualCluster`
  consults these per non-local message it records (``comm.delay`` only
  when the message was not dropped); a dropped message is counted as
  retransmitted, a delayed one as late, and both are delivered.
* ``parallel.rank_fail`` — :class:`repro.parallel.driver.ParallelForceEvaluator`
  consults once per force evaluation (a firing simulates losing a rank).
* ``serve.worker_crash`` / ``serve.worker_stall`` — the
  :class:`repro.serve.ForceServer` worker consults per batch attempt.
* ``engine.replay_fail`` — :class:`repro.engine.CompiledPotential` consults
  per replay (a firing poisons the replay, exercising the fallback chain).
* ``potential.corrupt`` — :class:`FaultyPotential` consults per force call
  and overwrites part of the output with NaN/inf.
* ``train.label_corruption`` — :class:`CorruptedFrames` consults per
  training frame and poisons its labels (the defect dataset validation
  must catch before the trainer sees it).
* ``train.step_failure`` — :class:`repro.nn.Trainer` consults per batch
  attempt (a firing simulates a transient step failure: preemption, an
  OOM-killed kernel).
* ``checkpoint.torn_write`` — :class:`repro.resilience.CheckpointManager`
  consults once per :meth:`~repro.resilience.CheckpointManager.save` (a
  firing simulates a process killed mid-write on a non-atomic filesystem:
  a truncated, unverifiable file lands at the target path).
* ``traj.torn_chunk`` — :class:`repro.traj.TrajectoryWriter` consults once
  per chunk commit (a firing writes the chunk header plus only half the
  payload: a process killed mid-append; the reader must quarantine the
  chunk on its CRC, never return corrupt frames).
"""

from __future__ import annotations

import copy
import hashlib
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..engine.compiled import PotentialWrapper

__all__ = [
    "COMM_DROP",
    "COMM_DELAY",
    "RANK_FAIL",
    "WORKER_CRASH",
    "WORKER_STALL",
    "REPLAY_FAIL",
    "POTENTIAL_CORRUPT",
    "TRAIN_LABEL_CORRUPTION",
    "TRAIN_STEP_FAILURE",
    "TORN_WRITE",
    "TRAJ_TORN_CHUNK",
    "InjectedFault",
    "FaultPlan",
    "FaultyPotential",
    "CorruptedFrames",
]

COMM_DROP = "comm.drop"
COMM_DELAY = "comm.delay"
RANK_FAIL = "parallel.rank_fail"
WORKER_CRASH = "serve.worker_crash"
WORKER_STALL = "serve.worker_stall"
REPLAY_FAIL = "engine.replay_fail"
POTENTIAL_CORRUPT = "potential.corrupt"
TRAIN_LABEL_CORRUPTION = "train.label_corruption"
TRAIN_STEP_FAILURE = "train.step_failure"
TORN_WRITE = "checkpoint.torn_write"
TRAJ_TORN_CHUNK = "traj.torn_chunk"


class InjectedFault(RuntimeError):
    """Raised at an injection site standing in for a real failure."""

    def __init__(self, channel: str, index: int) -> None:
        super().__init__(f"injected fault on {channel!r} (event #{index})")
        self.channel = channel
        self.index = index


def _channel_seed(seed: int, channel: str) -> int:
    """Stable per-channel stream seed (not process-salted like hash())."""
    digest = hashlib.sha256(channel.encode("utf-8")).digest()
    return (int(seed) & 0xFFFFFFFF) ^ int.from_bytes(digest[:8], "little")


class FaultPlan:
    """A seeded, per-channel schedule of injected faults.

    Parameters
    ----------
    seed:
        Root seed; each channel derives an independent stream from it.
    rates:
        ``{channel: probability}`` — each draw on the channel fires with
        that probability, deterministically given the draw index.
    at:
        ``{channel: iterable of draw indices}`` — exact-schedule mode; the
        channel fires on those draw indices only (overrides ``rates`` for
        that channel).  Draw indices start at 0.

    A plan is mutable state (per-channel draw counters advance with each
    :meth:`fires` call); build one plan per experiment.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[str, float]] = None,
        at: Optional[Mapping[str, Iterable[int]]] = None,
    ) -> None:
        self.seed = int(seed)
        self.rates = {str(k): float(v) for k, v in (rates or {}).items()}
        for channel, p in self.rates.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"rate for {channel!r} must be in [0, 1], got {p}")
        self.at = {str(k): frozenset(int(i) for i in v) for k, v in (at or {}).items()}
        self._counters: Dict[str, int] = defaultdict(int)
        self._fired: Dict[str, int] = defaultdict(int)
        self._streams: Dict[str, np.random.Generator] = {}

    def _stream(self, channel: str) -> np.random.Generator:
        rng = self._streams.get(channel)
        if rng is None:
            rng = self._streams[channel] = np.random.default_rng(
                _channel_seed(self.seed, channel)
            )
        return rng

    # -- the injection-site API -----------------------------------------------
    def fires(self, channel: str) -> bool:
        """Advance ``channel``'s draw counter; True when a fault fires now."""
        index = self._counters[channel]
        self._counters[channel] = index + 1
        if channel in self.at:
            hit = index in self.at[channel]
        else:
            p = self.rates.get(channel, 0.0)
            # Draw even when p == 0 so adding a rate later does not shift
            # the stream of channels configured in the same plan.
            u = float(self._stream(channel).uniform()) if channel in self.rates else 1.0
            hit = u < p
        if hit:
            self._fired[channel] += 1
        return hit

    def raise_if_fires(self, channel: str) -> None:
        """Raise :class:`InjectedFault` when the channel fires."""
        if self.fires(channel):
            raise InjectedFault(channel, self._counters[channel] - 1)

    # -- accounting -----------------------------------------------------------
    def draws(self, channel: str) -> int:
        return self._counters[channel]

    def fired(self, channel: str) -> int:
        return self._fired[channel]

    def stats(self) -> dict:
        channels = sorted(set(self._counters) | set(self.rates) | set(self.at))
        return {
            "seed": self.seed,
            "channels": {
                c: {"draws": self._counters[c], "fired": self._fired[c]}
                for c in channels
            },
        }


class FaultyPotential(PotentialWrapper):
    """Wrap a potential so its output is corrupted on schedule.

    When ``plan.fires(channel)``, the wrapped result is poisoned: the
    ``"nan"`` mode sets the first force component to NaN, ``"inf"`` sets
    the energy to +inf — the two blow-up signatures an MD watchdog and the
    serve-side output validation must catch.  All other calls pass through
    untouched, so a guarded caller that retries gets the exact clean
    result.
    """

    def __init__(
        self,
        potential,
        plan: FaultPlan,
        mode: str = "nan",
        channel: str = POTENTIAL_CORRUPT,
    ) -> None:
        if mode not in ("nan", "inf"):
            raise ValueError(f"unknown corruption mode {mode!r} (nan|inf)")
        self.potential = potential
        self.plan = plan
        self.mode = mode
        self.channel = channel

    def atomic_energies(self, positions, species, nl):
        return self.potential.atomic_energies(positions, species, nl)

    def evaluate(self, positions, species, nl, n_active=None):
        """The eager force call of the parallel and serve paths, corrupted
        on the same schedule (``"inf"`` poisons every per-atom energy)."""
        return self.corrupt(
            *self.potential.evaluate(positions, species, nl, n_active)
        )

    def corrupt(self, energy, forces):
        """One draw on the plan: ``(energy, forces)``, poisoned if it fires
        (the parallel driver calls this per rank, in rank order)."""
        if self.plan.fires(self.channel):
            if self.mode == "nan":
                forces = np.array(forces, copy=True)
                if forces.size:
                    forces[0, 0] = np.nan
            else:
                energy = energy + float("inf")
        return energy, forces


class CorruptedFrames:
    """Apply seeded label corruption to copies of clean training frames.

    Real label corruption happens *after* construction-time validation —
    bit rot on disk, a buggy preprocessing step mutating arrays in place —
    so this helper mutates copies of already-built frames directly,
    bypassing constructor checks exactly the way real corruption does.
    That makes it the test harness for ``repro.data.validate``: a
    validation pass that misses a :class:`CorruptedFrames` defect would
    miss the real thing too.

    Works on any frame object with ``energy``/``forces`` attributes
    (:class:`repro.nn.training.LabeledFrame` in practice).  Modes:

    * ``"nan"`` — first force component set to NaN,
    * ``"inf"`` — energy set to +inf,
    * ``"outlier"`` — finite forces scaled by ``outlier_factor`` (the
      subtle defect only σ-outlier screening catches).
    """

    MODES = ("nan", "inf", "outlier")

    def __init__(
        self,
        frames: Sequence,
        plan: FaultPlan,
        mode: str = "nan",
        channel: str = TRAIN_LABEL_CORRUPTION,
        outlier_factor: float = 1e6,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown corruption mode {mode!r} {self.MODES}")
        self.frames = list(frames)
        self.plan = plan
        self.mode = mode
        self.channel = channel
        self.outlier_factor = float(outlier_factor)
        self.corrupted_indices: List[int] = []

    def materialize(self) -> List:
        """Corrupted copies; one plan draw per frame, originals untouched."""
        out = []
        for k, frame in enumerate(self.frames):
            clone = copy.copy(frame)
            clone.forces = np.array(frame.forces, copy=True)
            if self.plan.fires(self.channel):
                self.corrupted_indices.append(k)
                if self.mode == "nan":
                    if clone.forces.size:
                        clone.forces.flat[0] = np.nan
                elif self.mode == "inf":
                    clone.energy = float("inf")
                else:
                    clone.forces *= self.outlier_factor
            out.append(clone)
        return out
