"""Numerical guards: non-finite detection and energy-spike watchdogs.

A NaN in the force array is the MD equivalent of silent data corruption:
velocity Verlet propagates it to every coupled degree of freedom within a
few steps and the trajectory file fills with garbage that *looks* like
output.  The paper's 42 ns stability claim (§VII-B) is meaningful only
because blow-ups are detected, not averaged over — so the guard layer
fails fast by default and recovers from a checkpoint when asked to.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

__all__ = [
    "NumericalInstabilityError",
    "validate_energy_forces",
    "validate_loss_grads",
    "ForceWatchdog",
    "TrainingWatchdog",
]


class NumericalInstabilityError(RuntimeError):
    """Non-finite energy/forces or an energy spike beyond tolerance."""


def _nonfinite_energy_forces(energy, forces) -> Optional[str]:
    """What is non-finite in an (energy, forces) result, or None."""
    if not np.isfinite(energy):
        return f"non-finite energy {energy!r}"
    forces = np.asarray(forces)
    if not np.isfinite(forces).all():
        bad = int(np.count_nonzero(~np.isfinite(forces).all(axis=-1)))
        return f"non-finite forces on {bad} atom(s)"
    return None


def _nonfinite_loss_grads(loss, grads) -> Optional[str]:
    """What is non-finite in a training loss and its gradients, or None."""
    loss = float(loss)
    if not np.isfinite(loss):
        return f"non-finite training loss {loss!r}"
    for k, g in enumerate(grads):
        if not np.isfinite(g).all():
            bad = int(np.count_nonzero(~np.isfinite(g)))
            return f"non-finite gradient ({bad} component(s) in grad #{k})"
    return None


def _raise_if(problem: Optional[str], context: str) -> None:
    if problem is not None:
        where = f" ({context})" if context else ""
        raise NumericalInstabilityError(f"{problem}{where}")


def validate_energy_forces(energy, forces, context: str = "") -> None:
    """Raise :class:`NumericalInstabilityError` on any non-finite output."""
    _raise_if(_nonfinite_energy_forces(energy, forces), context)


def validate_loss_grads(loss, grads, context: str = "") -> None:
    """Raise :class:`NumericalInstabilityError` on a non-finite training
    loss or gradient (before the optimizer sees them)."""
    _raise_if(_nonfinite_loss_grads(loss, grads), context)


class _SpikeWatchdog:
    """Detection, trip/escalation policy and history shared by both watchdogs.

    A subclass supplies what differs between the MD and the training guard:
    the non-finite diagnosis (:meth:`_nonfinite`), what the watched value,
    the restore counter and its escalation bound are called, and how often
    the rolling median/MAD are refreshed.
    """

    POLICIES = ("abort", "recover")
    _VALUE = ""  # "energy" | "loss": what a spike message calls the value
    _COUNTER = ""  # attribute and ``stats()`` key counting completed restores
    _LIMIT = ""  # attribute holding the escalation bound on that counter
    #: Banked samples between median/MAD refreshes; 1 refreshes every check.
    _STATS_EVERY = 1

    def __init__(
        self, policy, spike_factor, min_history, window, abs_floor, limit
    ) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r} (abort|recover)")
        if spike_factor is not None and spike_factor <= 0:
            raise ValueError("spike_factor must be positive (or None to disable)")
        if limit < 0:
            raise ValueError(f"{self._LIMIT} must be >= 0")
        self.policy = policy
        self.spike_factor = spike_factor
        self.min_history = int(min_history)
        self.abs_floor = float(abs_floor)
        self._history: deque = deque(maxlen=int(window))
        self._stats_age = self._STATS_EVERY  # force compute on first use
        self._median = 0.0
        self._scale = float(abs_floor)
        setattr(self, self._LIMIT, int(limit))
        setattr(self, self._COUNTER, 0)
        self.n_checks = 0
        self.n_trips = 0
        self.last_error: Optional[str] = None

    # -- detection ------------------------------------------------------------
    def _nonfinite(self, value, arrays) -> Optional[str]:
        raise NotImplementedError

    def _spike(self, value: float) -> Optional[str]:
        if self.spike_factor is None or len(self._history) < self.min_history:
            return None
        if self._stats_age >= self._STATS_EVERY:
            hist = np.asarray(self._history)
            self._median = float(np.median(hist))
            mad = float(np.median(np.abs(hist - self._median)))
            self._scale = max(1.4826 * mad, self.abs_floor)
            self._stats_age = 0
        dev = abs(value - self._median)
        if dev > self.spike_factor * self._scale:
            return (
                f"{self._VALUE} spike: |{value:.6g} - median {self._median:.6g}| "
                f"= {dev:.3g} > {self.spike_factor:g} x {self._scale:.3g}"
            )
        return None

    def check(self, value, arrays=(), step: Optional[int] = None) -> bool:
        """True when healthy (value banked); False/raise when tripped."""
        self.n_checks += 1
        problem = self._nonfinite(value, arrays) or self._spike(float(value))
        if problem is None:
            self._history.append(float(value))
            self._stats_age += 1
            return True
        self.n_trips += 1
        where = "" if step is None else f" at step {step}"
        self.last_error = f"{problem}{where}"
        restores, limit = getattr(self, self._COUNTER), getattr(self, self._LIMIT)
        if self.policy == "abort" or restores >= limit:
            raise NumericalInstabilityError(self.last_error)
        return False

    def reset_history(self) -> None:
        """Drop banked values (call after restoring an older state)."""
        self._history.clear()
        self._stats_age = self._STATS_EVERY

    def stats(self) -> dict:
        return {
            "policy": self.policy,
            "n_checks": self.n_checks,
            "n_trips": self.n_trips,
            self._COUNTER: getattr(self, self._COUNTER),
            "last_error": self.last_error,
        }


class ForceWatchdog(_SpikeWatchdog):
    """Per-step health check on (energy, forces) with abort/recover policy.

    Two detectors:

    * **Non-finite** — any NaN/inf in the energy or force array.
    * **Energy spike** — once ``min_history`` samples are banked, a
      potential energy further than ``spike_factor`` robust widths
      (median absolute deviation, floored by ``abs_floor``) from the
      rolling median trips the watchdog.  This catches the "forces are
      finite but the integrator just exploded" failure mode that precedes
      the NaN by a few steps.

    Policy:

    * ``"abort"`` — :meth:`check` raises :class:`NumericalInstabilityError`.
    * ``"recover"`` — :meth:`check` returns False; the caller (the MD
      driver) restores the last checkpoint and continues.  After
      ``max_recoveries`` trips the watchdog escalates to abort anyway —
      a deterministic blow-up would otherwise loop forever.
    """

    _VALUE = "energy"
    _COUNTER = "n_recoveries"
    _LIMIT = "max_recoveries"
    # Median/MAD over the window are refreshed every few appends, not every
    # check — a rolling robust center moves by O(1/window) per sample, far
    # inside a spike_factor-sized dead band, and the recompute would
    # otherwise dominate the per-step cost.
    _STATS_EVERY = 8

    def __init__(
        self,
        policy: str = "abort",
        spike_factor: Optional[float] = 1e3,
        min_history: int = 16,
        window: int = 64,
        abs_floor: float = 1e-8,
        max_recoveries: int = 3,
    ) -> None:
        super().__init__(
            policy, spike_factor, min_history, window, abs_floor, max_recoveries
        )

    _nonfinite = staticmethod(_nonfinite_energy_forces)

    def on_recovered(self) -> None:
        """Record one successful checkpoint restore (recover policy)."""
        self.n_recoveries += 1


class TrainingWatchdog(_SpikeWatchdog):
    """Per-batch health check on (loss, gradients): the training sibling of
    :class:`ForceWatchdog`.

    A NaN loss or gradient is silent corruption for a *model* the way NaN
    forces are for a trajectory: one Adam step propagates it into every
    parameter, and the checkpoint written afterwards poisons every consumer
    downstream (MD, the compiled engine, serving).  Detectors:

    * **Non-finite** — NaN/inf in the loss value or any gradient array,
      checked *before* the optimizer sees the gradients.
    * **Loss spike** — once ``min_history`` batch losses are banked, a loss
      further than ``spike_factor`` robust widths (median absolute
      deviation, floored by ``abs_floor``) from the rolling median trips
      the watchdog — catching the "finite but the optimization just
      diverged" mode that precedes the NaN.

    Policy mirrors :class:`ForceWatchdog`:

    * ``"abort"`` — :meth:`check` raises :class:`NumericalInstabilityError`.
    * ``"recover"`` — :meth:`check` returns False; the trainer rolls back
      to its last good checkpoint, reduces the learning rate, and replays
      with a reshuffled batch order.  After ``max_rollbacks`` trips the
      watchdog escalates to abort — a deterministic divergence would
      otherwise loop forever.

    The banked loss history and counters round-trip through
    ``state_dict()``/``load_state_dict()`` so a killed-and-resumed run
    carries the same spike-detection state as the uninterrupted one.
    """

    _VALUE = "loss"
    _COUNTER = "n_rollbacks"
    _LIMIT = "max_rollbacks"

    def __init__(
        self,
        policy: str = "abort",
        spike_factor: Optional[float] = 1e3,
        min_history: int = 16,
        window: int = 64,
        abs_floor: float = 1e-12,
        max_rollbacks: int = 3,
    ) -> None:
        super().__init__(
            policy, spike_factor, min_history, window, abs_floor, max_rollbacks
        )

    _nonfinite = staticmethod(_nonfinite_loss_grads)

    def on_rollback(self) -> None:
        """Record one checkpoint rollback (recover policy)."""
        self.n_rollbacks += 1

    # -- checkpointable state -------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "history": list(self._history),
            "n_checks": self.n_checks,
            "n_trips": self.n_trips,
            "n_rollbacks": self.n_rollbacks,
            "last_error": self.last_error,
        }

    def load_state_dict(self, state: dict) -> None:
        self.reset_history()
        self._history.extend(float(x) for x in state["history"])
        self.n_checks = int(state["n_checks"])
        self.n_trips = int(state["n_trips"])
        self.n_rollbacks = int(state["n_rollbacks"])
        self.last_error = state["last_error"]
