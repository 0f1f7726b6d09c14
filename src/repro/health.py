"""Server health state machine with hysteresis and dwell times.

``HealthMonitor`` condenses two signals the serving stack already
exports — queue depth and circuit-breaker state — into one four-state
machine::

    HEALTHY ──▶ DEGRADED ──▶ SHEDDING ──▶ DRAINING
       ◀──────    ◀──────       (drain is terminal)

* ``HEALTHY``  — normal serving.
* ``DEGRADED`` — pressure building, or a model's circuit breaker is
  open: serving goes on unchanged (each request on the model and engine
  it asked for), and the machine must dwell here before it may shed.
* ``SHEDDING`` — overload: only the strongest priority class is
  admitted; everything else sheds with a typed ``LoadShed``.
* ``DRAINING`` — shutdown in progress: no admission at all.

Two mechanisms keep the machine from flapping:

* **Hysteresis** — the threshold to *leave* an elevated state is the
  entry threshold scaled by ``hysteresis`` (< 1), so a signal hovering
  at the entry threshold does not oscillate.
* **Dwell times** — a transition needs ``dwell_up`` (or ``dwell_down``)
  *consecutive* ticks agreeing on the direction before it happens, and
  the machine always moves one state at a time — it never skips.

The monitor is passive: someone (the server, a test) calls
:meth:`tick` with a signal snapshot; the monitor never samples clocks
itself, which is what keeps chaos-scenario health trajectories
byte-deterministic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["HEALTH_STATES", "HealthThresholds", "HealthMonitor"]

#: States weakest-condition first; the tuple index is the severity level.
HEALTH_STATES = ("HEALTHY", "DEGRADED", "SHEDDING", "DRAINING")

_STATE_LEVELS: Dict[str, int] = {s: i for i, s in enumerate(HEALTH_STATES)}


@dataclass(frozen=True)
class HealthThresholds:
    """``serve.qos.health``: entry thresholds and dwell times.

    ``queue_*`` thresholds are fractions of the server's ``max_queue``.
    No threshold reads a clock, which keeps chaos health trajectories
    deterministic.

    The *exit* threshold for each state is the entry threshold times
    ``hysteresis`` (0 < h < 1): a signal must drop clearly below where
    it entered before the machine steps back down.  ``dwell_up``
    (``dwell_down``) is the number of consecutive ticks a worsening
    (improving) signal must persist before the machine steps one state
    up (down); recovery is deliberately slower than degradation.
    """

    queue_degraded: float = 0.75
    queue_shedding: float = 0.95
    hysteresis: float = 0.6
    dwell_up: int = 3
    dwell_down: int = 12

    def __post_init__(self) -> None:
        if self.dwell_up < 1 or self.dwell_down < 1:
            raise ValueError("dwell_up and dwell_down must be >= 1")
        if not (0.0 < self.hysteresis < 1.0):
            raise ValueError("hysteresis must be in (0, 1)")
        if not (0.0 < self.queue_degraded <= self.queue_shedding):
            raise ValueError(
                "require 0 < queue_degraded <= queue_shedding, got "
                f"{self.queue_degraded} / {self.queue_shedding}"
            )

    def desired_level(self, signals: Mapping, scale: float = 1.0) -> int:
        """Severity level the raw signals ask for, thresholds scaled.

        ``scale=1.0`` gives entry thresholds; ``scale=hysteresis`` gives
        the (lower) exit thresholds.  A tripped circuit breaker floors the
        level at DEGRADED: the server is demonstrably struggling even if
        the queue looks fine.
        """
        level = 0
        q = float(signals.get("queue_frac", 0.0))
        if q >= self.queue_shedding * scale:
            level = max(level, 2)
        elif q >= self.queue_degraded * scale:
            level = max(level, 1)
        if signals.get("breaker_open"):
            level = max(level, 1)
        return level


class HealthMonitor:
    """Dwell-and-hysteresis state machine over server health signals.

    Parameters
    ----------
    thresholds:
        Entry/exit thresholds and dwell times (see :class:`HealthThresholds`).
    history:
        Bounded count of retained ``(tick, from, to)`` transitions.
    """

    def __init__(
        self, thresholds: Optional[HealthThresholds] = None, history: int = 128
    ) -> None:
        self.thresholds = thresholds or HealthThresholds()
        self._history_bound = int(history)
        self._lock = threading.Lock()
        self._level = 0
        self._ticks = 0
        self._up_streak = 0
        self._down_streak = 0
        self._draining = False
        self._history: List[Tuple[int, str, str]] = []
        self._n_transitions = 0
        self._registry = None
        self._source: Optional[Callable[[], Mapping]] = None

    # -- wiring ---------------------------------------------------------------
    def bind(self, registry) -> "HealthMonitor":
        """Export state to an obs registry (``health.state`` gauge, levels
        0–3, plus a ``health.transitions`` counter labelled by edge)."""
        self._registry = registry
        registry.gauge("health.state").set(self._level)
        return self

    def attach(self, source: Callable[[], Mapping]) -> "HealthMonitor":
        """Signal source polled when :meth:`tick` is called without one."""
        self._source = source
        return self

    # -- state ----------------------------------------------------------------
    @property
    def state(self) -> str:
        return HEALTH_STATES[self._level]

    @property
    def level(self) -> int:
        """Numeric severity (0 = HEALTHY … 3 = DRAINING)."""
        return self._level

    @property
    def draining(self) -> bool:
        return self._draining

    def history(self) -> List[Tuple[int, str, str]]:
        """Recorded transitions as ``(tick, from_state, to_state)``."""
        with self._lock:
            return list(self._history)

    # -- transitions ----------------------------------------------------------
    def tick(self, signals: Optional[Mapping] = None) -> str:
        """Advance the machine one observation; returns the new state.

        ``signals`` maps ``queue_frac`` (pending / max_queue) and
        ``breaker_open`` (bool).  When omitted, the attached source is
        polled.
        """
        if signals is None:
            signals = self._source() if self._source is not None else {}
        with self._lock:
            self._ticks += 1
            if self._draining:
                new_level = self._level  # terminal; begin_drain() moved us
            else:
                th = self.thresholds
                enter = th.desired_level(signals, scale=1.0)
                stay = th.desired_level(signals, scale=th.hysteresis)
                if enter > self._level:
                    self._up_streak += 1
                    self._down_streak = 0
                    if self._up_streak >= th.dwell_up:
                        self._record(self._level + 1)
                        self._up_streak = 0
                elif stay < self._level:
                    self._down_streak += 1
                    self._up_streak = 0
                    if self._down_streak >= th.dwell_down:
                        self._record(self._level - 1)
                        self._down_streak = 0
                else:
                    # Hysteresis band: the signal neither clears the next
                    # entry threshold nor drops below the exit one.
                    self._up_streak = 0
                    self._down_streak = 0
                new_level = self._level
            return HEALTH_STATES[new_level]

    def begin_drain(self) -> str:
        """Force the machine to DRAINING, stepping through every
        intermediate state (each adjacent transition is recorded)."""
        with self._lock:
            self._draining = True
            while self._level < _STATE_LEVELS["DRAINING"]:
                self._record(self._level + 1)
        return self.state

    def _record(self, new_level: int) -> None:
        """Move to an *adjacent* level, appending history and metrics.

        Callers hold the lock.
        """
        if abs(new_level - self._level) != 1:
            raise AssertionError("health transitions must be adjacent")
        old = HEALTH_STATES[self._level]
        new = HEALTH_STATES[new_level]
        self._level = new_level
        self._n_transitions += 1
        self._history.append((self._ticks, old, new))
        if len(self._history) > self._history_bound:
            del self._history[: len(self._history) - self._history_bound]
        if self._registry is not None:
            self._registry.gauge("health.state").set(new_level)
            self._registry.counter("health.transitions").inc()
            self._registry.counter(
                "health.transitions", {"from": old, "to": new}
            ).inc()

    def stats(self) -> dict:
        """State, level, tick count, transition count and recent transitions."""
        with self._lock:
            return {
                "state": HEALTH_STATES[self._level],
                "level": self._level,
                "ticks": self._ticks,
                "draining": self._draining,
                "transitions": self._n_transitions,
                "history": [
                    {"tick": t, "from": a, "to": b}
                    for t, a, b in self._history[-16:]
                ],
            }

