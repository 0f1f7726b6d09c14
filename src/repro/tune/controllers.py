"""Online guardrailed hysteresis controllers.

Offline profiles pick good static operating points; these controllers
handle the drift a static point can't — a serve workload whose arrival
cadence changes mid-flight, an MD system whose density fluctuation starts
blowing through the engine's padded capacity.  Each controller watches an
EWMA of one obs-derived signal and nudges one knob, under guardrails that
make it boring by construction:

* **min dwell** — at least ``dwell`` ticks between adaptations, so the
  controller reacts to trends, not single batches;
* **bounded step** — each move is clamped to ``rel_step`` of the current
  value (plus a floor for near-zero knobs) and to the ``[lo, hi]`` range;
* **rollback on regression** — after a move, the controller remembers the
  previous value and an objective baseline; if the objective worsens by
  more than ``regression_tol`` it reverts and freezes for ``2 * dwell``
  ticks;
* **watchdog deference** — :meth:`notify_recovery` freezes adaptation for
  ``2 * dwell`` ticks, so a controller never tunes *into* a fault the
  resilience layer is busy recovering from (and never misattributes the
  recovery transient to its own last move).

Everything is **off by default**: nothing constructs a controller unless
the caller passes one to ``ForceServer(controllers=...)`` or
``Simulation(controllers=...)``.  Every adaptation increments a
``tune.adaptations{controller=...}`` counter, updates a
``tune.value{controller=...}`` gauge, and runs inside a ``tune.adapt``
trace span, so enabled controllers are fully observable from
``stats()``/``--trace-json``.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional

from ..obs import span

__all__ = [
    "HysteresisController",
    "BatchWindowController",
    "AdmissionController",
    "RepadController",
    "ControllerSet",
]


class HysteresisController:
    """Base class: EWMA signal -> guarded single-knob adaptation.

    Subclasses implement :meth:`read_signal` (raw observation per tick),
    :meth:`current`/:meth:`apply_value` (the knob), :meth:`propose`
    (desired knob value given the smoothed signal, or ``None`` to hold)
    and optionally :meth:`objective` (lower-is-better scalar used for the
    rollback check; ``None`` disables rollback).
    """

    def __init__(
        self,
        name: str,
        lo: float,
        hi: float,
        rel_step: float = 0.25,
        dwell: int = 20,
        alpha: float = 0.2,
        regression_tol: float = 0.10,
        min_abs_step: float = 0.0,
    ) -> None:
        if lo > hi:
            raise ValueError(f"controller {name!r}: lo {lo} > hi {hi}")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if rel_step <= 0.0 or dwell < 1:
            raise ValueError("rel_step must be > 0 and dwell >= 1")
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.rel_step = float(rel_step)
        self.dwell = int(dwell)
        self.alpha = float(alpha)
        self.regression_tol = float(regression_tol)
        self.min_abs_step = float(min_abs_step)

        self._ewma: Optional[float] = None
        self._ticks = 0
        self._last_change = -(10**9)
        self._frozen_until = 0
        self._prev_value: Optional[float] = None
        self._baseline: Optional[float] = None
        self._n_adaptations = 0
        self._n_rollbacks = 0
        self._c_adapt = None
        self._c_rollback = None
        self._g_value = None

    # -- subclass hooks --------------------------------------------------

    def read_signal(self) -> Optional[float]:
        raise NotImplementedError

    def current(self) -> float:
        raise NotImplementedError

    def apply_value(self, value: float) -> None:
        raise NotImplementedError

    def propose(self, ewma: float) -> Optional[float]:
        raise NotImplementedError

    def objective(self) -> Optional[float]:
        """Lower-is-better health scalar; ``None`` disables rollback."""
        return None

    def quantize(self, value: float) -> float:
        """Snap a proposed value onto the knob's grid (e.g. integers)."""
        return value

    # -- lifecycle -------------------------------------------------------

    def bind(self, registry) -> "HysteresisController":
        """Attach obs instruments (adaptation/rollback counters, gauge)."""
        labels = {"controller": self.name}
        self._c_adapt = registry.counter("tune.adaptations", labels=labels)
        self._c_rollback = registry.counter("tune.rollbacks", labels=labels)
        self._g_value = registry.gauge("tune.value", labels=labels)
        self._g_value.set(self.current())
        return self

    def freeze(self, ticks: Optional[int] = None) -> None:
        """Hold all adaptation for ``ticks`` (default ``2 * dwell``)."""
        ticks = 2 * self.dwell if ticks is None else int(ticks)
        self._frozen_until = max(self._frozen_until, self._ticks + ticks)
        # A freeze invalidates any pending regression attribution: the
        # regression (if any) belongs to whatever caused the freeze.
        self._prev_value = None
        self._baseline = None

    def notify_recovery(self) -> None:
        """A resilience watchdog just recovered something: stand down."""
        self.freeze()

    # -- the control loop ------------------------------------------------

    def tick(self) -> bool:
        """One observation/decision cycle; returns True if the knob moved."""
        self._ticks += 1
        signal = self.read_signal()
        if signal is not None:
            self._ewma = (
                float(signal)
                if self._ewma is None
                else (1.0 - self.alpha) * self._ewma + self.alpha * float(signal)
            )
        if self._ticks < self._frozen_until:
            return False

        if self._prev_value is not None and self._baseline is not None:
            obj = self.objective()
            if obj is not None and obj > self._baseline * (
                1.0 + self.regression_tol
            ) + 1e-12:
                return self._rollback()

        if self._ticks - self._last_change < self.dwell:
            return False
        if self._ewma is None:
            return False
        target = self.propose(self._ewma)
        if target is None:
            return False
        cur = self.current()
        step = max(abs(cur) * self.rel_step, self.min_abs_step)
        bounded = min(max(float(target), cur - step), cur + step)
        bounded = self.quantize(min(max(bounded, self.lo), self.hi))
        if bounded == cur:
            return False
        with span("tune.adapt") as sp:
            sp.add("tick", self._ticks)
            sp.add("delta", bounded - cur)
            self.apply_value(bounded)
        self._prev_value = cur
        self._baseline = self.objective()
        self._last_change = self._ticks
        self._n_adaptations += 1
        if self._c_adapt is not None:
            self._c_adapt.inc()
        if self._g_value is not None:
            self._g_value.set(bounded)
        return True

    def _rollback(self) -> bool:
        with span("tune.rollback"):
            self.apply_value(self._prev_value)
        if self._c_rollback is not None:
            self._c_rollback.inc()
        if self._g_value is not None:
            self._g_value.set(self._prev_value)
        self._n_rollbacks += 1
        self._prev_value = None
        self._baseline = None
        self.freeze()
        return True

    def stats(self) -> dict:
        return {
            "name": self.name,
            "value": self.current(),
            "ewma": self._ewma,
            "ticks": self._ticks,
            "adaptations": self._n_adaptations,
            "rollbacks": self._n_rollbacks,
            "frozen": self._ticks < self._frozen_until,
        }


class BatchWindowController(HysteresisController):
    """Adapts the serve coalescing window to the observed batch occupancy.

    Signal: mean occupancy of the batches formed since the last tick.  If
    batches run nearly empty (occupancy EWMA below ``low_occ``) the window
    is buying latency without buying coalescing — shrink it.  If batches
    run nearly full (above ``high_occ`` of ``max_batch``) arrivals are
    dense enough that a longer window converts directly into larger
    batches — grow it.  Objective for rollback: mean request latency since
    the adaptation.
    """

    def __init__(
        self,
        server,
        lo: float = 1e-4,
        hi: float = 1e-2,
        low_occ: float = 1.5,
        high_occ: float = 0.75,
        **kwargs,
    ) -> None:
        super().__init__(
            "batch_window", lo, hi, min_abs_step=1e-4, **kwargs
        )
        self.server = server
        self.low_occ = float(low_occ)
        self.high_occ = float(high_occ)
        self._last_batches = 0
        self._last_coalesced = 0
        self._lat_mark = (0.0, 0)

    def read_signal(self) -> Optional[float]:
        batcher = self.server.batcher
        batches = batcher.n_batches
        coalesced = batcher.n_coalesced
        d_batches = batches - self._last_batches
        d_requests = coalesced - self._last_coalesced
        self._last_batches = batches
        self._last_coalesced = coalesced
        if d_batches <= 0:
            return None
        return d_requests / d_batches

    def current(self) -> float:
        return self.server.batcher.max_wait

    def apply_value(self, value: float) -> None:
        self.server.batcher.max_wait = float(value)

    def propose(self, ewma: float) -> Optional[float]:
        cur = self.current()
        if ewma < self.low_occ:
            return cur * (1.0 - self.rel_step)
        if ewma > self.high_occ * self.server.batcher.max_batch:
            return cur * (1.0 + self.rel_step)
        return None

    def objective(self) -> Optional[float]:
        hist = self.server.metrics.histogram("latency_s")
        d_sum = hist.sum - self._lat_mark[0]
        d_count = hist.count - self._lat_mark[1]
        self._lat_mark = (hist.sum, hist.count)
        if d_count <= 0:
            return None
        return d_sum / d_count


class AdmissionController(HysteresisController):
    """Adapts ``ForceServer.max_queue`` to shedding vs. queueing pressure.

    Signal: requests shed since the last tick.  Shedding with a healthy
    queue-wait tail means the admission cap, not capacity, is the
    bottleneck — grow ``max_queue``.  No shedding but a queue-wait p99
    beyond ``wait_budget_s`` means admitted requests are rotting in the
    queue — shrink it so backpressure reaches callers sooner.  Objective
    for rollback: the queue-wait p99 itself.
    """

    def __init__(
        self,
        server,
        lo: float = 8,
        hi: float = 512,
        wait_budget_s: float = 0.25,
        **kwargs,
    ) -> None:
        super().__init__("admission", lo, hi, min_abs_step=1.0, **kwargs)
        self.server = server
        self.wait_budget_s = float(wait_budget_s)
        self._last_shed = 0

    def read_signal(self) -> Optional[float]:
        shed = self.server.metrics.counter("requests_shed").value
        d_shed = shed - self._last_shed
        self._last_shed = shed
        return float(d_shed)

    def current(self) -> float:
        return float(self.server.max_queue)

    def apply_value(self, value: float) -> None:
        self.server.max_queue = int(value)

    def quantize(self, value: float) -> float:
        return float(max(1, round(value)))

    def _wait_p99(self) -> float:
        hist = self.server.metrics.histogram("queue_wait_s")
        return hist.percentile(0.99) if hist.count else 0.0

    def propose(self, ewma: float) -> Optional[float]:
        cur = self.current()
        p99 = self._wait_p99()
        if ewma > 0.0 and p99 <= self.wait_budget_s:
            return cur * (1.0 + self.rel_step)
        if ewma == 0.0 and p99 > self.wait_budget_s:
            return cur * (1.0 - self.rel_step)
        return None

    def objective(self) -> Optional[float]:
        return self._wait_p99()


class RepadController(HysteresisController):
    """Re-pads a compiled engine when recapture counters spike.

    Signal: engine captures since the last tick.  A healthy padded engine
    captures once and replays forever; a sustained capture EWMA above
    ``spike`` means the workload's size fluctuation outruns the padding —
    widen the padding fraction (via ``CompiledPotential.set_padding``) so
    the next capture buys enough headroom.  Padding is never shrunk
    online (shrinking forces the recapture it is trying to avoid), so no
    rollback objective is defined.
    """

    def __init__(
        self,
        owner,
        lo: float = 0.02,
        hi: float = 0.5,
        spike: float = 0.2,
        **kwargs,
    ) -> None:
        super().__init__("repad", lo, hi, min_abs_step=0.01, **kwargs)
        self.owner = owner
        self.spike = float(spike)
        self._last_captures: Optional[float] = None

    def _engine(self):
        if hasattr(self.owner, "set_padding"):
            return self.owner
        return getattr(self.owner, "_evaluator", None)

    def read_signal(self) -> Optional[float]:
        engine = self._engine()
        if engine is None:
            return None
        captures = float(engine.n_captures)
        if self._last_captures is None:
            self._last_captures = captures
            return 0.0
        delta = captures - self._last_captures
        self._last_captures = captures
        return delta

    def current(self) -> float:
        engine = self._engine()
        return float(engine.atom_policy.fraction) if engine is not None else 0.0

    def apply_value(self, value: float) -> None:
        engine = self._engine()
        if engine is not None:
            engine.set_padding(float(value))

    def propose(self, ewma: float) -> Optional[float]:
        if ewma > self.spike:
            # max() lifts an exact-fit engine (fraction 0) onto the ladder.
            return max(self.current() * (1.0 + self.rel_step), self.lo)
        return None


class ControllerSet:
    """A bound bundle of controllers ticked from a hot loop.

    ``tick()`` uses a non-blocking try-lock: if another thread is already
    inside a tick (serve worker threads all call it), the call returns
    immediately — controller decisions are cheap but never worth queueing
    for.  ``notify_recovery()`` fans out to every controller, which is how
    the resilience watchdogs win any argument with the tuner.
    """

    def __init__(self, controllers: Iterable[HysteresisController]) -> None:
        self.controllers: List[HysteresisController] = list(controllers)
        self._lock = threading.Lock()
        self._bound = False

    def bind(self, registry) -> "ControllerSet":
        for c in self.controllers:
            c.bind(registry)
        self._bound = True
        return self

    def tick(self) -> int:
        """Tick every controller; returns how many knobs moved."""
        if not self._lock.acquire(blocking=False):
            return 0
        try:
            return sum(1 for c in self.controllers if c.tick())
        finally:
            self._lock.release()

    def notify_recovery(self) -> None:
        with self._lock:
            for c in self.controllers:
                c.notify_recovery()

    def notify_health(self, state: str) -> None:
        """React to a server health state: freeze on anything non-HEALTHY.

        Called by the serving layer whenever its :class:`~repro.health.
        HealthMonitor` is (or transitions to) an elevated state — knob
        experiments during overload would attribute the stress to the
        knob and thrash.  Reuses the recovery freeze, so repeated calls
        while unhealthy keep extending the freeze window.
        """
        if state != "HEALTHY":
            self.notify_recovery()

    def stats(self) -> List[dict]:
        return [c.stats() for c in self.controllers]

    def __len__(self) -> int:
        return len(self.controllers)

    def __iter__(self):
        return iter(self.controllers)
