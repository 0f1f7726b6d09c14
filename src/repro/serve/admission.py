"""Who gets in: the first stage of the force server.

:class:`Admission` decides inside ``submit`` whether a request enters the
:class:`~repro.serve.batching.MicroBatcher` queue — the stopped check,
the health gate, the per-class queue share and full-queue eviction, in
that order — and every refusal is counted by one :meth:`Admission._shed`.

:class:`Ledger` is the one set of admitted, unresolved requests and the
only way a future resolves: the executor (results, failures), admission
(evicted victims) and ``stop()`` (whatever is left) all close entries
through :meth:`Ledger.finish` / :meth:`Ledger.fail`; ``drain()`` waits
for it to empty.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Dict, List, Optional

from ..obs import OCCUPANCY_BUCKETS, Registry
from .batching import ForceRequest, MicroBatcher
from .errors import LoadShed, ServerStopped
from .qos import DEFAULT_PRIORITY, PRIORITIES, SHED_LOAD, QoSPolicy, priority_level

__all__ = ["Admission", "Ledger"]


class Ledger:
    """Admitted requests whose future has not resolved yet."""

    def __init__(self, metrics: Registry) -> None:
        self.metrics = metrics
        self._c_served = metrics.counter("requests_served")
        self._h_latency = metrics.histogram("latency_s")
        self._cv = threading.Condition()
        self._open: Dict[int, ForceRequest] = {}

    def open(self, req: ForceRequest) -> None:
        with self._cv:
            self._open[id(req)] = req

    def unresolved(self) -> List[ForceRequest]:
        with self._cv:
            return list(self._open.values())

    def wait_empty(self, timeout: Optional[float] = None) -> bool:
        """Block until every open request resolved; False on timeout."""
        with self._cv:
            return self._cv.wait_for(lambda: not self._open, timeout)

    def finish(self, req: ForceRequest, result) -> None:
        try:
            req.future.set_result(result)
        except InvalidStateError:
            # Already failed by stop() (drain deadline, abort): that path
            # counted and closed this request.
            return
        self._c_served.inc()
        self._h_latency.observe(time.monotonic() - req.t_enqueue)
        self._close(req)

    def fail(
        self, req: ForceRequest, exc: Exception, counter: str,
        err_class: Optional[str] = None,
    ) -> None:
        try:
            req.future.set_exception(exc)
        except InvalidStateError:
            return
        self.metrics.counter(counter).inc()
        if err_class is not None:
            self.metrics.counter(f"errors_{err_class}").inc()
        self._close(req)

    def _close(self, req: ForceRequest) -> None:
        with self._cv:
            self._open.pop(id(req), None)
            self._cv.notify_all()


class Admission:
    """Admit a request into the batcher's queue, or refuse it with a typed
    :class:`~repro.serve.errors.ServeError`.

    A ``qos`` policy turns on the QoS decisions (health gate, per-class
    shares); without one only the stopped check and the total bound apply,
    though the health monitor is still ticked once per submission.
    """

    def __init__(
        self,
        batcher: MicroBatcher,
        ledger: Ledger,
        max_queue: int,
        qos: Optional[QoSPolicy],
        health,
    ) -> None:
        self.batcher = batcher
        self.ledger = ledger
        self.metrics = ledger.metrics
        self.max_queue = int(max_queue)
        self.qos = qos
        self.health = health
        self.class_bounds = (
            qos.bounds_for(max_queue)
            if qos is not None
            else {p: int(max_queue) for p in PRIORITIES}
        )
        self.accepting = False
        self._lock = threading.Lock()
        self._c_admitted = self.metrics.counter("requests_admitted")
        self._h_queue_depth = self.metrics.histogram("queue_depth", OCCUPANCY_BUCKETS)

    def open(self) -> None:
        with self._lock:
            self.accepting = True

    def close(self) -> None:
        """Stop admitting; returns once no admission is in progress."""
        with self._lock:
            self.accepting = False

    def admit(
        self,
        system,
        key: str,
        nl=None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue one request for model ``key``; returns its future."""
        qos = self.qos
        if priority is None:
            priority = qos.default_priority if qos is not None else DEFAULT_PRIORITY
        level = priority_level(priority)
        if deadline is None and qos is not None:
            deadline = qos.default_deadline(priority)
        now = time.monotonic()
        self.health.tick()
        victim: Optional[ForceRequest] = None
        with self._lock:
            if not self.accepting:
                self.metrics.counter("errors_shutdown").inc()
                raise ServerStopped("server is not accepting requests")
            if qos is not None and self.health.level >= 2:
                # SHEDDING (or DRAINING): only the strongest classes are
                # admitted until the monitor steps back down.
                if self.health.level >= 3 or level > qos.shed_admit_level:
                    raise self._shed(
                        priority, "shed",
                        f"health state {self.health.state}: "
                        f"{priority} requests are shed",
                    )
            depth = self.batcher.pending()
            if qos is not None:
                by_class = self.batcher.pending_by_class()
                bound = self.class_bounds.get(priority, self.max_queue)
                if by_class.get(priority, 0) >= bound:
                    raise self._shed(
                        priority, "shed",
                        f"{priority} queue share full "
                        f"({by_class[priority]}/{bound} pending)",
                    )
            if depth >= self.max_queue:
                # Strict-priority admission: displace the newest request
                # of a strictly weaker class before shedding the arrival.
                victim = self.batcher.evict_newest_below(level)
                if victim is None:
                    raise self._shed(
                        priority, "overload",
                        f"queue full ({depth}/{self.max_queue} pending)",
                    )
            req = ForceRequest(
                system=system,
                model=key,
                future=Future(),
                nl=nl,
                t_enqueue=now,
                deadline=None if deadline is None else now + float(deadline),
                priority=priority,
            )
            self.ledger.open(req)
            self.batcher.put(req)
        if victim is not None:
            # Outside the lock: failing a future runs its callbacks.
            self._shed(
                victim.priority, "shed",
                f"evicted by an arriving {priority} request "
                f"(queue full at {self.max_queue})",
                victim=victim,
            )
        self._c_admitted.inc()
        self._h_queue_depth.observe(depth + 1)
        return req.future

    def _shed(
        self, priority: str, err_class: str, message: str,
        victim: Optional[ForceRequest] = None,
    ) -> LoadShed:
        """Count one shed of class ``priority`` and return its error.

        An arrival that is refused counts under ``requests_shed``; a
        queued ``victim`` evicted for an arrival was admitted, so it is
        failed through the ledger (``requests_failed``).
        """
        self.metrics.counter(SHED_LOAD, {"class": priority}).inc()
        exc = LoadShed(message)
        if victim is None:
            self.metrics.counter("requests_shed").inc()
            self.metrics.counter(f"errors_{err_class}").inc()
        else:
            self.ledger.fail(victim, exc, "requests_failed", err_class)
        return exc
