"""Micro-batching: coalesce single-structure requests into padded batches.

Independent structures concatenated along the atom axis (edges offset
per-structure) evaluate in one force call that is *bitwise identical* to
evaluating each structure alone: every kernel on the path is row-local in
the leading dimension — elementwise ops, gathers, per-edge scatter-adds,
and the engine's fixed-block matmul whose row results depend only on the
row itself (``autodiff.kernels._blocked_matmul``).  Batching therefore
changes throughput, never physics, which is the property the serving tests
pin down against direct eager evaluation.

:class:`MicroBatcher` implements the coalescing policy: requests are
grouped per model key in FIFO order, and a batch is released when it
reaches ``max_batch`` or when its oldest request has waited out the
current window.  The window is *adaptive*: an EWMA of inter-arrival gaps
estimates how long filling a batch will take, so heavy traffic pays almost
no added latency (the batch fills instantly) while trickle traffic waits
at most ``max_wait``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..md.neighborlist import NeighborList
from .qos import DEFAULT_PRIORITY, PRIORITIES, priority_level

__all__ = ["ForceRequest", "MicroBatcher"]


@dataclass
class ForceRequest:
    """One queued energy/force evaluation for a single structure.

    ``deadline`` is an *absolute* end-to-end deadline (monotonic-clock
    seconds), the request's only time budget: past it (or too close to it
    for one batch evaluation) the request is shed before any force call
    with a typed ``DeadlineExceeded``.  ``priority`` names the QoS class
    the batcher queues and schedules by.
    """

    system: object
    model: str
    future: object
    nl: Optional[NeighborList] = None
    t_enqueue: float = 0.0
    deadline: Optional[float] = None
    meta: dict = field(default_factory=dict)
    priority: str = DEFAULT_PRIORITY

    @property
    def n_atoms(self) -> int:
        return int(self.system.n_atoms)

    @property
    def priority_level(self) -> int:
        return priority_level(self.priority)


class MicroBatcher:
    """Group pending requests into per-model batches under a time window.

    Parameters
    ----------
    max_batch:
        Hard cap on structures per batch (a full batch releases instantly).
    max_wait:
        Upper bound in seconds on how long the oldest request of a partial
        batch may wait before release.
    adaptive:
        When True, the effective window is
        ``min(max_wait, ewma_gap * (max_batch - 1))`` — the estimated time
        to fill the batch at the observed arrival rate — so batching adds
        negligible latency under load and bounded latency when idle.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        max_batch: int = 8,
        max_wait: float = 2e-3,
        adaptive: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.adaptive = bool(adaptive)
        self._clock = clock
        self._cv = threading.Condition()
        # Queues are keyed (model, priority level): batches never mix
        # models *or* classes, and scheduling is strict priority — a
        # ready lower-level (stronger) queue always dispatches first.
        self._queues: "OrderedDict[tuple, deque]" = OrderedDict()
        self._n_pending = 0
        self._pending_by_level = [0] * len(PRIORITIES)
        self._closed = False
        self._ewma_gap: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self.n_batches = 0
        self.n_coalesced = 0
        self.n_expired = 0
        #: Called (outside the batcher lock) with requests whose deadline
        #: passed while queued; the server fails them with a typed error.
        self.on_expire: Optional[Callable[[List[ForceRequest]], None]] = None

    # -- producer side --------------------------------------------------------
    def put(self, request: ForceRequest) -> None:
        """Enqueue a request (raises RuntimeError after close())."""
        now = self._clock()
        with self._cv:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self._last_arrival is not None:
                gap = max(now - self._last_arrival, 0.0)
                self._ewma_gap = (
                    gap if self._ewma_gap is None else 0.8 * self._ewma_gap + 0.2 * gap
                )
            self._last_arrival = now
            if not request.t_enqueue:
                request.t_enqueue = now
            level = request.priority_level
            self._queues.setdefault((request.model, level), deque()).append(request)
            self._n_pending += 1
            self._pending_by_level[level] += 1
            self._cv.notify()

    def window(self) -> float:
        """Current coalescing window in seconds."""
        if not self.adaptive or self._ewma_gap is None or self.max_batch == 1:
            return self.max_wait if self.max_batch > 1 else 0.0
        return min(self.max_wait, self._ewma_gap * (self.max_batch - 1))

    def pending(self) -> int:
        """Requests currently queued (all models)."""
        return self._n_pending

    def pending_by_class(self) -> dict:
        """Currently queued requests per priority class name."""
        with self._cv:
            return {
                name: self._pending_by_level[level]
                for level, name in enumerate(PRIORITIES)
            }

    def evict_newest_below(self, level: int) -> Optional[ForceRequest]:
        """Pop the newest request of the *weakest* class weaker than
        ``level``, or None when no such request is queued.

        This is the admission side of strict priority: an arriving
        request of class ``level`` displaces lower-priority queued work
        instead of being shed itself.  Newest-first eviction preserves
        FIFO fairness inside the victim class (the oldest queued request
        has waited longest and keeps its slot).
        """
        with self._cv:
            victim_key = None
            victim_level = -1
            for key, q in self._queues.items():
                if q and key[1] > level and key[1] > victim_level:
                    victim_key, victim_level = key, key[1]
            if victim_key is None:
                return None
            victim = self._queues[victim_key].pop()
            self._n_pending -= 1
            self._pending_by_level[victim_level] -= 1
            return victim

    # -- consumer side --------------------------------------------------------
    def _purge_expired(self, now: float) -> List[ForceRequest]:
        """Remove queued requests whose deadline passed (caller holds lock)."""
        expired: List[ForceRequest] = []
        for key, q in list(self._queues.items()):
            if not q:
                continue
            if not any(r.deadline is not None and now > r.deadline for r in q):
                continue
            keep: deque = deque()
            for r in q:
                if r.deadline is not None and now > r.deadline:
                    expired.append(r)
                    self._pending_by_level[key[1]] -= 1
                else:
                    keep.append(r)
            self._queues[key] = keep
        if expired:
            self._n_pending -= len(expired)
            self.n_expired += len(expired)
        return expired

    def get_batch(self, timeout: Optional[float] = None) -> Optional[List[ForceRequest]]:
        """Next batch (same model and class, FIFO), or None on timeout.

        Blocks until some queue's batch is *ready* — full, its oldest
        request older than the window, or the tightest deadline among
        its members reached (a partial batch is never held past the
        deadline of any request in it).  Among ready queues the
        strongest priority class wins; age breaks ties.  Requests whose
        deadline has already passed are purged before assembly and
        handed to ``on_expire`` (outside the lock) — they never reach a
        force call.
        """
        outer = None if timeout is None else self._clock() + timeout
        expired: List[ForceRequest] = []
        try:
            with self._cv:
                while True:
                    now = self._clock()
                    expired.extend(self._purge_expired(now))
                    # After close() everything pending is ready: drain
                    # promptly instead of waiting out coalescing windows.
                    window = 0.0 if self._closed else self.window()
                    best_key = None
                    best_rank = None
                    next_ready = None
                    for key, q in self._queues.items():
                        if not q:
                            continue
                        age = now - q[0].t_enqueue
                        tightest = min(
                            (r.deadline for r in q if r.deadline is not None),
                            default=None,
                        )
                        ready = (
                            len(q) >= self.max_batch
                            or age >= window
                            or (tightest is not None and now >= tightest)
                        )
                        if ready:
                            rank = (key[1], -age)
                            if best_rank is None or rank < best_rank:
                                best_key, best_rank = key, rank
                        else:
                            ready_in = window - age
                            if tightest is not None:
                                ready_in = min(ready_in, tightest - now)
                            if next_ready is None or ready_in < next_ready:
                                next_ready = ready_in
                    if best_key is not None:
                        q = self._queues[best_key]
                        batch = [
                            q.popleft()
                            for _ in range(min(self.max_batch, len(q)))
                        ]
                        self._n_pending -= len(batch)
                        self._pending_by_level[best_key[1]] -= len(batch)
                        self.n_batches += 1
                        self.n_coalesced += len(batch)
                        return batch
                    if expired:
                        # Expired requests must fail promptly; hand them
                        # to on_expire (in the finally) instead of
                        # sleeping out a window with dead futures queued.
                        return None
                    if self._closed and self._n_pending == 0:
                        return None
                    wait = next_ready
                    if outer is not None:
                        remaining = outer - now
                        if remaining <= 0:
                            return None
                        wait = remaining if wait is None else min(wait, remaining)
                    self._cv.wait(wait)
        finally:
            # Deliver outside the lock: the callback re-enters the server
            # (fail futures, bump counters) and must not nest under the
            # batcher condition variable.
            if expired and self.on_expire is not None:
                self.on_expire(expired)

    def close(self) -> None:
        """Stop accepting; blocked consumers drain the backlog then get None."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def stats(self) -> dict:
        """Coalescing statistics (batches, mean occupancy, current window)."""
        with self._cv:
            return {
                "n_batches": self.n_batches,
                "n_coalesced": self.n_coalesced,
                "mean_occupancy": (
                    self.n_coalesced / self.n_batches if self.n_batches else 0.0
                ),
                "pending": self._n_pending,
                "pending_by_class": {
                    name: self._pending_by_level[level]
                    for level, name in enumerate(PRIORITIES)
                },
                "n_expired": self.n_expired,
                "window_s": self.window(),
            }
