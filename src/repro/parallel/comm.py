"""The virtual communicator: in-process message routing with full accounting.

Ranks live in one process and execute phases in lockstep (SPMD style), so
"communication" is the movement of numpy payloads between per-rank
mailboxes.  What matters for the reproduction is that every message and
byte is *counted* by category (forward halo, reverse force, migration),
because those measured volumes drive the performance model that
regenerates the paper's scaling figures — and they are also the direct
quantitative form of the paper's §IV-A argument for why strictly-local
models parallelize and message-passing ones do not.

Fault tolerance: a :class:`~repro.resilience.FaultPlan` can be attached to
drop or delay individual messages (channels ``comm.drop`` /
``comm.delay``).  Delivery then follows the MPI-with-retransmit model:
``recv`` retries a bounded number of times, each retry "re-sending" the
lost payload (counted in the ``retransmit`` traffic category, since real
retransmissions consume real bandwidth).  Only when the payload is truly
gone after ``max_retries`` does :class:`CommError` surface to the driver,
which treats it like a rank failure (rebuild + reassign; see
:mod:`repro.parallel.driver`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import Registry

__all__ = ["CommError", "CommStats", "VirtualCluster"]


class CommError(RuntimeError):
    """A message could not be delivered within the retry budget."""


@dataclass
class CommStats:
    """Message/byte counters by category.

    When attached to an :class:`repro.obs.Registry` (see
    :meth:`attach_registry`), every record is mirrored into labeled
    ``comm.messages{category=...}`` / ``comm.bytes{category=...}``
    counters so the traffic shows up in the unified metrics tree next to
    engine and MD instrumentation.
    """

    messages: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _registry: Optional[Registry] = field(default=None, repr=False)
    _cached: Dict[str, tuple] = field(default_factory=dict, repr=False)

    def attach_registry(self, registry: Registry) -> None:
        self._registry = registry
        self._cached.clear()

    def record(self, category: str, n_bytes: int) -> None:
        self.messages[category] += 1
        self.bytes[category] += int(n_bytes)
        if self._registry is not None:
            pair = self._cached.get(category)
            if pair is None:
                labels = {"category": category}
                pair = (
                    self._registry.counter("comm.messages", labels=labels),
                    self._registry.counter("comm.bytes", labels=labels),
                )
                self._cached[category] = pair
            pair[0].inc()
            pair[1].inc(int(n_bytes))

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def reset(self) -> None:
        self.messages.clear()
        self.bytes.clear()

    def summary(self) -> str:
        cats = sorted(set(self.messages) | set(self.bytes))
        lines = [
            f"  {c}: {self.messages[c]} msgs, {self.bytes[c] / 1e6:.3f} MB"
            for c in cats
        ]
        return "\n".join(lines) or "  (no traffic)"


class VirtualCluster:
    """Mailbox-based point-to-point communication between virtual ranks.

    ``send``/``recv`` move a tuple of numpy arrays from one rank to another
    under a (category, tag) key.  Self-sends are allowed (periodic wrap on a
    1-rank axis) and are counted as zero-cost local copies.

    Parameters
    ----------
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; consulted once per
        non-local send on the ``comm.drop`` and ``comm.delay`` channels.
    max_retries:
        Redelivery attempts ``recv`` makes for a dropped/delayed message
        before raising :class:`CommError`.
    """

    def __init__(
        self,
        n_ranks: int,
        fault_plan=None,
        max_retries: int = 3,
        registry: Optional[Registry] = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.n_ranks = int(n_ranks)
        self.obs = registry if registry is not None else Registry()
        self.stats = CommStats()
        self.stats.attach_registry(self.obs)
        self.fault_plan = fault_plan
        self.max_retries = int(max_retries)
        self._c_dropped = self.obs.counter("comm.dropped")
        self._c_delayed = self.obs.counter("comm.delayed")
        self._c_retransmits = self.obs.counter("comm.retransmits")
        self._mailboxes: Dict[Tuple[int, int, str, int], List] = {}
        # Undelivered copies recoverable by retransmission, keyed like
        # mailboxes: dropped payloads (sender still holds the data) and
        # delayed payloads (in flight, arrive one recv attempt late).
        self._lost: Dict[Tuple[int, int, str, int], List] = {}
        self._delayed: Dict[Tuple[int, int, str, int], List] = {}

    def send(
        self,
        src: int,
        dst: int,
        category: str,
        payload: Tuple[np.ndarray, ...],
        tag: int = 0,
    ) -> None:
        self._check(src)
        self._check(dst)
        key = (src, dst, category, tag)
        if src != dst:
            nbytes = sum(np.asarray(a).nbytes for a in payload)
            self.stats.record(category, nbytes)
            if self.fault_plan is not None:
                from ..resilience.faults import COMM_DELAY, COMM_DROP

                if self.fault_plan.fires(COMM_DROP):
                    self._c_dropped.inc()
                    self._lost.setdefault(key, []).append(payload)
                    return
                if self.fault_plan.fires(COMM_DELAY):
                    self._c_delayed.inc()
                    self._delayed.setdefault(key, []).append(payload)
                    return
        self._mailboxes.setdefault(key, []).append(payload)

    def recv(
        self, dst: int, src: int, category: str, tag: int = 0
    ) -> Tuple[np.ndarray, ...]:
        key = (src, dst, category, tag)
        for attempt in range(self.max_retries + 1):
            box = self._mailboxes.get(key)
            if box:
                return box.pop(0)
            if not self._redeliver(key):
                break
        raise CommError(
            f"no message from rank {src} to {dst} in category {category!r} "
            f"tag {tag} after {self.max_retries} retries"
        )

    def _redeliver(self, key) -> bool:
        """Move one recoverable payload into the mailbox; False if none."""
        delayed = self._delayed.get(key)
        if delayed:
            # A delayed message simply arrives on the next attempt — no
            # extra traffic, it was already on the wire.
            self._mailboxes.setdefault(key, []).append(delayed.pop(0))
            return True
        lost = self._lost.get(key)
        if lost:
            # Retransmission: the sender still owns the payload and resends
            # it, which costs real bandwidth — account it.
            payload = lost.pop(0)
            self._c_retransmits.inc()
            nbytes = sum(np.asarray(a).nbytes for a in payload)
            self.stats.record("retransmit", nbytes)
            self._mailboxes.setdefault(key, []).append(payload)
            return True
        return False

    def purge(self) -> int:
        """Drop every undelivered message (driver recovery); returns count."""
        n = self.pending()
        self._mailboxes.clear()
        self._lost.clear()
        self._delayed.clear()
        return n

    def pending(self) -> int:
        """Undelivered message count (should be 0 at phase boundaries)."""
        return sum(
            len(v)
            for boxes in (self._mailboxes, self._lost, self._delayed)
            for v in boxes.values()
        )

    def fault_stats(self) -> dict:
        return {
            "n_dropped": self._c_dropped.value,
            "n_delayed": self._c_delayed.value,
            "n_retransmits": self._c_retransmits.value,
            "max_retries": self.max_retries,
        }

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
