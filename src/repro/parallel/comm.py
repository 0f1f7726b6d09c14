"""The virtual communicator: a ledger of halo messages, bytes and faults.

Ranks share the global system (rank 0 in the driver, ranks 1…R−1 over
shared memory; see :mod:`repro.parallel.workers`), so no payload travels
through here: each message a distributed-memory run would send — forward
halo, reverse force, migration — is *recorded* by category, with its byte
count.  Those measured volumes drive the performance model that regenerates
the paper's scaling figures, and they are the direct quantitative form of
the paper's §IV-A argument for why strictly-local models parallelize and
message-passing ones do not.

Fault tolerance: a :class:`~repro.resilience.FaultPlan` can be attached to
drop or delay individual messages (channels ``comm.drop`` /
``comm.delay``).  A dropped message is retransmitted once by its sender —
counted, and its bytes recorded again under ``retransmit``, since real
retransmissions consume real bandwidth; a delayed one arrives late at no
extra cost.  Either way the message is delivered: comm faults are
accounted, never raised to the driver.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs import Registry
from ..resilience.faults import COMM_DELAY, COMM_DROP

__all__ = ["CommStats", "VirtualCluster"]


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


class VirtualCluster:
    """The message ledger of a set of virtual ranks.

    :meth:`transfer` records one point-to-point message by category and
    byte count.  A message from a rank to itself (periodic wrap on a 1-rank
    axis) is a local copy: free, and never faulted.

    Parameters
    ----------
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; consulted per
        non-local message on ``comm.drop`` and, when it was not dropped,
        ``comm.delay``.
    """

    def __init__(
        self,
        n_ranks: int,
        fault_plan=None,
        registry: Optional[Registry] = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = int(n_ranks)
        self.obs = registry if registry is not None else Registry()
        self.stats = CommStats()
        self.stats.attach_registry(self.obs)
        self.fault_plan = fault_plan
        self._c_dropped = self.obs.counter("comm.dropped")
        self._c_delayed = self.obs.counter("comm.delayed")
        self._c_retransmits = self.obs.counter("comm.retransmits")

    def transfer(self, src: int, dst: int, category: str, n_bytes: int) -> None:
        """Record one message of ``n_bytes`` from ``src`` to ``dst`` and
        draw its faults (see the module docstring)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return
        self.stats.record(category, n_bytes)
        if self.fault_plan is None:
            return
        if self.fault_plan.fires(COMM_DROP):
            self._c_dropped.inc()
            self._c_retransmits.inc()
            self.stats.record("retransmit", n_bytes)
        elif self.fault_plan.fires(COMM_DELAY):
            self._c_delayed.inc()

    def fault_stats(self) -> dict:
        return {
            "n_dropped": self._c_dropped.value,
            "n_delayed": self._c_delayed.value,
            "n_retransmits": self._c_retransmits.value,
        }

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
