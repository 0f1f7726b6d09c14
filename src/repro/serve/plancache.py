"""Capacity-bucketed cache of compiled plans for heterogeneous requests.

A :class:`~repro.engine.CompiledPotential` replays for free only while the
incoming atom/pair counts fit its captured capacity; MD gets that from the
5% padding because consecutive steps are nearly the same size.  A *service*
sees no such locality — requests arrive with arbitrary sizes, and naively
compiling per exact size would recapture constantly (the serving analogue
of Fig. 5's unpadded baseline).

:class:`PlanCache` fixes this the way sizing works in every caching
allocator: incoming ``(n_atoms, n_pairs)`` are rounded **up** to a small
geometric ladder of size classes (default growth 1.5×), and one compiled
plan is kept per occupied ``(atom_class, pair_class)`` bucket.  Any request
stream whose sizes span a bounded range then touches a bounded set of
buckets, so after warmup every evaluation is a plan replay — the ≥95%
replay-rate target — at the cost of evaluating with at most ~50% padding
overhead (pad rows are exact zeros, so only throughput, never physics, is
affected).

Buckets are LRU-bounded (``max_plans``); each entry carries its own lock
so workers can attribute capture/replay counter deltas to a single batch
and funnel same-bucket batches through one evaluation state (the compiled
potential itself is safe for concurrent callers).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

__all__ = ["SizeClasses", "PlanCache", "PlanEntry"]


class SizeClasses:
    """A geometric ladder of capacities: round_up(n) = smallest class ≥ n.

    ``floor`` is the smallest class; successive classes grow by
    ``growth`` (ceil-ed, strictly increasing).  The ladder is deterministic,
    so the same request size always lands in the same bucket.
    """

    def __init__(self, floor: int = 16, growth: float = 1.5) -> None:
        if floor < 1:
            raise ValueError("floor must be >= 1")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.floor = int(floor)
        self.growth = float(growth)

    def round_up(self, n: int) -> int:
        """The smallest ladder class that holds ``n``."""
        c = self.floor
        n = int(n)
        while c < n:
            c = max(c + 1, int(-(-c * self.growth // 1)))  # ceil, always grows
        return c


class PlanEntry:
    """One bucket: a compiled plan at fixed capacity plus its flight lock."""

    __slots__ = ("key", "compiled", "lock")

    def __init__(self, key: Tuple[int, int], compiled) -> None:
        self.key = key
        self.compiled = compiled
        # A plan binds inputs into shared buffers before replaying, so one
        # evaluation at a time per bucket; distinct buckets run in parallel.
        self.lock = threading.Lock()


class PlanCache:
    """LRU cache of :class:`~repro.engine.CompiledPotential` by size class.

    Parameters
    ----------
    potential:
        The eager potential to compile (must implement ``traced_energies``).
    max_plans:
        LRU bound on live buckets; evicting a bucket drops its plan and
        buffer arena (it is rebuilt on the next request that needs it).
    atom_floor / pair_floor / growth:
        Ladder parameters for the atom and pair size classes.  Pair counts
        fluctuate more than atom counts, so their floor is higher.
    """

    def __init__(
        self,
        potential,
        max_plans: int = 8,
        atom_floor: int = 16,
        pair_floor: int = 64,
        growth: float = 1.5,
    ) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.potential = potential
        self.max_plans = int(max_plans)
        self.atom_classes = SizeClasses(atom_floor, growth)
        self.pair_classes = SizeClasses(pair_floor, growth)
        self._entries: "OrderedDict[Tuple[int, int], PlanEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0

    def bucket_key(self, n_atoms: int, n_pairs: int) -> Tuple[int, int]:
        """The (atom-capacity, pair-capacity) class for a request size."""
        # +1 atom slot for the engine's pad atom.
        return (
            self.atom_classes.round_up(int(n_atoms) + 1),
            self.pair_classes.round_up(max(int(n_pairs), 1)),
        )

    def acquire(self, n_atoms: int, n_pairs: int) -> PlanEntry:
        """The bucket entry covering ``(n_atoms, n_pairs)``; builds on miss.

        Marks the bucket most-recently-used and evicts the LRU bucket when
        the bound is exceeded.  Hold the returned entry's ``lock`` around
        ``entry.compiled.evaluate(...)`` when capture/replay accounting
        must be attributable to one caller.
        """
        key = self.bucket_key(n_atoms, n_pairs)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.n_hits += 1
                return entry
            self.n_misses += 1
            compiled = self.potential.compile(
                capacity=key[0], pair_capacity=key[1]
            )
            entry = PlanEntry(key, compiled)
            self._entries[key] = entry
            while len(self._entries) > self.max_plans:
                self._entries.popitem(last=False)
                self.n_evictions += 1
            return entry

    @property
    def n_plans(self) -> int:
        return len(self._entries)

    def keys(self):
        """Live bucket keys, LRU → MRU."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """Hit/miss/eviction counts plus aggregated engine counters."""
        with self._lock:
            entries = list(self._entries.values())
            out = {
                "n_plans": len(entries),
                "hits": self.n_hits,
                "misses": self.n_misses,
                "evictions": self.n_evictions,
            }
        captures = sum(e.compiled.n_captures for e in entries)
        replays = sum(e.compiled.n_replays for e in entries)
        out["n_captures"] = captures
        out["n_replays"] = replays
        # Every evaluate() replays; a capture is the slow variant of one.
        out["replay_rate"] = (replays - captures) / replays if replays else 0.0
        total = self.n_hits + self.n_misses
        out["hit_rate"] = self.n_hits / total if total else 0.0
        return out

    def clear(self) -> None:
        """Drop every bucket (used when a model's weights change)."""
        with self._lock:
            self.n_evictions += len(self._entries)
            self._entries.clear()
