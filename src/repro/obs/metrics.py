"""Thread-safe metric instruments: counters, gauges, histograms, registry.

The serving layer was the first to need real instrumentation, but every
layer of the stack — engine capture/replay, MD phase counters,
parallel comm volumes, trainer step accounting — now records into the same
primitives so one :class:`Registry` snapshot describes a whole run.

* :class:`Counter` — monotonically increasing event counts (requests
  served/shed, plan captures/replays, neighbor rebuilds, retransmits).
* :class:`Gauge` — a last-written value (buffer-arena bytes, capacities,
  queue depth at a point in time).
* :class:`Histogram` — fixed-bucket histograms with count/sum/min/max and
  bucket-interpolated percentile estimates (p50/p99 latency without
  retaining per-request samples).
* :class:`Registry` — a named registry of all three with labeled-metric
  support (``counter("comm.bytes", {"category": "halo"})``), a consistent
  :meth:`~Registry.snapshot`, and deterministic JSON export
  (:mod:`repro.obs.jsonio`).

Every mutation takes a single registry-wide lock; observations are a few
dict/array updates, so contention stays negligible next to a force call.
Hot paths that cannot afford even that (the engine's per-state replay
counters) keep private accumulators and surface them through ``stats()``
views instead.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .jsonio import SCHEMA_VERSION, to_json, write_json

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "LATENCY_BUCKETS",
    "OCCUPANCY_BUCKETS",
    "labeled_name",
]

#: Geometric latency buckets from 10 µs to ~100 s — wide enough for eager
#: protein evaluations, fine enough to resolve sub-millisecond replays.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    1e-5 * (10 ** 0.25) ** k for k in range(29)
)

#: Small-integer buckets for queue depth / batch occupancy.
OCCUPANCY_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def labeled_name(name: str, labels: Optional[Mapping[str, object]]) -> str:
    """Canonical registry key for ``name`` + ``labels``.

    Labels render Prometheus-style in sorted order — ``comm.bytes`` with
    ``{"category": "halo"}`` becomes ``comm.bytes{category=halo}`` — so the
    same logical metric always lands on the same key and snapshots stay
    deterministic regardless of creation order.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        """Add ``n`` events (n may be any non-negative integer)."""
        with self._lock:
            self._value += int(n)

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-written value (capacities, arena bytes, depth at an instant)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, x: float) -> None:
        with self._lock:
            self._value = float(x)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += float(n)

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= float(n)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``buckets`` are ascending upper bounds; an implicit overflow bucket
    catches everything beyond the last bound.  Percentiles interpolate
    linearly inside the containing bucket — accurate to a bucket width,
    which is all a latency SLO needs — so memory stays O(buckets)
    regardless of traffic.
    """

    __slots__ = ("name", "bounds", "_counts", "count", "sum", "min", "max", "_lock")

    def __init__(
        self, name: str, buckets: Sequence[float], lock: threading.Lock
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly ascending")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = lock

    def observe(self, x: float) -> None:
        """Record one sample."""
        x = float(x)
        with self._lock:
            idx = self._bucket_index(x)
            self._counts[idx] += 1
            self.count += 1
            self.sum += x
            if x < self.min:
                self.min = x
            if x > self.max:
                self.max = x

    def _bucket_index(self, x: float) -> int:
        """The first bucket whose upper bound is >= x; past the last, overflow."""
        return bisect_left(self.bounds, x)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-quantile by bucket interpolation.

        Always returns a defined finite value: ``q`` is clamped into
        [0, 1] (a caller asking for the "110th percentile" gets the max,
        not an exception), an empty histogram reports 0.0, and a
        single-observation histogram reports that observation exactly.
        NaN is the one input with no defensible answer and raises.
        """
        q = float(q)
        if q != q:  # NaN
            raise ValueError("percentile q must not be NaN")
        q = min(max(q, 0.0), 1.0)
        with self._lock:
            if self.count == 0:
                return 0.0
            if self.count == 1 or self.min == self.max:
                return self.min
            target = q * self.count
            cum = 0
            for i, c in enumerate(self._counts):
                if c == 0:
                    continue
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if cum + c >= target:
                    frac = (target - cum) / c
                    return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
                cum += c
            return self.max

    def snapshot(self) -> dict:
        """A JSON-able view: moments plus the common latency quantiles."""
        with self._lock:
            counts = list(self._counts)
            count, total = self.count, self.sum
        out = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": self.min if count else None,
            "max": self.max if count else None,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self.bounds, counts)},
                "overflow": counts[-1],
            },
        }
        if count:
            out["p50"] = self.percentile(0.50)
            out["p90"] = self.percentile(0.90)
            out["p99"] = self.percentile(0.99)
        return out


class Registry:
    """A named registry of counters, gauges, and histograms.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` get-or-create
    (optionally under labels), so producers never need registration
    ceremony; :meth:`snapshot` returns a plain dict (written by the CLI's
    ``--stats-json``) and :meth:`delta_since` subtracts a previous
    snapshot's counters — how the benchmarks compute post-warmup replay
    rates without resetting live metrics.
    """

    def __init__(self) -> None:
        # Reentrant: snapshot() holds the lock while reading each
        # histogram, which re-acquires it for a consistent percentile.
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Counter:
        """Get or create the counter ``name`` (optionally labeled)."""
        key = labeled_name(name, labels)
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter(key, self._lock)
            return c

    def gauge(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Gauge:
        """Get or create the gauge ``name`` (optionally labeled)."""
        key = labeled_name(name, labels)
        with self._lock:
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge(key, self._lock)
            return g

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, object]] = None,
    ) -> Histogram:
        """Get or create the histogram ``name`` (default: latency buckets)."""
        key = labeled_name(name, labels)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram(
                    key, buckets or LATENCY_BUCKETS, self._lock
                )
            return h

    def snapshot(self, prefix: Optional[str] = None) -> dict:
        """Consistent JSON-able view of every instrument.

        ``prefix`` restricts the view to one layer's namespace (e.g.
        ``"md."``) — how per-layer ``stats()`` methods expose their slice
        of a shared registry tree.  Counters following the
        ``errors_<class>`` convention are also aggregated into an
        ``errors`` breakdown (class → count, plus a ``total``) so
        degradation is visible at a glance in ``--stats-json`` output
        without scanning the flat counter list.
        """
        def keep(name: str) -> bool:
            return prefix is None or name.startswith(prefix)

        with self._lock:
            counters = {
                name: c._value for name, c in self._counters.items() if keep(name)
            }
            gauges = {
                name: g._value for name, g in self._gauges.items() if keep(name)
            }
            hists = [h for name, h in self._histograms.items() if keep(name)]
        errors = {
            name[len("errors_"):]: value
            for name, value in counters.items()
            if name.startswith("errors_")
        }
        errors["total"] = sum(errors.values())
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "errors": errors,
            "histograms": {h.name: h.snapshot() for h in hists},
        }

    @staticmethod
    def delta_since(before: dict, after: dict) -> dict:
        """Counter differences between two :meth:`snapshot` results."""
        b = before.get("counters", {})
        return {
            name: value - b.get(name, 0)
            for name, value in after.get("counters", {}).items()
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`snapshot` as deterministic JSON."""
        return to_json(self.snapshot(), indent=indent)

    def write_json(self, path) -> None:
        """Write the snapshot to ``path`` (the ``--stats-json`` target)."""
        write_json(path, self.snapshot())

