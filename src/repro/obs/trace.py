"""Hierarchical span tracing: where the time goes, phase by phase.

The paper's scaling analysis (Figs. 5–7) lives or dies on per-phase
timings — neighbor-list rebuilds vs. force kernels vs. halo exchange —
so the stack carries one tracer that every layer reports into:

    with obs.span("md.step") as sp:
        with obs.span("md.force"):
            ...
        sp.add("pairs", nl.n_edges)

Spans nest per-thread (a worker thread's spans never interleave with the
main loop's), carry wall time from one monotonic clock
(:data:`MONOTONIC`), and can accumulate per-span counters.  Completed
root spans land in a bounded in-memory buffer (oldest dropped first) and
export as a nested JSON tree; an aggregation table over *all* finished
spans (``phase_totals``) feeds the CLI ``profile`` subcommand without
retaining every step's tree.

Tracing is **off by default** and the disabled cost is one attribute
check returning a shared no-op span — cheap enough to leave the
instrumentation permanently wired through MD steps, engine replays,
halo exchanges, serve batches, and training epochs.  The enabled cost is
not pinned by a test (EXPERIMENTS.md, "Tracing, dump and checkpoint cost on
``water_md``", has what the repo benchmark measures).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

from .jsonio import SCHEMA_VERSION, write_json

__all__ = [
    "MONOTONIC",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
    "enable",
    "disable",
    "enabled",
]

#: The single clock source for every instrument in the stack: monotonic,
#: highest available resolution.  (``time.time`` is wall-clock and can
#: step backwards under NTP; nothing in repro times against it.)
MONOTONIC = time.perf_counter


class Span:
    """One timed phase; a context manager that nests under its parent."""

    __slots__ = ("name", "path", "t_start", "duration", "counters", "children",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.name = name
        self.path = name  # parent-qualified on __enter__
        self.t_start = 0.0
        self.duration = 0.0
        self.counters: Dict[str, float] = {}
        self.children: List[Span] = []
        self._tracer = tracer

    def add(self, key: str, n: float = 1) -> None:
        """Accumulate a per-span counter (pairs touched, bytes moved, ...)."""
        self.counters[key] = self.counters.get(key, 0) + n

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            self.path = f"{stack[-1].path}/{self.name}"
        stack.append(self)
        self.t_start = MONOTONIC()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration = MONOTONIC() - self.t_start
        stack = self._tracer._stack()
        stack.pop()
        if stack:
            stack[-1].children.append(self)
            self._tracer._finish(self, root=False)
        else:
            self._tracer._finish(self, root=True)
        return False

    def to_dict(self, t0: Optional[float] = None) -> dict:
        """Nested JSON-able view (offsets relative to the root's start)."""
        t0 = self.t_start if t0 is None else t0
        out = {
            "name": self.name,
            "t_offset_s": self.t_start - t0,
            "duration_s": self.duration,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict(t0) for c in self.children]
        return out


class _NopSpan:
    """The shared disabled-tracing span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, key: str, n: float = 1) -> None:
        pass


_NOP = _NopSpan()


class Tracer:
    """Span factory + bounded trace buffer + phase aggregation.

    Parameters
    ----------
    enabled:
        Whether :meth:`span` returns live spans (default off).
    max_traces:
        Root spans retained in the in-memory buffer; older roots are
        dropped (their contribution survives in ``phase_totals``).
    """

    def __init__(self, enabled: bool = False, max_traces: int = 256) -> None:
        self.enabled = bool(enabled)
        self.max_traces = int(max_traces)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=self.max_traces)
        self._phases: Dict[str, List[float]] = {}  # path -> [count, total_s]
        self._n_roots = 0

    # -- lifecycle ------------------------------------------------------------
    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop buffered traces and phase aggregates (not the enabled flag)."""
        with self._lock:
            self._traces.clear()
            self._phases.clear()
            self._n_roots = 0

    # -- span creation --------------------------------------------------------
    def span(self, name: str):
        """A live :class:`Span` when enabled, the shared no-op otherwise."""
        if not self.enabled:
            return _NOP
        return Span(self, name)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, sp: Span, root: bool) -> None:
        with self._lock:
            agg = self._phases.get(sp.path)
            if agg is None:
                agg = self._phases[sp.path] = [0, 0.0]
            agg[0] += 1
            agg[1] += sp.duration
            if root:
                self._n_roots += 1
                self._traces.append(sp)

    # -- views ----------------------------------------------------------------
    def phase_totals(self, prefix: Optional[str] = None) -> dict:
        """Aggregated ``path -> {count, total_s, mean_s}`` over all spans.

        Paths are parent-qualified (``md.step/md.force``), so one phase
        name appearing under two parents stays distinguishable.
        """
        with self._lock:
            items = [
                (path, agg[0], agg[1])
                for path, agg in self._phases.items()
                if prefix is None or path.startswith(prefix)
            ]
        return {
            path: {
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
            }
            for path, count, total in sorted(items)
        }

    def format_phases(self, prefix: Optional[str] = None) -> str:
        """Plain-text phase-time table (the ``profile`` subcommand body).

        Rows are indented by span depth; ``share`` is each phase's total
        time relative to the root phases' total.
        """
        totals = self.phase_totals(prefix)
        if not totals:
            return "(no spans recorded — is tracing enabled?)"
        root_total = sum(
            v["total_s"] for path, v in totals.items() if "/" not in path
        )
        headers = ("phase", "calls", "total s", "mean ms", "share")
        rows = []
        for path, v in totals.items():
            depth = path.count("/")
            label = "  " * depth + path.rsplit("/", 1)[-1]
            share = v["total_s"] / root_total if root_total > 0 else 0.0
            rows.append(
                (
                    label,
                    str(v["count"]),
                    f"{v['total_s']:.4f}",
                    f"{1e3 * v['mean_s']:.3f}",
                    f"{100 * share:.1f}%",
                )
            )
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def export(self) -> dict:
        """JSON-able trace document: phase table + buffered span trees."""
        with self._lock:
            traces = list(self._traces)
            n_roots = self._n_roots
        return {
            "schema_version": SCHEMA_VERSION,
            "n_traces_recorded": n_roots,
            "n_traces_buffered": len(traces),
            "n_traces_dropped": n_roots - len(traces),
            "phases": self.phase_totals(),
            "traces": [sp.to_dict() for sp in traces],
        }

    def write_json(self, path) -> None:
        """Write :meth:`export` deterministically (the ``--trace-json`` target)."""
        write_json(path, self.export())


#: Process-global tracer: all built-in instrumentation reports here unless
#: a component was handed an explicit tracer.
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-global tracer (tests); returns the old one."""
    global _GLOBAL
    old, _GLOBAL = _GLOBAL, tracer
    return old


def span(name: str):
    """A span on the global tracer (the one-liner every hot path uses)."""
    t = _GLOBAL
    if not t.enabled:
        return _NOP
    return Span(t, name)


def enable(max_traces: Optional[int] = None) -> Tracer:
    """Turn on global tracing (optionally resizing the trace buffer)."""
    t = _GLOBAL
    if max_traces is not None and max_traces != t.max_traces:
        t.max_traces = int(max_traces)
        with t._lock:
            t._traces = deque(t._traces, maxlen=t.max_traces)
    return t.enable()


def disable() -> Tracer:
    """Turn off global tracing (buffered traces are kept until ``clear``)."""
    return _GLOBAL.disable()


def enabled() -> bool:
    return _GLOBAL.enabled
