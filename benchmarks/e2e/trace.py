"""In-memory span recorder for the traced run, installed from outside the program.

The end-to-end numbers are measured with this module never imported into the
hot path.  A traced run patches the *public* methods at each layer boundary
(``PATCH_POINTS``) with a wrapper that records one span per call —
``(name, start, end, parent, op_id)`` plus the thread's CPU time — keeps them
in a list, and writes them out once at the end.  Nothing under ``src/`` is
edited; spans inside the program are a later issue.

A layer's self time is its span's duration minus the part of that interval
its child spans cover; children run on the parent's thread, one after the
other, so that part is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional, Sequence

_clock = time.perf_counter
_cpu_clock = time.thread_time


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: index of the enclosing span on the same thread, -1 for a root
    parent: int
    #: the op (MD step, batch, request) in flight when the span opened;
    #: -1 on threads the benchmark does not drive (server workers)
    op_id: int
    #: CPU seconds this thread consumed inside the span (children included)
    cpu: float
    #: optional count recorded by the wrapper (rebuilds, captures, ...)
    count: int = 0


#: span name -> (module, class, attribute).  Public API only.
PATCH_POINTS = {
    "engine.evaluate": ("repro.engine", "CompiledPotential", "evaluate"),
    "models.atomic_energies": ("repro.models.base", "Potential", "atomic_energies"),
    "autodiff.backward": ("repro.autodiff", "Tensor", "backward"),
    "md.neighbor": ("repro.md", "VerletList", "get"),
    "md.neighbor.shard": (
        "repro.parallel", "DomainDecomposition", "local_neighbor_list"),
    "md.integrate.half_kick": ("repro.md", "VelocityVerlet", "half_kick"),
    "md.integrate.drift": ("repro.md", "VelocityVerlet", "drift"),
    "md.thermostat": ("repro.md", "LangevinThermostat", "apply"),
    "traj.record": ("repro.traj", "TrajectoryWriter", "record"),
    "traj.barrier": ("repro.traj", "TrajectoryWriter", "barrier"),
    "resilience.checkpoint": ("repro.resilience", "CheckpointManager", "save"),
    "nn.train_epoch": ("repro.nn", "Trainer", "train_epoch"),
    "nn.evaluate": ("repro.nn", "Trainer", "evaluate"),
    "nn.optimizer_step": ("repro.nn", "Adam", "step"),
    "parallel.compute": ("repro.parallel", "ParallelForceEvaluator", "compute"),
    "parallel.decompose": ("repro.parallel", "DomainDecomposition", "build"),
    "parallel.exchange": (
        "repro.parallel", "DomainDecomposition", "update_ghost_positions"),
    "parallel.halo": (
        "repro.parallel", "DomainDecomposition", "reverse_force_exchange"),
    "serve.submit": ("repro.serve", "Client", "submit"),
}

#: spans that belong to one layer metric
ALIASES = {
    "md.neighbor.shard": "md.neighbor",
    "md.integrate.half_kick": "md.integrate",
    "md.integrate.drift": "md.integrate",
    "parallel.halo": "parallel.exchange",
}


class Tracer:
    """Records spans from any thread; ``op`` is set by the driving thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._driver = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    # -- recording ------------------------------------------------------------
    def _open(self) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        op = self.op if threading.get_ident() == self._driver else -1
        return index, parent, op

    def _close(self, index, name, start, cpu0, parent, op, count) -> None:
        end = _clock()
        self.spans[index] = Span(
            name, start, end, parent, op, _cpu_clock() - cpu0, count
        )
        self._local.stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager for spans the benchmark opens itself (roots)."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        """``fn`` with a span around every call.

        ``hook(args, kwargs)`` runs before the call and returns a callable
        that runs after it and yields ``Span.count`` (neighbor rebuilds,
        captures, ...) — the place to read the program's public counters at
        the boundary where the work happens.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _SpanContext(self, name) as sp:
                after = hook(args, kwargs) if hook is not None else None
                try:
                    return fn(*args, **kwargs)
                finally:
                    if after is not None:
                        sp.count = after()

        return traced

    # -- installation ---------------------------------------------------------
    def install(self, hooks: Optional[dict] = None) -> None:
        """Patch every ``PATCH_POINTS`` entry (no-op while installed)."""
        if self._patched:
            return
        hooks = hooks or {}
        for name, (module, cls, attr) in PATCH_POINTS.items():
            owner = getattr(importlib.import_module(module), cls)
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            wrapped = self.wrap(name, raw.__func__ if static else raw, hooks.get(name))
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in self._patched:
            setattr(owner, attr, raw)
        self._patched.clear()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.count = 0

    def __enter__(self):
        self._ids = self.tracer._open()
        self._cpu0 = _cpu_clock()
        self._start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        index, parent, op = self._ids
        self.tracer._close(
            index, self.name, self._start, self._cpu0, parent, op, self.count)


# -- analysis -----------------------------------------------------------------


def self_times(spans: Sequence[Optional[Span]]) -> dict:
    """name -> summed self time; ``parent`` indexes into ``spans`` itself."""
    child_time = defaultdict(float)
    for s in spans:
        if s is not None and s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = defaultdict(float)
    for i, s in enumerate(spans):
        if s is not None:
            out[ALIASES.get(s.name, s.name)] += (s.end - s.start) - child_time[i]
    return dict(out)


def durations_ms(spans: Sequence[Optional[Span]], name: str) -> list:
    return [
        (s.end - s.start) * 1e3
        for s in spans
        if s is not None and ALIASES.get(s.name, s.name) == name
    ]


def window(spans: Sequence[Optional[Span]], lo: int, hi: int) -> list:
    """``spans`` with everything outside rows ``[lo, hi)`` blanked.

    Blanking (``None``) instead of slicing keeps ``parent`` indices valid.
    """
    return [s if lo <= i < hi else None for i, s in enumerate(spans)]


def dump(spans: Sequence[Optional[Span]], counts: dict) -> dict:
    """JSON-able span file: one row per span (row number = span index, so
    ``parent`` points at a row), times relative to the first span."""
    t0 = min((s.start for s in spans if s is not None), default=0.0)
    return {
        "columns": ["name", "start_s", "end_s", "parent", "op_id", "cpu_s", "count"],
        "spans": [
            None
            if s is None
            else [s.name, s.start - t0, s.end - t0, s.parent, s.op_id, s.cpu, s.count]
            for s in spans
        ],
        "counts": counts,
    }
