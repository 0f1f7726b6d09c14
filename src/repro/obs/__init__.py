"""repro.obs — the cross-stack observability layer.

Every layer of the stack records into the same small instrument set, so
one snapshot/trace describes a whole run instead of five disjoint
``stats()`` dialects:

* **Metrics** (:mod:`~repro.obs.metrics`): :class:`Counter`,
  :class:`Gauge`, :class:`Histogram` under a :class:`Registry` with
  labeled-metric support.
* **Span tracing** (:mod:`~repro.obs.trace`): nested ``obs.span("md.step")``
  context managers with wall time and per-span counters, a bounded
  in-memory trace buffer, phase aggregation, and JSON export.  Off by
  default; the disabled cost is one attribute check.
* **Timing** (:mod:`~repro.obs.timing`): the benchmark stopwatch
  primitives (one monotonic clock for the whole stack).
* **Deterministic JSON** (:mod:`~repro.obs.jsonio`): every
  ``--stats-json`` / ``--trace-json`` export goes through one writer
  (sorted keys, stable floats, ``schema_version``).

Phase taxonomy (what the built-in spans are named):

====================  ====================================================
``md.step``           one MD step; children ``md.integrate``,
                      ``md.neighbor``, ``md.force``, ``md.thermostat``,
                      ``md.barostat``, ``md.checkpoint``
``engine.capture``    plan recording (rare); ``engine.replay`` per call
``parallel.step``     one parallel force evaluation; children
                      ``parallel.decompose``, ``parallel.exchange``,
                      ``parallel.force``, ``parallel.halo``
``serve.batch``       one served batch; child ``serve.eval``
``train.epoch``       one epoch; children ``train.batch_build``,
                      ``train.forward``, ``train.backward``,
                      ``train.optimizer``
====================  ====================================================

Quickstart::

    from repro import obs

    obs.enable()                      # tracing is off by default
    sim.run(100)
    print(obs.get_tracer().format_phases())
    obs.get_tracer().write_json("trace.json")
"""

from .jsonio import SCHEMA_VERSION, stable_floats, to_json, write_json
from .metrics import (
    LATENCY_BUCKETS,
    OCCUPANCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    labeled_name,
)
from .timing import Timer, time_callable
from .trace import (
    MONOTONIC,
    Span,
    Tracer,
    disable,
    enable,
    enabled,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "SCHEMA_VERSION",
    "MONOTONIC",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Span",
    "Timer",
    "Tracer",
    "LATENCY_BUCKETS",
    "OCCUPANCY_BUCKETS",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "labeled_name",
    "set_tracer",
    "span",
    "stable_floats",
    "time_callable",
    "to_json",
    "write_json",
]
