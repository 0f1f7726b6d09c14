"""Wall-clock timing helpers, unified onto the observability clock.

One monotonic clock (:data:`~repro.obs.trace.MONOTONIC`) for every
measurement in the stack, and optional span emission so ad-hoc benchmark timings land in the same
trace/phase tables as the built-in instrumentation.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .trace import MONOTONIC, Tracer, get_tracer

__all__ = ["Timer", "time_callable"]


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.elapsed``.

    With a ``name``, the timed region is also recorded as a span on the
    tracer (global by default), so one-off benchmark timings show up in
    ``phase_totals()`` next to the built-in phases.
    """

    def __init__(
        self, name: Optional[str] = None, tracer: Optional[Tracer] = None
    ) -> None:
        self.elapsed = 0.0
        self.name = name
        self._tracer = tracer
        self._t0 = 0.0
        self._span = None

    def __enter__(self) -> "Timer":
        if self.name is not None:
            tracer = self._tracer if self._tracer is not None else get_tracer()
            self._span = tracer.span(self.name)
            self._span.__enter__()
        self._t0 = MONOTONIC()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = MONOTONIC() - self._t0
        if self._span is not None:
            self._span.__exit__(*exc)
            self._span = None
        return False


def time_callable(
    fn: Callable[[], object],
    repeat: int = 3,
    warmup: int = 1,
    name: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[float, object]:
    """(best seconds per call, last result) over ``repeat`` timed calls.

    With ``name``, each timed call is recorded as a span so repeated
    kernel timings aggregate in the tracer's phase table.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    result = None
    for _ in range(warmup):
        result = fn()
    best = float("inf")
    for _ in range(repeat):
        with Timer(name=name, tracer=tracer) as t:
            result = fn()
        best = min(best, t.elapsed)
    return best, result
