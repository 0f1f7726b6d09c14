"""Wall-clock timing helpers, unified onto the observability clock.

One monotonic clock (:data:`~repro.obs.trace.MONOTONIC`) for every
measurement in the stack.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .trace import MONOTONIC

__all__ = ["Timer", "time_callable"]


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.elapsed``."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = MONOTONIC()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = MONOTONIC() - self._t0
        return False


def time_callable(
    fn: Callable[[], object], repeat: int = 3, warmup: int = 1
) -> Tuple[float, object]:
    """(best seconds per call, last result) over ``repeat`` timed calls."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    result = None
    for _ in range(warmup):
        result = fn()
    best = float("inf")
    for _ in range(repeat):
        with Timer() as t:
            result = fn()
        best = min(best, t.elapsed)
    return best, result
