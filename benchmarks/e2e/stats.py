"""Order statistics the benchmark reports, with the sample-count rule built in."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it;
#: below that it is one or two outliers, not an estimate.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile does not have ``MIN_BEYOND`` samples beyond it."""


def samples_needed(q: float) -> int:
    """Smallest sample count at which percentile ``q`` (0-100) may be reported."""
    tail = min(q, 100.0 - q) / 100.0
    if tail <= 0:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    return math.ceil(round(MIN_BEYOND / tail, 6))


def percentile(samples: Sequence[float], q: float, strict: bool = True) -> float:
    """Percentile ``q`` (0-100) by linear interpolation; refuses thin tails.

    ``strict=False`` is for the harness self-test at reduced size only.
    """
    n = len(samples)
    if n == 0 or (strict and n < samples_needed(q)):
        raise TooFewSamples(
            f"p{q:g} needs {samples_needed(q)} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def segmented_percentile(
    segments: Sequence[Sequence[float]], q: float, strict: bool = True
) -> float:
    """Median of per-segment percentiles when every segment supports ``q``.

    One segment disturbed by a noisy neighbour then moves the result by at
    most one rank.  Segments too short for ``q`` are pooled instead (and the
    pooled sample still has to satisfy the ten-beyond rule).
    """
    need = samples_needed(q)
    if segments and all(len(s) >= need for s in segments):
        return statistics.median(percentile(s, q) for s in segments)
    return percentile([x for s in segments for x in s], q, strict)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and count of per-segment values of one metric."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}
