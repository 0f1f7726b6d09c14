"""Deterministic search: coordinate descent over declared candidates.

The driver is intentionally boring: coordinate descent over the declared
candidate lists, sweeping parameters in declaration order and moving only
on *strict* score improvement.  With a deterministic objective this makes
the whole search a pure function of (space, objective, start point) — the
property the profile byte-identity guarantee rests on.  Ties keep the
current value, so knobs the objective is indifferent to stay at the
stack's defaults instead of drifting on last-bit noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .space import ParamSpace

__all__ = ["Trial", "SearchResult", "coordinate_descent"]

#: Relative score improvement below which a move is treated as a tie.
TIE_TOL = 1e-9


@dataclass
class Trial:
    """One evaluated configuration."""

    params: dict
    score: float
    metrics: dict = field(default_factory=dict)


@dataclass
class SearchResult:
    """Outcome of a search: the winner plus the full tried table."""

    best: dict
    best_score: float
    best_metrics: dict
    trials: List[Trial]
    n_evaluations: int
    n_sweeps: int


def _key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def coordinate_descent(
    space: ParamSpace,
    evaluate: Callable[[dict], Tuple[float, dict]],
    start: Optional[dict] = None,
    max_sweeps: int = 4,
) -> SearchResult:
    """Minimize ``evaluate`` over the space by per-parameter line scans.

    Each sweep visits every parameter in declaration order and scans its
    full candidate list with the other parameters held fixed; the best
    strictly-improving value (beyond :data:`TIE_TOL` relative) is kept.
    Stops when a sweep makes no move or after ``max_sweeps``.  Evaluations
    are cached by configuration, so revisited points cost nothing and the
    tried table holds each configuration exactly once.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    current = dict(start) if start is not None else space.defaults()
    space.validate(current)

    cache: Dict[tuple, Trial] = {}

    def measure(params: dict) -> Trial:
        key = _key(params)
        trial = cache.get(key)
        if trial is None:
            score, metrics = evaluate(dict(params))
            trial = cache[key] = Trial(dict(params), float(score), metrics)
        return trial

    best = measure(current)
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        moved = False
        for param in space:
            for value in param.values:
                if value == best.params[param.name]:
                    continue
                candidate = dict(best.params)
                candidate[param.name] = value
                trial = measure(candidate)
                if trial.score < best.score - TIE_TOL * max(1.0, abs(best.score)):
                    best = trial
                    moved = True
        if not moved:
            break

    trials = list(cache.values())
    return SearchResult(
        best=dict(best.params),
        best_score=best.score,
        best_metrics=dict(best.metrics),
        trials=trials,
        n_evaluations=len(trials),
        n_sweeps=sweeps,
    )
