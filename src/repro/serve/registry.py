"""Named potentials, each with its plan cache and circuit breaker.

A serving process may host several potentials at once — a production
model plus cheap baselines, say — and a request names the one it wants.
The registry maps each name to a :class:`ModelEntry`: the potential, the
:class:`~repro.serve.plancache.PlanCache` of its compiled plans, and the
circuit breaker that fails its requests fast while it keeps failing.

Registering a name again replaces its entry: the old potential's plans
and breaker go with it, and the next batch for that name is served by the
new potential.  Weights updated in place call
:meth:`ModelRegistry.invalidate` to drop the stale plans — the same
capture-state-is-a-cache stance as ``CompiledPotential.invalidate()``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..resilience.retry import CircuitBreaker
from .plancache import PlanCache

__all__ = ["ModelRegistry", "ModelEntry", "UnknownModelError"]


class UnknownModelError(KeyError):
    """Raised when a request names a model the registry does not hold."""


class ModelEntry:
    """One registered potential with its plan cache and breaker."""

    __slots__ = ("potential", "plan_cache", "breaker")

    def __init__(self, potential, plan_cache: PlanCache, breaker: CircuitBreaker) -> None:
        self.potential = potential
        self.plan_cache = plan_cache
        # Per-model circuit breaker: one misbehaving model must not take
        # down requests against the healthy ones it shares a server with.
        self.breaker = breaker


class ModelRegistry:
    """Map model names to entries; the first name registered is the default.

    Parameters
    ----------
    plan_cache_opts:
        Keyword arguments forwarded to each entry's :class:`PlanCache`
        (``max_plans``, ``growth``, floors).
    breaker_opts:
        Keyword arguments forwarded to each entry's
        :class:`~repro.resilience.CircuitBreaker` (thresholds, ``clock``).
    """

    def __init__(
        self,
        plan_cache_opts: Optional[dict] = None,
        breaker_opts: Optional[dict] = None,
    ) -> None:
        self._cache_opts = dict(plan_cache_opts or {})
        self._breaker_opts = dict(breaker_opts or {})
        self._lock = threading.Lock()
        self._entries: Dict[str, ModelEntry] = {}
        self._default: Optional[str] = None

    def register(self, name: str, potential) -> ModelEntry:
        """Add ``name``, or replace its entry (plans and breaker included)."""
        if ":" in name:
            raise ValueError("model name must not contain ':'")
        entry = ModelEntry(
            potential,
            PlanCache(potential, **self._cache_opts),
            CircuitBreaker(**self._breaker_opts),
        )
        with self._lock:
            self._entries[name] = entry
            if self._default is None:
                self._default = name
        return entry

    @property
    def default_model(self) -> Optional[str]:
        """The model name used when a request does not specify one."""
        return self._default

    def get(self, name: Optional[str] = None) -> ModelEntry:
        """The entry for ``name`` (the default model when None)."""
        if name is None:
            name = self._default
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownModelError(
                "registry is empty" if name is None else name
            ) from None

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop a model's compiled plans (call after updating its weights)."""
        self.get(name).plan_cache.clear()

    def any_breaker_open(self) -> bool:
        """Whether any registered model's circuit breaker is open.

        Cheap enough for the health monitor to poll per tick.
        """
        with self._lock:
            return any(e.breaker.state == "open" for e in self._entries.values())

    def names(self) -> List[str]:
        """Registered model names."""
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """The default model, plus plan-cache stats and breaker state by name."""
        with self._lock:
            entries = dict(self._entries)
        return {
            "n_registered": len(entries),
            "default_model": self._default,
            "models": {name: e.plan_cache.stats() for name, e in entries.items()},
            "breakers": {name: e.breaker.state for name, e in entries.items()},
        }
