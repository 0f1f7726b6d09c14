"""Quality-of-service policy: priority classes, deadlines, load shedding.

Under overload a force server has to decide *which* work to drop, not
just *whether* to drop it.  This module holds the policy vocabulary the
server enforces:

* **Priority classes** — every request belongs to one of three classes,
  ordered strongest-first::

      interactive (0)  >  batch (1)  >  background (2)

  Scheduling is strict: a ready higher-class batch always dispatches
  before a ready lower-class one.  Admission is strict-then-weighted:
  an arriving request is never shed while a strictly lower class holds
  queue slots (the newest lowest-class request is evicted instead), and
  the class ``weights`` partition queue capacity so a flood of one
  non-top class cannot monopolize the queue.

* **Deadlines** — a per-request end-to-end budget.  Requests that expire
  while queued are shed *before* batch assembly (no force call is
  wasted) with a typed ``DeadlineExceeded``; the micro-batcher never
  holds a partial batch past the tightest deadline in its window.

* **Shed accounting** — every QoS shed is counted under the
  ``serve.shed.*`` metrics (labelled by class) so the chaos harness can
  prove "every shed request got a typed error, none evaluated".

The policy object is deliberately inert — pure data plus arithmetic —
so property tests can exercise admission logic without a server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..health import HealthThresholds

__all__ = [
    "PRIORITIES",
    "PRIORITY_LEVELS",
    "DEFAULT_PRIORITY",
    "QoSPolicy",
    "ServeResult",
    "priority_level",
    "SHED_LOAD",
    "SHED_DEADLINE",
]

#: Priority classes, strongest first.  The tuple index is the level:
#: lower level = higher priority.
PRIORITIES = ("interactive", "batch", "background")

PRIORITY_LEVELS: Dict[str, int] = {name: i for i, name in enumerate(PRIORITIES)}

DEFAULT_PRIORITY = "batch"

#: Counter names for QoS sheds (labelled ``{class=...}``); the chaos
#: obs-consistency invariant sums these.
SHED_LOAD = "serve.shed.load"
SHED_DEADLINE = "serve.shed.deadline"


def priority_level(priority: str) -> int:
    """Validated numeric level for a priority class name (lower = stronger)."""
    try:
        return PRIORITY_LEVELS[priority]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown priority {priority!r} (expected one of {PRIORITIES})"
        ) from None


def _default_weights() -> Dict[str, float]:
    return {"interactive": 4.0, "batch": 2.0, "background": 1.0}


@dataclass(frozen=True)
class QoSPolicy:
    """``serve.qos``: the admission/scheduling policy of a
    :class:`~repro.serve.ForceServer`; a server given one enforces it.

    Parameters
    ----------
    weights:
        Per-class capacity weights.  When ``queue_bounds`` is not given,
        each non-top class gets a queue share of
        ``max(1, round(max_queue * w / sum(w)))`` slots; the top class
        (``interactive``) is bounded only by the total ``max_queue`` so
        latency-critical work is never starved of admission by its own
        share.
    queue_bounds:
        Explicit per-class pending bounds (overrides the weighted
        shares).  Classes omitted here fall back to ``max_queue``.
    shed_admit_priority:
        In the ``SHEDDING`` health state only classes at least this
        strong are admitted; everything weaker sheds with ``LoadShed``.
    default_priority:
        Class assumed when ``submit`` passes none.
    deadlines:
        Optional per-class default deadline (seconds, end-to-end) applied
        when ``submit`` passes none.  ``None`` entries mean no deadline.
    health:
        Thresholds and dwell times of the server's
        :class:`~repro.health.HealthMonitor`, whose state gates admission.
    """

    weights: Mapping[str, float] = field(default_factory=_default_weights)
    queue_bounds: Optional[Mapping[str, int]] = None
    shed_admit_priority: str = "interactive"
    default_priority: str = DEFAULT_PRIORITY
    deadlines: Optional[Mapping[str, Optional[float]]] = None
    health: HealthThresholds = HealthThresholds()

    def __post_init__(self) -> None:
        for name in self.weights:
            priority_level(name)
        for name, w in self.weights.items():
            if not (float(w) > 0):
                raise ValueError(f"weight for {name!r} must be > 0, got {w!r}")
        missing = [p for p in PRIORITIES if p not in self.weights]
        if missing:
            raise ValueError(f"weights missing classes: {missing}")
        if self.queue_bounds is not None:
            for name, bound in self.queue_bounds.items():
                priority_level(name)
                if int(bound) < 1:
                    raise ValueError(
                        f"queue bound for {name!r} must be >= 1, got {bound!r}"
                    )
        priority_level(self.shed_admit_priority)
        priority_level(self.default_priority)
        if self.deadlines is not None:
            for name, dl in self.deadlines.items():
                priority_level(name)
                if dl is not None and not (float(dl) > 0):
                    raise ValueError(
                        f"deadline for {name!r} must be > 0 or None, got {dl!r}"
                    )

    @property
    def shed_admit_level(self) -> int:
        """Strongest level still admitted while the server is SHEDDING."""
        return priority_level(self.shed_admit_priority)

    def bounds_for(self, max_queue: int) -> Dict[str, int]:
        """Per-class pending bounds given the server's total queue bound.

        Explicit ``queue_bounds`` win; otherwise non-top classes get
        weighted shares of ``max_queue`` and the top class the full
        queue.  Every bound is capped at ``max_queue``.
        """
        max_queue = int(max_queue)
        total_w = sum(float(self.weights[p]) for p in PRIORITIES)
        out: Dict[str, int] = {}
        for level, name in enumerate(PRIORITIES):
            if self.queue_bounds is not None and name in self.queue_bounds:
                bound = int(self.queue_bounds[name])
            elif level == 0:
                bound = max_queue
            else:
                share = max_queue * float(self.weights[name]) / total_w
                bound = max(1, int(round(share)))
            out[name] = min(bound, max_queue)
        return out

    def default_deadline(self, priority: str) -> Optional[float]:
        """Default end-to-end deadline (seconds) for a class, or None."""
        if self.deadlines is None:
            return None
        dl = self.deadlines.get(priority)
        return None if dl is None else float(dl)


class ServeResult(tuple):
    """An ``(energy, forces)`` pair with serving metadata attached.

    Unpacks exactly like the plain tuple the server has always returned
    (``e, f = result``) while exposing ``result.model`` (the name of the
    model that evaluated it) and ``result.priority``.
    """

    def __new__(cls, energy, forces, model=None, priority=None):
        self = super().__new__(cls, (energy, forces))
        self.model = model
        self.priority = priority
        return self

    @property
    def energy(self):
        return self[0]

    @property
    def forces(self):
        return self[1]

