"""repro.serve — a batched force-evaluation service on the compiled engine.

The paper's deployment story (§V-C) is capture-once/replay-many inference
with padded buffers; ``repro.engine`` reproduces that for a single MD
stream.  This package is the layer that turns the engine into a *service*
able to take heterogeneous concurrent traffic — the serving-side scaling
follow-up to the kernel work (cf. Tan et al. 2025, high-performance
inference for deep equivariant potentials):

* :class:`ModelRegistry` — a map from model name to potential, plan
  cache and circuit breaker; registering a name again replaces its entry.
* :class:`PlanCache` — maps arbitrary request sizes onto a geometric
  ladder of padded plan capacities, so replay hit-rate stays near 100%
  across mixed-size request streams.
* :class:`MicroBatcher` — coalesces single-structure requests into padded
  batches under an adaptive time window; batching is bitwise-exact
  because structure graphs stay disjoint.
* :class:`ForceServer` / :class:`Client` — three stages (``Admission`` →
  ``MicroBatcher`` → ``Executor``) behind a worker pool: bounded
  admission with shed-on-overload, per-request deadlines, graceful drain,
  and a :class:`repro.obs.Registry` (counters, latency/queue/occupancy
  histograms, capture-vs-replay rates, JSON export).
* :class:`QoSPolicy` / :class:`~repro.health.HealthMonitor` — graceful
  degradation under overload: per-request deadlines
  (:class:`DeadlineExceeded`), priority classes with
  lowest-class-first shedding (:class:`LoadShed`) and a
  ``HEALTHY → DEGRADED → SHEDDING → DRAINING`` health state machine
  that gates admission; every request is served by the model it names
  (:class:`ServeResult` carries the name).

Quickstart::

    from repro.serve import ForceServer, Client, QoSPolicy

    with ForceServer(model, n_workers=2, max_batch=8, qos=QoSPolicy()) as server:
        client = Client(server, priority="interactive", deadline=0.05)
        energy, forces = client.evaluate(system)
        results = client.evaluate_many(systems)   # coalesced into batches
        print(server.stats()["replay_rate"], server.stats()["health"]["state"])
"""

from .batching import ForceRequest, MicroBatcher
from .plancache import PlanCache, SizeClasses
from .qos import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    QoSPolicy,
    ServeResult,
    priority_level,
)
from .errors import (
    CircuitOpen,
    DeadlineExceeded,
    DrainTimeout,
    LoadShed,
    ModelFailure,
    ServeError,
    ServerOverloaded,
    ServerStopped,
    WorkerCrash,
)
from .registry import ModelEntry, ModelRegistry, UnknownModelError
from .server import Client, ForceServer

__all__ = [
    "CircuitOpen",
    "Client",
    "DEFAULT_PRIORITY",
    "DeadlineExceeded",
    "DrainTimeout",
    "ForceRequest",
    "ForceServer",
    "LoadShed",
    "MicroBatcher",
    "ModelEntry",
    "ModelFailure",
    "ModelRegistry",
    "PRIORITIES",
    "PlanCache",
    "QoSPolicy",
    "ServeError",
    "ServeResult",
    "ServerOverloaded",
    "ServerStopped",
    "SizeClasses",
    "UnknownModelError",
    "WorkerCrash",
    "priority_level",
]
