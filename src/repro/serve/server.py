"""The force-evaluation service: three stages and their lifecycle.

:class:`ForceServer` is the concurrency layer around the compiled engine —
the in-process analogue of the serving stack a production potential runs
behind.  A request passes three stages, each owning its decisions::

    Client.submit ──▶ Admission     stopped? health gate, class share,
                  │                 full-queue eviction — or a typed shed
                  ──▶ MicroBatcher  per-(model, class) coalescing window,
                  │                 deadline purge, strict-priority pickup
                  ──▶ Executor      deadline filter, breaker, prepare_batch,
                                    retry, split, validate
                  ──▶ per-structure energy/forces on each request's Future

The server owns only the lifecycle (``start``/``drain``/``stop``),
``submit`` and ``stats()``.  Every admitted request stays in one
:class:`~repro.serve.admission.Ledger` until its future resolves, and it
resolves exactly once: served bitwise-identical to direct eager
evaluation (batching concatenates disjoint graphs and every kernel is
row-local), or failed with a typed :class:`~repro.serve.errors.ServeError`
— shed at the door (``ServerOverloaded`` / ``LoadShed``), past its
deadline (``DeadlineExceeded``, never evaluated), against an open circuit
breaker (``CircuitOpen``), after retries (``ModelFailure``), or at
shutdown (``DrainTimeout`` once the drain deadline passes, so a stalled
worker cannot hang ``stop``).  With a :class:`~repro.serve.qos.QoSPolicy`
the health state machine (``HEALTHY → DEGRADED → SHEDDING → DRAINING``)
gates admission; without one it only observes.  Every batch runs on the
model its requests named, on the server's engine, in every health state.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..health import HealthMonitor
from ..obs import Registry
from ..resilience.retry import RetryPolicy
from .admission import Admission, Ledger
from .batching import MicroBatcher
from .errors import DrainTimeout, ServeError
from .executor import Executor
from .qos import QoSPolicy
from .registry import ModelRegistry

__all__ = ["ForceServer", "Client"]


class ForceServer:
    """Concurrent batched energy/force evaluation over registered models.

    The three stages are attributes — ``admission``, ``batcher`` and
    ``executor`` — and each parameter configures one of them or the
    lifecycle around them.

    Parameters
    ----------
    models, plan_cache_opts:
        A :class:`ModelRegistry`, or a single potential registered as
        ``"default"`` in a new registry whose plan caches use
        ``plan_cache_opts`` (``atom_floor``, ``pair_floor``, ``growth``,
        ``max_plans``; a registry passed in keeps its own).
    max_queue, qos:
        Admission.  ``max_queue`` bounds pending requests: beyond it an
        arrival sheds with :class:`ServerOverloaded`.  Passing a
        :class:`~repro.serve.qos.QoSPolicy` turns on QoS enforcement —
        per-class queue shares, eviction of weaker classes and admission
        gated by a :class:`~repro.health.HealthMonitor` on
        ``qos.health``.  Without one, a default monitor still observes
        (``stats()["health"]``, the ``health.state`` gauge) but never
        sheds.  Deadlines apply either way.
    max_batch, batch_wait, adaptive:
        The :class:`~repro.serve.batching.MicroBatcher`: at most
        ``max_batch`` structures per batch, a partial batch waits at most
        ``batch_wait`` seconds, and ``adaptive`` shrinks that window to
        the arrival cadence, ``min(batch_wait, ewma_gap * (max_batch - 1))``.
    engine, retry_policy, fault_plan, stall_time:
        The :class:`~repro.serve.executor.Executor`: ``"compiled"``
        (plan-cache replay) or ``"eager"`` (a tape per batch, the
        baseline); the :class:`~repro.resilience.RetryPolicy` around each
        batch (default: 2 retries, millisecond delays); an optional
        :class:`~repro.resilience.FaultPlan` drawn per batch on the
        ``serve.worker_crash`` / ``serve.worker_stall`` channels, and how
        long an injected stall sleeps (seconds).
    n_workers, drain_timeout, start:
        The lifecycle: worker threads; the default deadline of
        ``stop(drain=True)`` in seconds (past it, pending requests fail
        with :class:`DrainTimeout`; ``None`` waits without bound); whether
        the constructor starts the server.
    metrics:
        The :class:`~repro.obs.Registry` every stage counts into.
    """

    def __init__(
        self,
        models,
        n_workers: int = 2,
        max_queue: int = 64,
        max_batch: int = 8,
        batch_wait: float = 2e-3,
        engine: str = "compiled",
        metrics: Optional[Registry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan=None,
        stall_time: float = 0.01,
        drain_timeout: Optional[float] = 30.0,
        start: bool = True,
        adaptive: bool = True,
        plan_cache_opts: Optional[dict] = None,
        qos: Optional[QoSPolicy] = None,
    ) -> None:
        if engine not in ("compiled", "eager"):
            raise ValueError(f"unknown engine {engine!r} (compiled|eager)")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if isinstance(models, ModelRegistry):
            self.registry = models
        else:
            self.registry = ModelRegistry(plan_cache_opts=plan_cache_opts)
            self.registry.register("default", models)
        self.engine = engine
        self.n_workers = int(n_workers)
        self.drain_timeout = None if drain_timeout is None else float(drain_timeout)
        self.metrics = metrics or Registry()
        self.qos = qos
        self.health = HealthMonitor(qos.health if qos is not None else None)
        self.health.attach(self._health_signals)
        self.health.bind(self.metrics)
        ledger = self._ledger = Ledger(self.metrics)
        self.batcher = MicroBatcher(
            max_batch=max_batch, max_wait=batch_wait, adaptive=adaptive
        )
        self.admission = Admission(self.batcher, ledger, max_queue, qos, self.health)
        self.executor = Executor(
            self.registry,
            ledger,
            engine,
            retry_policy or RetryPolicy(max_retries=2, base_delay=1e-3, max_delay=0.02),
            fault_plan=fault_plan,
            stall_time=stall_time,
        )
        self.batcher.on_expire = self.executor.expire
        self._lock = threading.Lock()
        self._closed = False
        self._workers: List[threading.Thread] = []
        if start:
            self.start()

    @property
    def max_queue(self) -> int:
        """The admission bound: pending requests beyond it shed."""
        return self.admission.max_queue

    # -- lifecycle ------------------------------------------------------------
    def start(self, workers: bool = True) -> "ForceServer":
        """Spawn the worker pool and open admission (idempotent).

        ``workers=False`` opens admission *without* spawning the pool —
        requests queue (and the QoS admission path runs) until a later
        ``start()`` brings up the workers.  Tests and the chaos harness
        use this to drive a deterministic admission sequence.
        """
        with self._lock:
            if self._closed:
                raise ServeError("server already stopped")
            self.admission.open()
            if not workers or self._workers:
                return self
            for k in range(self.n_workers):
                t = threading.Thread(
                    target=self._worker_loop, name=f"force-worker-{k}", daemon=True
                )
                t.start()
                self._workers.append(t)
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has resolved.

        Returns False if ``timeout`` expired with work still in flight.
        """
        return self._ledger.wait_empty(timeout)

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission, optionally drain the backlog, join the workers.

        With ``drain=False`` every admitted request not yet resolved —
        queued, or held by a worker — fails at once with
        :class:`ServeError` (error class ``shutdown``), never dropped.

        With ``drain=True`` the drain waits at most ``timeout`` seconds
        (default: the server's ``drain_timeout``).  Past the deadline every
        still-pending request fails with an explicit :class:`DrainTimeout`
        (error class ``drain_timeout``), so shutdown is bounded even when
        a worker never comes back.  A worker that finishes a request
        already failed here neither resolves nor counts it again.
        """
        self.admission.close()
        # Shutdown is a health state, not just a flag: the monitor walks
        # to DRAINING (recording each intermediate transition) so stats
        # and the gauge show the terminal state.
        self.health.begin_drain()
        drained = True
        if drain:
            if timeout is None:
                timeout = self.drain_timeout
            drained = self.drain(timeout=timeout)
        for req in self._ledger.unresolved():
            if drain:
                exc = DrainTimeout(
                    f"drain deadline ({timeout}s) expired with requests pending"
                )
            else:
                exc = ServeError("server stopped")
            self._ledger.fail(
                req, exc, "requests_failed", "drain_timeout" if drain else "shutdown"
            )
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Everything left in the queue is resolved: the workers skip it
        # and exit.  After a failed drain the deadline has already
        # expired, so a stalled worker gets only a drain-timeout-sized
        # grace instead of the full join budget.
        self.batcher.close()
        join_budget = 5.0
        if not drained and timeout is not None:
            join_budget = min(5.0, max(0.05, float(timeout)))
        for t in self._workers:
            t.join(timeout=join_budget)

    def __enter__(self) -> "ForceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- request side ---------------------------------------------------------
    def submit(
        self,
        system,
        model: Optional[str] = None,
        nl=None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue one structure; returns a Future of ``(energy, forces)``.

        ``priority`` names a QoS class (``interactive``/``batch``/
        ``background``; default ``batch`` or the policy's default);
        ``deadline`` is an end-to-end budget in seconds — past it the
        request is shed before evaluation with :class:`DeadlineExceeded`.

        Raises :class:`ServerOverloaded` (or its subclass
        :class:`LoadShed` for policy sheds) when admission rejects,
        :class:`ServerStopped` after ``stop()``, and
        :class:`~repro.serve.registry.UnknownModelError` for unknown
        model names — all synchronously, so callers can react without
        touching the future.
        """
        if model is None:
            model = self.registry.default_model
        self.registry.get(model)
        return self.admission.admit(
            system, model, nl=nl, priority=priority, deadline=deadline
        )

    # -- worker side ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.batcher.get_batch(timeout=0.05)
            if batch is None:
                if self._closed:
                    return
                continue
            try:
                self.executor.run(batch)
            except Exception as exc:  # defensive: a bug must not kill the pool
                for req in batch:
                    self._ledger.fail(req, exc, "requests_failed", "model_failure")
                continue
            self.health.tick()

    # -- health ---------------------------------------------------------------
    def _health_signals(self) -> dict:
        """Signal snapshot for the health monitor's tick."""
        return {
            "queue_frac": self.batcher.pending() / self.max_queue,
            "breaker_open": self.registry.any_breaker_open(),
        }

    # -- observability --------------------------------------------------------
    def stats(self) -> dict:
        """Metrics snapshot merged with registry/batcher state.

        ``replay_rate`` is the capture-vs-replay split of every batch
        evaluation since start — the serving-level Fig. 5 counter.
        """
        snap = self.metrics.snapshot()
        snap["registry"] = self.registry.stats()
        snap["batcher"] = self.batcher.stats()
        counters = snap["counters"]
        replays = counters.get("plan_replays", 0)
        captures = counters.get("plan_captures", 0)
        total = replays + captures
        snap["replay_rate"] = replays / total if total else 0.0
        snap["engine"] = self.engine
        snap["health"] = self.health.stats()
        snap["qos"] = {
            "enforced": self.qos is not None,
            "class_bounds": dict(self.admission.class_bounds),
            "pending_by_class": self.batcher.pending_by_class(),
        }
        return snap


class Client:
    """Thin in-process client bound to a server and (optionally) a model.

    The client is the request-side API user code sees: ``evaluate`` for
    one structure, ``evaluate_many`` for a burst (which the server
    coalesces into padded batches), ``submit`` for explicit futures.
    """

    def __init__(
        self,
        server: ForceServer,
        model: Optional[str] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.server = server
        self.model = model
        # Client-level QoS defaults: every call inherits them unless the
        # call site overrides (an MD driver binds priority="interactive"
        # once instead of threading it through every evaluate()).
        self.priority = priority
        self.deadline = deadline

    def submit(
        self,
        system,
        nl=None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue one structure; returns a Future of ``(energy, forces)``."""
        return self.server.submit(
            system, model=self.model, nl=nl,
            priority=priority if priority is not None else self.priority,
            deadline=deadline if deadline is not None else self.deadline,
        )

    def evaluate(
        self,
        system,
        nl=None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[float, np.ndarray]:
        """Blocking evaluation of one structure."""
        return self.submit(
            system, nl=nl, priority=priority, deadline=deadline
        ).result()

    def evaluate_many(
        self,
        systems: Sequence,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[Tuple[float, np.ndarray]]:
        """Evaluate a burst of structures, results in order.

        Submitting everything before gathering is what lets the
        micro-batcher coalesce the burst into padded batches.
        """
        futures = [
            self.submit(s, priority=priority, deadline=deadline) for s in systems
        ]
        return [f.result() for f in futures]
