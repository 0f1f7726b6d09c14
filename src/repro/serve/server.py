"""The force-evaluation service: worker pool, admission control, batching.

:class:`ForceServer` is the concurrency layer around the compiled engine —
the in-process analogue of the serving stack a production potential runs
behind.  The dataflow per request is::

    Client.submit ──▶ admission (bounded queue, shed-with-error)
                  ──▶ MicroBatcher (per-model coalescing window)
                  ──▶ worker pool ──▶ ModelRegistry ──▶ PlanCache bucket
                  ──▶ CompiledPotential.evaluate (one padded batch replay)
                  ──▶ per-structure energy/forces on each request's Future

Guarantees:

* **Exactness** — served energies and forces are bitwise-identical (in
  float64) to direct eager evaluation of each structure, because batching
  concatenates disjoint graphs and every kernel is row-local (see
  ``serve.batching``).  Zero-edge structures short-circuit through the
  eager path so model-specific empty-graph energies stay exact too.
* **Backpressure** — admission beyond ``max_queue`` pending requests
  raises :class:`ServerOverloaded` immediately (shed-with-error; the
  caller retries or degrades, the server never builds unbounded backlog).
* **Timeouts** — a request whose queue wait exceeds its budget fails with
  :class:`RequestTimeout` at pickup instead of wasting a force call.
* **Graceful drain** — :meth:`ForceServer.stop` stops admission, lets the
  workers finish every admitted request, then joins the pool.  The drain
  has a deadline (``drain_timeout``): shutdown cannot hang forever on a
  stalled worker — requests still pending past the deadline fail with an
  explicit :class:`DrainTimeout`.
* **No silent garbage** — every batch result is validated (finite energy
  and forces) before any future resolves; a bad evaluation is retried
  with backoff and, if it keeps failing, surfaces as an explicit
  :class:`ModelFailure`.  Models that fail repeatedly trip a per-model
  circuit breaker so one broken model cannot monopolize the workers
  (requests against it shed immediately with :class:`CircuitOpen` until
  a half-open probe succeeds).
* **Graceful degradation** — with a :class:`~repro.serve.qos.QoSPolicy`
  (or explicit :class:`~repro.health.HealthMonitor`) the server enforces
  deadline-aware QoS: per-request end-to-end deadlines shed expired work
  *before* any force call (:class:`DeadlineExceeded`), priority classes
  (``interactive``/``batch``/``background``) shed lowest-class-first
  under pressure (:class:`LoadShed`), and the health state machine
  (``HEALTHY → DEGRADED → SHEDDING → DRAINING``) switches models to
  their registered fallback chain while ``DEGRADED`` (results carry
  ``degraded=True``), admits only the strongest class while
  ``SHEDDING``, and freezes the tune controllers whenever not
  ``HEALTHY``.  Without a policy the monitor still observes and exports
  ``health.state`` but never sheds — existing behavior is unchanged.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..health import HealthMonitor
from ..md.neighborlist import NeighborList
from ..obs import OCCUPANCY_BUCKETS, Registry, span
from ..resilience.guards import NumericalInstabilityError, validate_energy_forces
from ..resilience.retry import RetryPolicy
from .batching import ForceRequest, MicroBatcher
from .qos import (
    DEFAULT_PRIORITY,
    DEGRADED_SERVED,
    SHED_DEADLINE,
    SHED_LOAD,
    PRIORITIES,
    QoSPolicy,
    ServeResult,
    priority_level,
)
from .registry import ModelRegistry

__all__ = [
    "ForceServer",
    "Client",
    "ServeError",
    "ServerOverloaded",
    "RequestTimeout",
    "ModelFailure",
    "CircuitOpen",
    "WorkerCrash",
    "DrainTimeout",
    "LoadShed",
    "DeadlineExceeded",
    "ServerStopped",
]


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""


class ServerOverloaded(ServeError):
    """Admission rejected: the bounded request queue is full (shed)."""


class LoadShed(ServerOverloaded):
    """QoS shed: dropped by priority/health admission policy (class ``shed``).

    Subclasses :class:`ServerOverloaded` so callers handling the legacy
    queue-full error transparently handle policy sheds too.
    """


class RequestTimeout(ServeError):
    """The request waited in queue past its deadline and was dropped."""


class DeadlineExceeded(ServeError):
    """The request's end-to-end deadline passed before evaluation
    (error class ``deadline``); it was shed without a force call."""


class ServerStopped(ServeError):
    """Submission after ``stop()``: the server no longer accepts work
    (error class ``shutdown``)."""


class ModelFailure(ServeError):
    """Evaluation kept failing (exception or non-finite output) after retries."""


class CircuitOpen(ServeError):
    """The model's circuit breaker is open; request shed without evaluation."""


class WorkerCrash(ServeError):
    """An injected (or real) worker crash during batch evaluation."""


class DrainTimeout(ServeError):
    """The shutdown drain deadline expired with this request still pending."""


class ForceServer:
    """Concurrent batched energy/force evaluation over registered models.

    Parameters
    ----------
    models:
        A :class:`ModelRegistry`, or a single potential (auto-registered as
        ``"default"``).
    n_workers:
        Worker threads.  Distinct models / size buckets evaluate in
        parallel; one bucket's plan is single-flight (its entry lock).
    max_queue:
        Pending-request bound; admission beyond it sheds with
        :class:`ServerOverloaded`.
    max_batch / batch_wait:
        Micro-batching knobs (see :class:`~repro.serve.batching.MicroBatcher`).
    adaptive:
        When True (default) the batcher shrinks its coalescing window to
        the observed arrival cadence:  the effective window is
        ``min(batch_wait, ewma_gap * (max_batch - 1))``, where
        ``ewma_gap`` is an exponential moving average of inter-arrival
        gaps (coefficient 0.2) — under a fast burst the batcher waits just
        long enough for a full batch to form instead of the whole
        ``batch_wait``.  When False the window is always ``batch_wait``.
    plan_cache_opts:
        Plan-cache ladder options (``atom_floor``, ``pair_floor``,
        ``growth``, ``max_plans``) used when ``models`` is a bare
        potential; forwarded to the auto-created
        :class:`~repro.serve.registry.ModelRegistry`.  Ignored (with the
        registry's own options winning) when a registry is passed in.
    controllers:
        Optional :class:`~repro.tune.ControllerSet` (off by default).
        Bound to this server's metrics registry and ticked after each
        processed batch.  Frozen (via ``notify_health``) whenever the
        health monitor reports a non-``HEALTHY`` state.
    qos:
        Optional :class:`~repro.serve.qos.QoSPolicy`.  Passing one turns
        on QoS *enforcement*: per-class queue bounds, lowest-class-first
        shedding under pressure, health-gated admission and degraded
        fallbacks.  Without it priorities/deadlines are still accepted
        and deadline expiry still sheds (an expired request is useless
        work), but class bounds and health states never reject anything.
    health:
        Optional :class:`~repro.health.HealthMonitor`.  One is always
        created (observe-only unless ``qos``/``health`` was passed);
        pass your own to pick thresholds and dwell times.  Exported
        under ``stats()["health"]`` and the ``health.state`` gauge.
    engine:
        ``"compiled"`` (plan-cache replay, the production path) or
        ``"eager"`` (tape per batch; the baseline the benchmarks compare
        against).
    default_timeout:
        Per-request queue-wait budget in seconds (None = unbounded).
    retry_policy:
        :class:`~repro.resilience.RetryPolicy` applied around each batch
        evaluation (worker crashes and non-finite output are retried with
        seeded-jitter backoff).  Default: 2 retries, millisecond delays.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; consulted per batch
        on the ``serve.worker_crash`` / ``serve.worker_stall`` channels.
    stall_time:
        How long an injected worker stall sleeps (seconds).
    drain_timeout:
        Default drain deadline for ``stop(drain=True)`` in seconds.  Past
        it, still-pending futures fail with :class:`DrainTimeout` (an
        explicit :class:`ServeError`, counted under
        ``errors_drain_timeout``) instead of shutdown hanging forever on a
        stalled worker.  ``None`` restores the unbounded wait.
    """

    def __init__(
        self,
        models,
        n_workers: int = 2,
        max_queue: int = 64,
        max_batch: int = 8,
        batch_wait: float = 2e-3,
        engine: str = "compiled",
        default_timeout: Optional[float] = None,
        metrics: Optional[Registry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan=None,
        stall_time: float = 0.01,
        drain_timeout: Optional[float] = 30.0,
        start: bool = True,
        adaptive: bool = True,
        plan_cache_opts: Optional[dict] = None,
        controllers=None,
        qos: Optional[QoSPolicy] = None,
        health: Optional[HealthMonitor] = None,
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
        self.max_queue = int(max_queue)
        self.default_timeout = default_timeout
        self.metrics = metrics or Registry()
        # Per-request and per-batch instruments, looked up once: by name
        # each costs a key build and the registry lock.
        m = self.metrics
        self._c_admitted = m.counter("requests_admitted")
        self._h_queue_depth = m.histogram("queue_depth", OCCUPANCY_BUCKETS)
        self._c_served = m.counter("requests_served")
        self._h_latency = m.histogram("latency_s")
        self._h_queue_wait = m.histogram("queue_wait_s")
        self._c_batches = m.counter("batches")
        self._h_occupancy = m.histogram("batch_occupancy", OCCUPANCY_BUCKETS)
        self._h_prepare = m.histogram("prepare_s")
        self._h_eval = m.histogram("eval_s")
        if engine == "compiled":
            self._c_captures = m.counter("plan_captures")
            self._c_replays = m.counter("plan_replays")
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=2, base_delay=1e-3, max_delay=0.02
        )
        self.fault_plan = fault_plan
        self.stall_time = float(stall_time)
        self.drain_timeout = None if drain_timeout is None else float(drain_timeout)
        self._batcher = MicroBatcher(
            max_batch=max_batch, max_wait=batch_wait, adaptive=adaptive
        )
        self._batcher.on_expire = self._expire_requests
        self.controllers = controllers
        if controllers is not None:
            controllers.bind(self.metrics)
        # QoS enforcement is opt-in: passing a policy (or an explicit
        # monitor) turns on priority shedding, health-gated admission and
        # degraded fallbacks.  Without either, the monitor still observes
        # and exports state, but admission behaves exactly as before.
        self.qos = qos
        self._enforce_qos = qos is not None or health is not None
        self._class_bounds = (
            qos.bounds_for(max_queue)
            if qos is not None
            else {p: int(max_queue) for p in PRIORITIES}
        )
        self.health = health if health is not None else HealthMonitor()
        self.health.attach(self._health_signals)
        self.health.bind(self.metrics)
        self.health.on_transition = self._on_health_transition
        # EWMA of batch evaluation seconds: the feasibility check sheds a
        # deadline request whose remaining budget cannot cover one eval.
        self._eval_ewma: Optional[float] = None
        self._lock = threading.Lock()
        self._done_cv = threading.Condition(self._lock)
        self._accepting = False
        self._closed = False
        self._aborting = False
        self._admitted = 0
        self._completed = 0
        self._inflight: Dict[int, ForceRequest] = {}
        self._workers: List[threading.Thread] = []
        self._n_workers = int(n_workers)
        if start:
            self.start()

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
            self._accepting = True
            if not workers or self._workers:
                return self
            for k in range(self._n_workers):
                t = threading.Thread(
                    target=self._worker_loop, name=f"force-worker-{k}", daemon=True
                )
                t.start()
                self._workers.append(t)
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has completed.

        Returns False if ``timeout`` expired with work still in flight.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._done_cv:
            while self._completed < self._admitted:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._done_cv.wait(remaining)
        return True

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission, optionally drain the backlog, join the workers.

        With ``drain=False``, batches still queued are *failed*, never
        dropped: workers switch to abort mode (any batch they pick up is
        completed with :class:`ServeError`), and whatever remains after
        the pool joins is failed here — every admitted future resolves.

        With ``drain=True`` the drain waits at most ``timeout`` seconds
        (default: the server's ``drain_timeout``).  Past the deadline the
        server switches to abort mode and every still-pending future —
        queued or in flight on a stalled worker — fails with an explicit
        :class:`DrainTimeout` (error class ``drain_timeout``), so shutdown
        is bounded even when a worker never comes back.
        """
        with self._lock:
            self._accepting = False
            if not drain:
                self._aborting = True
        # Shutdown is a health state, not just a flag: the monitor walks
        # to DRAINING (recording each intermediate transition) so stats
        # and the gauge show the terminal state.
        self.health.begin_drain()
        drained = True
        if drain:
            if timeout is None:
                timeout = self.drain_timeout
            drained = self.drain(timeout=timeout)
            if not drained:
                with self._lock:
                    self._aborting = True
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._batcher.close()
        # After a failed drain the deadline has already expired: grant the
        # workers only a drain-timeout-sized grace instead of the full
        # cooperative join budget, so shutdown stays bounded end to end.
        join_budget = 5.0
        if drain and not drained and timeout is not None:
            join_budget = min(5.0, max(0.05, float(timeout)))
        for t in self._workers:
            t.join(timeout=join_budget)
        if drain and not drained:
            exc_factory = lambda: DrainTimeout(  # noqa: E731
                f"drain deadline ({timeout}s) expired with requests pending"
            )
            err_class = "drain_timeout"
        else:
            exc_factory = lambda: ServeError("server stopped")  # noqa: E731
            err_class = "shutdown"
        # Anything still queued after an aborted stop is failed, not lost.
        leftover = self._batcher.get_batch(timeout=0.0)
        while leftover:
            for req in leftover:
                self._fail(req, exc_factory(), "requests_failed", err_class)
            leftover = self._batcher.get_batch(timeout=0.0)
        # Requests held by a worker that never finished (e.g. a stall
        # longer than the join budget): fail them explicitly here.  The
        # completion paths are InvalidStateError-safe, so a worker waking
        # up later cannot double-complete or double-count them.
        with self._lock:
            stuck = list(self._inflight.values())
        for req in stuck:
            self._fail(req, exc_factory(), "requests_failed", err_class)

    def __enter__(self) -> "ForceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- request side ---------------------------------------------------------
    def _shed_counter(self, name: str, priority: str) -> None:
        self.metrics.counter(name, {"class": priority}).inc()

    def submit(
        self,
        system,
        model: Optional[str] = None,
        nl=None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue one structure; returns a Future of ``(energy, forces)``.

        ``priority`` names a QoS class (``interactive``/``batch``/
        ``background``; default ``batch`` or the policy's default);
        ``deadline`` is an end-to-end budget in seconds — past it the
        request is shed before evaluation with
        :class:`DeadlineExceeded`.  ``timeout`` remains the legacy
        queue-wait budget (:class:`RequestTimeout` at pickup).

        Raises :class:`ServerOverloaded` (or its subclass
        :class:`LoadShed` for policy sheds) when admission rejects,
        :class:`ServerStopped` after ``stop()``, and
        :class:`~repro.serve.registry.UnknownModelError` for unknown
        model keys — all synchronously, so callers can react without
        touching the future.
        """
        key = self.registry.resolve_key(model)
        if priority is None:
            priority = (
                self.qos.default_priority if self.qos is not None
                else DEFAULT_PRIORITY
            )
        level = priority_level(priority)
        if deadline is None and self.qos is not None:
            deadline = self.qos.default_deadline(priority)
        now = time.monotonic()
        timeout = self.default_timeout if timeout is None else timeout
        self.health.tick()
        victim: Optional[ForceRequest] = None
        with self._lock:
            if not self._accepting:
                self.metrics.counter("errors_shutdown").inc()
                raise ServerStopped("server is not accepting requests")
            if self._enforce_qos and self.health.level >= 2:
                # SHEDDING (or DRAINING): only the strongest classes are
                # admitted until the monitor steps back down.
                admit_level = (
                    self.qos.shed_admit_level if self.qos is not None else 0
                )
                if self.health.level >= 3 or level > admit_level:
                    self.metrics.counter("requests_shed").inc()
                    self.metrics.counter("errors_shed").inc()
                    self._shed_counter(SHED_LOAD, priority)
                    raise LoadShed(
                        f"health state {self.health.state}: "
                        f"{priority} requests are shed"
                    )
            depth = self._batcher.pending()
            if self._enforce_qos:
                by_class = self._batcher.pending_by_class()
                bound = self._class_bounds.get(priority, self.max_queue)
                if by_class.get(priority, 0) >= bound:
                    self.metrics.counter("requests_shed").inc()
                    self.metrics.counter("errors_shed").inc()
                    self._shed_counter(SHED_LOAD, priority)
                    raise LoadShed(
                        f"{priority} queue share full "
                        f"({by_class[priority]}/{bound} pending)"
                    )
            if depth >= self.max_queue:
                # Strict-priority admission: displace the newest request
                # of a strictly weaker class before shedding the arrival.
                victim = self._batcher.evict_newest_below(level)
                if victim is None:
                    self.metrics.counter("requests_shed").inc()
                    self.metrics.counter("errors_overload").inc()
                    self._shed_counter(SHED_LOAD, priority)
                    raise LoadShed(
                        f"queue full ({depth}/{self.max_queue} pending)"
                    )
            fut: Future = Future()
            req = ForceRequest(
                system=system,
                model=key,
                future=fut,
                nl=nl,
                t_enqueue=now,
                deadline=None if deadline is None else now + float(deadline),
                priority=priority,
                timeout_at=None if timeout is None else now + float(timeout),
            )
            self._admitted += 1
            self._batcher.put(req)
        if victim is not None:
            self._shed_counter(SHED_LOAD, victim.priority)
            self._fail(
                victim,
                LoadShed(
                    f"evicted by an arriving {priority} request "
                    f"(queue full at {self.max_queue})"
                ),
                "requests_failed",
                "shed",
            )
        self._c_admitted.inc()
        self._h_queue_depth.observe(depth + 1)
        return fut

    def evaluate(
        self,
        system,
        model: Optional[str] = None,
        nl=None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[float, np.ndarray]:
        """Blocking single-structure evaluation: ``(energy, forces)``."""
        return self.submit(
            system, model=model, nl=nl, timeout=timeout,
            priority=priority, deadline=deadline,
        ).result()

    def evaluate_many(
        self,
        systems: Sequence,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[Tuple[float, np.ndarray]]:
        """Submit a burst of structures, gather results in order.

        Submitting everything before gathering is what lets the
        micro-batcher coalesce the burst into padded batches.
        """
        futures = [
            self.submit(
                s, model=model, timeout=timeout,
                priority=priority, deadline=deadline,
            )
            for s in systems
        ]
        return [f.result() for f in futures]

    # -- worker side ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.get_batch(timeout=0.05)
            if batch is None:
                if self._closed:
                    return
                continue
            try:
                self._process(batch)
            except Exception as exc:  # defensive: a bug must not kill the pool
                for req in batch:
                    if not req.future.done():
                        self._fail(req, exc, "requests_failed", "model_failure")

    def _finish(self, req: ForceRequest, result) -> None:
        try:
            req.future.set_result(result)
        except InvalidStateError:
            # Lost the race against stop()'s drain-deadline failure: that
            # path already counted and completed this request.
            return
        self._c_served.inc()
        self._h_latency.observe(time.monotonic() - req.t_enqueue)
        self._mark_completed(req)

    def _fail(
        self,
        req: ForceRequest,
        exc: Exception,
        counter: str,
        err_class: Optional[str] = None,
    ) -> None:
        try:
            req.future.set_exception(exc)
        except InvalidStateError:
            return
        self.metrics.counter(counter).inc()
        if err_class is not None:
            self.metrics.counter(f"errors_{err_class}").inc()
        self._mark_completed(req)

    def _mark_completed(self, req: ForceRequest) -> None:
        with self._done_cv:
            self._completed += 1
            self._inflight.pop(id(req), None)
            self._done_cv.notify_all()

    def _expire_requests(self, expired: List[ForceRequest]) -> None:
        """Fail requests whose deadline passed while queued.

        Called by the batcher *outside* its lock, before batch assembly:
        an expired request never reaches a force call.
        """
        for req in expired:
            self._shed_counter(SHED_DEADLINE, req.priority)
            self._fail(
                req,
                DeadlineExceeded(
                    f"deadline passed after "
                    f"{time.monotonic() - req.t_enqueue:.3f}s in queue"
                ),
                "requests_expired",
                "deadline",
            )

    # -- health ---------------------------------------------------------------
    def _health_signals(self) -> dict:
        """Signal snapshot for the health monitor's tick."""
        return {
            "queue_frac": self._batcher.pending() / self.max_queue,
            "p99_s": self._h_latency.percentile(0.99),
            "breaker_open": self.registry.any_breaker_open(),
        }

    def _on_health_transition(self, old: str, new: str) -> None:
        if self.controllers is not None:
            self.controllers.notify_health(new)

    def _process(self, batch: List[ForceRequest]) -> None:
        with self._lock:
            # Once a batch leaves the queue its requests are in flight;
            # stop()'s drain-deadline path fails whatever is still here.
            self._inflight.update((id(req), req) for req in batch)
        if self._aborting:
            for req in batch:
                self._fail(
                    req, ServeError("server stopped"), "requests_failed",
                    "shutdown",
                )
            return
        now = time.monotonic()
        for req in batch:
            self._h_queue_wait.observe(now - req.t_enqueue)
        live: List[ForceRequest] = []
        for req in batch:
            if req.timeout_at is not None and now > req.timeout_at:
                self._fail(
                    req,
                    RequestTimeout(
                        f"request waited {now - req.t_enqueue:.3f}s in queue"
                    ),
                    "requests_timeout",
                    "timeout",
                )
            elif req.deadline is not None and (
                now > req.deadline
                or (
                    # Feasibility: shed when the remaining budget cannot
                    # cover one batch evaluation — a force call that
                    # finishes past the deadline is pure waste.
                    self._eval_ewma is not None
                    and now + self._eval_ewma > req.deadline
                )
            ):
                self._shed_counter(SHED_DEADLINE, req.priority)
                self._fail(
                    req,
                    DeadlineExceeded(
                        f"deadline unmeetable at pickup after "
                        f"{now - req.t_enqueue:.3f}s in queue"
                    ),
                    "requests_expired",
                    "deadline",
                )
            else:
                live.append(req)
        if not live:
            self._health_tick()
            return
        self._c_batches.inc()
        self._h_occupancy.observe(len(live))
        with span("serve.batch") as sp:
            sp.add("requests", len(live))
            self._process_live(live)
        self._health_tick()
        if self.controllers is not None:
            # Per-batch cadence; ControllerSet.tick() is try-lock guarded,
            # so concurrent workers never queue on controller decisions.
            self.controllers.tick()

    def _health_tick(self) -> None:
        """Advance the health monitor and keep controllers frozen while
        the server is not HEALTHY (repeated calls extend the freeze)."""
        state = self.health.tick()
        if self.controllers is not None and state != "HEALTHY":
            self.controllers.notify_health(state)

    def _process_live(self, live: List[ForceRequest]) -> None:
        key = live[0].model
        eager = self.engine == "eager"
        degraded = False
        if self._enforce_qos and self.health.level >= 1:
            # DEGRADED (or worse): serve through the model's fallback
            # chain — a cheaper registered model, or the same model on
            # the eager engine (no compiled state churn while stressed).
            fb_entry, fb_eager = self.registry.resolve_degraded(key)
            if fb_entry.key != key or (fb_eager and not eager):
                degraded = True
                eager = eager or fb_eager
                key = fb_entry.key
        entry = self.registry.peek(key) if eager else self.registry.get(key)
        if not entry.breaker.allow():
            # Fail fast: the model has been failing consistently; shedding
            # here protects the workers for healthy models.  A half-open
            # probe batch is admitted once per reset window.
            for req in live:
                self._fail(
                    req,
                    CircuitOpen(f"circuit open for model {key}"),
                    "requests_failed",
                    "circuit_open",
                )
            return
        # The service-time estimate must cover everything a batch costs —
        # neighbor-list builds included — or the deadline feasibility
        # check undershoots and admits requests that cannot finish.
        t_service = time.monotonic()
        with span("serve.prepare"):
            graph = entry.potential.prepare_batch(
                [req.system for req in live], [req.nl for req in live]
            )
        t_eval = time.monotonic()
        self._h_prepare.observe(t_eval - t_service)
        try:
            results = self.retry_policy.call(
                lambda: self._evaluate_batch(entry, live, graph, eager),
                retry_on=(WorkerCrash, NumericalInstabilityError),
                on_retry=lambda attempt, exc: (
                    entry.breaker.record_failure(),
                    self.metrics.counter("batch_retries").inc(),
                ),
            )
        except Exception as exc:
            entry.breaker.record_failure()
            wrapped = exc if isinstance(exc, ServeError) else ModelFailure(str(exc))
            for req in live:
                self._fail(req, wrapped, "requests_failed", "model_failure")
            return
        now = time.monotonic()
        self._h_eval.observe(now - t_eval)
        elapsed = now - t_service
        self._eval_ewma = (
            elapsed if self._eval_ewma is None
            else 0.8 * self._eval_ewma + 0.2 * elapsed
        )
        entry.breaker.record_success()
        if degraded:
            self.metrics.counter(DEGRADED_SERVED).inc(len(live))
        # Futures resolve only after the WHOLE batch computed and validated
        # — a retry can therefore never double-resolve a future, and no
        # caller ever observes a non-finite result.
        for req, (e, f) in zip(live, results):
            self._finish(
                req,
                ServeResult(
                    e, f, degraded=degraded, model=entry.key,
                    priority=req.priority,
                ),
            )

    def _evaluate_batch(
        self, entry, live: List[ForceRequest], graph, eager: bool
    ) -> List[Tuple[float, np.ndarray]]:
        """Results for every request in order; finishes no futures.

        ``graph`` is the batch's merged graph (``Potential.prepare_batch``).
        Raises on any evaluation failure or non-finite output — the caller
        owns retry/shed policy.
        """
        if self.fault_plan is not None:
            from ..resilience.faults import WORKER_CRASH, WORKER_STALL

            if self.fault_plan.fires(WORKER_STALL):
                time.sleep(self.stall_time)
            if self.fault_plan.fires(WORKER_CRASH):
                raise WorkerCrash("injected worker crash")
        with span("serve.eval"):
            return self._evaluate_batch_inner(entry, live, graph, eager)

    def _evaluate_batch_inner(
        self, entry, live: List[ForceRequest], graph, eager: bool
    ) -> List[Tuple[float, np.ndarray]]:
        potential = entry.potential
        positions, species, nl, offsets, edge_counts = graph
        results: List = [None] * len(live)
        if nl.n_edges > 0:
            if not eager:
                cache = entry.ensure_cache()
                pentry = cache.acquire(len(species), nl.n_edges)
                with pentry.lock:
                    # evaluate() itself is safe for concurrent callers
                    # (private per-caller evaluation states); the lock makes
                    # the before/after capture-counter delta attributable to
                    # THIS batch, and funnels same-bucket batches through
                    # one state instead of growing the clone pool per worker.
                    captures_before = pentry.compiled.n_captures
                    e_atoms, forces = pentry.compiled.evaluate(positions, species, nl)
                    results = self._split(e_atoms, forces, offsets)
                    captured = pentry.compiled.n_captures - captures_before
                self._c_captures.inc(captured)
                self._c_replays.inc(1 - captured)
            else:
                e_atoms, forces = potential.evaluate(positions, species, nl)
                results = self._split(e_atoms, forces, offsets)
        # Zero-edge structures take the eager path: models may define a
        # non-trivial empty-graph energy (e.g. Wolf self-interaction) that
        # the traced graph cannot express, and exactness beats batching.
        # In the merged graph their atoms are rows without edges, which
        # leave every other row as it is.
        no_edges = NeighborList(nl.edge_index[:, :0], nl.shifts[:0])
        for i in np.flatnonzero(edge_counts == 0):
            e, f = potential.energy_and_forces(live[i].system, no_edges)
            results[i] = (float(e), f)
        for (e, f) in results:
            validate_energy_forces(e, f, context=f"model {entry.key}")
        return results

    @staticmethod
    def _split(e_atoms, forces, offsets) -> List[Tuple[float, np.ndarray]]:
        """Per-structure ``(energy, forces)`` copies from batched arrays."""
        out = []
        for a, b in zip(offsets[:-1], offsets[1:]):
            out.append((float(np.sum(e_atoms[a:b])), np.array(forces[a:b])))
        return out

    # -- observability --------------------------------------------------------
    def stats(self) -> dict:
        """Metrics snapshot merged with registry/batcher state.

        ``replay_rate`` is the capture-vs-replay split of every batch
        evaluation since start — the serving-level Fig. 5 counter.
        """
        snap = self.metrics.snapshot()
        snap["registry"] = self.registry.stats()
        snap["batcher"] = self._batcher.stats()
        counters = snap["counters"]
        replays = counters.get("plan_replays", 0)
        captures = counters.get("plan_captures", 0)
        total = replays + captures
        snap["replay_rate"] = replays / total if total else 0.0
        snap["engine"] = self.engine
        snap["health"] = self.health.stats()
        snap["qos"] = {
            "enforced": self._enforce_qos,
            "class_bounds": dict(self._class_bounds),
            "pending_by_class": self._batcher.pending_by_class(),
        }
        if self.controllers is not None:
            snap["controllers"] = self.controllers.stats()
        return snap


class Client:
    """Thin in-process client bound to a server and (optionally) a model.

    The client is the integration point user code sees: ``evaluate`` for
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
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Queue one structure; returns a Future of ``(energy, forces)``."""
        return self.server.submit(
            system, model=self.model, nl=nl, timeout=timeout,
            priority=priority if priority is not None else self.priority,
            deadline=deadline if deadline is not None else self.deadline,
        )

    def evaluate(
        self,
        system,
        nl=None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[float, np.ndarray]:
        """Blocking evaluation of one structure."""
        return self.submit(
            system, nl=nl, timeout=timeout, priority=priority, deadline=deadline
        ).result()

    def evaluate_many(
        self,
        systems: Sequence,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[Tuple[float, np.ndarray]]:
        """Evaluate a burst of structures (batched server-side)."""
        return self.server.evaluate_many(
            systems, model=self.model, timeout=timeout,
            priority=priority if priority is not None else self.priority,
            deadline=deadline if deadline is not None else self.deadline,
        )
