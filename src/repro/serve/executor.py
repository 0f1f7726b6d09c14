"""What happens to a batch after pickup: the last stage of the force server.

In order: one pre-evaluation filter (the only place a request fails with
:class:`~repro.serve.errors.DeadlineExceeded`), the per-model circuit
breaker, the batch's merged graph
(``Potential.prepare_batch``), evaluation under the retry policy, the
per-structure split and validation.  Futures resolve only after all of
it, so a retry never double-resolves one and no caller ever sees a
non-finite result.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ..obs import OCCUPANCY_BUCKETS, span
from ..resilience.guards import NumericalInstabilityError, validate_energy_forces
from ..resilience.retry import RetryPolicy
from .batching import ForceRequest
from .errors import CircuitOpen, DeadlineExceeded, ModelFailure, ServeError, WorkerCrash
from .qos import SHED_DEADLINE, ServeResult

__all__ = ["Executor"]


class Executor:
    """Evaluate picked-up batches and resolve their requests' futures.

    Each batch runs on the model its requests named, on the server's
    ``engine``, whatever the health state.
    """

    def __init__(
        self,
        registry,
        ledger,
        engine: str,
        retry_policy: RetryPolicy,
        fault_plan=None,
        stall_time: float = 0.01,
    ) -> None:
        self.registry = registry
        self.ledger = ledger
        self.engine = engine
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.stall_time = float(stall_time)
        #: EWMA of batch service seconds (graph build + evaluation): the
        #: feasibility check sheds a deadline request whose remaining
        #: budget cannot cover one batch.
        self.eval_ewma: Optional[float] = None
        # Per-batch instruments, looked up once: by name each costs a key
        # build and the registry lock.
        m = self.metrics = ledger.metrics
        self._h_queue_wait = m.histogram("queue_wait_s")
        self._c_batches = m.counter("batches")
        self._h_occupancy = m.histogram("batch_occupancy", OCCUPANCY_BUCKETS)
        self._h_prepare = m.histogram("prepare_s")
        self._h_eval = m.histogram("eval_s")
        if engine == "compiled":
            self._c_captures = m.counter("plan_captures")
            self._c_replays = m.counter("plan_replays")

    def run(self, batch: List[ForceRequest]) -> None:
        """Resolve every request of ``batch``."""
        now = time.monotonic()
        # A request stop() already failed while it was queued is skipped.
        batch = [req for req in batch if not req.future.done()]
        for req in batch:
            self._h_queue_wait.observe(now - req.t_enqueue)
        live = self.expire(batch, now)
        if not live:
            return
        self._c_batches.inc()
        self._h_occupancy.observe(len(live))
        with span("serve.batch") as sp:
            sp.add("requests", len(live))
            self._evaluate(live)

    def expire(
        self, reqs: List[ForceRequest], now: Optional[float] = None
    ) -> List[ForceRequest]:
        """The pre-evaluation filter: fail each request whose deadline has
        passed or cannot be met, return the others.

        Runs at pickup and, as the batcher's ``on_expire``, on requests it
        purged from the queue.  A deadline is infeasible when the remaining
        budget cannot cover one batch (``eval_ewma``): a force call that
        finishes past the deadline is pure waste.
        """
        now = time.monotonic() if now is None else now
        ewma = self.eval_ewma
        live = []
        for req in reqs:
            if req.deadline is None or (
                now <= req.deadline and (ewma is None or now + ewma <= req.deadline)
            ):
                live.append(req)
                continue
            self.metrics.counter(SHED_DEADLINE, {"class": req.priority}).inc()
            self.ledger.fail(
                req,
                DeadlineExceeded(
                    f"deadline unmeetable after "
                    f"{now - req.t_enqueue:.3f}s in queue"
                ),
                "requests_expired",
                "deadline",
            )
        return live

    def _evaluate(self, live: List[ForceRequest]) -> None:
        name = live[0].model
        entry = self.registry.get(name)
        if not entry.breaker.allow():
            # Fail fast: the model has been failing consistently; shedding
            # here protects the workers for healthy models.  A half-open
            # probe batch is admitted once per reset window.
            for req in live:
                self.ledger.fail(
                    req,
                    CircuitOpen(f"circuit open for model {name}"),
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
                lambda: self._attempt(entry, live, graph),
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
                self.ledger.fail(req, wrapped, "requests_failed", "model_failure")
            return
        now = time.monotonic()
        self._h_eval.observe(now - t_eval)
        elapsed = now - t_service
        self.eval_ewma = (
            elapsed if self.eval_ewma is None
            else 0.8 * self.eval_ewma + 0.2 * elapsed
        )
        entry.breaker.record_success()
        for req, (e, f) in zip(live, results):
            self.ledger.finish(
                req, ServeResult(e, f, model=name, priority=req.priority)
            )

    def _attempt(
        self, entry, live: List[ForceRequest], graph
    ) -> List[Tuple[float, np.ndarray]]:
        """One evaluation of the batch: results in request order, or raise
        (any failure or non-finite output); finishes no futures.

        ``graph`` is the batch's merged graph (``Potential.prepare_batch``).
        """
        if self.fault_plan is not None:
            from ..resilience.faults import WORKER_CRASH, WORKER_STALL

            if self.fault_plan.fires(WORKER_STALL):
                time.sleep(self.stall_time)
            if self.fault_plan.fires(WORKER_CRASH):
                raise WorkerCrash("injected worker crash")
        with span("serve.eval"):
            positions, species, nl, offsets = graph
            if self.engine == "compiled":
                pentry = entry.plan_cache.acquire(len(species), nl.n_edges)
                with pentry.lock:
                    # The compiled potential serializes its own callers;
                    # this lock makes the capture counter delta
                    # attributable to THIS batch.
                    captures_before = pentry.compiled.n_captures
                    e_atoms, forces = pentry.compiled.evaluate(positions, species, nl)
                    captured = pentry.compiled.n_captures - captures_before
                self._c_captures.inc(captured)
                self._c_replays.inc(1 - captured)
            else:
                e_atoms, forces = entry.potential.evaluate(positions, species, nl)
            results = self._split(e_atoms, forces, offsets)
            for (e, f) in results:
                validate_energy_forces(e, f, context=f"model {live[0].model}")
            return results

    @staticmethod
    def _split(e_atoms, forces, offsets) -> List[Tuple[float, np.ndarray]]:
        """Per-structure ``(energy, forces)`` copies from batched arrays."""
        return [
            (float(np.sum(e_atoms[a:b])), np.array(forces[a:b]))
            for a, b in zip(offsets[:-1], offsets[1:])
        ]
