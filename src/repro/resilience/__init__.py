"""repro.resilience — checkpoint/restart, fault injection, guarded degradation.

The paper's headline numbers come from long runs on failure-prone
hardware (2.5M-step stability MD, §VII-B; strong/weak scaling to 5120
GPUs, §VII-D/E), where node loss, NaN blow-ups, and communication
hiccups are expected events.  This package is the failure model of the
whole stack, wired through four layers:

* **Checkpoint/restart** — :class:`CheckpointManager`: atomic
  tmp-file+rename writes, SHA-256 payload verification, rolling
  retention.  ``md.Simulation`` / ``parallel.ParallelSimulation`` capture
  *complete* state (positions, velocities, cell, thermostat/barostat
  internals, neighbor-list bookkeeping, RNG state), so a restored run
  continues the uninterrupted trajectory bitwise in float64.
* **Deterministic fault injection** — :class:`FaultPlan` (seeded,
  per-channel schedules) and :class:`FaultyPotential` (NaN/inf output
  corruption): the reproducible harness that every guard below is tested
  against.
* **Guards** — :class:`ForceWatchdog` (non-finite / energy-spike
  detection with abort-vs-recover policy), its training sibling
  :class:`TrainingWatchdog` (non-finite loss/gradients, robust loss-spike
  detection, checkpoint rollback with LR backoff), and
  :func:`validate_energy_forces` / :func:`validate_loss_grads` (the
  fail-fast forms used by default in the MD drivers and the serve layer,
  and by the trainer without a watchdog).
* **Degradation primitives** — :class:`RetryPolicy` (bounded retries,
  exponential backoff, seeded jitter) and :class:`CircuitBreaker`
  (open after N consecutive failures, half-open probe).  The serve
  layer is their only user: ``repro.serve`` retries each failed batch
  and isolates a failing model behind its own breaker.  Dropped halo
  messages need neither — ``parallel.comm`` records one retransmission
  per drop.
"""

from .checkpoint import CheckpointError, CheckpointManager
from .faults import (
    COMM_DELAY,
    COMM_DROP,
    POTENTIAL_CORRUPT,
    RANK_FAIL,
    REPLAY_FAIL,
    TORN_WRITE,
    TRAJ_TORN_CHUNK,
    TRAIN_LABEL_CORRUPTION,
    TRAIN_STEP_FAILURE,
    WORKER_CRASH,
    WORKER_STALL,
    CorruptedFrames,
    FaultPlan,
    FaultyPotential,
    InjectedFault,
)
from .guards import (
    ForceWatchdog,
    NumericalInstabilityError,
    TrainingWatchdog,
    validate_energy_forces,
    validate_loss_grads,
)
from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "CircuitOpenError",
    "CorruptedFrames",
    "FaultPlan",
    "FaultyPotential",
    "ForceWatchdog",
    "InjectedFault",
    "NumericalInstabilityError",
    "RetryPolicy",
    "TrainingWatchdog",
    "validate_energy_forces",
    "validate_loss_grads",
    "COMM_DELAY",
    "COMM_DROP",
    "POTENTIAL_CORRUPT",
    "RANK_FAIL",
    "REPLAY_FAIL",
    "TORN_WRITE",
    "TRAJ_TORN_CHUNK",
    "TRAIN_LABEL_CORRUPTION",
    "TRAIN_STEP_FAILURE",
    "WORKER_CRASH",
    "WORKER_STALL",
]
