"""repro.chaos — deterministic chaos harness over the whole stack.

The resilience layer (checkpoints, watchdogs, retries, breakers,
retransmission) is validated unit-by-unit elsewhere; this package is its
adversarial counterpart: **composed, randomized-but-seeded multi-fault
campaigns** with system-level oracles, the verification shape large-scale
MD and serving deployments rely on to trust long runs on failure-prone
hardware.

Three layers:

* **Scenarios** (:mod:`~repro.chaos.scenarios`) — a
  :class:`ScenarioSpec` composes an explicit, seeded schedule of fault
  events (≥ 2 channels: comm drop/delay, rank failure, worker
  crash/stall, replay failure, potential/label corruption, torn
  checkpoint writes) over one of four workloads: guarded MD, 4-rank
  parallel MD, ForceServer traffic, ``Trainer.fit``.  Draw-indexed
  schedules land faults *inside recovery replays* too — the second-order
  paths single-fault tests never reach.
* **Invariants** (:mod:`~repro.chaos.invariants`) — registered system
  oracles evaluated after every scenario: bitwise resume identity,
  force/energy sanity, liveness, serve correctly-or-explicitly,
  metrics/trace consistency, checkpoint-chain integrity.
* **Soak + shrink** (:mod:`~repro.chaos.runner`,
  :mod:`~repro.chaos.shrink`) — ``soak(n, seed)`` runs N scenarios under
  a wall-clock budget; any violation is delta-debugged (``ddmin``) to a
  1-minimal fault schedule and emitted as a byte-deterministic JSON
  reproducer, replayable via ``repro chaos replay``.

CLI: ``repro chaos {run,soak,replay}``.
"""

from .invariants import Violation, check_all, invariant, registered_invariants
from .runner import (
    ScenarioOutcome,
    replay,
    report_json,
    run_scenario,
    shrink_failure,
    soak,
)
from .scenarios import (
    CHANNELS_BY_WORKLOAD,
    WORKLOADS,
    FaultEvent,
    ScenarioSpec,
    sample_scenario,
)
from .shrink import ddmin
from .workloads import WORKLOAD_RUNNERS, run_workload

__all__ = [
    "CHANNELS_BY_WORKLOAD",
    "FaultEvent",
    "ScenarioOutcome",
    "ScenarioSpec",
    "Violation",
    "WORKLOADS",
    "WORKLOAD_RUNNERS",
    "check_all",
    "ddmin",
    "invariant",
    "registered_invariants",
    "replay",
    "report_json",
    "run_scenario",
    "run_workload",
    "sample_scenario",
    "shrink_failure",
    "soak",
]
