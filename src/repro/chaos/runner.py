"""The soak runner: execute scenarios, check invariants, shrink failures.

``run_scenario`` executes one :class:`ScenarioSpec` on the calling (main)
thread under a ``SIGALRM`` deadline (the liveness invariant is enforced
here: a workload that hangs past its deadline is interrupted and is a
violation, not a stuck harness) and evaluates every registered invariant
against the observations.  No second thread runs beside the workload, so
the parallel workload forks its rank processes from a single-threaded
process.

``soak`` samples N seeded scenarios — rotating through all four workload
families — under a wall-clock budget.  Any violation triggers the
delta-debugging shrinker, and the minimized schedule is emitted as a
**reproducer artifact**: byte-deterministic JSON (``obs.jsonio``) holding
the shrunken spec, the violations it still produces, and the planted-bug
tag if one was active.  ``replay`` runs such an artifact back.

Everything in a soak report is derived from seeds and schedules — no
wall-clock values are recorded — so two same-seed soaks produce
byte-identical reports (the CI job ``cmp``-s them).
"""

from __future__ import annotations

import json
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..obs import to_json, write_json
from .invariants import Violation, check_all, registered_invariants
from .scenarios import WORKLOADS, ScenarioSpec, sample_scenario
from .shrink import ddmin
from .workloads import run_workload

__all__ = [
    "ScenarioOutcome",
    "run_scenario",
    "shrink_failure",
    "soak",
    "replay",
]

#: Spread scenario seeds apart so neighboring soak indices do not produce
#: correlated numpy substreams.
_SEED_STRIDE = 1_000_003


@dataclass
class ScenarioOutcome:
    """One executed scenario: its spec, violations, and raw observations."""

    spec: ScenarioSpec
    violations: List[Violation]
    obs: Dict = field(repr=False, default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.to_dict(),
            "status": "ok" if self.ok else "violated",
            "violations": [v.to_dict() for v in self.violations],
        }


class _Deadline(BaseException):
    """Raised into a workload that runs past its deadline."""


def run_scenario(spec: ScenarioSpec, bug: Optional[str] = None) -> ScenarioOutcome:
    """Execute one scenario and evaluate every applicable invariant.

    The workload runs on the calling thread, which must be the main one:
    from the spec's deadline on, a ``SIGALRM`` every 0.1 s interrupts it
    (one that lands in a finalizer is swallowed there; the next one is
    not).  Checkpoints live in a private temp directory cleaned up
    afterwards (kept alive only as long as the invariants need it).
    """
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    obs: Dict = {"workload": spec.workload, "error": None, "timed_out": False}
    expired: List[bool] = []

    def on_deadline(signum, frame) -> None:
        expired.append(True)
        raise _Deadline()

    previous = signal.signal(signal.SIGALRM, on_deadline)
    try:
        signal.setitimer(signal.ITIMER_REAL, spec.deadline_s, 0.1)
        try:
            obs.update(run_workload(spec, workdir, bug=bug))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Deadline:
        pass
    except Exception as exc:
        obs["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    obs["timed_out"] = bool(expired)
    violations = check_all(obs)
    shutil.rmtree(workdir, ignore_errors=True)
    return ScenarioOutcome(spec=spec, violations=violations, obs=obs)


def shrink_failure(
    spec: ScenarioSpec, bug: Optional[str] = None, max_tests: int = 64
) -> Dict:
    """Delta-debug a failing scenario down to a minimal reproducer dict.

    Re-runs the scenario under event subsets (``ddmin``); an event
    survives only if the failure needs it.  The returned dict is the
    reproducer artifact payload — serialize it with ``obs.jsonio`` for a
    byte-deterministic, ``chaos replay``-able file.
    """

    def still_fails(events) -> bool:
        return not run_scenario(spec.with_events(events), bug=bug).ok

    minimal_events = ddmin(list(spec.events), still_fails, max_tests=max_tests)
    minimal = spec.with_events(minimal_events)
    outcome = run_scenario(minimal, bug=bug)
    return {
        "kind": "chaos-reproducer",
        "original_events": [e.to_list() for e in spec.events],
        "spec": minimal.to_dict(),
        "violations": [v.to_dict() for v in outcome.violations],
        "bug": bug,
    }


def soak(
    n: int,
    seed: int = 0,
    budget_s: Optional[float] = None,
    workloads=WORKLOADS,
    deadline_s: Optional[float] = None,
    bug: Optional[str] = None,
    shrink: bool = True,
    reproducer_dir=None,
    progress=None,
) -> Dict:
    """Run ``n`` seeded composed-fault scenarios; shrink any failure.

    Scenario ``i`` is ``sample_scenario(seed * stride + i)`` pinned to
    ``workloads[i % len(workloads)]`` — deterministic coverage of every
    family.  ``budget_s`` bounds wall-clock: remaining scenarios are
    skipped (and counted as skipped) once it is exhausted.  The report
    contains no wall-clock values, so same-seed runs that complete the
    same scenarios are byte-identical.
    """
    t0 = time.monotonic()
    entries: List[Dict] = []
    outcomes: List[ScenarioOutcome] = []
    n_violated = 0
    skipped = 0
    for i in range(int(n)):
        if budget_s is not None and time.monotonic() - t0 > budget_s:
            skipped = int(n) - i
            break
        spec = sample_scenario(
            int(seed) * _SEED_STRIDE + i, workload=workloads[i % len(workloads)]
        )
        if deadline_s is not None:
            spec.deadline_s = float(deadline_s)
        outcome = run_scenario(spec, bug=bug)
        outcomes.append(outcome)
        entry = outcome.to_dict()
        if not outcome.ok:
            n_violated += 1
            if shrink:
                reproducer = shrink_failure(spec, bug=bug)
                entry["reproducer"] = reproducer
                if reproducer_dir is not None:
                    path = Path(reproducer_dir) / f"reproducer-{i:04d}.json"
                    write_json(path, reproducer)
        entries.append(entry)
        if progress is not None:
            progress(i, outcome)
    report = {
        "kind": "chaos-soak",
        "seed": int(seed),
        "n_requested": int(n),
        "n_run": len(entries),
        "n_skipped_budget": skipped,
        "workloads": list(workloads),
        "invariants": registered_invariants(),
        "summary": {"passed": len(entries) - n_violated, "violated": n_violated},
        "scenarios": entries,
    }
    return report


def replay(source, bug: Optional[str] = None) -> ScenarioOutcome:
    """Re-run a reproducer artifact (path, JSON string, or dict).

    Accepts either a bare spec dict or a full reproducer artifact (uses
    its ``spec`` and, unless overridden, its recorded ``bug`` tag).
    """
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        raw = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        raw = json.loads(source)
    else:
        raw = dict(source)
    if "spec" in raw:
        if bug is None:
            bug = raw.get("bug")
        raw = raw["spec"]
    spec = ScenarioSpec.from_dict(raw)
    return run_scenario(spec, bug=bug)


def report_json(report: Dict) -> str:
    """Deterministic JSON for a soak report or reproducer artifact."""
    return to_json(report)
