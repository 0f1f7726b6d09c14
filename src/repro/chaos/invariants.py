"""System invariant checkers: what must hold after *any* fault schedule.

A chaos campaign is only as strong as its oracle.  Each checker below
states one cross-cutting guarantee of the stack and verifies it against a
workload observation dict (:mod:`repro.chaos.workloads`); the soak runner
evaluates **every applicable checker after every scenario**.  A fault
schedule that breaks any of them is a real bug (or a planted one), and
the schedule is handed to the shrinker.

The registry is open: ``@invariant("name", workloads=(...))`` registers a
checker returning a list of human-readable violation messages (empty =
holds).  A checker that itself crashes is reported as a violation — the
oracle failing silently would defeat the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience import (
    RANK_FAIL,
    TORN_WRITE,
    TRAJ_TORN_CHUNK,
    TRAIN_STEP_FAILURE,
)

__all__ = ["Violation", "invariant", "registered_invariants", "check_all"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which checker, and what it observed."""

    invariant: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"invariant": self.invariant, "message": self.message}


@dataclass(frozen=True)
class _Checker:
    name: str
    workloads: Optional[Tuple[str, ...]]
    fn: Callable[[dict], List[str]]


_REGISTRY: Dict[str, _Checker] = {}


def invariant(name: str, workloads: Optional[Sequence[str]] = None):
    """Register a checker; ``workloads=None`` applies it to every scenario."""

    def wrap(fn: Callable[[dict], List[str]]):
        _REGISTRY[name] = _Checker(
            name, tuple(workloads) if workloads else None, fn
        )
        return fn

    return wrap


def registered_invariants() -> List[str]:
    return list(_REGISTRY)


def check_all(obs: dict) -> List[Violation]:
    """Evaluate every applicable invariant against one observation dict.

    Liveness and crash-freedom gate the rest: a hung or crashed workload
    produces no meaningful state to inspect, so only their violations are
    reported in that case.
    """
    gate: List[Violation] = []
    if obs.get("timed_out"):
        gate.append(
            Violation("liveness", "workload exceeded its deadline (hang)")
        )
    if obs.get("error") is not None:
        gate.append(
            Violation(
                "no_crash",
                f"workload raised instead of degrading: {obs['error']}",
            )
        )
    if gate:
        return gate

    out: List[Violation] = []
    for checker in _REGISTRY.values():
        if checker.workloads and obs.get("workload") not in checker.workloads:
            continue
        try:
            messages = checker.fn(obs)
        except Exception as exc:  # the oracle must never fail silently
            messages = [f"checker crashed: {type(exc).__name__}: {exc}"]
        out.extend(Violation(checker.name, m) for m in messages)
    return out


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------
def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


@invariant("md_bitwise_vs_clean", workloads=("md",))
def _md_bitwise(obs: dict) -> List[str]:
    """Faulted-but-recovered MD equals the clean run bitwise.

    Watchdog rollback replays from a checkpoint; torn checkpoints are
    skipped to an older one and replayed further — either way the final
    phase-space point and the recorded series must be *bitwise* those of
    the fault-free trajectory."""
    out = []
    for key in ("positions", "velocities"):
        if not _bitwise(obs["final"][key], obs["reference"][key]):
            out.append(f"final {key} differ from the clean run (not bitwise)")
    if not _bitwise(obs["series"], obs["ref_series"]):
        out.append("recorded potential-energy series differs from the clean run")
    return out


@invariant("train_bitwise_vs_clean", workloads=("train",))
def _train_bitwise(obs: dict) -> List[str]:
    """Step-failure retry and torn checkpoints never perturb training math."""
    out = []
    state, ref = obs["model_state"], obs["ref_model_state"]
    if sorted(state) != sorted(ref):
        return ["model state keys differ from the clean run"]
    for key in sorted(state):
        if not _bitwise(np.asarray(state[key]), np.asarray(ref[key])):
            out.append(f"model param {key!r} differs from the clean run")
    if list(obs["losses"]) != list(obs["ref_losses"]):
        out.append("per-epoch training losses differ from the clean run")
    return out


@invariant("force_sanity")
def _force_sanity(obs: dict) -> List[str]:
    """No non-finite value may survive to an observable output."""
    out = []
    for key in ("series", "losses"):
        values = obs.get(key)
        if values is not None and not np.all(np.isfinite(np.asarray(values))):
            out.append(f"non-finite values leaked into {key}")
    final = obs.get("final") or {}
    for key, arr in final.items():
        if not np.all(np.isfinite(arr)):
            out.append(f"non-finite values leaked into final {key}")
    for o in obs.get("outcomes") or []:
        if o[0] == "ok" and not (
            np.isfinite(o[1]) and np.all(np.isfinite(o[2]))
        ):
            out.append("a served result contains non-finite values")
    return out


@invariant("parallel_matches_reference", workloads=("parallel",))
def _parallel_reference(obs: dict) -> List[str]:
    """Retransmission and rank-failure recovery are transparent.

    Rank rebuild may reorder the force reduction (tight tolerance rather
    than bitwise equality) and recovery may re-wrap positions into the
    box, so the comparison is under the minimum-image convention."""
    a, b = obs["final"]["positions"], obs["reference"]["positions"]
    if a.shape != b.shape:
        return ["faulted run lost/gained atoms vs the clean run"]
    delta = a - b
    length = obs.get("box_length")
    if length:
        delta -= length * np.round(delta / length)
    err = float(np.max(np.abs(delta))) if delta.size else 0.0
    if err > 1e-8:
        return [f"positions drifted from the clean run (max |Δ| = {err:.3e})"]
    return []


@invariant("serve_no_silent_drop", workloads=("serve",))
def _serve_no_silent_drop(obs: dict) -> List[str]:
    """Every admitted request completes correctly-or-explicitly.

    A success must be bitwise the direct eager result; a failure must be
    an explicit ServeError subclass — never a bare exception, never a
    forever-pending future (those surface as gather timeouts)."""
    out = []
    for k, o in enumerate(obs["outcomes"]):
        if o[0] == "ok":
            e_ref, f_ref = obs["reference"][k]
            if o[1] != e_ref or not _bitwise(o[2], f_ref):
                out.append(f"request {k}: served result is not bitwise eager")
        elif not o[2]:
            out.append(
                f"request {k}: failed with non-ServeError {o[1]} "
                "(implicit failure)"
            )
    return out


@invariant("metrics_consistency")
def _metrics_consistency(obs: dict) -> List[str]:
    """obs counters must sum to the events that actually happened."""
    out = []
    plan = obs.get("plan")
    registry = obs.get("registry")
    if plan is None or registry is None:
        return out
    snap = registry.snapshot()
    counters = snap.get("counters", {})
    workload = obs.get("workload")

    manager = obs.get("manager")
    if manager is not None:
        if counters.get("checkpoint.torn_writes", 0) != plan.fired(TORN_WRITE):
            out.append(
                "checkpoint.torn_writes counter "
                f"({counters.get('checkpoint.torn_writes', 0)}) != "
                f"plan firings ({plan.fired(TORN_WRITE)})"
            )
        if manager.n_torn != plan.fired(TORN_WRITE):
            out.append("manager.n_torn disagrees with the fault plan")

    if workload == "md":
        if counters.get("md.recoveries", 0) != obs["n_recoveries"]:
            out.append("md.recoveries counter disagrees with the simulation")
        if obs["watchdog_trips"] != obs["n_recoveries"]:
            out.append("watchdog trips != recoveries (a trip was not recovered)")
    elif workload == "parallel":
        comm = obs["comm"]
        if comm["n_retransmits"] < comm["n_dropped"]:
            out.append("dropped messages not all retransmitted")
        if obs["n_recoveries"] != plan.fired(RANK_FAIL):
            out.append("rank-failure recoveries != injected rank failures")
    elif workload == "serve":
        m = obs["metrics"].get("counters", obs["metrics"])
        admitted = m.get("requests_admitted", 0)
        resolved = (
            m.get("requests_served", 0)
            + m.get("requests_failed", 0)
            + m.get("requests_expired", 0)
        )
        if admitted != resolved:
            out.append(
                f"admitted ({admitted}) != served+failed+expired "
                f"({resolved})"
            )
        # The overload variant sheds some submissions at the door, so the
        # admitted counter tracks its own tally rather than the request
        # count; the plain burst admits everything.
        expect = obs.get("n_admitted", len(obs["outcomes"]))
        if admitted != expect:
            out.append(
                f"admitted counter ({admitted}) != admitted submissions "
                f"({expect})"
            )
    elif workload == "train":
        if counters.get("train.step_failures", 0) != plan.fired(
            TRAIN_STEP_FAILURE
        ):
            out.append("train.step_failures counter != injected step failures")
    return out


def _labeled_sum(counters: Dict, prefix: str) -> int:
    """Sum a labeled counter family, e.g. ``serve.shed.load{class=...}``."""
    return sum(
        int(v) for k, v in counters.items() if k.startswith(prefix + "{")
    )


@invariant("serve_shed_typed", workloads=("serve",))
def _serve_shed_typed(obs: dict) -> List[str]:
    """Every shed or expired request got a typed error and was never evaluated.

    Only the QoS overload variant records per-request ``qos`` dicts; the
    checker also cross-foots the ``serve.shed.*`` counters against the
    recorded outcomes — a shed the metrics missed (or vice versa) is a
    violation."""
    records = obs.get("qos")
    if records is None:
        return []
    out = []
    outcomes = obs["outcomes"]
    for k, rec in enumerate(records):
        status = rec.get("status")
        if status in ("shed", "expired"):
            if not rec.get("typed"):
                out.append(
                    f"request {k}: {status} with non-ServeError "
                    f"{rec.get('error')}"
                )
            if outcomes[k][0] == "ok":
                out.append(f"request {k}: {status} yet evaluated (leaked)")
            if status == "expired" and rec.get("error") != "DeadlineExceeded":
                out.append(
                    f"request {k}: expired with {rec.get('error')} "
                    "instead of DeadlineExceeded"
                )
        elif not rec.get("admitted"):
            out.append(f"request {k}: rejected without a shed record")
    counters = obs["metrics"].get("counters", obs["metrics"])
    n_shed = sum(1 for r in records if r.get("status") == "shed")
    n_expired = sum(1 for r in records if r.get("status") == "expired")
    n_ok = sum(1 for r in records if r.get("status") == "ok")
    if _labeled_sum(counters, "serve.shed.load") != n_shed:
        out.append(
            f"serve.shed.load counters sum to "
            f"{_labeled_sum(counters, 'serve.shed.load')} but {n_shed} "
            "requests were shed"
        )
    if _labeled_sum(counters, "serve.shed.deadline") != n_expired:
        out.append(
            f"serve.shed.deadline counters sum to "
            f"{_labeled_sum(counters, 'serve.shed.deadline')} but "
            f"{n_expired} requests expired"
        )
    if counters.get("requests_served", 0) != n_ok:
        out.append(
            f"requests_served ({counters.get('requests_served', 0)}) != "
            f"ok outcomes ({n_ok})"
        )
    return out


@invariant("serve_no_priority_inversion", workloads=("serve",))
def _serve_no_priority_inversion(obs: dict) -> List[str]:
    """No interactive request is shed while background work is queued.

    Strict-priority admission must never sacrifice the top class for a
    weaker one: an interactive shed with background requests pending at
    that instant — or an admitted interactive request later evicted —
    is a priority inversion."""
    records = obs.get("qos")
    if records is None:
        return []
    out = []
    for k, rec in enumerate(records):
        if rec.get("priority") != "interactive" or rec.get("status") != "shed":
            continue
        if rec.get("admitted"):
            out.append(
                f"request {k}: admitted interactive request was evicted "
                "(inversion: only weaker classes may be displaced)"
            )
        elif rec.get("pending_background_at_submit", 0) > 0:
            out.append(
                f"request {k}: interactive shed while "
                f"{rec['pending_background_at_submit']} background "
                "request(s) were queued"
            )
    return out


@invariant("train_no_silent_poison", workloads=("train",))
def _train_quarantine(obs: dict) -> List[str]:
    """Every corrupted frame must land in quarantine before training."""
    missed = set(obs["corrupted_indices"]) - set(obs["quarantined_indices"])
    if missed:
        return [f"corrupted frames {sorted(missed)} escaped quarantine"]
    return []


@invariant("traj_integrity", workloads=("md", "parallel"))
def _traj_integrity(obs: dict) -> List[str]:
    """The trajectory reader never surfaces a corrupt frame, and accounts.

    Under ``traj.torn_chunk`` every durable frame must be either readable
    (CRC-verified, all values finite) or quarantined — reading must never
    raise mid-iteration, and ``frames_durable == frames_readable +
    frames_quarantined`` must cross-foot exactly, counters included."""
    traj = obs.get("traj")
    if traj is None:
        return []
    from ..traj import TrajectoryReader

    out = []
    plan = obs.get("plan")
    stats = traj["stats"]
    with TrajectoryReader(traj["faulted_path"]) as reader:
        n_readable = 0
        for frame in reader.frames():  # must never raise
            n_readable += 1
            if not (
                np.all(np.isfinite(frame.positions))
                and np.all(np.isfinite(frame.velocities))
            ):
                out.append(
                    f"frame at step {frame.step} passed its CRC yet holds "
                    "non-finite values"
                )
        quarantined = reader.frames_quarantined
    if stats["frames_durable"] != n_readable + quarantined:
        out.append(
            f"frame accounting broken: {stats['frames_durable']} durable != "
            f"{n_readable} readable + {quarantined} quarantined"
        )
    if plan is not None:
        fired = plan.fired(TRAJ_TORN_CHUNK)
        if fired == 0 and quarantined:
            out.append(
                f"{quarantined} frames quarantined with no torn chunk injected"
            )
        if stats.get("torn_chunks", 0) != fired:
            out.append(
                f"store torn_chunks ({stats.get('torn_chunks', 0)}) != plan "
                f"firings ({fired})"
            )
    return out


@invariant("traj_matches_clean", workloads=("md", "parallel"))
def _traj_matches_clean(obs: dict) -> List[str]:
    """Dumped frames under faults match the fault-free trajectory.

    For md: with no torn chunk injected the faulted file is **bitwise**
    the clean file (watchdog rollback + replay re-dump identical bytes,
    chunk boundaries pinned by checkpoint barriers); with torn chunks,
    every *readable* frame must still match the clean frame at the same
    step bitwise.  For parallel: rank-failure recovery may reorder the
    force reduction, so frames compare under the minimum-image convention
    at tight tolerance instead."""
    traj = obs.get("traj")
    if traj is None:
        return []
    from pathlib import Path

    from ..traj import TrajectoryReader

    plan = obs.get("plan")
    workload = obs.get("workload")
    torn = plan.fired(TRAJ_TORN_CHUNK) if plan is not None else 0
    if workload == "md" and torn == 0:
        a = Path(traj["faulted_path"]).read_bytes()
        b = Path(traj["clean_path"]).read_bytes()
        if a != b:
            return [
                "faulted trajectory file is not bitwise the clean file "
                "(no torn chunk was injected)"
            ]
        return []

    out = []
    with TrajectoryReader(traj["clean_path"]) as reader:
        clean = {f.step: f for f in reader.frames()}
    length = obs.get("box_length")
    with TrajectoryReader(traj["faulted_path"]) as reader:
        for frame in reader.frames():
            ref = clean.get(frame.step)
            if ref is None:
                out.append(
                    f"faulted run dumped step {frame.step}, absent from "
                    "the clean trajectory"
                )
                continue
            if workload == "md":
                if not (
                    _bitwise(frame.positions, ref.positions)
                    and _bitwise(frame.velocities, ref.velocities)
                ):
                    out.append(
                        f"readable frame at step {frame.step} differs from "
                        "the clean run (not bitwise)"
                    )
            else:
                delta = frame.positions - ref.positions
                if length:
                    delta -= length * np.round(delta / length)
                err = float(np.max(np.abs(delta))) if delta.size else 0.0
                if err > 1e-8:
                    out.append(
                        f"frame at step {frame.step} drifted from the clean "
                        f"run (max |Δ| = {err:.3e})"
                    )
    return out


@invariant("checkpoint_chain")
def _checkpoint_chain(obs: dict) -> List[str]:
    """Retained checkpoints form a loadable, ascending chain.

    Torn files may linger on disk, but (a) they can never outnumber the
    injected torn writes still retained, (b) the newest *verifiable*
    checkpoint must load, and (c) the skip counter must record every file
    walked past."""
    manager = obs.get("manager")
    if manager is None:
        return []
    out = []
    steps = manager.steps()
    if steps != sorted(steps):
        out.append("retained checkpoint steps are not ascending")
    unloadable = 0
    for step in steps:
        try:
            manager.load_step(step)
        except Exception:
            unloadable += 1
    if unloadable > manager.n_torn:
        out.append(
            f"{unloadable} retained checkpoints unloadable but only "
            f"{manager.n_torn} torn writes were injected"
        )
    if steps:
        if unloadable == len(steps):
            out.append("every retained checkpoint is unloadable")
        else:
            try:
                manager.load_latest()
            except Exception as exc:
                out.append(
                    "load_latest failed despite a verifiable checkpoint: "
                    f"{type(exc).__name__}: {exc}"
                )
    registry = obs.get("registry")
    if registry is not None:
        snap = registry.snapshot().get("counters", {})
        skipped = snap.get("checkpoint.skipped_corrupt", 0)
        if skipped and manager.n_torn == 0:
            # No torn write was injected, yet recovery walked past a file:
            # something corrupted a checkpoint silently.
            out.append(
                f"{skipped} checkpoints skipped as corrupt with no torn "
                "write injected"
            )
    return out
