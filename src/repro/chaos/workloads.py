"""Workload adapters: run one scenario, return what the invariants need.

Each runner executes a *faulted* run of its workload under the spec's
:class:`~repro.resilience.FaultPlan` and a *clean reference* of the same
workload (no faults, same seeds), then returns a flat observation dict.
The invariant checkers (:mod:`repro.chaos.invariants`) consume only that
dict, so workloads and invariants stay decoupled.

Observation keys shared by every workload::

    workload   one of repro.chaos.WORKLOADS
    error      None, or "ExcType: message" when the faulted run crashed
    plan       the consumed FaultPlan (draw/fired accounting)
    registry   the obs.Registry every component of the faulted run shared

plus per-workload payloads documented on each runner.

The ``bug`` parameter deliberately plants a defect (test-only) so the
harness can be validated end-to-end: a planted bug must be *caught by an
invariant* and its schedule must *shrink to a minimal reproducer* — the
chaos suite's own falsifiability check.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack, closing
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..config import ServeConfig, build_server
from ..health import HealthThresholds
from ..md import (
    BerendsenBarostat,
    Cell,
    LangevinThermostat,
    NoseHooverThermostat,
    Simulation,
    System,
)
from ..models import LennardJones
from ..obs import Registry
from ..resilience import (
    POTENTIAL_CORRUPT,
    REPLAY_FAIL,
    TRAIN_LABEL_CORRUPTION,
    CheckpointManager,
    CorruptedFrames,
    FaultyPotential,
    ForceWatchdog,
    RetryPolicy,
)
from .scenarios import ScenarioSpec

__all__ = ["WORKLOAD_RUNNERS", "run_workload"]

#: Planted defects (test-only): ``bug`` values :func:`run_workload` accepts.
KNOWN_BUGS = ("md.unverified_checkpoint_load",)


class _UnverifiedCheckpointManager(CheckpointManager):
    """PLANTED BUG (test-only): load without magic/checksum verification.

    A torn checkpoint deserializes garbage (or crashes) instead of being
    skipped — exactly the defect the ``checkpoint_chain`` hardening
    exists to prevent.  Used to validate that the chaos invariants catch
    a real regression and that the shrinker minimizes its schedule.
    """

    def load(self, path) -> Dict:
        raw = Path(path).read_bytes()
        return pickle.loads(raw[8 + 64 :])


# ---------------------------------------------------------------------------
# Shared builders (mirror the deterministic fixtures of the test-suite)
# ---------------------------------------------------------------------------
def _lj_crystal(seed=7, n_side=4, a=1.7, jitter=0.02, n_species=1):
    rng = np.random.default_rng(seed)
    g = (
        np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
        * a
    )
    species = (
        np.zeros(len(g), int) if n_species == 1 else rng.integers(0, n_species, len(g))
    )
    system = System(
        g + rng.normal(scale=jitter, size=g.shape), species, Cell.cubic(n_side * a)
    )
    lj = LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0, n_species=n_species)
    return system, lj


def _md_sim(kind, engine, potential, watchdog=None, registry=None):
    system, lj = _lj_crystal()
    system.seed_velocities(30.0, np.random.default_rng(8))
    thermostat = barostat = None
    if kind == "nvt_langevin":
        thermostat = LangevinThermostat(30.0, friction=0.05, seed=3)
    elif kind == "nvt_nosehoover":
        thermostat = NoseHooverThermostat(30.0, tau=25.0)
    elif kind == "npt":
        thermostat = NoseHooverThermostat(30.0, tau=25.0)
        barostat = BerendsenBarostat(pressure=1.0, tau=200.0)
    elif kind != "nve":
        raise ValueError(f"unknown md kind {kind!r}")
    return Simulation(
        system,
        potential if potential is not None else lj,
        dt=0.2,
        thermostat=thermostat,
        barostat=barostat,
        engine=engine,
        watchdog=watchdog,
        registry=registry,
    )


# ---------------------------------------------------------------------------
# md
# ---------------------------------------------------------------------------
def run_md(spec: ScenarioSpec, workdir: Path, bug: Optional[str] = None) -> Dict:
    """Checkpointed watchdog-guarded MD under corrupt/replay/torn faults.

    Extra observation keys: ``final``/``reference`` (positions,
    velocities), ``series``/``ref_series`` (potential energies),
    ``n_recoveries``, ``watchdog_trips``, ``manager``, ``n_steps``.
    """
    opts = spec.options
    kind = opts.get("kind", "nvt_nosehoover")
    engine = opts.get("engine", "eager")
    steps = int(opts.get("steps", 24))
    every = int(opts.get("checkpoint_every", 6))
    channels = spec.channels()

    clean = _md_sim(kind, engine, None)
    clean_traj = workdir / "clean.rtrj"
    # The clean run checkpoints on the same schedule (to a separate dir):
    # checkpoint barriers pin trajectory chunk boundaries, so matching
    # schedules are a precondition for the bitwise-dump invariant.
    clean_res = clean.run(
        steps,
        checkpoint_every=every,
        checkpoint_dir=workdir / "ckpt_clean",
        dump_every=3,
        dump_path=clean_traj,
    )

    plan = spec.fault_plan()
    registry = Registry()
    potential = None
    if POTENTIAL_CORRUPT in channels:
        if engine != "eager":
            raise ValueError("potential.corrupt requires the eager engine")
        _, lj = _lj_crystal()
        potential = FaultyPotential(lj, plan, mode="nan")
    watchdog = ForceWatchdog(policy="recover", spike_factor=None, max_recoveries=16)
    sim = _md_sim(kind, engine, potential, watchdog=watchdog, registry=registry)
    if REPLAY_FAIL in channels:

        def hook(stage: str) -> None:
            if stage == "replay":
                plan.raise_if_fires(REPLAY_FAIL)

        sim._evaluator.fault_hook = hook
    manager_cls = CheckpointManager
    if bug == "md.unverified_checkpoint_load":
        manager_cls = _UnverifiedCheckpointManager
    elif bug is not None:
        raise ValueError(f"unknown planted bug {bug!r} (known: {KNOWN_BUGS})")
    manager = manager_cls(
        workdir / "ckpt", keep_last=4, fault_plan=plan, registry=registry
    )
    # The faulted run dumps through a writer that shares the fault plan:
    # traj.torn_chunk events land on its chunk commits, and watchdog
    # recoveries roll the file back alongside the state.
    faulted_traj = workdir / "faulted.rtrj"
    from ..traj import TrajectoryWriter

    dump_writer = TrajectoryWriter(
        faulted_traj,
        system=sim.system,
        registry=registry,
        fault_plan=plan,
    )
    try:
        res = sim.run(
            steps,
            checkpoint_every=every,
            checkpoint_manager=manager,
            dump_every=3,
            dump_writer=dump_writer,
        )
    finally:
        if not dump_writer.closed:
            dump_writer.close()
    traj_stats = dump_writer.stats()

    return {
        "plan": plan,
        "registry": registry,
        "manager": manager,
        "n_steps": steps,
        "traj": {
            "clean_path": str(clean_traj),
            "faulted_path": str(faulted_traj),
            "stats": traj_stats,
        },
        "final": {
            "positions": np.array(sim.system.positions),
            "velocities": np.array(sim.system.velocities),
        },
        "reference": {
            "positions": np.array(clean.system.positions),
            "velocities": np.array(clean.system.velocities),
        },
        "series": np.array(res.potential_energies),
        "ref_series": np.array(clean_res.potential_energies),
        "n_recoveries": sim.stats()["n_recoveries"],
        "watchdog_trips": watchdog.n_trips,
    }


# ---------------------------------------------------------------------------
# parallel
# ---------------------------------------------------------------------------
def run_parallel(spec: ScenarioSpec, workdir: Path, bug: Optional[str] = None) -> Dict:
    """4-rank MD under comm drop/delay + rank failure.

    Extra keys: ``final``/``reference`` positions, ``comm`` (the cluster's
    fault_stats), ``n_failures``/``n_recoveries``.
    """
    from ..parallel import ParallelSimulation

    if bug is not None:
        raise ValueError(f"unknown planted bug {bug!r} for parallel")
    opts = spec.options
    steps = int(opts.get("steps", 8))
    n_ranks = int(opts.get("n_ranks", 4))

    def build(fault_plan=None, registry=None):
        rng = np.random.default_rng(11)
        g = (
            np.stack(
                np.meshgrid(*[np.arange(5)] * 3, indexing="ij"), -1
            ).reshape(-1, 3)
            * 1.9
        )
        pos = g + rng.normal(scale=0.05, size=g.shape)
        system = System(pos, rng.integers(0, 2, len(pos)), Cell.cubic(5 * 1.9))
        system.seed_velocities(30.0, np.random.default_rng(12))
        lj = LennardJones(epsilon=0.01, sigma=1.6, cutoff=3.0, n_species=2)
        return ParallelSimulation(
            system, lj, n_ranks=n_ranks, dt=0.2,
            thermostat=NoseHooverThermostat(30.0, tau=25.0),
            fault_plan=fault_plan, registry=registry,
        )

    # Both simulations are closed on every way out, a deadline interrupt
    # included: their rank processes must not wait for garbage collection,
    # which a traceback still holding these frames can put off.
    with ExitStack() as simulations:
        clean = simulations.enter_context(closing(build()))
        clean_traj = workdir / "clean.rtrj"
        clean.run(steps, dump_every=3, dump_path=clean_traj)

        plan = spec.fault_plan()
        registry = Registry()
        sim = simulations.enter_context(
            closing(build(fault_plan=plan, registry=registry))
        )
        # Rank-0 gathered dump under the same fault plan: traj.torn_chunk
        # draws land on the writer's chunk commits.
        from ..traj import TrajectoryWriter

        faulted_traj = workdir / "faulted.rtrj"
        dump_writer = TrajectoryWriter(
            faulted_traj, system=sim.system, registry=registry, fault_plan=plan
        )
        try:
            sim.run(steps, dump_every=3, dump_writer=dump_writer)
        finally:
            if not dump_writer.closed:
                dump_writer.close()
        cluster = sim.evaluator.cluster
        resilience = sim.evaluator.resilience_stats()

    return {
        "plan": plan,
        "registry": registry,
        "final": {"positions": np.array(sim.system.positions)},
        "reference": {"positions": np.array(clean.system.positions)},
        "box_length": 5 * 1.9,
        "comm": cluster.fault_stats(),
        "n_failures": resilience["n_failures"],
        "n_recoveries": resilience["n_recoveries"],
        "traj": {
            "clean_path": str(clean_traj),
            "faulted_path": str(faulted_traj),
            "stats": dump_writer.stats(),
        },
    }


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _serve_systems(n_requests: int):
    """Mixed-size non-periodic LJ clusters plus direct eager references."""
    lj = LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)
    systems, reference = [], []
    for k in range(n_requests):
        rng = np.random.default_rng(100 + k)
        n_atoms = 6 + int(rng.integers(6))
        g = np.stack(
            np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), -1
        ).reshape(-1, 3)[:n_atoms] * 1.9
        system = System(
            g + rng.normal(scale=0.05, size=g.shape), np.zeros(n_atoms, int)
        )
        systems.append(system)
        e, f = lj.energy_and_forces(system)
        reference.append((float(e), np.array(f)))
    return lj, systems, reference


def run_serve(spec: ScenarioSpec, workdir: Path, bug: Optional[str] = None) -> Dict:
    """ForceServer traffic under worker crash/stall faults.

    Two variants (``options["variant"]``): the plain ``burst`` (default),
    and ``overload`` — 2× more requests than the queue bound with QoS
    enforced, mixed priority classes and some already-expired deadlines,
    exercising shedding, deadline expiry and the health state machine.

    Extra keys: ``outcomes`` (per request: ``("ok", energy, forces)`` or
    ``("error", exc_type_name, is_serve_error)``), ``reference`` (direct
    eager energy/forces per request), ``metrics`` (snapshot).  The
    overload variant adds ``qos`` (per-request priority/status records),
    ``n_admitted``, ``health_state`` and ``health_transitions``.
    """
    if bug is not None:
        raise ValueError(f"unknown planted bug {bug!r} for serve")
    if spec.options.get("variant", "burst") == "overload":
        return _run_serve_overload(spec, workdir)
    return _run_serve_burst(spec, workdir)


def _faulted_server(spec: ScenarioSpec, lj, start: bool = True, **serve):
    """``(server, plan, metrics)``: an eager one-worker server under the
    spec's fault plan, configured by ``serve``-section keys.

    One worker keeps the plan's draw order single-threaded (the plan's
    counters are not synchronized); the batching/retry/metrics paths are
    exercised identically.
    """
    plan = spec.fault_plan()
    metrics = Registry()
    server = build_server(
        ServeConfig(n_workers=1, batch_wait=1e-3, engine="eager", **serve),
        lj,
        metrics=metrics,
        retry_policy=RetryPolicy(
            max_retries=2, base_delay=1e-4, max_delay=1e-3, seed=spec.seed
        ),
        fault_plan=plan,
        stall_time=2e-3,
        drain_timeout=30.0,
        start=start,
    )
    return server, plan, metrics


def _run_serve_burst(spec: ScenarioSpec, workdir: Path) -> Dict:
    from ..serve import ServeError

    opts = spec.options
    n_requests = int(opts.get("n_requests", 12))
    max_batch = int(opts.get("max_batch", 4))
    lj, systems, reference = _serve_systems(n_requests)
    server, plan, metrics = _faulted_server(spec, lj, max_batch=max_batch)
    futures = [server.submit(s) for s in systems]
    outcomes = []
    for fut in futures:
        try:
            e, f = fut.result(timeout=60.0)
            outcomes.append(("ok", float(e), np.array(f)))
        except Exception as exc:
            outcomes.append(
                ("error", type(exc).__name__, isinstance(exc, ServeError))
            )
    server.stop(drain=True)

    return {
        "plan": plan,
        "registry": metrics,
        "outcomes": outcomes,
        "reference": reference,
        "metrics": metrics.snapshot(),
    }


#: Overload variant: priority class per request index (cycled) and which
#: indices carry an already-expired deadline (0.0 s).
_OVERLOAD_PRIORITIES = ("interactive", "batch", "background")


def _run_serve_overload(spec: ScenarioSpec, workdir: Path) -> Dict:
    from ..serve import DeadlineExceeded, LoadShed, QoSPolicy, ServeError

    opts = spec.options
    n_requests = int(opts.get("n_requests", 16))
    max_batch = int(opts.get("max_batch", 2))
    max_queue = int(opts.get("max_queue", 6))
    lj, systems, reference = _serve_systems(n_requests)

    # Deterministic by construction: the server starts with no workers,
    # so the whole admission sequence (class bounds, health transitions,
    # evictions, pre-expired deadlines) is a pure function of the
    # submission order; no health signal reads a clock and the
    # down-dwell is too long for wall-clock timing to move the machine.
    server, plan, metrics = _faulted_server(
        spec,
        lj,
        start=False,
        max_batch=max_batch,
        max_queue=max_queue,
        qos=QoSPolicy(  # the default policy plus early health thresholds
            health=HealthThresholds(
                queue_degraded=0.3, queue_shedding=0.65, dwell_up=2, dwell_down=10_000
            )
        ),
    )

    server.start(workers=False)  # admit deterministically, workers later
    futures: Dict[int, object] = {}
    records = []
    for k, system in enumerate(systems):
        priority = _OVERLOAD_PRIORITIES[k % len(_OVERLOAD_PRIORITIES)]
        # Every 5th-ish request arrives already expired (deadline 0):
        # the deterministic seed set for the deadline-shed path.
        deadline = 0.0 if k % 5 == 3 else None
        pending = server.stats()["qos"]["pending_by_class"]
        weaker = sum(
            n for p, n in pending.items()
            if _OVERLOAD_PRIORITIES.index(p) > _OVERLOAD_PRIORITIES.index(priority)
        )
        record = {
            "priority": priority,
            "deadline": deadline,
            "pending_weaker_at_submit": weaker,
            "pending_background_at_submit": pending.get("background", 0),
        }
        try:
            futures[k] = server.submit(system, priority=priority, deadline=deadline)
            record["admitted"] = True
        except Exception as exc:
            record["admitted"] = False
            record["status"] = "shed"
            record["error"] = type(exc).__name__
            record["typed"] = isinstance(exc, ServeError)
        records.append(record)

    server.start()
    outcomes = []
    for k in range(n_requests):
        fut = futures.get(k)
        record = records[k]
        if fut is None:
            outcomes.append(("error", record["error"], record["typed"]))
            continue
        try:
            e, f = fut.result(timeout=60.0)
            outcomes.append(("ok", float(e), np.array(f)))
            record["status"] = "ok"
            record["error"] = None
        except Exception as exc:
            outcomes.append(
                ("error", type(exc).__name__, isinstance(exc, ServeError))
            )
            if isinstance(exc, DeadlineExceeded):
                record["status"] = "expired"
            elif isinstance(exc, LoadShed):
                record["status"] = "shed"
            else:
                record["status"] = "error"
            record["error"] = type(exc).__name__
            record["typed"] = isinstance(exc, ServeError)
    health_state = server.health.state
    health_transitions = len(server.health.history())
    server.stop(drain=True)

    return {
        "plan": plan,
        "registry": metrics,
        "outcomes": outcomes,
        "reference": reference,
        "metrics": metrics.snapshot(),
        "qos": records,
        "n_admitted": sum(1 for r in records if r["admitted"]),
        "health_state": health_state,
        "health_transitions": health_transitions,
    }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------
def run_train(spec: ScenarioSpec, workdir: Path, bug: Optional[str] = None) -> Dict:
    """Checkpointed ``Trainer.fit`` under step-failure / label-corruption /
    torn-checkpoint faults.

    The clean reference trains the *same materialized frames* (label
    corruption included) with no step/torn faults: step-failure retry is
    bitwise and torn checkpoints never touch the optimizer path, so the
    faulted model must match the reference bitwise, while the corrupted
    frames themselves must land in quarantine (``corrupted`` ⊆
    ``quarantined``).

    Extra keys: ``model_state``/``ref_model_state``, ``losses``,
    ``corrupted_indices``, ``quarantined_indices``, ``manager``.
    """
    from ..data import conformation_dataset, label_frames
    from ..models import ClassicalConfig, ClassicalForceField
    from ..nn import TrainConfig, Trainer

    if bug is not None:
        raise ValueError(f"unknown planted bug {bug!r} for train")
    opts = spec.options
    epochs = int(opts.get("epochs", 3))
    batch_size = int(opts.get("batch_size", 4))
    every = int(opts.get("checkpoint_every", 1))

    frames = label_frames(conformation_dataset(12, n_heavy=4, seed=11, sigma=0.06))
    train_frames, val_frames = frames[:8], frames[8:]

    plan = spec.fault_plan()
    corrupted_indices = []
    if TRAIN_LABEL_CORRUPTION in spec.channels():
        corrupter = CorruptedFrames(train_frames, plan, mode="nan")
        train_frames = corrupter.materialize()
        corrupted_indices = list(corrupter.corrupted_indices)

    def config():
        return TrainConfig(
            lr=5e-3,
            batch_size=batch_size,
            max_epochs=epochs,
            data_policy="quarantine",
            max_step_retries=3,
        )

    def model():
        return ClassicalForceField(ClassicalConfig(n_species=4, r_cut=3.5))

    reference = Trainer(model(), train_frames, val_frames, config())
    ref_stats = reference.fit(epochs)

    registry = Registry()
    manager = CheckpointManager(
        workdir / "train-ckpt", fault_plan=plan, registry=registry
    )
    faulted = Trainer(
        model(), train_frames, val_frames, config(),
        fault_plan=plan, registry=registry,
    )
    stats = faulted.fit(epochs, checkpoint_every=every, checkpoint_manager=manager)

    report = faulted.dataset_report
    quarantined = sorted(report.flagged_indices(include_soft=True)) if report else []

    return {
        "plan": plan,
        "registry": registry,
        "manager": manager,
        "model_state": faulted.model.state_dict(),
        "ref_model_state": reference.model.state_dict(),
        "losses": [s.train_loss for s in stats],
        "ref_losses": [s.train_loss for s in ref_stats],
        "corrupted_indices": corrupted_indices,
        "quarantined_indices": quarantined,
    }


WORKLOAD_RUNNERS = {
    "md": run_md,
    "parallel": run_parallel,
    "serve": run_serve,
    "train": run_train,
}


def run_workload(spec: ScenarioSpec, workdir: Path, bug: Optional[str] = None) -> Dict:
    """Dispatch ``spec`` to its workload runner."""
    return WORKLOAD_RUNNERS[spec.workload](spec, Path(workdir), bug=bug)
