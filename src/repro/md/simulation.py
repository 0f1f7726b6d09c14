"""The MD driver: the LAMMPS-equivalent loop at single-process scale.

Sequence per step (velocity Verlet): half kick → drift → neighbor
check/rebuild (Verlet skin; positions are wrapped exactly at rebuilds so
stored shift vectors stay valid) → prune to the pairs inside the model's
cutoff → force call → half kick → thermostat → barostat.  The driver
records energies, temperatures, per-step evaluated pair counts (which feed
the fig. 5 allocator simulation) and wall-time throughput in timesteps/s —
the paper's primary performance metric.

Resilience (paper §VII-B: 2.5M-step runs on failure-prone hardware):

* Non-finite forces **fail fast** by default — a NaN never propagates
  silently into the recorded trajectory.
* An optional :class:`~repro.resilience.ForceWatchdog` adds energy-spike
  detection and a ``"recover"`` policy that restores the last checkpoint
  and replays instead of aborting.
* ``run(..., checkpoint_every=, checkpoint_dir=)`` streams atomic,
  checksummed snapshots of *complete* state — positions, velocities, cell,
  thermostat/barostat internals (including RNG state), neighbor-list
  bookkeeping, cached forces — so a restored run continues the
  uninterrupted trajectory **bitwise** in float64 (see
  ``tests/test_resilience.py``).

Multi-rank runs are this same loop:
:class:`repro.parallel.driver.ParallelSimulation` subclasses
:class:`Simulation` and overrides only the force call
(:meth:`Simulation._compute_forces`) and the neighbor-bookkeeping block of
the checkpoint state — spatial decomposition lives *under* the force call,
as it does in LAMMPS.  Serial forces remain the reference the decomposed
forces are validated against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..autodiff import arena
from ..obs import Registry, get_tracer, span
from ..resilience.checkpoint import resolve_checkpoint_sink
from ..resilience.guards import NumericalInstabilityError, validate_energy_forces
from .integrators import VelocityVerlet
from .neighborlist import NeighborList, VerletList, model_cutoff
from .system import System

#: Default snapshot interval when checkpointing is enabled without an
#: explicit ``checkpoint_every``.
DEFAULT_CHECKPOINT_EVERY = 100

#: Default dump interval when a binary trajectory sink is given without an
#: explicit ``dump_every``.
DEFAULT_DUMP_EVERY = 10


@dataclass
class MDResult:
    """Time series from a run; arrays are aligned with ``times``."""

    times: np.ndarray  # fs
    potential_energies: np.ndarray  # eV
    kinetic_energies: np.ndarray  # eV
    temperatures: np.ndarray  # K
    pair_counts: np.ndarray  # neighbor pairs per recorded step
    wall_time: float  # s
    n_steps: int

    @property
    def total_energies(self) -> np.ndarray:
        return self.potential_energies + self.kinetic_energies

    @property
    def timesteps_per_second(self) -> float:
        return self.n_steps / self.wall_time if self.wall_time > 0 else float("inf")


def _capture_coupling_state(obj) -> Optional[dict]:
    """Thermostat/barostat internals worth checkpointing (duck-typed).

    Covers every coupling object in the tree: Nosé–Hoover's friction
    variable, Langevin's RNG stream, Berendsen barostat's last pressure.
    """
    if obj is None:
        return None
    state: dict = {}
    if hasattr(obj, "xi"):
        state["xi"] = float(obj.xi)
    if hasattr(obj, "rng"):
        state["rng"] = obj.rng.bit_generator.state
    if hasattr(obj, "last_pressure"):
        state["last_pressure"] = obj.last_pressure
    return state


def _restore_coupling_state(obj, state: Optional[dict]) -> None:
    if obj is None or state is None:
        return
    if "xi" in state:
        obj.xi = state["xi"]
    if "rng" in state:
        obj.rng.bit_generator.state = state["rng"]
    if "last_pressure" in state:
        obj.last_pressure = state["last_pressure"]


def _copy_or_none(array) -> Optional[np.ndarray]:
    return None if array is None else np.array(array)


class Simulation:
    """Single-process MD of a :class:`System` under a Potential.

    Parameters
    ----------
    thermostat:
        Optional NVT coupling, applied once per step after the second
        half-kick.
    barostat:
        Optional NPT coupling (e.g. :class:`~repro.md.BerendsenBarostat`),
        applied after the thermostat with the current forces.
    watchdog:
        Optional :class:`~repro.resilience.ForceWatchdog`.  Without one,
        non-finite forces still abort the run (fail fast); with one, the
        energy-spike detector and the checkpoint-recover policy are active.
    neighbor_every:
        Displacement-check cadence for the Verlet list (LAMMPS
        ``neigh_modify every N``); 1 checks every step.  Values > 1 are
        only sound with a skin generous enough to cover the unchecked
        drift — the ``md`` tuning target searches the two jointly.
    padding:
        Engine capture headroom (paper §V-C) when ``engine="compiled"``;
        forwarded to ``potential.compile(padding=...)``.  Ignored for
        eager runs and pre-compiled evaluators.
    """

    def __init__(
        self,
        system: System,
        potential,
        dt: float = 0.5,
        thermostat=None,
        barostat=None,
        skin: float = 0.4,
        engine: str = "eager",
        watchdog=None,
        registry: Optional[Registry] = None,
        neighbor_every: int = 1,
        padding: Optional[float] = 0.05,
    ) -> None:
        from ..engine import CompiledPotential

        self._init_loop(system, dt, thermostat, barostat, watchdog, registry)
        if isinstance(potential, CompiledPotential):
            # Accept a pre-compiled evaluator directly; keep the raw model
            # for cutoff / pair-cutoff bookkeeping.
            self.potential = potential.potential
            self._evaluator = potential
            engine = "compiled"
        elif engine == "compiled":
            # Capture-once/replay-many deployment mode (paper §V-C): the
            # hot loop below then replays a fixed kernel plan instead of
            # rebuilding the autodiff tape every step.  The evaluator
            # records its engine.* counters into this simulation's registry.
            self.potential = potential
            self._evaluator = potential.compile(padding=padding, registry=self.obs)
        elif engine == "eager":
            self.potential = potential
            self._evaluator = potential
        else:
            raise ValueError(f"unknown engine {engine!r} (use 'eager' or 'compiled')")
        self.engine = engine
        self.verlet = VerletList(
            model_cutoff(self.potential), skin=skin, check_every=neighbor_every,
            half=self.potential.half_list,
        )
        self._c_rebuilds = self.obs.counter("md.neighbor_rebuilds")
        self._h_force = self.obs.histogram("md.force_seconds")

    def _init_loop(
        self,
        system: System,
        dt: float,
        thermostat=None,
        barostat=None,
        watchdog=None,
        registry: Optional[Registry] = None,
    ) -> None:
        """State the step loop reads, whatever computes the forces.

        Split from ``__init__`` so the parallel driver — the same loop over
        a different force backend — sets it up without building the serial
        Verlet list and evaluator.
        """
        self.system = system
        # One obs.Registry per simulation (injectable, e.g. the CLI profile
        # shares a single tree across layers).
        self.obs = registry if registry is not None else Registry()
        self.integrator = VelocityVerlet(dt)
        self.thermostat = thermostat
        self.barostat = barostat
        self.watchdog = watchdog
        self.step_count = 0
        self._forces: Optional[np.ndarray] = None
        self._pe: float = 0.0
        self._callbacks: List[Callable[[int, "Simulation"], None]] = []
        self._c_steps = self.obs.counter("md.steps")
        self._c_recoveries = self.obs.counter("md.recoveries")
        self._c_checkpoints = self.obs.counter("md.checkpoints")
        self._c_pairs = self.obs.counter("md.pairs")  # evaluated, in range
        self._c_candidates = self.obs.counter("md.candidate_pairs")  # skinned

    def engine_stats(self) -> Optional[dict]:
        """Capture/replay counters when running compiled; None when eager."""
        if self.engine == "compiled":
            return self._evaluator.stats()
        return None

    def kernel_profile(self, repeats: int = 10) -> Optional[dict]:
        """Per-kernel-class time inside one compiled force call; None when eager.

        See :meth:`repro.engine.CompiledPotential.kernel_profile`.
        """
        if self.engine == "compiled":
            return self._evaluator.kernel_profile(repeats)
        return None

    def step_profile(self, repeats: int = 10) -> Optional[list]:
        """Per-step time inside one compiled force call; None when eager.

        See :meth:`repro.engine.CompiledPotential.step_profile`.
        """
        if self.engine == "compiled":
            return self._evaluator.step_profile(repeats)
        return None

    def stats(self) -> dict:
        """Unified observability view: registry counters + engine + phases.

        ``phases`` is populated when tracing is enabled (``repro.obs``);
        the per-phase wall times cover neighbor rebuild / force eval /
        integrate / thermostat / checkpoint — the Fig. 6/7 time-per-step
        breakdown at single-process scale.
        """
        snap = self.obs.snapshot()
        snap["engine_stats"] = self.engine_stats()
        # Watchdog recover-policy rollbacks performed by ``run``.
        snap["n_recoveries"] = self._c_recoveries.value
        snap["neighbor_builds"] = self.verlet.n_builds
        snap["phases"] = get_tracer().phase_totals("md.")
        # The calling thread's tape arena (eager force calls run on it).
        snap["tape_arena"] = arena.stats()
        return snap

    def add_callback(self, fn: Callable[[int, "Simulation"], None]) -> None:
        """Called after every step with (step index, simulation)."""
        self._callbacks.append(fn)

    def _compute_forces(self) -> tuple[float, np.ndarray, int]:
        """(energy, forces, neighbor pairs) at the current positions.

        The one seam between the step loop and the force backend: the
        parallel driver overrides it with a decomposed force call.
        """
        with span("md.neighbor") as sp:
            builds_before = self.verlet.n_builds
            nl = self.verlet.get(self.system)
            rebuilt = self.verlet.n_builds - builds_before
            if rebuilt:
                self._c_rebuilds.inc(rebuilt)
                sp.add("rebuilds", rebuilt)
            candidates = self.verlet.n_candidates
            sp.add("candidates", candidates)
            sp.add("pairs", nl.n_edges)
        self._c_candidates.inc(candidates)
        self._c_pairs.inc(nl.n_edges)
        with span("md.force"):
            t0 = time.perf_counter()
            e, f = self._evaluator.energy_and_forces(self.system, nl)
            self._h_force.observe(time.perf_counter() - t0)
        return e, f, nl.n_edges

    # -- checkpointable state -------------------------------------------------
    def get_state(self) -> dict:
        """Complete restart state; see :meth:`set_state` for the inverse.

        Captures everything the step loop reads: phase-space coordinates,
        the cell, coupling internals (thermostat RNG stream, Nosé–Hoover
        friction, barostat pressure memory), cached forces/energy, and the
        force backend's neighbor bookkeeping (:meth:`_backend_state`), so a
        restored run follows the *same* rebuild/wrap schedule — the
        ingredient that makes resume bitwise-identical rather than merely
        statistically equivalent.
        """
        return {
            "format": 1,
            "step_count": self.step_count,
            "positions": self.system.positions.copy(),
            "velocities": self.system.velocities.copy(),
            "cell_lengths": (
                None if self.system.cell is None else self.system.cell.lengths.copy()
            ),
            "pe": float(self._pe),
            "forces": _copy_or_none(self._forces),
            "thermostat": _capture_coupling_state(self.thermostat),
            "barostat": _capture_coupling_state(self.barostat),
            **self._backend_state(),
        }

    def _backend_state(self) -> dict:
        """Verlet-list bookkeeping: reference positions + current list."""
        verlet = self.verlet
        return {
            "verlet": {
                "ref_positions": _copy_or_none(verlet._ref_positions),
                "n_builds": verlet.n_builds,
                "since_check": verlet._since_check,
                "nl": (
                    None
                    if verlet._nl is None
                    else (verlet._nl.edge_index.copy(), verlet._nl.shifts.copy())
                ),
                "half": verlet._nl is not None and verlet._nl.half,
            }
        }

    def set_state(self, state: dict) -> None:
        """Restore :meth:`get_state` output (same system size/topology)."""
        if state.get("format") != 1:
            raise ValueError(f"unknown checkpoint format {state.get('format')!r}")
        positions = np.asarray(state["positions"], dtype=np.float64)
        if positions.shape != self.system.positions.shape:
            raise ValueError(
                f"checkpoint holds {positions.shape[0]} atoms, "
                f"simulation has {self.system.n_atoms}"
            )
        self.system.positions[...] = positions
        self.system.velocities[...] = np.asarray(state["velocities"])
        if state["cell_lengths"] is not None:
            if self.system.cell is None:
                raise ValueError("checkpoint has a cell but the system does not")
            self.system.cell.lengths[...] = np.asarray(state["cell_lengths"])
        self.step_count = int(state["step_count"])
        self._pe = float(state["pe"])
        self._forces = _copy_or_none(state["forces"])
        _restore_coupling_state(self.thermostat, state["thermostat"])
        _restore_coupling_state(self.barostat, state["barostat"])
        self._set_backend_state(state)

    def _set_backend_state(self, state: dict) -> None:
        verlet_state = state["verlet"]
        self.verlet.n_builds = int(verlet_state["n_builds"])
        self.verlet._since_check = int(verlet_state["since_check"])
        self.verlet._ref_positions = _copy_or_none(verlet_state["ref_positions"])
        if verlet_state["nl"] is None:
            self.verlet._nl = None
        else:
            # A state without "half" holds a full list: never double-counted.
            edge_index, shifts = verlet_state["nl"]
            self.verlet._nl = NeighborList(
                np.array(edge_index), np.array(shifts), verlet_state.get("half", False)
            )

    # -- guarded degradation --------------------------------------------------
    def _check_health(self, manager) -> bool:
        """Watchdog gate after a force call; True = continue the step."""
        if self.watchdog is None:
            # Fail fast: never integrate or record a non-finite force call.
            validate_energy_forces(
                self._pe, self._forces, context=f"step {self.step_count + 1}"
            )
            return True
        if self.watchdog.check(self._pe, self._forces, step=self.step_count + 1):
            return True
        # Recover policy: roll back to the newest verified checkpoint.
        if manager is None:
            raise NumericalInstabilityError(
                f"{self.watchdog.last_error}; recovery requested but no "
                "checkpointing is active (pass checkpoint_dir/checkpoint_every)"
            )
        _, snapshot = manager.load_latest()
        self.set_state(snapshot)
        self.watchdog.reset_history()
        self.watchdog.on_recovered()
        self._c_recoveries.inc()
        return False

    def run(
        self,
        n_steps: int,
        record_every: int = 1,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        checkpoint_manager=None,
        dump_every: Optional[int] = None,
        dump_path=None,
        dump_writer=None,
    ) -> MDResult:
        """Advance ``n_steps``; returns recorded time series.

        Parameters
        ----------
        checkpoint_every:
            Snapshot interval in steps (defaults to
            ``DEFAULT_CHECKPOINT_EVERY`` when a checkpoint sink is given).
        checkpoint_dir / checkpoint_manager:
            Where snapshots go: a directory (a
            :class:`~repro.resilience.CheckpointManager` is created with
            default retention) or an explicit manager.  An initial snapshot
            is written before the first step if the sink is empty, so the
            recover policy always has a floor to roll back to.
        dump_every / dump_path / dump_writer:
            Binary trajectory dump (``repro.traj``): a frame is written
            synchronously, on this thread, whenever the *absolute* step
            count is a multiple of ``dump_every`` (defaults to
            ``DEFAULT_DUMP_EVERY`` when a sink is given), and the writer is
            barriered before every checkpoint.  ``dump_path`` creates a
            :class:`~repro.traj.TrajectoryWriter` owned by this call
            (closed with a footer on success, aborted crash-shaped on
            error); a resumed simulation (``step_count > 0``) appends to an
            existing file so the result is byte-identical to an
            uninterrupted run.  Pass ``dump_writer`` instead to share a
            writer across calls — the caller keeps ownership.

        Watchdog recovery rolls the records back too, so the returned time
        series never contains rolled-back steps; the dump writer is rolled
        back the same way.
        """
        manager, checkpoint_every = resolve_checkpoint_sink(
            checkpoint_every, checkpoint_dir, checkpoint_manager,
            DEFAULT_CHECKPOINT_EVERY,
        )
        if dump_every is not None and dump_every < 1:
            raise ValueError("dump_every must be >= 1")
        if dump_every is not None and dump_writer is None and dump_path is None:
            raise ValueError("dump_every needs a dump_path or dump_writer")
        writer = dump_writer
        owns_writer = False
        if writer is None and dump_path is not None:
            from pathlib import Path

            from ..traj import TrajectoryWriter

            resume = self.step_count > 0 and Path(dump_path).exists()
            writer = TrajectoryWriter(
                dump_path,
                system=None if resume else self.system,
                append_from=self.step_count if resume else None,
                registry=self.obs,
            )
            owns_writer = True
        if writer is not None and dump_every is None:
            dump_every = DEFAULT_DUMP_EVERY

        try:
            result = self._run_loop(
                n_steps, record_every, checkpoint_every, manager,
                dump_every, writer,
            )
        except BaseException:
            # Crash-shaped teardown: drop uncommitted frames, no footer —
            # exactly what a killed process leaves behind.
            if owns_writer:
                writer.abort()
            raise
        if owns_writer:
            writer.close()
        return result

    def _run_loop(
        self,
        n_steps: int,
        record_every: int,
        checkpoint_every: Optional[int],
        manager,
        dump_every: Optional[int],
        writer,
    ) -> MDResult:
        rec_steps: List[int] = []
        times, pes, kes, temps, pairs = [], [], [], [], []
        n_pairs = 0
        if self._forces is None:
            self._pe, self._forces, n_pairs = self._compute_forces()
            validate_energy_forces(self._pe, self._forces, context="initial forces")
        if manager is not None and not manager.steps():
            manager.save(self.get_state(), self.step_count)

        start = self.step_count
        target = start + n_steps
        t0 = time.perf_counter()
        while self.step_count < target:
            with span("md.step") as sp:
                with span("md.integrate"):
                    self.integrator.half_kick(self.system, self._forces)
                    self.integrator.drift(self.system)
                # Positions are wrapped by the Verlet list exactly when it
                # rebuilds (stale shift vectors + wrapping do not mix).
                self._pe, self._forces, n_pairs = self._compute_forces()
                if not self._check_health(manager):
                    # Rolled back: drop records newer than the restored step
                    # and replay from there.
                    while rec_steps and rec_steps[-1] > self.step_count:
                        rec_steps.pop()
                        times.pop(), pes.pop(), kes.pop(), temps.pop()
                        pairs.pop()
                    if writer is not None:
                        # The binary dump rolls back with the state: replayed
                        # steps re-dump, so the file evolves as if the
                        # instability never happened.
                        writer.rollback(self.step_count)
                    continue
                with span("md.integrate"):
                    self.integrator.half_kick(self.system, self._forces)
                if self.thermostat is not None:
                    with span("md.thermostat"):
                        self.thermostat.apply(self.system, self.integrator.dt)
                if self.barostat is not None:
                    with span("md.barostat"):
                        self.barostat.apply(
                            self.system, self._forces, self.integrator.dt
                        )
                self.step_count += 1
                self._c_steps.inc()
                sp.add("pairs", n_pairs)
                t_now = self.step_count * self.integrator.dt
                if (self.step_count - start - 1) % record_every == 0:
                    rec_steps.append(self.step_count)
                    times.append(t_now)
                    pes.append(self._pe)
                    kes.append(self.system.kinetic_energy())
                    temps.append(self.system.temperature())
                    pairs.append(n_pairs)
                if writer is not None and self.step_count % dump_every == 0:
                    # Absolute-step schedule (not run-relative): a resumed
                    # run dumps at the same steps as an uninterrupted one,
                    # which the byte-identity guarantee depends on.
                    writer.record(self.step_count, t_now, self.system, pe=self._pe)
                for cb in self._callbacks:
                    cb(self.step_count, self)
                if (
                    manager is not None
                    and (self.step_count - start) % checkpoint_every == 0
                ):
                    if writer is not None:
                        # Pin chunk boundaries to the checkpoint schedule:
                        # every frame up to this step becomes durable before
                        # the snapshot that would replay past it.
                        writer.barrier()
                    with span("md.checkpoint"):
                        manager.save(self.get_state(), self.step_count)
                    self._c_checkpoints.inc()
        wall = time.perf_counter() - t0
        return MDResult(
            times=np.asarray(times),
            potential_energies=np.asarray(pes),
            kinetic_energies=np.asarray(kes),
            temperatures=np.asarray(temps),
            pair_counts=np.asarray(pairs),
            wall_time=wall,
            n_steps=n_steps,
        )
