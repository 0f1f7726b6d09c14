"""Multi-rank force evaluation, and the MD driver that runs on it.

:class:`ParallelSimulation` is :class:`repro.md.simulation.Simulation` with
one method replaced: the force call.  The step loop (velocity Verlet,
thermostat, records, dumps, checkpoints, callbacks, ``md.*`` spans and
counters) is the serial one, unchanged; per force call the evaluator does

1. forward halo exchange of positions,
2. every rank prunes its skinned owned-center list to the cutoff and
   evaluates the potential on it — rank 0 in this process, ranks 1…R−1 at
   the same time on their own worker processes (:mod:`.workers`),
3. energies, owned forces and ghost blocks are accumulated in rank order,
   and the reverse halo exchange adds ghost force contributions back to
   owners.

Reneighboring (triggered by the Verlet-skin criterion on the global
system) rebuilds the partition, migrating atoms between ranks and
reconstructing ghost sets.

The evaluator is *exact*: assembled energies and forces equal the serial
driver's up to floating-point summation order (asserted in tests), which
is the reproduction of the paper's claim that strict locality makes
spatial decomposition semantically invisible.

Fault tolerance: dropped/delayed exchanges are retransmitted inside
:class:`~repro.parallel.comm.VirtualCluster`; when retransmission is
exhausted (:class:`~repro.parallel.comm.CommError`) or a rank is lost
(:class:`RankFailure`: injected, or a worker process that died), the
evaluator purges in-flight traffic, replaces the lost rank's process,
rebuilds the decomposition — reassigning the failed rank's atoms exactly
as a restarted replacement node would repartition — and retries the step,
bounded by ``max_retries``.  Every fault-plan draw happens in this
process, in rank order, whichever process evaluated a rank.  Because all
authoritative state (positions, velocities) lives in the global
:class:`System`, recovery is a pure recompute: the retried step produces
the same forces as an undisturbed one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..autodiff import arena
from ..md.neighborlist import model_cutoff
from ..md.simulation import Simulation, _copy_or_none
from ..md.system import System
from ..obs import LATENCY_BUCKETS, Registry, get_tracer, span
from ..resilience.faults import FaultyPotential
from .comm import CommError, VirtualCluster
from .decomposition import DomainDecomposition, RankShard
from .topology import ProcessGrid
from .workers import RankFailure, RankWorkers, evaluate_shard


@dataclass
class RankWorkStats:
    """Per-rank work for load-balance analysis and the performance model."""

    n_owned: np.ndarray
    n_ghost: np.ndarray
    n_edges: np.ndarray  # evaluated: inside the cutoff
    n_candidates: np.ndarray  # in the skinned lists they were pruned from

    @property
    def load_imbalance(self) -> float:
        """max/mean of per-rank evaluated edge counts (1.0 = perfect balance)."""
        mean = self.n_edges.mean()
        return float(self.n_edges.max() / mean) if mean > 0 else 1.0


class ParallelForceEvaluator:
    """Evaluates a strictly-local potential across a process grid.

    Rank 0 runs in the calling process; ranks 1…R−1 run on worker
    processes forked when they first get a shard.  :meth:`close` (or
    garbage collection) stops them.
    """

    def __init__(
        self,
        potential,
        grid: ProcessGrid,
        cluster: Optional[VirtualCluster] = None,
        skin: float = 0.0,
        engine: str = "eager",
        fault_plan=None,
        max_retries: int = 3,
        registry: Optional[Registry] = None,
    ) -> None:
        if engine not in ("eager", "compiled"):
            raise ValueError(f"unknown engine {engine!r} (use 'eager' or 'compiled')")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.potential = potential
        self.grid = grid
        self.obs = registry if registry is not None else Registry()
        self.cluster = cluster or VirtualCluster(
            grid.n_ranks, fault_plan=fault_plan, registry=self.obs
        )
        self.fault_plan = fault_plan
        self.max_retries = int(max_retries)
        self._c_failures = self.obs.counter("parallel.failures")
        self._c_recoveries = self.obs.counter("parallel.recoveries")
        self._rank_force_hist: dict = {}
        self.skin = float(skin)
        self.engine = engine
        # A corrupting wrapper draws here, in rank order, on results every
        # rank computes with the clean model.
        self._corrupt = None
        model = potential
        if isinstance(potential, FaultyPotential):
            self._corrupt, model = potential.corrupt, potential.potential
        self._model = model
        # Rank 0's compiled evaluator; each worker owns its rank's.  Each
        # captures at its own shard capacity (atoms + edges fluctuate
        # independently per domain), so a migration on one rank never
        # forces recapture on another.
        self._compiled = None
        self.decomp = DomainDecomposition(
            grid, potential.cutoff + self.skin, self.cluster
        )
        self._cutoff = model_cutoff(potential)
        self._workers = RankWorkers(
            model, engine, self.obs, (self.decomp.cutoff, self._cutoff)
        )
        self._shards: Optional[List[RankShard]] = None
        self._dispatched: Optional[List[RankShard]] = None
        self._ref_positions: Optional[np.ndarray] = None

    def close(self) -> None:
        """Stop the worker processes and free their shared memory."""
        self._workers.close()

    def stats(self) -> dict:
        """Unified observability view: one registry tree + phase times.

        The snapshot carries the comm traffic (``comm.*``), per-rank engine
        counters (``engine.*{rank=...}``, mirrored from the workers), and
        failure/recovery totals (``parallel.*``); ``phases`` holds span
        timings for decompose/exchange/force/halo when tracing is enabled;
        ``tape_arena`` is :func:`repro.autodiff.arena.stats` summed over
        this process and the workers.
        """
        out = self.obs.snapshot()
        out["resilience"] = self.resilience_stats()
        out["engine"] = self.engine_stats()
        tape = dict(arena.stats())
        for worker in self._workers.tape_arena.values():
            for key, value in worker.items():
                tape[key] += value
        out["tape_arena"] = tape
        out["phases"] = get_tracer().phase_totals("parallel.")
        return out

    def resilience_stats(self) -> dict:
        """Failure/recovery counters plus the cluster's fault accounting."""
        out = {
            "n_failures": self._c_failures.value,
            "n_recoveries": self._c_recoveries.value,
            "max_retries": self.max_retries,
        }
        out.update(self.cluster.fault_stats())
        return out

    def engine_stats(self) -> Optional[dict]:
        """Aggregated per-rank capture/replay counters (None when eager)."""
        if self.engine != "compiled":
            return None
        per_rank = dict(self._workers.engine)
        if self._compiled is not None:
            per_rank[0] = self._compiled.stats()
        per_rank = dict(sorted(per_rank.items()))
        return {
            "n_captures": sum(s["n_captures"] for s in per_rank.values()),
            "n_replays": sum(s["n_replays"] for s in per_rank.values()),
            "recaptures": sum(s["recaptures"] for s in per_rank.values()),
            "per_rank": per_rank,
        }

    # -- shard management ---------------------------------------------------
    def _needs_rebuild(self, system: System) -> bool:
        if self._shards is None or self._ref_positions is None:
            return True
        if len(self._ref_positions) != system.n_atoms:
            return True
        if self.skin == 0.0:
            return True
        disp = system.positions - self._ref_positions
        disp = system.cell.minimum_image(disp)
        return bool(np.sqrt((disp * disp).sum(axis=1).max()) > self.skin / 2)

    def _prepare(self, system: System) -> List[RankShard]:
        if self._needs_rebuild(system):
            with span("parallel.decompose"):
                system.wrap()
                self._shards = self.decomp.build(system)
                self._dispatch(self._shards)
                self._ref_positions = system.positions.copy()
            return self._shards
        if self._dispatched is not self._shards:  # restored from a checkpoint
            self._dispatch(self._shards)
        with span("parallel.exchange"):
            self.decomp.update_ghost_positions(self._shards, system)
        return self._shards

    def _dispatch(self, shards: List[RankShard]) -> None:
        """Hand ranks 1…R−1 their shards; a shard without a list gets one
        from its own rank (rank 0's is built here meanwhile)."""
        self._dispatched = None
        self._workers.post_shards(shards[1:])

        def rank0():
            if shards[0].nl is None:
                shards[0].nl = self.decomp.local_neighbor_list(
                    shards[0], self.decomp.cutoff
                )

        _, lists = self._alongside([s.rank for s in shards[1:]], rank0)
        for shard, nl in zip(shards[1:], lists):
            if shard.nl is None:
                shard.nl = nl
        self._dispatched = shards

    def _alongside(self, ranks: List[int], rank0):
        """``rank0()`` here while the posted ``ranks`` work, then their
        replies.  Every reply is gathered before anything is raised, and
        failures surface in rank order."""
        try:
            local = rank0()
        finally:
            replies = self._workers.gather(ranks)
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return local, replies

    # -- evaluation ----------------------------------------------------------------
    def compute(self, system: System) -> Tuple[float, np.ndarray, RankWorkStats]:
        """(total energy, assembled forces, per-rank work stats).

        Retries on :class:`~repro.parallel.comm.CommError` (retransmission
        exhausted) and :class:`RankFailure` (injected rank loss, or a worker
        process that died): in-flight traffic is purged, the lost rank's
        process is replaced, the decomposition is rebuilt from the global
        system — reassigning the lost rank's shard — and the evaluation
        reruns, up to ``max_retries`` times.
        """
        attempts = 0
        while True:
            try:
                return self._compute_once(system)
            except (CommError, RankFailure) as exc:
                self._c_failures.inc()
                # Reset even when giving up: a dead worker is replaced, so
                # the next call can succeed.
                self._recover(exc)
                attempts += 1
                if attempts > self.max_retries:
                    raise
                self._c_recoveries.inc()

    def _recover(self, exc: BaseException) -> None:
        """Reset comm + decomposition state so the next attempt is clean."""
        self.cluster.purge()
        self._shards = None
        self._ref_positions = None
        if isinstance(exc, RankFailure):
            # The replacement node arrives empty: its process, compiled
            # capture state and arena are new.
            if exc.rank == 0:
                self._compiled = None
            else:
                self._workers.replace(exc.rank)

    def _rank_hist(self, rank: int):
        hist = self._rank_force_hist.get(rank)
        if hist is None:
            hist = self.obs.histogram(
                "parallel.rank_force_seconds",
                buckets=LATENCY_BUCKETS,
                labels={"rank": str(rank)},
            )
            self._rank_force_hist[rank] = hist
        return hist

    def _compute_once(
        self, system: System
    ) -> Tuple[float, np.ndarray, RankWorkStats]:
        with span("parallel.step") as sp:
            out = self._compute_body(system, sp)
        return out

    def _rank0_evaluator(self):
        if self.engine != "compiled":
            return self._model
        if self._compiled is None:
            from ..engine import CompiledPotential

            self._compiled = CompiledPotential(
                self._model, registry=self.obs, labels={"rank": "0"}
            )
        return self._compiled

    def _evaluate_ranks(self, shards: List[RankShard]) -> list:
        """``(energy, local forces, edges, seconds)`` per rank (None for a
        rank that owns no atoms): rank 0 here while the workers run."""
        remote = [s.rank for s in shards[1:] if s.n_owned]
        for rank in remote:
            self._workers.post(rank, "step")

        def rank0():
            if shards[0].n_owned:
                return evaluate_shard(
                    self._rank0_evaluator(), shards[0], self._cutoff
                )
            return None

        results: list = [None] * len(shards)
        results[0], replies = self._alongside(remote, rank0)
        for rank, (energy, n_edges, seconds, report) in zip(remote, replies):
            self._workers.absorb(rank, report)
            results[rank] = (energy, self._workers.forces[rank], n_edges, seconds)
        return results

    def _compute_body(
        self, system: System, sp
    ) -> Tuple[float, np.ndarray, RankWorkStats]:
        if self.fault_plan is not None:
            from ..resilience.faults import RANK_FAIL

            if self.fault_plan.fires(RANK_FAIL):
                # Deterministic victim: cycle through the grid.
                victim = (self.fault_plan.draws(RANK_FAIL) - 1) % self.grid.n_ranks
                raise RankFailure(victim)
        shards = self._prepare(system)
        n = system.n_atoms
        forces = np.zeros((n, 3))
        energy = 0.0
        ghost_blocks: List[np.ndarray] = []
        n_owned = np.zeros(self.grid.n_ranks, dtype=int)
        n_ghost = np.zeros(self.grid.n_ranks, dtype=int)
        n_edges = np.zeros(self.grid.n_ranks, dtype=int)
        n_candidates = np.zeros(self.grid.n_ranks, dtype=int)
        # Per-rank force-call times feed load-imbalance histograms, but only
        # when tracing is on.
        timed = get_tracer().enabled

        with span("parallel.force"):
            results = self._evaluate_ranks(shards)
            # Rank-order accumulation: the sums do not depend on which
            # process ran which rank, or when it finished.
            for shard, result in zip(shards, results):
                n_owned[shard.rank] = shard.n_owned
                n_ghost[shard.rank] = shard.n_ghost
                if result is None:
                    ghost_blocks.append(np.zeros((shard.n_ghost, 3)))
                    continue
                e_rank, local_f, n_edges[shard.rank], seconds = result
                n_candidates[shard.rank] = shard.nl.n_edges
                if self._corrupt is not None:
                    e_rank, local_f = self._corrupt(e_rank, local_f)
                energy += e_rank
                if timed:
                    self._rank_hist(shard.rank).observe(seconds)
                forces[shard.owned_ids] += local_f[: shard.n_owned]
                ghost_blocks.append(local_f[shard.n_owned :])

        bytes_before = self.cluster.stats.total_bytes()
        with span("parallel.halo"):
            ghost_corr = self.decomp.reverse_force_exchange(shards, ghost_blocks)
        sp.add("halo_bytes", self.cluster.stats.total_bytes() - bytes_before)
        sp.add("edges", int(n_edges.sum()))
        sp.add("candidates", int(n_candidates.sum()))
        if len(ghost_corr) < n:
            ghost_corr = np.concatenate(
                [ghost_corr, np.zeros((n - len(ghost_corr), 3))], axis=0
            )
        forces += ghost_corr[:n]
        return energy, forces, RankWorkStats(n_owned, n_ghost, n_edges, n_candidates)


class ParallelSimulation(Simulation):
    """NVE/NVT MD over a virtual cluster: the serial loop, decomposed forces.

    Everything :meth:`Simulation.run` offers — checkpoint sinks, binary
    dumps, step callbacks, ``md.*`` spans and counters — applies unchanged:
    the driver holds the *gathered* global system (rank-0 semantics;
    per-rank shards are an evaluator detail), so dumps write whole frames
    on the same absolute-step schedule.  Checkpoints carry the evaluator's
    decomposition bookkeeping (shards + reference positions) in place of
    the Verlet list, so a restored parallel run follows the identical
    reneighbor/migration schedule and reproduces the uninterrupted
    trajectory bitwise.
    """

    def __init__(
        self,
        system: System,
        potential,
        n_ranks: int,
        dt: float = 0.5,
        thermostat=None,
        skin: float = 0.4,
        engine: str = "eager",
        fault_plan=None,
        max_retries: int = 3,
        registry: Optional[Registry] = None,
        grid_dims=None,
    ) -> None:
        if system.cell is None:
            raise ValueError("parallel MD requires a periodic cell")
        # One registry tree spans the loop, cluster, evaluator, and per-rank
        # compiled engines, so md steps, comm bytes and capture counters are
        # one view.
        self._init_loop(system, dt, thermostat, registry=registry)
        self.potential = potential
        # grid_dims overrides the surface-minimizing default factorization
        # (how a tuned parallel profile pins the measured-best grid).
        if grid_dims is not None:
            dims = tuple(int(d) for d in grid_dims)
            if int(np.prod(dims)) != int(n_ranks):
                raise ValueError(
                    f"grid_dims {dims} does not factor n_ranks={n_ranks}"
                )
            self.grid = ProcessGrid(dims, system.cell)
        else:
            self.grid = ProcessGrid.create(n_ranks, system.cell)
        self.cluster = VirtualCluster(
            n_ranks, fault_plan=fault_plan, registry=self.obs
        )
        self.evaluator = ParallelForceEvaluator(
            potential,
            self.grid,
            self.cluster,
            skin=skin,
            engine=engine,
            fault_plan=fault_plan,
            max_retries=max_retries,
            registry=self.obs,
        )
        self.last_stats: Optional[RankWorkStats] = None

    def _compute_forces(self) -> Tuple[float, np.ndarray, int]:
        with span("md.force"):
            energy, forces, self.last_stats = self.evaluator.compute(self.system)
        n_pairs = int(self.last_stats.n_edges.sum())
        self._c_pairs.inc(n_pairs)
        self._c_candidates.inc(int(self.last_stats.n_candidates.sum()))
        return energy, forces, n_pairs

    def engine_stats(self) -> Optional[dict]:
        """Aggregated per-rank capture/replay counters (None when eager)."""
        return self.evaluator.engine_stats()

    def close(self) -> None:
        """Stop the evaluator's worker processes (see
        :meth:`ParallelForceEvaluator.close`)."""
        self.evaluator.close()

    def kernel_profile(self, repeats: int = 10) -> None:
        """Every rank owns its own plan; there is no single one to profile."""
        return None

    def step_profile(self, repeats: int = 10) -> None:
        """As :meth:`kernel_profile`: no single plan to profile."""
        return None

    def stats(self) -> dict:
        """Unified registry view over md, comm, engine, and failure counters."""
        return self.evaluator.stats()

    # -- checkpointable state -------------------------------------------------
    def _backend_state(self) -> dict:
        """Decomposition bookkeeping, in place of the serial Verlet list."""
        ev = self.evaluator
        return {
            "parallel": True,
            "shards": copy.deepcopy(ev._shards),
            "ref_positions": _copy_or_none(ev._ref_positions),
            "prev_owner": _copy_or_none(ev.decomp._prev_owner),
        }

    def set_state(self, state: dict) -> None:
        """Restore :meth:`get_state` output (same system size and ranks)."""
        if not state.get("parallel"):
            raise ValueError("not a parallel simulation checkpoint")
        super().set_state(state)

    def _set_backend_state(self, state: dict) -> None:
        # The next force call hands the restored shards, lists included, to
        # their ranks without rebuilding them.
        ev = self.evaluator
        ev._shards = copy.deepcopy(state["shards"])
        ev._ref_positions = _copy_or_none(state["ref_positions"])
        ev.decomp._prev_owner = _copy_or_none(state["prev_owner"])
