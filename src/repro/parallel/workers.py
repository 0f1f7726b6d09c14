"""Ranks 1…R−1 of a parallel force call, each on its own forked process.

The driver process is rank 0 and evaluates its own shard in-process, so a
1-rank grid forks nothing.  Every other rank gets one process, forked when
it is first handed a shard and kept for the evaluator's lifetime, as a
LAMMPS rank keeps its pair_allegro model between steps (paper §V-C).  A
worker's positions and forces live in a pair of shared-memory blocks the
driver allocates per rebuild; the worker builds its own neighbor list (and
sends it back for checkpoints), prunes and evaluates, and owns its tape
arena and compiled plan.  Every fault draw and the rank-order accumulation
stay in the driver (DESIGN §25).  Each posted message gets exactly one
reply, which :meth:`RankWorkers.gather` always collects.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import signal
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List

import numpy as np

from ..autodiff import arena
from ..md.neighborlist import prune_to_cutoff
from ..obs import MONOTONIC
from .decomposition import DomainDecomposition, RankShard

_ROW_BYTES = 3 * 8


class RankFailure(RuntimeError):
    """A rank lost during a force evaluation (injected, or a dead worker)."""

    def __init__(self, rank: int) -> None:
        super().__init__(f"rank {rank} failed")
        self.rank = rank


def evaluate_shard(evaluator, shard: RankShard, cutoff):
    """One rank's force call: ``(energy, local forces, edges, seconds)``.

    The skinned list is pruned to ``cutoff``; ``n_active`` restricts the
    differentiated energy to owned-center rows, so gradients on ghost rows
    are exactly the halo force contributions.
    """
    nl = prune_to_cutoff(shard.nl, shard.positions, shard.species, cutoff)
    t0 = MONOTONIC()
    e_atoms, forces = evaluator.evaluate(
        shard.positions, shard.species, nl, n_active=shard.n_owned
    )
    seconds = MONOTONIC() - t0
    return float(np.sum(e_atoms[: shard.n_owned])), forces, nl.n_edges, seconds


def _view(block: shared_memory.SharedMemory, n_rows: int) -> np.ndarray:
    return np.ndarray((n_rows, 3), np.float64, buffer=block.buf)


def _release(blocks: List[shared_memory.SharedMemory]) -> None:
    for block in blocks:
        block.unlink()
        block.close()


def _engine_report(evaluator, registry, seen: dict) -> dict:
    """The compiled evaluator's stats and what changed in its registry
    instruments since ``seen`` (which is updated)."""
    snap = registry.snapshot("engine.")
    counters = {
        key: value - seen["counters"].get(key, 0)
        for key, value in snap["counters"].items()
        if value != seen["counters"].get(key)
    }
    gauges = {
        key: value
        for key, value in snap["gauges"].items()
        if value != seen["gauges"].get(key)
    }
    seen.update(counters=snap["counters"], gauges=snap["gauges"])
    return {"engine": evaluator.stats(), "counters": counters, "gauges": gauges}


def _serve(conn, inherited, rank, potential, engine, registry, cutoffs) -> None:
    """A worker's loop: one reply per message, until ``None`` or EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the driver stops its ranks
    for other in inherited:  # the driver's ends of other pipes
        other.close()
    arena.reset()  # this process's counters are this rank's alone
    list_cutoff, cutoff = cutoffs
    evaluator = potential
    if engine == "compiled":
        from ..engine import CompiledPotential

        # On the forked copy of the driver's registry: the counters go on
        # from the driver's values, as they would on the one shared tree.
        seen = registry.snapshot("engine.")
        evaluator = CompiledPotential(
            potential, registry=registry, labels={"rank": str(rank)}
        )
    shard = forces = None
    blocks: List[shared_memory.SharedMemory] = []
    while True:
        try:
            msg = conn.recv()
        except EOFError:  # the driver is gone
            return
        if msg is None:
            return
        try:
            if msg[0] == "shard":
                shard = forces = None
                for block in blocks:
                    block.close()
                _, shard, names = msg
                blocks = [shared_memory.SharedMemory(name) for name in names]
                shard.positions = _view(blocks[0], shard.n_local)
                forces = _view(blocks[1], shard.n_local)
                reply = None
                if shard.nl is None:
                    reply = shard.nl = DomainDecomposition.local_neighbor_list(
                        shard, list_cutoff, potential.half_list
                    )
            else:
                energy, local_f, n_edges, seconds = evaluate_shard(
                    evaluator, shard, cutoff
                )
                forces[...] = local_f
                report = {"tape_arena": arena.stats()}
                if engine == "compiled":
                    report.update(_engine_report(evaluator, registry, seen))
                reply = (energy, n_edges, seconds, report)
        except Exception as exc:  # the driver re-raises it, in rank order
            reply = exc
        conn.send(reply)


def _stop(procs: dict, blocks: dict, shards: list, forces: dict) -> None:
    """Stop every worker and free every block (``close`` / finalizer)."""
    for _, conn in procs.values():
        try:
            conn.send(None)
        except OSError:
            pass
    for rank in list(procs):
        _stop_worker(procs, rank, timeout=1.0)
    _detach(shards)
    forces.clear()
    for pair in blocks.values():
        _release(pair)
    blocks.clear()


def _stop_worker(procs: dict, rank: int, timeout: float) -> None:
    proc, conn = procs.pop(rank)
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join()
    proc.close()
    conn.close()


def _detach(shards: list) -> None:
    """Give dispatched shards private positions before their blocks go."""
    for shard in shards:
        shard.positions = np.array(shard.positions)
    shards.clear()


class RankWorkers:
    """The processes of ranks 1…R−1 and their shared blocks, driver side.

    :meth:`post` sends a rank one message (forking its process first if it
    has none); :meth:`gather` collects one reply per posted message, in the
    order given, returning a lost worker as :class:`RankFailure` and a
    worker's exception as itself.  ``forces[rank]`` is the rank's local
    force block from its last step.
    """

    def __init__(self, potential, engine: str, registry, cutoffs) -> None:
        self._args = (potential, engine, registry, cutoffs)
        self._registry = registry
        self._procs: Dict[int, tuple] = {}  # rank -> (process, connection)
        self._blocks: Dict[int, list] = {}  # rank -> [positions, forces]
        self._shards: list = []  # the shards whose positions are blocks
        self.forces: Dict[int, np.ndarray] = {}
        self.tape_arena: Dict[int, dict] = {}
        self.engine: Dict[int, dict] = {}
        self._finalizer = weakref.finalize(
            self, _stop, self._procs, self._blocks, self._shards, self.forces
        )

    def close(self) -> None:
        """Stop the workers and unlink the blocks (idempotent)."""
        self._finalizer()

    def _require_open(self) -> None:
        if not self._finalizer.alive:
            raise RuntimeError("the parallel evaluator is closed")

    def _fork(self, rank: int) -> None:
        self._require_open()
        ctx = mp.get_context("fork")
        # One tracker for every block, started before the fork so workers
        # share it instead of each starting their own.
        resource_tracker.ensure_running()
        conn, child = ctx.Pipe()
        inherited = [c for _, c in self._procs.values()] + [conn]
        proc = ctx.Process(
            target=_serve,
            args=(child, inherited, rank, *self._args),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[rank] = (proc, conn)

    def post(self, rank: int, msg) -> None:
        if rank not in self._procs:
            self._fork(rank)
        try:
            self._procs[rank][1].send(msg)
        except OSError:  # a dead worker: gather reads EOF for its reply
            pass

    def post_shards(self, shards: List[RankShard]) -> None:
        """Move each shard's positions into fresh blocks and hand the shard
        to its rank; the reply is the neighbor list the worker built, if
        the shard had none.  The shards handed over before keep private
        copies of their positions."""
        self._require_open()
        _detach(self._shards)
        for shard in shards:
            blocks = [
                shared_memory.SharedMemory(
                    create=True, size=max(shard.n_local * _ROW_BYTES, 1)
                )
                for _ in range(2)
            ]
            positions = _view(blocks[0], shard.n_local)
            positions[...] = shard.positions
            shard.positions = positions
            self._shards.append(shard)
            self.forces[shard.rank] = _view(blocks[1], shard.n_local)
            _release(self._blocks.pop(shard.rank, []))
            self._blocks[shard.rank] = blocks
            names = [block.name for block in blocks]
            bare = dataclasses.replace(shard, positions=None)
            self.post(shard.rank, ("shard", bare, names))

    def gather(self, ranks) -> list:
        """One reply per rank in ``ranks`` (a failure as its exception)."""
        out = []
        for rank in ranks:
            try:
                out.append(self._procs[rank][1].recv())
            except (EOFError, OSError):
                out.append(RankFailure(rank))
        return out

    def absorb(self, rank: int, report: dict) -> None:
        """Mirror a step reply's counters into the driver's view."""
        self.tape_arena[rank] = report["tape_arena"]
        if "engine" in report:
            self.engine[rank] = report["engine"]
            for key, n in report["counters"].items():
                self._registry.counter(key).inc(n)
            for key, x in report["gauges"].items():
                self._registry.gauge(key).set(x)

    def replace(self, rank: int) -> None:
        """Terminate ``rank``'s process; the next post forks a new one (the
        replacement node arrives empty)."""
        self.tape_arena.pop(rank, None)
        self.engine.pop(rank, None)
        if rank in self._procs:
            self._procs[rank][0].terminate()
            _stop_worker(self._procs, rank, timeout=None)
