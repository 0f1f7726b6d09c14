"""Tests for the domain decomposition, virtual cluster, and parallel driver.

The load-bearing assertion: parallel energies/forces equal serial ones for
every rank count — the correctness half of the paper's scalability claim.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.data import water_unit_cell
from repro.md import (
    Cell,
    Simulation,
    System,
    energy_drift_per_atom,
)
from repro.models import AllegroConfig, AllegroModel, LennardJones
from repro.parallel import (
    DomainDecomposition,
    ParallelForceEvaluator,
    ParallelSimulation,
    ProcessGrid,
    VirtualCluster,
)


@pytest.fixture
def rng():
    return np.random.default_rng(101)


def _lj_system(rng, n_side=6, a=1.9):
    g = (
        np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
        * a
    )
    pos = g + rng.normal(scale=0.05, size=g.shape)
    return (
        System(pos, rng.integers(0, 2, len(pos)), Cell.cubic(n_side * a)),
        LennardJones(epsilon=0.01, sigma=1.6, cutoff=3.0, n_species=2),
    )


class TestProcessGrid:
    def test_create_factorizes_all_ranks(self):
        cell = Cell.cubic(10.0)
        for p in (1, 2, 3, 4, 6, 8, 12, 27):
            grid = ProcessGrid.create(p, cell)
            assert grid.n_ranks == p

    def test_cubic_box_prefers_balanced_dims(self):
        grid = ProcessGrid.create(8, Cell.cubic(10.0))
        assert sorted(grid.dims) == [2, 2, 2]

    def test_elongated_box_splits_long_axis(self):
        grid = ProcessGrid.create(4, Cell((40.0, 10.0, 10.0)))
        assert grid.dims == (4, 1, 1)

    def test_coords_roundtrip(self):
        grid = ProcessGrid((2, 3, 2), Cell.cubic(12.0))
        for r in range(grid.n_ranks):
            assert grid.rank_of(grid.coords_of(r)) == r

    def test_neighbors_wrap(self):
        grid = ProcessGrid((2, 1, 1), Cell.cubic(10.0))
        assert grid.neighbor(0, 0, +1) == 1
        assert grid.neighbor(1, 0, +1) == 0

    def test_owner_covers_all_ranks(self, rng):
        grid = ProcessGrid((2, 2, 2), Cell.cubic(10.0))
        owners = grid.owner_of(rng.uniform(0, 10, (500, 3)))
        assert set(owners) == set(range(8))

    def test_domain_bounds_tile_box(self):
        grid = ProcessGrid((2, 2, 1), Cell.cubic(8.0))
        los = np.array([grid.domain_bounds(r)[0] for r in range(4)])
        assert len({tuple(lo) for lo in los}) == 4

    def test_validate_cutoff(self):
        grid = ProcessGrid((4, 1, 1), Cell.cubic(8.0))
        with pytest.raises(ValueError):
            grid.validate_cutoff(3.0)  # subdomain 2 Å < cutoff


class TestVirtualCluster:
    def test_send_recv_roundtrip(self, rng):
        c = VirtualCluster(2)
        payload = (rng.normal(size=(3, 3)),)
        c.send(0, 1, "test", payload)
        (out,) = c.recv(1, 0, "test")
        assert np.allclose(out, payload[0])
        assert c.pending() == 0

    def test_accounting(self, rng):
        c = VirtualCluster(2)
        c.send(0, 1, "halo", (np.zeros(10),))
        assert c.stats.messages["halo"] == 1
        assert c.stats.bytes["halo"] == 80

    def test_self_send_free(self):
        c = VirtualCluster(2)
        c.send(0, 0, "halo", (np.zeros(10),))
        assert c.stats.total_bytes() == 0
        c.recv(0, 0, "halo")

    def test_missing_message_raises(self):
        c = VirtualCluster(2)
        with pytest.raises(RuntimeError):
            c.recv(1, 0, "nothing")

    def test_rank_bounds(self):
        c = VirtualCluster(2)
        with pytest.raises(ValueError):
            c.send(0, 5, "x", (np.zeros(1),))


class TestDecompositionExactness:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
    def test_matches_serial(self, n_ranks, rng):
        system, lj = _lj_system(rng)
        E_s, F_s = lj.energy_and_forces(system)
        grid = ProcessGrid.create(n_ranks, system.cell)
        ev = ParallelForceEvaluator(lj, grid)
        E_p, F_p, stats = ev.compute(system.copy())
        assert E_p == pytest.approx(E_s, rel=1e-10)
        assert np.allclose(F_p, F_s, atol=1e-9)
        assert stats.n_owned.sum() == system.n_atoms

    def test_allegro_matches_serial_with_pair_cutoffs(self, rng):
        w = water_unit_cell()
        ppc = np.full((4, 4), 3.5)
        ppc[0, :] = 1.3
        ppc[0, 0] = 2.8
        model = AllegroModel(
            AllegroConfig(
                n_species=4,
                n_tensor=2,
                latent_dim=8,
                two_body_hidden=(8,),
                latent_hidden=(8,),
                edge_energy_hidden=(4,),
                r_cut=3.5,
                per_pair_cutoffs=ppc,
                avg_num_neighbors=30,
            )
        )
        E_s, F_s = model.energy_and_forces(w)
        ev = ParallelForceEvaluator(model, ProcessGrid.create(4, w.cell))
        E_p, F_p, _ = ev.compute(w.copy())
        assert E_p == pytest.approx(E_s, rel=1e-9)
        assert np.abs(F_p - F_s).max() < 1e-8

    @pytest.mark.parametrize("n_ranks", [2, 4])
    @pytest.mark.parametrize("engine", ["eager", "compiled"])
    def test_rank_with_atoms_but_no_pairs(self, n_ranks, engine):
        """A dilute gas: every rank owns atoms, none has a pair in range."""
        pos = np.array([[2.0, 2, 2], [12, 2, 2], [2, 12, 12], [12, 12, 2]])
        gas = System(pos, np.zeros(4, int), Cell.cubic(20.0))
        lj = LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)
        E_s, F_s = lj.energy_and_forces(gas)
        grid = ProcessGrid.create(n_ranks, gas.cell)
        E_p, F_p, stats = ParallelForceEvaluator(lj, grid, engine=engine).compute(
            gas.copy()
        )
        assert stats.n_edges.sum() == 0 and (stats.n_owned > 0).sum() >= 2
        assert E_p == E_s == 0.0
        assert np.array_equal(F_p, np.zeros((4, 3)))
        assert np.array_equal(F_p, F_s)

    def test_ghosts_only_within_halo(self, rng):
        system, lj = _lj_system(rng)
        grid = ProcessGrid.create(8, system.cell)
        decomp = DomainDecomposition(grid, 3.0)
        shards = decomp.build(system)
        for shard in shards:
            lo, hi = grid.domain_bounds(shard.rank)
            gpos = shard.positions[shard.n_owned :]
            assert np.all(gpos >= lo - 3.0 - 1e-9)
            assert np.all(gpos < hi + 3.0 + 1e-9)

    def test_communication_recorded(self, rng):
        system, lj = _lj_system(rng)
        grid = ProcessGrid.create(8, system.cell)
        ev = ParallelForceEvaluator(lj, grid)
        ev.compute(system.copy())
        assert ev.cluster.stats.bytes["halo_build"] > 0
        assert ev.cluster.stats.bytes["halo_reverse"] > 0

    def test_requires_periodic_cell(self, rng):
        s = System(rng.uniform(0, 5, (10, 3)), np.zeros(10, int), None)
        grid = ProcessGrid.create(2, Cell.cubic(5.0))
        decomp = DomainDecomposition(grid, 1.5)
        with pytest.raises(ValueError):
            decomp.build(s)

    def test_load_balance_reported(self, rng):
        system, lj = _lj_system(rng)
        ev = ParallelForceEvaluator(lj, ProcessGrid.create(8, system.cell))
        _, _, stats = ev.compute(system.copy())
        assert stats.load_imbalance >= 1.0


class TestParallelMD:
    def test_nve_conservation_parallel(self, rng):
        system, lj = _lj_system(rng, n_side=5)
        system.seed_velocities(30.0, rng)
        sim = ParallelSimulation(system, lj, n_ranks=4, dt=0.2)
        res = sim.run(80)
        assert energy_drift_per_atom(res.total_energies, system.n_atoms) < 1e-4

    def test_trajectory_matches_serial(self, rng):
        """Deterministic NVE: parallel and serial trajectories coincide."""
        sys_a, lj = _lj_system(rng, n_side=5)
        sys_a.seed_velocities(20.0, np.random.default_rng(1))
        sys_b = sys_a.copy()
        Simulation(sys_a, lj, dt=0.2, skin=0.4).run(30)
        ParallelSimulation(sys_b, lj, n_ranks=4, dt=0.2, skin=0.4).run(30)
        # Same physics; tiny FP reordering differences may grow chaotically,
        # so compare with a loose tolerance over a short run.
        assert np.abs(sys_a.positions - sys_b.positions).max() < 1e-6

    def test_migration_accounted_over_time(self, rng):
        system, lj = _lj_system(rng, n_side=5)
        system.seed_velocities(400.0, rng)
        sim = ParallelSimulation(system, lj, n_ranks=4, dt=1.0, skin=0.3)
        sim.run(60)
        assert sim.cluster.stats.messages["migrate"] > 0


class TestOneStepLoop:
    """ParallelSimulation runs on Simulation's loop, not a copy of it."""

    def test_defines_no_loop_of_its_own(self):
        assert issubclass(ParallelSimulation, Simulation)
        assert "run" not in vars(ParallelSimulation)
        assert "_run_loop" not in vars(ParallelSimulation)

    def test_callbacks_and_md_counters(self, rng):
        system, lj = _lj_system(rng, n_side=5)
        system.seed_velocities(30.0, rng)
        sim = ParallelSimulation(system, lj, n_ranks=4, dt=0.2)
        sim.run(3)
        seen = []
        sim.add_callback(lambda step, s: seen.append((step, s is sim)))
        res = sim.run(4)
        assert seen == [(4, True), (5, True), (6, True), (7, True)]
        counters = sim.stats()["counters"]
        assert counters["md.steps"] == 7
        assert res.pair_counts[-1] == sim.last_stats.n_edges.sum()
        # md.pairs also counts the force call that seeds the first run.
        fresh = ParallelSimulation(system.copy(), lj, n_ranks=4, dt=0.2)
        fresh.run(0)
        seed_pairs = fresh.stats()["counters"]["md.pairs"]
        more = fresh.run(5)
        assert (
            fresh.stats()["counters"]["md.pairs"]
            == seed_pairs + more.pair_counts.sum()
        )

    def test_dump_path_counters_land_in_sim_registry(self, rng, tmp_path):
        system, lj = _lj_system(rng, n_side=5)
        system.seed_velocities(30.0, rng)
        sim = ParallelSimulation(system, lj, n_ranks=4, dt=0.2)
        sim.run(6, dump_every=2, dump_path=tmp_path / "par.rtrj")
        assert sim.stats()["counters"]["traj.frames_recorded"] == 3


def _our_segments(ev):
    return [block.name for pair in ev._workers._blocks.values() for block in pair]


def _segment_exists(name):
    return Path("/dev/shm", name.lstrip("/")).exists()


class TestStalePositions:
    def test_owned_positions_refresh_on_a_rank_without_ghosts(self):
        """A cluster deep inside one brick has no ghosts on either rank; a
        move below skin/2 must still reach its owner's shard."""
        g = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), -1).reshape(-1, 3)
        system = System(5.0 + 1.7 * g, np.zeros(27, int), Cell.cubic(40.0))
        lj = LennardJones(epsilon=0.05, sigma=1.5, cutoff=3.0)
        ev = ParallelForceEvaluator(lj, ProcessGrid.create(2, system.cell), skin=0.4)
        _, _, work = ev.compute(system)
        assert list(work.n_ghost) == [0, 0]
        system.positions[0] += 0.1  # below skin/2: no rebuild
        e_par, f_par, _ = ev.compute(system)
        e_ser, f_ser = lj.energy_and_forces(system)
        assert np.abs(f_par - f_ser).max() < 1e-12
        assert e_par == pytest.approx(e_ser, rel=1e-12)
        ev.close()


class TestWorkerRanks:
    """Ranks 1…R−1 on forked worker processes, rank 0 in the driver."""

    @pytest.mark.parametrize("model", ["lj", "allegro"])
    def test_worker_rank_is_bitwise_the_in_process_call(self, model, rng):
        from repro.md.neighborlist import model_cutoff
        from repro.parallel.workers import evaluate_shard

        if model == "lj":
            system, pot = _lj_system(rng)
        else:
            system = water_unit_cell()
            pot = AllegroModel(AllegroConfig(
                n_species=4, n_tensor=2, latent_dim=8, two_body_hidden=(8,),
                latent_hidden=(8,), edge_energy_hidden=(4,), r_cut=3.5,
                avg_num_neighbors=30,
            ))
        ev = ParallelForceEvaluator(pot, ProcessGrid.create(4, system.cell))
        ev.compute(system)
        for shard in ev._shards[1:]:
            ev._workers.post(shard.rank, "step")
            energy, n_edges, _, _ = ev._workers.gather([shard.rank])[0]
            e_ref, f_ref, n_ref, _ = evaluate_shard(pot, shard, model_cutoff(pot))
            assert energy == e_ref and n_edges == n_ref > 0
            np.testing.assert_array_equal(ev._workers.forces[shard.rank], f_ref)
        ev.close()

    def test_one_rank_forks_nothing(self, rng):
        system, lj = _lj_system(rng)
        ev = ParallelForceEvaluator(lj, ProcessGrid.create(1, system.cell))
        e, f, _ = ev.compute(system)
        assert ev._workers._procs == {} and _our_segments(ev) == []
        e_ser, f_ser = lj.energy_and_forces(system)
        assert e == pytest.approx(e_ser, rel=1e-12)
        assert np.abs(f - f_ser).max() < 1e-12

    def test_sigkilled_worker_is_a_rank_failure_and_is_reforked(self, rng):
        import os
        import signal

        from repro.parallel import RankFailure

        system, lj = _lj_system(rng)
        grid = ProcessGrid.create(4, system.cell)
        ref = ParallelForceEvaluator(lj, grid, skin=0.4)
        ref.compute(system)
        e_ref, f_ref, _ = ref.compute(system)
        ev = ParallelForceEvaluator(lj, grid, skin=0.4, max_retries=0)
        ev.compute(system)
        proc = ev._workers._procs[2][0]
        pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        proc.join(timeout=10)
        assert not proc.is_alive()
        with pytest.raises(RankFailure) as info:
            ev.compute(system)
        assert info.value.rank == 2
        e, f, _ = ev.compute(system)  # a fresh worker for rank 2
        assert ev._workers._procs[2][0].pid != pid
        assert e == e_ref
        np.testing.assert_array_equal(f, f_ref)
        assert ev.resilience_stats()["n_failures"] == 1
        ref.close()
        ev.close()

    def test_killed_worker_mid_run_matches_an_injected_rank_loss(self, rng):
        """A worker that dies is recovered exactly as an injected rank loss
        at the same step: same retry, same rebuild, same trajectory."""
        import os
        import signal

        from repro.resilience import FaultPlan
        from repro.resilience.faults import RANK_FAIL

        system, lj = _lj_system(rng, n_side=5)
        system.seed_velocities(30.0, np.random.default_rng(3))
        injected = ParallelSimulation(
            system.copy(), lj, n_ranks=4, dt=0.2,
            fault_plan=FaultPlan(at={RANK_FAIL: [6]}),
        )
        injected.run(10)
        killed = ParallelSimulation(system.copy(), lj, n_ranks=4, dt=0.2)

        def kill(step, sim):
            if step == 5:
                proc = sim.evaluator._workers._procs[1][0]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
                assert not proc.is_alive()

        killed.add_callback(kill)
        killed.run(10)
        for sim in (injected, killed):
            stats = sim.evaluator.resilience_stats()
            assert stats["n_failures"] == stats["n_recoveries"] == 1
        np.testing.assert_array_equal(killed.system.positions, injected.system.positions)
        np.testing.assert_array_equal(killed.system.velocities, injected.system.velocities)
        injected.close()
        killed.close()

    def test_close_and_collection_leave_no_process_or_segment(self, rng):
        import gc
        import multiprocessing as mp

        gc.collect()
        assert mp.active_children() == []
        system, lj = _lj_system(rng)
        sim = ParallelSimulation(system, lj, n_ranks=4, dt=0.2)
        sim.run(2)
        assert len(mp.active_children()) == 3
        names = _our_segments(sim.evaluator)
        assert len(names) == 6 and all(_segment_exists(n) for n in names)
        state = sim.get_state()
        sim.close()
        assert mp.active_children() == []
        assert not any(_segment_exists(n) for n in names)
        # what the evaluator holds after close is its own memory
        assert state["shards"][1].positions.base is None
        assert all(s.positions.base is None for s in sim.evaluator._shards[1:])
        with pytest.raises(RuntimeError, match="closed"):
            sim.run(1)

        ev = ParallelForceEvaluator(lj, ProcessGrid.create(4, system.cell))
        ev.compute(system)
        names = _our_segments(ev)
        assert len(mp.active_children()) == 3
        del ev
        gc.collect()
        assert mp.active_children() == []
        assert not any(_segment_exists(n) for n in names)

    def test_compiled_counters_and_arena_match_the_in_process_loop(self):
        """Mirrored worker counters read as the in-process rank loop's did
        (the values below are what that loop gave for this run)."""
        from repro.autodiff import arena

        for engine, captures, scopes in (("compiled", [2, 1, 1, 2], 0), ("eager", None, 84)):
            system, lj = _lj_system(np.random.default_rng(7), n_side=6)
            system.seed_velocities(60.0, np.random.default_rng(8))
            before = arena.stats()["scopes"]
            sim = ParallelSimulation(system, lj, n_ranks=4, dt=0.5, skin=0.4, engine=engine)
            sim.run(20)
            stats = sim.stats()
            assert stats["tape_arena"]["scopes"] - before == scopes
            if captures is None:
                assert sim.engine_stats() is None
            else:
                es = sim.engine_stats()
                assert (es["n_captures"], es["n_replays"], es["recaptures"]) == (6, 84, 2)
                assert sorted(es["per_rank"]) == [0, 1, 2, 3]
                assert [
                    stats["counters"][f"engine.captures{{rank={r}}}"] for r in range(4)
                ] == captures
                assert [es["per_rank"][r]["n_captures"] for r in range(4)] == captures
                for r in range(4):
                    assert stats["gauges"][f"engine.capacity_pairs{{rank={r}}}"] == (
                        es["per_rank"][r]["capacity_pairs"]
                    )
            sim.close()
