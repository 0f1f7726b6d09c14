"""Tests for the domain decomposition, virtual cluster, and parallel driver.

The load-bearing assertion: parallel energies/forces equal serial ones for
every rank count — the correctness half of the paper's scalability claim.
"""

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
