"""Compiled-engine equivalence: replay must be *bitwise* eager in float64.

The engine's contract (DESIGN.md, paper §V-C) is stronger than allclose:
eager op sites and compiled replay execute the same forward kernels, and the
matmul/einsum kernels are invariant to trailing row padding, so a replayed
plan — padded buffers, rebound neighbor lists and all — reproduces the eager
tape bit for bit.  These tests pin that down for every potential family,
plus the capacity-overflow/recapture machinery and the engine modes of the
serial and parallel MD drivers.
"""

import sys
import threading

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff.kernels import matmulk
from repro.engine import BufferArena, CompiledPotential, capture
from repro.engine.plan import KERNEL_CLASSES
from repro.md import Cell, LangevinThermostat, System, neighbor_list
from repro.md.neighborlist import VerletList, model_cutoff, prune_to_cutoff
from repro.md.simulation import Simulation
from repro.models import (
    AllegroConfig,
    AllegroModel,
    ClassicalConfig,
    ClassicalForceField,
    DeepMDConfig,
    DeepMDModel,
    LennardJones,
    MorsePotential,
    NequIPConfig,
    NequIPModel,
    ZBLRepulsion,
)
from repro.parallel.driver import ParallelForceEvaluator, ParallelSimulation
from repro.parallel.topology import ProcessGrid


def with_shifts(pot, mu=(-5.0, -3.0)):
    """``pot`` with per-species shifts μ, where it has a scale/shift: an
    energy every atom carries whatever its neighbors."""
    if hasattr(pot, "scale_shift"):
        pot.scale_shift.shifts.data[:] = mu
    return pot


def make_potential(name, n_species=2):
    if name == "allegro_shifted":
        return with_shifts(make_potential("allegro", n_species))
    if name == "allegro":
        return AllegroModel(
            AllegroConfig(
                n_species=n_species,
                n_tensor=4,
                latent_dim=16,
                two_body_hidden=(16,),
                latent_hidden=(16,),
                edge_energy_hidden=(8,),
                r_cut=3.5,
                avg_num_neighbors=10.0,
            )
        )
    if name == "nequip":
        return NequIPModel(NequIPConfig(n_species=n_species, n_features=4, n_layers=2))
    if name == "deepmd":
        return DeepMDModel(DeepMDConfig(n_species=n_species))
    if name == "classical":
        return ClassicalForceField(ClassicalConfig(n_species=n_species))
    if name == "lj":
        return LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=n_species)
    if name == "morse":
        D = np.full((n_species, n_species), 0.4)
        a = np.full((n_species, n_species), 1.6)
        r0 = np.full((n_species, n_species), 1.4)
        return MorsePotential(D, a, r0, cutoff=3.5)
    if name == "zbl":
        return ZBLRepulsion(np.array([8.0, 1.0]), cutoff=2.0)
    raise ValueError(name)


ALL_MODELS = [
    "allegro", "nequip", "deepmd", "classical", "lj", "morse", "allegro_shifted", "zbl",
]


def make_system(rng, n=14, box=9.0):
    pos = rng.uniform(0, box, size=(n, 3))
    spec = rng.integers(0, 2, size=n)
    return System(pos, spec, Cell.cubic(box))


def build_nl(pot, system):
    """Model-prepared list when available (per-pair pruning), plain otherwise."""
    prepare = getattr(pot, "prepare_neighbors", None)
    if prepare is not None:
        return prepare(system)
    return neighbor_list(system, pot.cutoff)


@pytest.fixture
def rng():
    return np.random.default_rng(711)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_compiled_replay_is_bitwise_eager(self, name, rng):
        """Replay (including rebinds on new geometries) == eager, bitwise."""
        pot = make_potential(name)
        cm = pot.compile()
        system = make_system(rng)
        for trial in range(4):
            if trial:
                system.positions += rng.normal(scale=0.08, size=system.positions.shape)
            nl = build_nl(pot, system)
            e_eager, f_eager = pot.energy_and_forces(system, nl)
            e_c, f_c = cm.energy_and_forces(system, nl)
            assert e_c == e_eager, f"{name}: energy drift on trial {trial}"
            np.testing.assert_array_equal(
                f_c, f_eager, err_msg=f"{name}: force drift on trial {trial}"
            )
        stats = cm.stats()
        assert stats["n_captures"] >= 1
        assert stats["n_replays"] == 4  # every call replays (capture included)

    def test_replay_follows_rebuilt_neighbor_list(self, rng):
        """Edge-count changes within capacity rebind, never recapture."""
        pot = make_potential("lj")
        cm = pot.compile()
        system = make_system(rng, n=20, box=8.0)
        edge_counts = set()
        for _ in range(6):
            system.positions += rng.normal(scale=0.15, size=system.positions.shape)
            nl = build_nl(pot, system)
            edge_counts.add(nl.n_edges)
            e_eager, f_eager = pot.energy_and_forces(system, nl)
            e_c, f_c = cm.energy_and_forces(system, nl)
            assert e_c == e_eager
            np.testing.assert_array_equal(f_c, f_eager)
        assert len(edge_counts) > 1  # the test actually exercised fluctuation
        assert cm.stats()["n_captures"] <= 2

    def test_compiled_does_not_mutate_eager_results(self, rng):
        """Arrays returned by evaluate() stay valid across later replays."""
        pot = make_potential("morse")
        cm = pot.compile()
        system = make_system(rng)
        nl = build_nl(pot, system)
        e1, f1 = cm.energy_and_forces(system, nl)
        f1_copy = f1.copy()
        system.positions += 0.05
        nl2 = build_nl(pot, system)
        cm.energy_and_forces(system, nl2)
        np.testing.assert_array_equal(f1, f1_copy)



class TestZeroEdgeGraph:
    """An empty neighbor list is an ordinary graph with zero edges: an atom
    without neighbors gets the energy it gets inside any structure — its
    per-species shift μ_Z, or NequIP's per-atom readout — on every path."""

    @staticmethod
    def structures():
        """A lone atom, the same atom far from a bonded pair, and a
        two-atom structure whose atoms are out of each other's reach."""
        far = np.array([20.0, 21.0, 22.0])
        lone = System(far[None], np.array([1]), Cell.cubic(50.0))
        bonded = System(
            np.array([[1.0, 1.0, 1.0], [2.1, 1.4, 1.2], far]),
            np.array([0, 1, 1]),
            Cell.cubic(50.0),
        )
        apart = System(np.array([[1.0, 1.0, 1.0], far]), np.array([0, 1]), Cell.cubic(50.0))
        return lone, bonded, apart

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_a_lone_atom_is_the_same_atom_inside_a_structure(self, name):
        from repro.serve import Client, ForceServer

        pot = with_shifts(make_potential(name))
        lone, bonded, apart = self.structures()
        nl = pot.prepare_neighbors(bonded)
        assert pot.prepare_neighbors(lone).n_edges == 0
        assert pot.prepare_neighbors(apart).n_edges == 0
        assert nl.n_edges > 0 and not np.isin(2, nl.edge_index)
        want = pot.evaluate(bonded.positions, bonded.species, nl)[0][2]
        assert pot.compile().evaluate(bonded.positions, bonded.species, nl)[0][2] == want
        assert pot.energy_and_forces(lone)[0] == want
        assert pot.compile().energy_and_forces(lone)[0] == want
        for engine in ("eager", "compiled"):
            with ForceServer(pot, n_workers=1, engine=engine) as server:
                assert Client(server).evaluate(lone)[0] == want, engine

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_served_mixed_zero_edge_batch_is_eager(self, name):
        """One batch of zero-edge and non-empty structures, served on either
        engine, is what each structure gets on its own, bit for bit."""
        from repro.serve import ForceServer

        pot = with_shifts(make_potential(name))
        lone, bonded, apart = self.structures()
        systems = [lone, make_system(np.random.default_rng(3)), apart, bonded]
        for engine in ("eager", "compiled"):
            with ForceServer(pot, n_workers=1, max_batch=8, engine=engine, start=False) as server:
                server.start(workers=False)
                futures = [server.submit(s) for s in systems]
                server.start()
                served = [f.result(timeout=120) for f in futures]
                assert server.stats()["counters"]["batches"] == 1
            for system, (e, f) in zip(systems, served):
                e0, f0 = pot.energy_and_forces(system)
                assert e == e0, engine
                np.testing.assert_array_equal(f, f0)

class TestCapacityOverflow:
    def test_growth_triggers_recapture_and_stays_exact(self, rng):
        pot = make_potential("lj")
        cm = pot.compile()
        captures = []
        for n in (10, 24, 40):
            system = make_system(rng, n=n, box=9.0)
            nl = build_nl(pot, system)
            e_eager, f_eager = pot.energy_and_forces(system, nl)
            e_c, f_c = cm.energy_and_forces(system, nl)
            assert e_c == e_eager
            np.testing.assert_array_equal(f_c, f_eager)
            captures.append(cm.stats()["n_captures"])
        assert captures == [1, 2, 3]
        assert cm.stats()["recaptures"] == 2

    def test_shrink_replays_within_padding(self, rng):
        """Smaller systems fit the captured capacity: replay, no recapture."""
        pot = make_potential("lj")
        cm = pot.compile()
        for n in (40, 24, 10):
            system = make_system(rng, n=n, box=9.0)
            nl = build_nl(pot, system)
            e_eager, f_eager = pot.energy_and_forces(system, nl)
            e_c, f_c = cm.energy_and_forces(system, nl)
            assert e_c == e_eager
            np.testing.assert_array_equal(f_c, f_eager)
        assert cm.stats()["n_captures"] == 1

    def test_exact_fit_recaptures_on_any_size_change(self, rng):
        """padding=None (Fig. 5 unpadded baseline): every new shape recaptures,
        results stay bitwise eager."""
        pot = make_potential("lj")
        cm = pot.compile(padding=None)
        assert cm.exact_fit
        counts = []
        for n in (24, 10, 24):  # shrink AND regrow both count as new shapes
            system = make_system(rng, n=n, box=9.0)
            nl = build_nl(pot, system)
            e_eager, f_eager = pot.energy_and_forces(system, nl)
            e_c, f_c = cm.energy_and_forces(system, nl)
            assert e_c == e_eager
            np.testing.assert_array_equal(f_c, f_eager)
            counts.append(cm.stats()["n_captures"])
        assert counts == [1, 2, 3]

    def test_explicit_capacity_skips_warmup_recapture(self, rng):
        pot = make_potential("lj")
        cm = pot.compile(capacity=64, pair_capacity=2048)
        for n in (10, 24, 40):
            system = make_system(rng, n=n, box=9.0)
            nl = build_nl(pot, system)
            cm.energy_and_forces(system, nl)
        assert cm.stats()["n_captures"] == 1


def warm_up_until_settled(sim, quiet, limit=20_000):
    """Step ``sim`` until the pair count's running maximum has not moved for
    ``quiet`` steps: ``(steps run, the maximum, the system where it was set)``."""
    peak, since, steps = -1, 0, 0
    while since < quiet:
        assert steps < limit, "the pair count never settled"
        count = int(sim.run(1).pair_counts[0])
        steps += 1
        if count > peak:
            peak, since, frame = count, 0, sim.system.copy()
        else:
            since += 1
    return steps, peak, frame


class TestWarmMDZeroRecaptures:
    #: Steps the running maximum must hold still; the seeds are 1-4.  At
    #: 1 000, 64 seeds (32 on half lists, 32 on full) never recaptured.
    QUIET = 1000

    def test_fluctuating_pair_md_never_recaptures_after_warmup(self):
        """The §V-C acceptance property: warm compiled MD does 0 recaptures.

        The force call sees the pairs inside the cutoff, whose count
        changes every step, so the system must be stationary: the
        supercritical LJ gas (kT > ε) of Fig. 5's real-engine run, whose
        density does not drift.  The warm-up runs until the count's running
        maximum has held for ``QUIET`` steps, and the engine warms on it:
        its first capture is at that maximum, with the 5% headroom.  From
        the end of the warm-up the headroom absorbs every fluctuation.
        (An engine that warmed by its own ratchet keeps the capacity of an
        early record, which the maximum may creep up to: that recaptured
        on ~3% of seeds even after 2 000 quiet steps.)
        """
        for seed in (1, 2, 3, 4):
            self._warm_run(seed)

    def _warm_run(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        system = System(
            rng.uniform(0, 7.2, (n, 3)), rng.integers(0, 2, n), Cell.cubic(7.2)
        )
        system.seed_velocities(300.0, rng)
        pot = LennardJones(epsilon=0.02, sigma=1.0, cutoff=3.0, n_species=2)
        thermostat = LangevinThermostat(300.0, friction=0.05, seed=seed)
        sim = Simulation(system, pot, dt=0.5, skin=0.3, thermostat=thermostat)
        _, peak, frame = warm_up_until_settled(sim, self.QUIET)
        cm = pot.compile()
        nl = VerletList(pot.cutoff, skin=0.0, half=pot.half_list).get(frame)
        assert nl.n_edges == peak
        cm.energy_and_forces(frame, nl)
        warm = Simulation(sim.system, cm, dt=0.5, skin=0.3, thermostat=thermostat)
        warm.set_state(sim.get_state())
        result = warm.run(500)
        assert len(set(result.pair_counts.tolist())) > 1  # pairs fluctuated
        assert cm.stats()["n_captures"] == 1


class TestSimulationEngineMode:
    def test_compiled_trajectory_bitwise_matches_eager(self, rng):
        pot = make_potential("morse")

        def mk():
            r = np.random.default_rng(5)
            s = make_system(r, n=24, box=8.5)
            s.velocities = r.normal(scale=0.02, size=(24, 3))
            return s

        s_e, s_c = mk(), mk()
        r_e = Simulation(s_e, pot, dt=0.5, engine="eager").run(25)
        sim_c = Simulation(s_c, pot, dt=0.5, engine="compiled")
        r_c = sim_c.run(25)
        np.testing.assert_array_equal(r_c.potential_energies, r_e.potential_energies)
        np.testing.assert_array_equal(s_c.positions, s_e.positions)
        assert sim_c.engine_stats()["n_replays"] >= 25

    def test_precompiled_potential_is_accepted(self, rng):
        pot = make_potential("lj")
        system = make_system(rng, n=16, box=8.0)
        sim = Simulation(system, pot.compile(capacity=32))
        assert sim.engine == "compiled"
        sim.run(3)
        assert sim.engine_stats()["n_replays"] >= 3

    def test_unknown_engine_rejected(self, rng):
        with pytest.raises(ValueError, match="engine"):
            Simulation(make_system(rng), make_potential("lj"), engine="jit")


class TestParallelEngineMode:
    def test_compiled_parallel_forces_match_serial_eager(self, rng):
        pot = make_potential("lj")
        system = make_system(rng, n=48, box=9.0)
        e_serial, f_serial = pot.energy_and_forces(system)

        grid = ProcessGrid.create(4, system.cell)
        ev = ParallelForceEvaluator(pot, grid, engine="compiled")
        e_par, f_par, _ = ev.compute(system.copy())
        assert e_par == pytest.approx(e_serial, abs=1e-10)
        np.testing.assert_allclose(f_par, f_serial, atol=1e-10)

        stats = ev.engine_stats()
        assert stats["n_captures"] >= 1
        assert set(stats["per_rank"]) <= set(range(4))

    def test_compiled_parallel_is_bitwise_eager_parallel(self, rng):
        """Per-shard replay == per-shard tape ⇒ identical assembled forces."""
        pot = make_potential("morse")
        system = make_system(rng, n=40, box=8.0)
        grid = ProcessGrid.create(4, system.cell)
        e_e, f_e, _ = ParallelForceEvaluator(pot, grid, engine="eager").compute(
            system.copy()
        )
        e_c, f_c, _ = ParallelForceEvaluator(pot, grid, engine="compiled").compute(
            system.copy()
        )
        assert e_c == e_e
        np.testing.assert_array_equal(f_c, f_e)

    def test_parallel_simulation_engine_passthrough(self, rng):
        pot = make_potential("lj")

        def mk():
            r = np.random.default_rng(9)
            s = make_system(r, n=32, box=8.5)
            s.velocities = r.normal(scale=0.02, size=(32, 3))
            return s

        r_e = ParallelSimulation(mk(), pot, n_ranks=2, engine="eager").run(10)
        ps = ParallelSimulation(mk(), pot, n_ranks=2, engine="compiled")
        r_c = ps.run(10)
        np.testing.assert_array_equal(r_c.potential_energies, r_e.potential_energies)
        assert ps.evaluator.engine_stats()["n_replays"] > 0


def per_pair_allegro():
    """Allegro with an ordered per-species-pair cutoff matrix (§V-B4)."""
    return AllegroModel(
        AllegroConfig(
            n_species=2,
            n_tensor=4,
            latent_dim=16,
            two_body_hidden=(16,),
            latent_hidden=(16,),
            edge_energy_hidden=(8,),
            r_cut=3.5,
            per_pair_cutoffs=np.array([[3.5, 2.2], [2.8, 3.1]]),
            avg_num_neighbors=10.0,
        )
    )


def oracle_potential(name):
    return per_pair_allegro() if name == "allegro_pair_cutoffs" else make_potential(name)


class TestPruneExactness:
    """MD hands the model only the pairs of its skinned list inside the
    cutoff, and that is exact: a pair beyond r_c contributes exact zeros
    through every model's envelope (strict locality), so the skinned and
    the pruned list give the same bits — eager, compiled and N-rank."""

    SKIN = 0.8

    @pytest.mark.parametrize("name", ALL_MODELS + ["allegro_pair_cutoffs"])
    def test_pruned_list_is_bitwise_the_skinned_one(self, name, rng):
        pot = oracle_potential(name)
        system = make_system(rng, n=60, box=10.0)
        skinned = neighbor_list(system, pot.cutoff + self.SKIN)
        pruned = prune_to_cutoff(
            skinned, system.positions, system.species, model_cutoff(pot)
        )
        assert 0 < pruned.n_edges < skinned.n_edges
        for evaluator in (pot, pot.compile()):
            e_s, f_s = evaluator.energy_and_forces(system, skinned)
            e_p, f_p = evaluator.energy_and_forces(system, pruned)
            assert e_p == e_s, name
            np.testing.assert_array_equal(f_p, f_s, err_msg=name)

    @pytest.mark.parametrize("name", ["lj", "allegro_pair_cutoffs"])
    def test_pairs_at_the_cutoff_are_never_dropped_while_counted_inside(self, name):
        """Pairs within 1e-12 Å of r_c, on both sides: the model may count
        them inside, so the prune keeps every one; a pair past the margin
        is dropped, and the model gave it nothing."""
        pot = oracle_potential(name)
        cutoff = model_cutoff(pot)
        rng = np.random.default_rng(3)
        direction = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        for si, sj in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rc = cutoff[si, sj] if np.ndim(cutoff) else cutoff
            for delta in np.concatenate([np.linspace(-1e-12, 1e-12, 21), [1e-8]]):
                origin = rng.uniform(4.0, 6.0, 3)
                system = System(
                    np.stack([origin, origin + (rc + delta) * direction]),
                    np.array([si, sj]),
                    Cell.cubic(20.0),
                )
                skinned = neighbor_list(system, pot.cutoff + self.SKIN)
                pruned = prune_to_cutoff(
                    skinned, system.positions, system.species, cutoff
                )
                i_to_j = (skinned.edge_index[0] == 0).nonzero()[0]
                kept = (pruned.edge_index[0] == 0).any()
                assert kept == (delta < 1e-9), (si, sj, delta)
                assert len(i_to_j) == 1
                e_s, f_s = pot.energy_and_forces(system, skinned)
                e_p, f_p = pot.energy_and_forces(system, pruned)
                assert e_p == e_s, (si, sj, delta)
                np.testing.assert_array_equal(f_p, f_s)

    @pytest.mark.parametrize("name", ["lj", "allegro_pair_cutoffs"])
    def test_four_rank_forces_follow_the_per_step_prune(self, name):
        """Every step, between rebuilds too, the shards evaluate their
        pruned lists and the assembled forces match serial."""
        pot = oracle_potential(name)
        rng = np.random.default_rng(17)
        grid = np.stack(
            np.meshgrid(*[np.arange(5) * 2.0] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        system = System(
            grid + rng.normal(scale=0.05, size=grid.shape),
            rng.integers(0, 2, len(grid)),
            Cell.cubic(10.0),
        )
        system.seed_velocities(300.0, rng)
        sim = ParallelSimulation(system, pot, n_ranks=4, dt=0.5, skin=0.4)
        worst, shard_lists = [], set()

        def check(step, s):
            _, f_serial = pot.energy_and_forces(s.system)
            worst.append(np.abs(s._forces - f_serial).max())
            work = s.last_stats
            assert (work.n_edges <= work.n_candidates).all()
            assert work.n_edges.sum() < work.n_candidates.sum()
            shard_lists.add(id(s.evaluator._shards))

        sim.add_callback(check)
        sim.run(8)
        assert max(worst) <= 1e-10
        assert len(shard_lists) < 8  # steps without a rebuild were checked
        counters = sim.stats()["counters"]
        assert counters["md.candidate_pairs"] > counters["md.pairs"]

    def test_counters_and_span_carry_both_sizes(self, rng):
        """``md.pairs`` counts evaluated pairs, ``md.candidate_pairs`` and
        the ``md.neighbor`` span's ``candidates`` the skinned list."""
        from repro import obs
        from repro.obs import Tracer

        pot = make_potential("lj")
        system = make_system(rng, n=40, box=9.0)
        tracer = Tracer(enabled=True, max_traces=64)
        old = obs.set_tracer(tracer)
        try:
            sim = Simulation(system, pot, dt=0.5, skin=0.4)
            res = sim.run(5)
        finally:
            obs.set_tracer(old)
        counters = sim.stats()["counters"]
        assert counters["md.pairs"] < counters["md.candidate_pairs"]
        # The seeding force call's span is a root, each step's a child.
        roots = tracer.export()["traces"]
        seed = [r["counters"] for r in roots if r["name"] == "md.neighbor"]
        steps = [
            c["counters"]
            for r in roots
            if r["name"] == "md.step"
            for c in r["children"]
            if c["name"] == "md.neighbor"
        ]
        assert len(seed) == 1 and len(steps) == 5
        assert [c["pairs"] for c in steps] == res.pair_counts.tolist()
        neighbor = seed + steps
        assert sum(c["pairs"] for c in neighbor) == counters["md.pairs"]
        assert sum(c["candidates"] for c in neighbor) == counters["md.candidate_pairs"]


class TestConcurrentCapture:
    """Recapture-on-overflow under concurrent callers (the serving regime).

    The contract: capture, bind and replay run under one lock per compiled
    potential, and the capacity test is made under it, so a burst of
    concurrent cold-start or overflow callers performs *exactly one*
    capture, the rest replay that plan in turn, and every caller's result
    is bitwise eager.
    """

    N_THREADS = 8

    def _burst(self, cm, system, nl):
        barrier = threading.Barrier(self.N_THREADS)
        results, errors = [], []

        def work():
            try:
                barrier.wait()
                results.append(cm.energy_and_forces(system, nl))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        return results

    def test_concurrent_cold_start_captures_once(self, rng):
        pot = make_potential("lj")
        cm = pot.compile()
        system = make_system(rng, n=20, box=8.0)
        nl = build_nl(pot, system)
        e0, f0 = pot.energy_and_forces(system, nl)
        results = self._burst(cm, system, nl)
        # One capture total — not one per thread racing into the cold start.
        assert cm.n_captures == 1
        assert cm.n_replays == self.N_THREADS
        # Identical inputs ⇒ every thread saw the eager answer.
        for e, f in results:
            assert e == e0
            np.testing.assert_array_equal(f, f0)

    def test_concurrent_overflow_recaptures_once(self, rng):
        pot = make_potential("lj")
        cm = pot.compile()
        small = make_system(rng, n=8, box=8.0)
        cm.energy_and_forces(small, build_nl(pot, small))
        assert cm.n_captures == 1
        big = make_system(rng, n=40, box=9.0)
        nl_big = build_nl(pot, big)
        e0, f0 = pot.energy_and_forces(big, nl_big)
        results = self._burst(cm, big, nl_big)
        # The overflow burst recaptured exactly once, and every caller in
        # the burst (the capturer and those replaying after it) got the
        # eager answer.
        assert cm.n_captures == 2
        for e, f in results:
            assert e == e0
            np.testing.assert_array_equal(f, f0)
        # Post-burst state is consistent: a serial call is bitwise eager.
        e, f = cm.energy_and_forces(big, nl_big)
        assert e == e0
        np.testing.assert_array_equal(f, f0)
        assert cm.n_captures == 2

    def test_concurrent_distinct_inputs_bitwise(self, rng):
        """Interleaved callers with different structures never cross-talk."""
        pot = make_potential("lj")
        cm = pot.compile()
        systems = [make_system(rng, n=12 + 2 * k, box=8.0) for k in range(4)]
        cases = [(s, build_nl(pot, s)) for s in systems]
        expected = [pot.energy_and_forces(s, nl) for s, nl in cases]
        for s, nl in cases:  # warm: capacity then covers every size
            cm.energy_and_forces(s, nl)
        warm_captures = cm.n_captures
        warm_replays = cm.n_replays
        barrier = threading.Barrier(len(cases))
        failures = []

        def work(k):
            system, nl = cases[k]
            e0, f0 = expected[k]
            try:
                barrier.wait()
                for _ in range(10):
                    e, f = cm.energy_and_forces(system, nl)
                    assert e == e0
                    np.testing.assert_array_equal(f, f0)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(len(cases))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        # The warm capacity served every thread; concurrency showed up as
        # callers taking turns on the one plan, not as recaptures.
        assert cm.n_captures == warm_captures
        assert cm.n_replays == warm_replays + 10 * len(cases)

    def test_invalidate_during_concurrent_evaluate(self, rng):
        """``invalidate()`` may race evaluations: it waits for the call in
        flight, and whoever comes next recaptures."""
        pot = make_potential("lj")
        cm = pot.compile()
        system = make_system(rng, n=20, box=8.0)
        nl = build_nl(pot, system)
        e0, f0 = pot.energy_and_forces(system, nl)
        barrier = threading.Barrier(self.N_THREADS + 1)
        done = threading.Event()
        results, errors = [], []

        def work():
            try:
                barrier.wait()
                for _ in range(5):
                    results.append(cm.energy_and_forces(system, nl))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def invalidate():
            barrier.wait()
            while not done.is_set():
                cm.invalidate()

        workers = [threading.Thread(target=work) for _ in range(self.N_THREADS)]
        invalidator = threading.Thread(target=invalidate)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside evaluate()
        try:
            for t in workers + [invalidator]:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            done.set()
            invalidator.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers + [invalidator])
        assert not errors
        assert len(results) == 5 * self.N_THREADS
        assert cm.n_replays == 5 * self.N_THREADS  # no lost update
        for e, f in results:
            assert e == e0
            np.testing.assert_array_equal(f, f0)
        cm.invalidate()
        captures = cm.n_captures
        e, f = cm.energy_and_forces(system, nl)
        assert cm.n_captures == captures + 1
        assert e == e0
        np.testing.assert_array_equal(f, f0)

    def test_blocked_matmul_tail_scratch_is_not_shared(self):
        """Concurrent matmuls with equal layer widths never cross-talk.

        The row-blocked matmul zero-pads its tail block in a scratch; a
        scratch shared between threads lets one caller's rows land in
        another's result — a silent break of served ≡ eager (every
        ``ForceServer`` with two workers replays plans of equal widths).
        """
        rng = np.random.default_rng(0)
        b = rng.normal(size=(24, 32))
        inputs = [rng.normal(size=(130 + k, 24)) for k in range(self.N_THREADS)]
        expected = [matmulk(None, a, b) for a in inputs]
        wrong = [0] * self.N_THREADS
        barrier = threading.Barrier(self.N_THREADS)

        def work(k):
            barrier.wait()
            for _ in range(1500):
                if not np.array_equal(matmulk(None, inputs[k], b), expected[k]):
                    wrong[k] += 1

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(self.N_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt inside the scratch's window
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [0] * self.N_THREADS


class TestInferenceModeDiscovery:
    def test_freezable_modules_found_recursively(self):
        """Nested MLPs inside layer lists must be frozen by inference_mode."""
        pot = make_potential("allegro")
        frozen = pot.freezable_modules()
        tps = [m for m in frozen if hasattr(m, "frozen_weights")]
        # The tensor products live inside a per-layer list — only a recursive
        # Module-tree walk discovers them (one per interaction layer).
        assert len(tps) >= 2
        with pot.inference_mode():
            assert all(tp.frozen_weights is not None for tp in tps)
        assert all(tp.frozen_weights is None for tp in tps)


class TestPlanAndArena:
    def test_capture_replays_simple_graph(self):
        a = np.arange(6.0).reshape(3, 2)
        b = np.ones((3, 2))

        def build():
            ta = ad.Tensor(a.copy())
            tb = ad.Tensor(b)
            return (ta * tb + ta).sum()

        outputs, plan = capture(build)
        (total,) = plan.execute()
        assert float(total) == float((a * b + a).sum())

    def test_arena_reuses_buffers_across_shapes(self):
        arena = BufferArena()
        x = arena.acquire((8, 4), np.dtype(np.float64))
        arena.release(x)
        y = arena.acquire((8, 4), np.dtype(np.float64))
        assert y is x
        assert arena.n_reused == 1
        z = arena.acquire((8, 4), np.dtype(np.float64))
        assert z is not y
        assert arena.n_buffers == 2

    def test_plan_arena_is_bounded_across_replays(self, rng):
        """Replaying does not allocate: buffer count is fixed after capture."""
        pot = make_potential("lj")
        cm = pot.compile()
        system = make_system(rng)
        nl = build_nl(pot, system)
        cm.energy_and_forces(system, nl)
        n_buffers = cm.stats()["arena_buffers"]
        for _ in range(5):
            system.positions += rng.normal(scale=0.03, size=system.positions.shape)
            nl = build_nl(pot, system)
            cm.energy_and_forces(system, nl)
        assert cm.stats()["arena_buffers"] == n_buffers

    def test_stats_report_executed_steps(self, rng):
        """``plan_steps`` counts what a replay executes; the arena is static."""
        pot = make_potential("allegro")
        cm = pot.compile()
        system = make_system(rng)
        nl = build_nl(pot, system)
        cm.energy_and_forces(system, nl)
        stats = cm.stats()
        plan = cm.plan
        assert stats["plan_steps"] == plan.n_steps == len(plan._steps)
        assert stats["plan_folded"] > 0 and stats["plan_hoisted"] > 0
        # Every recorded node is executed, folded or hoisted — none lost.
        assert plan.n_steps + plan.n_hoisted == len(plan._program)
        for _ in range(3):
            cm.energy_and_forces(system, nl)
        assert cm.stats()["arena_bytes"] == stats["arena_bytes"]
        assert cm.stats()["plan_steps"] == stats["plan_steps"]

    def test_compile_requires_traced_energies(self):
        class Opaque:
            cutoff = 3.0

            def atomic_energies(self, positions, species, nl):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(TypeError, match="traced_energies"):
            CompiledPotential(Opaque())


class TestPlanBinding:
    """What the plan resolves when it is built: fold, hoist, bind.

    A step is folded only if no rebindable input — leaf buffer or index
    array inside a kernel's static kwargs — is among its ancestors; alias
    steps become views made once; what is left runs with pre-bound
    arguments, so rebinding inputs *in place* is the only way in.
    """

    def test_constant_subgraph_is_folded_input_subgraph_is_not(self):
        x_buf = np.arange(4.0)
        idx_buf = np.array([0, 2, 1, 1], dtype=np.int64)
        table = np.array([10.0, 20.0, 30.0])
        weights = np.array([1.0, 2.0, 3.0])

        def build():
            # Constants only: folded.
            scaled = (ad.Tensor(table) * ad.Tensor(weights)).reshape((3,))
            # Reads idx_buf through ``static`` only (its one parent is the
            # folded constant): must stay live.
            picked = ad.gather(scaled, idx_buf)
            return (picked * ad.Tensor(x_buf)).sum()

        _, plan = capture(build, inputs=[x_buf, idx_buf])
        assert plan.n_folded == 2  # the mul and its reshape
        assert plan.n_steps == 3  # gather, mul, sum
        (r,) = plan.execute()
        assert float(r) == float(((table * weights)[idx_buf] * x_buf).sum())
        idx_buf[:] = [2, 2, 0, 1]
        x_buf[:] = [1.0, -1.0, 0.5, 4.0]
        (r,) = plan.execute()
        assert float(r) == float(((table * weights)[idx_buf] * x_buf).sum())
        # A constant is a constant: overwriting one is not a rebind.
        table[:] = 0.0
        (r2,) = plan.execute()
        assert float(r2) == float(r)

    def test_undeclared_inputs_fold_nothing(self):
        a = np.arange(3.0)

        def build():
            return (ad.Tensor(a) * 2.0).sum()

        _, plan = capture(build)
        assert plan.n_folded == 0
        a[:] = [5.0, 6.0, 7.0]
        (r,) = plan.execute()
        assert float(r) == 36.0

    def test_view_of_an_input_buffer_is_an_input(self):
        buf = np.arange(6.0).reshape(3, 2)

        def build():
            return (ad.Tensor(buf[:, 1]) * 3.0).sum()

        _, plan = capture(build, inputs=[buf])
        assert plan.n_folded == 0
        buf[:] = 1.0
        (r,) = plan.execute()
        assert float(r) == 9.0

    def test_copying_reshape_stays_a_step(self):
        x_buf = np.arange(6.0).reshape(2, 3)

        def build():
            doubled = ad.Tensor(x_buf) * 2.0
            flat_view = doubled.reshape((6,))  # contiguous: a view, hoisted
            flat_copy = doubled.transpose().reshape((6,))  # has to copy
            return flat_view + flat_copy

        _, plan = capture(build, inputs=[x_buf])
        assert plan.n_hoisted == 2  # the view reshape and the transpose
        assert plan.n_steps == 3  # mul, copying reshape, add
        assert plan.profile(1)["alias_folded"]["steps"] == 3
        for trial in range(2):
            x_buf[:] = np.arange(6.0).reshape(2, 3) + trial
            (r,) = plan.execute()
            d = x_buf * 2.0
            np.testing.assert_array_equal(r, d.reshape(6) + d.T.reshape(6))

    def test_operand_read_later_is_never_overwritten(self):
        """An elementwise step reuses an operand's buffer only at its last read."""
        x_buf = np.arange(5.0)

        def build():
            y = ad.Tensor(x_buf) * 2.0
            z = y + 1.0  # y is read again below: must not be overwritten
            w = z * y  # last read of both: may take over either buffer
            return w + 0.5

        _, plan = capture(build, inputs=[x_buf])
        assert plan.arena.n_buffers == 2  # y and z; w and the sum reuse them
        for trial in range(2):
            x_buf[:] = np.arange(5.0) - trial
            (r,) = plan.execute()
            np.testing.assert_array_equal(r, (x_buf * 2.0 + 1.0) * (x_buf * 2.0) + 0.5)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_rebinding_every_input_in_place_is_followed(self, name, rng):
        """New positions, species *and* neighbor list on one captured plan."""
        pot = make_potential(name)
        cm = pot.compile(capacity=24, pair_capacity=600)
        for trial in range(3):
            system = make_system(rng, n=14 + trial)
            nl = build_nl(pot, system)
            assert nl.n_edges <= 600
            e_eager, f_eager = pot.energy_and_forces(system, nl)
            e_c, f_c = cm.energy_and_forces(system, nl)
            assert e_c == e_eager, f"{name}: energy drift on trial {trial}"
            np.testing.assert_array_equal(f_c, f_eager)
        assert cm.n_captures == 1

    def test_profile_accounts_for_every_step(self, rng):
        pot = make_potential("allegro")
        cm = pot.compile()
        system = make_system(rng)
        nl = build_nl(pot, system)
        assert cm.kernel_profile() == {}  # nothing captured yet
        e0, f0 = cm.energy_and_forces(system, nl)
        table = cm.kernel_profile(repeats=2)
        assert tuple(table) == KERNEL_CLASSES
        plan = cm.plan
        executed = sum(r["steps"] for c, r in table.items() if c != "alias_folded")
        assert executed + table["alias_folded"]["steps"] == (
            plan.n_steps + plan.n_folded + plan.n_hoisted
        )
        assert table["tp_contraction"]["steps"] > 0
        assert table["tp_contraction"]["seconds"] > 0.0
        assert table["alias_folded"]["seconds"] == 0.0
        gauges = cm.obs.snapshot()["gauges"]
        assert gauges["engine.kernel_seconds{class=matmul}"] == table["matmul"]["seconds"]
        # Profiling is a replay: the next evaluation is still bitwise.
        e1, f1 = cm.energy_and_forces(system, nl)
        assert e1 == e0
        np.testing.assert_array_equal(f1, f0)
