"""Half neighbor lists (LAMMPS ``newton on``): each unordered pair once.

MD drivers evaluate a pair potential whose bond energy is symmetric
(``Potential.half_list``) on a half list: the serial Verlet list keeps edge
i→j when i < j, a rank's shard list when the global ids say so, with the
lattice image breaking the tie of an atom and its own image.  These tests
pin the exactly-once property — serially and as a union over the ranks of
every grid — the forces against full lists, the refusal of every other
model, and checkpoints with and without the flag.
"""

import copy

import numpy as np
import pytest

from repro.md import Cell, LangevinThermostat, System, neighbor_list
from repro.md.neighborlist import NeighborList, VerletList, half_list, prune_to_cutoff
from repro.md.simulation import Simulation
from repro.models import HalfListError, LennardJones, MorsePotential
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.driver import ParallelForceEvaluator, ParallelSimulation
from repro.parallel.topology import ProcessGrid
from repro.resilience import CheckpointManager

from .test_engine import ALL_MODELS, make_potential


def _gas(seed=3, n=240, box=12.0):
    rng = np.random.default_rng(seed)
    cell = Cell.cubic(box)
    pos = cell.wrap(rng.uniform(0, box, (n, 3)))
    return System(pos, rng.integers(0, 2, n), cell)


def _crystal(seed=13, n_cells=5, a=2.31, n_species=2):
    """A jittered fcc crystal near the LJ minimum (σ = 1.5)."""
    rng = np.random.default_rng(seed)
    basis = np.array([[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]])
    cells = np.stack(
        np.meshgrid(*[np.arange(n_cells)] * 3, indexing="ij"), -1
    ).reshape(-1, 1, 3)
    pos = (a * (cells + basis)).reshape(-1, 3)
    pos = pos + rng.normal(scale=0.05, size=pos.shape)
    return System(pos, rng.integers(0, n_species, len(pos)), Cell.cubic(a * n_cells))


def _pair_keys(i, j, image):
    """Each edge as its unordered pair: (lower id, higher id, image from
    the lower to the higher; the positive one of ±image for a self-image)."""
    image = np.asarray(image, dtype=np.int64)
    flip = (i > j) | ((i == j) & (_lex_sign(image) < 0))
    lo, hi = np.where(flip, j, i), np.where(flip, i, j)
    image = np.where(flip[:, None], -image, image)
    return [(a, b, *s) for a, b, s in zip(lo.tolist(), hi.tolist(), image.tolist())]


def _lex_sign(image):
    first = np.argmax(image != 0, axis=1)
    return np.sign(image[np.arange(len(image)), first])


def _assert_each_pair_once(kept, full):
    """``kept`` holds every unordered pair of the full list ``full`` once."""
    assert len(kept) == len(set(kept)), "a pair is kept twice"
    assert set(kept) == set(full)
    assert 2 * len(kept) == len(full)


def _serial_keys(nl, cell):
    i, j = nl.edge_index
    return _pair_keys(i, j, np.rint(nl.shifts / cell.lengths))


class TestExactlyOnce:
    @pytest.mark.parametrize("method", ["cells", "brute"])
    def test_serial_periodic_list(self, method):
        system = _gas()
        full = neighbor_list(system, 3.0, method=method)
        half = half_list(full, np.arange(system.n_atoms))
        assert half.half and not full.half
        _assert_each_pair_once(
            _serial_keys(half, system.cell), _serial_keys(full, system.cell)
        )
        # Stable: the kept edges in the full list's order.
        pos = {e: k for k, e in enumerate(map(tuple, full.edge_index.T.tolist()))}
        order = [pos[e] for e in map(tuple, half.edge_index.T.tolist())]
        assert order == sorted(order)

    def test_self_image_tie_keeps_the_positive_image(self):
        # An atom whose own images at ∓L along x are its neighbors: only
        # the +L edge is kept.
        shifts = np.array([[-2.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        nl = NeighborList(np.zeros((2, 2), dtype=np.int64), shifts)
        half = half_list(nl, np.array([5]))
        np.testing.assert_array_equal(half.shifts, [[2.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "grid",
        [
            ("uniform", 1),
            ("uniform", 2),
            ("uniform", 4),
            ("uniform", 8),
            ("balanced", 4),
        ],
        ids=lambda g: f"{g[0]}-{g[1]}",
    )
    def test_shards_union_is_the_serial_list(self, grid):
        kind, n_ranks = grid
        system = _gas()
        if kind == "balanced":
            # A dense corner in a dilute box, so the cuts move off uniform.
            system.positions[:120] *= 0.4
            pgrid = ProcessGrid.create(n_ranks, system.cell)
            pgrid.rebalance(system.positions)
            uniform = ProcessGrid.create(n_ranks, system.cell)
            assert any(
                not np.allclose(pgrid.domain_bounds(r), uniform.domain_bounds(r))
                for r in range(n_ranks)
            )
        else:
            pgrid = ProcessGrid.create(n_ranks, system.cell)
        cutoff = 3.0
        shards = DomainDecomposition(pgrid, cutoff).build(system)
        if n_ranks == 1:
            # Every ghost is a periodic image of an owned atom.
            assert shards[0].n_ghost and set(shards[0].ghost_ids) <= set(
                shards[0].owned_ids
            )
        kept = []
        for shard in shards:
            nl = DomainDecomposition.local_neighbor_list(shard, cutoff, half=True)
            assert nl.half
            keys = np.concatenate([shard.owned_ids, shard.ghost_ids])
            images = np.concatenate([np.zeros((shard.n_owned, 3)), shard.ghost_shifts])
            i, j = nl.edge_index
            image = np.rint((images[j] - images[i]) / system.cell.lengths)
            kept += _pair_keys(keys[i], keys[j], image)
        wrapped = system.copy()
        wrapped.positions = system.cell.wrap(system.positions)
        full = neighbor_list(wrapped, cutoff, method="brute")
        _assert_each_pair_once(kept, _serial_keys(full, system.cell))


def _pair_potential(kind, n_species):
    if kind == "lj":
        eps = np.full((n_species, n_species), 0.05)
        sig = np.full((n_species, n_species), 1.5)
        if n_species == 2:
            eps[0, 1] = eps[1, 0] = 0.03
            sig[1, 1] = 1.4
        return LennardJones(eps, sig, cutoff=3.0, n_species=n_species)
    D = np.full((n_species, n_species), 0.4)
    a = np.full((n_species, n_species), 1.6)
    r0 = np.full((n_species, n_species), 1.6)
    if n_species == 2:
        D[0, 1] = D[1, 0] = 0.3
        r0[1, 1] = 1.7
    return MorsePotential(D, a, r0, cutoff=3.0)


class TestForcesMatchFullLists:
    @pytest.mark.parametrize("engine", ["eager", "compiled"])
    @pytest.mark.parametrize("n_species", [1, 2])
    @pytest.mark.parametrize("kind", ["lj", "morse"])
    def test_ranks_on_half_lists_match_serial_full(self, kind, n_species, engine):
        pot = _pair_potential(kind, n_species)
        assert pot.half_list
        system = _crystal(n_species=n_species)
        e_ser, f_ser = pot.energy_and_forces(system)
        for n_ranks in (2, 4):
            ev = ParallelForceEvaluator(
                pot, ProcessGrid.create(n_ranks, system.cell), skin=0.3, engine=engine
            )
            try:
                e_par, f_par, stats = ev.compute(system.copy())
                assert all(s.nl.half for s in ev._shards)
            finally:
                ev.close()
            assert 2 * stats.n_edges.sum() == pot.prepare_neighbors(system).n_edges
            assert abs(e_par - e_ser) <= 1e-10 * abs(e_ser)
            np.testing.assert_allclose(f_par, f_ser, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["lj", "morse"])
    def test_half_edge_is_exactly_twice_a_full_edge(self, kind):
        """The second table block scales the energy by 2: a half list's
        per-atom energies are bitwise the full list's centers' doubled
        halves, and the serial totals agree to rounding."""
        pot = _pair_potential(kind, 2)
        system = _crystal()
        full = pot.prepare_neighbors(system)
        half = half_list(full, np.arange(system.n_atoms))
        # The kept edges alone, as a full list and as a half list.
        kept = NeighborList(half.edge_index, half.shifts)
        e_kept, _ = pot.evaluate(system.positions, system.species, kept)
        e_half, _ = pot.evaluate(system.positions, system.species, half)
        np.testing.assert_array_equal(e_half, 2.0 * e_kept)
        e_full, f_full = pot.energy_and_forces(system, full)
        e, f = pot.energy_and_forces(system, half)
        assert e == pytest.approx(e_full, rel=1e-13)
        np.testing.assert_allclose(f, f_full, rtol=0, atol=1e-12)


class TestWhoTakesHalfLists:
    def test_only_symmetric_pair_potentials(self):
        flags = {name: make_potential(name).half_list for name in ALL_MODELS}
        assert flags == {name: name in ("lj", "morse") for name in ALL_MODELS}

    def test_allegro_refuses_a_half_list(self):
        pot = make_potential("allegro")
        system = _gas(n=20, box=7.0)
        half = half_list(pot.prepare_neighbors(system), np.arange(20))
        with pytest.raises(HalfListError, match="AllegroModel"):
            pot.atomic_energies(system.positions, system.species, half)
        with pytest.raises(HalfListError):
            pot.compile().energy_and_forces(system, half)

    def test_asymmetric_tables_stay_on_full_lists(self):
        eps = np.array([[0.05, 0.03], [0.04, 0.05]])
        lj = LennardJones(eps, 1.5, cutoff=3.0, n_species=2)
        D = np.array([[0.4, 0.3], [0.3, 0.4]])
        r0 = np.array([[1.6, 1.6], [1.7, 1.6]])
        morse = MorsePotential(D, np.full((2, 2), 1.6), r0, cutoff=3.0)
        for pot in (lj, morse):
            assert not pot.half_list
            system = _crystal(n_cells=4)
            sim = Simulation(system.copy(), pot, dt=0.5)
            sim.run(1)
            assert not sim.verlet._nl.half
            # The step's forces are the full list's, bit for bit.
            state = sim.get_state()
            ref = system.copy()
            ref.positions[...] = state["positions"]
            nl = prune_to_cutoff(
                neighbor_list(ref, 3.0 + 0.4), ref.positions, ref.species, 3.0
            )
            np.testing.assert_array_equal(
                state["forces"], pot.energy_and_forces(ref, nl)[1]
            )
            psim = ParallelSimulation(system.copy(), pot, n_ranks=2, dt=0.5)
            try:
                psim.run(1)
                assert not any(s.nl.half for s in psim.evaluator._shards)
            finally:
                psim.close()
            with pytest.raises(HalfListError):
                pot.energy_and_forces(system, half_list(nl, np.arange(system.n_atoms)))

    def test_compiled_replays_full_then_half_then_full(self):
        pot = _pair_potential("lj", 2)
        system = _crystal(n_cells=4)
        full = pot.prepare_neighbors(system)
        half = half_list(full, np.arange(system.n_atoms))
        cm = pot.compile()
        for nl in (full, half, full):
            e_c, f_c = cm.evaluate(system.positions, system.species, nl)
            e_e, f_e = pot.evaluate(system.positions, system.species, nl)
            np.testing.assert_array_equal(e_c, e_e)
            np.testing.assert_array_equal(f_c, f_e)
        assert cm.stats()["n_captures"] == 1

    def test_md_drivers_build_half_lists(self):
        pot = _pair_potential("morse", 2)
        verlet = VerletList(3.0, skin=0.3, half=True)
        nl = verlet.get(_crystal(n_cells=4))
        assert nl.half and (nl.edge_index[0] < nl.edge_index[1]).all()
        sim = Simulation(_crystal(n_cells=4), pot, dt=0.5)
        sim.run(1)
        assert sim.verlet.half and sim.verlet._nl.half


def _lj_md(n_ranks=None, seed=5):
    system = _crystal(seed=seed, n_cells=4, n_species=1)
    system.seed_velocities(200.0, np.random.default_rng(seed))
    lj = _pair_potential("lj", 1)
    thermostat = LangevinThermostat(200.0, friction=0.05, seed=seed)
    if n_ranks is None:
        return Simulation(system, lj, dt=0.5, skin=0.3, thermostat=thermostat)
    return ParallelSimulation(
        system, lj, n_ranks=n_ranks, dt=0.5, skin=0.3, thermostat=thermostat
    )


def _lists(sim):
    if isinstance(sim, ParallelSimulation):
        return [s.nl for s in sim.evaluator._shards]
    return [sim.verlet._nl]


def _builds(sim):
    """Changes when the driver rebuilds its lists."""
    if isinstance(sim, ParallelSimulation):
        return id(sim.evaluator._shards)
    return sim.verlet.n_builds


def _close(*sims):
    for sim in sims:
        if isinstance(sim, ParallelSimulation):
            sim.close()


class TestCheckpoints:
    @pytest.mark.parametrize("n_ranks", [None, 4], ids=["serial", "4-rank"])
    def test_kill_and_resume_is_bitwise(self, n_ranks, tmp_path):
        total, killed_at = 40, 17
        ref, sim1, sim2 = _lj_md(n_ranks), _lj_md(n_ranks), _lj_md(n_ranks)
        try:
            ref.run(total)
            sim1.run(killed_at, checkpoint_every=5, checkpoint_dir=tmp_path)
            step, state = CheckpointManager(tmp_path).load_latest()
            sim2.set_state(state)
            assert all(nl.half for nl in _lists(sim2))
            sim2.run(total - step)
            assert all(nl.half for nl in _lists(sim2))
            np.testing.assert_array_equal(sim2.system.positions, ref.system.positions)
            np.testing.assert_array_equal(
                sim2.system.velocities, ref.system.velocities
            )
        finally:
            _close(ref, sim1, sim2)

    @pytest.mark.parametrize("n_ranks", [None, 4], ids=["serial", "4-rank"])
    def test_state_without_the_field_restores_a_full_list(self, n_ranks, monkeypatch):
        """A state written before lists could be half carries full lists
        and no ``half``: it restores as full lists, whose next step is the
        full-list driver's, bit for bit."""
        with monkeypatch.context() as m:
            # The driver as it was: every list full.
            m.setattr(LennardJones, "half_list", property(lambda self: False))
            old = _lj_md(n_ranks)
            try:
                old.run(6)
                state = old.get_state()
                old.run(1)
                expected = old.get_state()
            finally:
                _close(old)
        assert not any(nl.half for nl in _lists(old))
        state = copy.deepcopy(state)
        if n_ranks is None:
            del state["verlet"]["half"]
        else:
            for shard in state["shards"]:
                del shard.nl.half  # reads the class default, as unpickled
        sim = _lj_md(n_ranks)
        try:
            sim.set_state(state)
            builds = _builds(sim)
            sim.run(1)
            assert _builds(sim) == builds, "the step must reuse the restored list"
            assert not any(nl.half for nl in _lists(sim))
            got = sim.get_state()
        finally:
            _close(sim)
        np.testing.assert_array_equal(got["forces"], expected["forces"])
        np.testing.assert_array_equal(got["positions"], expected["positions"])

