"""The tape arena's safety and identity properties.

Two things have to hold for ``repro.autodiff.arena`` to be invisible:
every eager result is bitwise what it is without the arena (the kernels
write through ``out=`` with the same ufunc), and no array a caller can
still reach after ``Potential.evaluate`` returns is ever written again
(blocks with surviving views are dropped, not reused).  Every test runs on
a thread of its own, so it starts with an empty arena and zeroed counters
and leaves nothing behind in the test runner's.
"""

import functools
import sys
import threading

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import arena
from repro.md import Cell, LangevinThermostat, Simulation, System
from repro.models import (
    AllegroConfig,
    AllegroModel,
    ClassicalConfig,
    ClassicalForceField,
    LennardJones,
    MorsePotential,
)
from repro.models.base import Potential


def on_fresh_thread(test):
    """Run the test body on a new thread: its own, empty arena."""

    @functools.wraps(test)
    def wrapper(*args, **kwargs):
        box = {}

        def body():
            try:
                test(*args, **kwargs)
            except BaseException as exc:  # re-raised on the runner's thread
                box["error"] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=600)
        assert not thread.is_alive(), "test body did not finish"
        if "error" in box:
            raise box["error"]

    return wrapper


def fcc(n_cells, n_atoms=None, periodic=True, n_species=2, seed=0):
    """Jittered fcc block; ``n_atoms`` keeps the atoms nearest the centre."""
    rng = np.random.default_rng(seed)
    basis = np.array([[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]])
    cells = np.stack(
        np.meshgrid(*[np.arange(n_cells)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 1, 3)
    pos = (2.31 * (cells + basis)).reshape(-1, 3)
    pos = pos + rng.normal(scale=0.02, size=pos.shape)
    if n_atoms is not None:
        centre = pos.mean(axis=0)
        pos = pos[np.argsort(((pos - centre) ** 2).sum(axis=1))[:n_atoms]]
    species = rng.integers(0, n_species, len(pos))
    return System(pos, species, Cell.cubic(2.31 * n_cells) if periodic else None)


#: name -> (system, lower bound on ordered pairs at a 3.4-3.5 Å cutoff):
#: scalar-per-pair arrays cross the 128 KiB floor at 16 384 pairs, [E, 3]
#: ones at 5 462, so "tiny" and "small" stay below it for the pair
#: potentials and "large" is above it for everything.
SIZES = {
    "tiny": lambda: (fcc(2, n_atoms=11, periodic=False), 60),
    "small": lambda: (fcc(3, n_atoms=50, periodic=False), 600),
    "large": lambda: (fcc(6), 40_000),
}


def lj():
    return LennardJones(
        epsilon=np.array([[0.010, 0.012], [0.012, 0.015]]),
        sigma=np.array([[1.5, 1.55], [1.55, 1.6]]),
        cutoff=3.4,
        n_species=2,
    )


def morse():
    full = np.ones((2, 2))
    return MorsePotential(0.3 * full, 1.2 * full, 1.7 * full, cutoff=3.4)


def classical():
    return ClassicalForceField(ClassicalConfig(n_species=2, r_cut=3.4))


def allegro():
    # benchmarks/conftest.small_allegro_config
    return AllegroModel(
        AllegroConfig(
            n_species=2, lmax=2, n_tensor=4, n_layers=2, latent_dim=24,
            two_body_hidden=(24,), latent_hidden=(32,), edge_energy_hidden=(16,),
            r_cut=3.5, avg_num_neighbors=14.0,
        )
    )


def by_hand(pot, system, nl, n_active=None):
    """The tape ``evaluate`` builds, run with no scope open."""
    assert arena.state.open is None
    pos = ad.Tensor(system.positions, requires_grad=True)
    e_atoms = pot.atomic_energies(pos, system.species, nl)
    e_seed = e_atoms if n_active is None else e_atoms[:n_active]
    (gpos,) = ad.grad(e_seed.sum(), [pos])
    return e_atoms.data, -gpos.data


def assert_same(a, b):
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# -- (ii) identity ------------------------------------------------------------
@pytest.mark.parametrize("size", list(SIZES))
@pytest.mark.parametrize("make", [lj, morse, classical])
@on_fresh_thread
def test_scoped_evaluate_is_bitwise_the_plain_tape(make, size):
    pot = make()
    system, min_edges = SIZES[size]()
    nl = pot.prepare_neighbors(system)
    assert nl.n_edges >= min_edges
    ref = by_hand(pot, system, nl)
    assert_same(pot.evaluate(system.positions, system.species, nl), ref)
    # a second call runs on rewound, dirty blocks
    assert_same(pot.evaluate(system.positions, system.species, nl), ref)
    n_act = system.n_atoms // 2
    assert_same(
        pot.evaluate(system.positions, system.species, nl, n_active=n_act),
        by_hand(pot, system, nl, n_act),
    )
    served = arena.stats()["outputs_served"]
    assert served > 0 if size == "large" else served == 0


@pytest.mark.parametrize(
    "system",
    [
        lambda: fcc(2, n_atoms=11, periodic=False),
        lambda: fcc(3, n_atoms=50, periodic=False),
        # 13 824 pairs, a ~110 MB tape: the widest tensors are far above the
        # floor, and the test stays small (5·10⁴ pairs would hold 0.6 GB)
        lambda: fcc(4),
    ],
    ids=["tiny", "small", "medium"],
)
@on_fresh_thread
def test_scoped_allegro_is_bitwise_the_plain_tape(system):
    pot, system = allegro(), system()
    nl = pot.prepare_neighbors(system)
    ref = by_hand(pot, system, nl)
    assert_same(pot.evaluate(system.positions, system.species, nl), ref)
    assert_same(pot.evaluate(system.positions, system.species, nl), ref)
    if nl.n_edges > 10_000:
        stats = arena.stats()
        assert stats["outputs_served"] > 100 and stats["blocks_dropped"] == 0


# -- (i) escape ---------------------------------------------------------------
class StashingLJ(LennardJones):
    """Keeps an intermediate of its first call, as a careless model might."""

    stash = view = None

    def traced_energies(self, positions, species, inputs):
        if self.stash is None:
            self.stash = ad.gather(positions, inputs["j_idx"]) * 2.0
            self.view = self.stash.data[5:50, 1]
        return super().traced_energies(positions, species, inputs)


@on_fresh_thread
def test_an_escaping_intermediate_is_never_overwritten():
    pot = StashingLJ(epsilon=0.0104, sigma=1.5, cutoff=3.4)
    first = fcc(6, n_species=1)
    nl = pot.prepare_neighbors(first)
    pot.evaluate(first.positions, first.species, nl)
    assert isinstance(pot.stash.data.base, np.ndarray)
    assert pot.stash.data.base.dtype == np.uint8  # it lives in an arena block
    expected = 2.0 * first.positions[nl.edge_index[1]]
    assert np.array_equal(pot.stash.data, expected)
    stats = arena.stats()
    assert stats["blocks_dropped"] >= 1
    dropped = stats["blocks_dropped"]

    for n_cells in (5, 6, 4):  # three further calls, three edge counts
        other = fcc(n_cells, n_species=1, seed=n_cells)
        other_nl = pot.prepare_neighbors(other)
        assert_same(
            pot.evaluate(other.positions, other.species, other_nl),
            by_hand(pot, other, other_nl),
        )
    assert np.array_equal(pot.stash.data, expected)
    assert np.array_equal(pot.view, expected[5:50, 1])
    # the stash cost its block once; the blocks of later calls are reused
    assert arena.stats()["blocks_dropped"] == dropped
    assert all(block is not pot.stash.data.base for block in arena.scope().blocks)


# -- (iv) threads -------------------------------------------------------------
def test_two_threads_have_two_arenas():
    pot = lj()
    systems = {"a": fcc(6, seed=1), "b": fcc(5, seed=2)}
    calls = {"a": 3, "b": 5}
    nls = {k: pot.prepare_neighbors(s) for k, s in systems.items()}
    serial = {k: by_hand(pot, systems[k], nls[k]) for k in systems}
    results, seen, errors = {}, {}, []
    start = threading.Barrier(2)

    def work(key):
        try:
            s = systems[key]
            start.wait(timeout=60)
            results[key] = [
                pot.evaluate(s.positions, s.species, nls[key])
                for _ in range(calls[key])
            ]
            seen[key] = arena.stats()
        except BaseException as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in systems]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors
    for key in systems:
        for got in results[key]:
            assert_same(got, serial[key])
        assert seen[key]["scopes"] == calls[key]
        assert seen[key]["blocks_dropped"] == 0


# -- (v) nesting and exceptions -----------------------------------------------
class Nested(Potential):
    """Reaches another potential's ``evaluate`` from inside its own tape."""

    def __init__(self, inner):
        self.inner = inner
        self.cutoff = inner.cutoff

    def atomic_energies(self, positions, species, nl):
        positions = ad.astensor(positions)
        before = ad.gather(positions, nl.edge_index[1]) * 3.0  # arena, if scoped
        depth = arena.scope().depth
        e_inner, _ = self.inner.evaluate(positions.data, species, nl)
        assert arena.scope().depth == depth  # the inner scope closed, ours did not
        spread = ad.scatter_add((before * before).sum(axis=1), nl.edge_index[0], len(species))
        return self.inner.atomic_energies(positions, species, nl) + spread * 1e-3 + e_inner


class Failing(LennardJones):
    def traced_energies(self, positions, species, inputs):
        big = ad.gather(positions, inputs["j_idx"]) * 2.0
        raise RuntimeError(f"model bug after {big.shape[0]} pairs")


@on_fresh_thread
def test_nested_scopes_share_the_outer_one_and_rewind_once():
    pot = Nested(lj())
    system = fcc(6)
    nl = pot.prepare_neighbors(system)
    ref = by_hand(pot, system, nl)  # the inner evaluate opens a scope of its own here
    scopes = arena.stats()["scopes"]
    assert_same(pot.evaluate(system.positions, system.species, nl), ref)
    assert_same(pot.evaluate(system.positions, system.species, nl), ref)
    stats = arena.stats()
    assert stats["scopes"] == scopes + 2  # one per outer call, none per inner
    assert stats["blocks_dropped"] == 0
    assert arena.state.open is None


@on_fresh_thread
def test_an_exception_rewinds_and_leaves_the_arena_usable():
    system = fcc(6)
    good = lj()
    nl = good.prepare_neighbors(system)
    ref = by_hand(good, system, nl)
    bad = Failing(epsilon=0.01, sigma=1.5, cutoff=3.4, n_species=2)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="model bug"):
            bad.evaluate(system.positions, system.species, nl)
        assert arena.state.open is None and arena.scope().depth == 0
        assert_same(good.evaluate(system.positions, system.species, nl), ref)


# -- (vi) retention -----------------------------------------------------------
@on_fresh_thread
def test_a_small_call_releases_what_a_large_one_needed():
    pot = lj()
    # 74 088 pairs, a 13 MB tape: two blocks (fcc(6)'s 8.2 MB fits in one)
    large, tiny = fcc(7), fcc(2, n_atoms=11, periodic=False)
    pot.evaluate(large.positions, large.species, pot.prepare_neighbors(large))
    held = arena.stats()
    assert held["blocks"] >= 2 and held["bytes_held"] >= 2 * arena.BLOCK_BYTES
    pot.evaluate(tiny.positions, tiny.species, pot.prepare_neighbors(tiny))
    assert arena.stats()["blocks"] <= 1


@on_fresh_thread
def test_only_results_between_the_floor_and_a_block_are_served():
    with arena.scope() as scope:
        assert scope.take((arena.MIN_BYTES // 8 - 1,), np.float64) is None
        assert scope.take((arena.BLOCK_BYTES // 8 + 1,), np.float64) is None
        assert arena.stats()["blocks"] == 0
        whole = scope.take((arena.BLOCK_BYTES // 8,), np.float64)
        floor = scope.take((arena.MIN_BYTES // 4,), np.float32)
        assert whole.base is not floor.base  # a full block has no room left
        for got in (whole, floor):
            assert got.flags.c_contiguous and got.flags.aligned
            got.fill(1.0)  # every byte handed out is writable
        del whole, floor, got
    stats = arena.stats()
    assert stats["blocks"] == 2 and stats["outputs_served"] == 2
    assert stats["outputs_requested"] == 4 and stats["blocks_dropped"] == 0


# -- (vii) capture inside a scope ---------------------------------------------
@on_fresh_thread
def test_a_plan_captured_inside_a_scope_survives_block_reuse():
    pot = lj()
    system = fcc(6)
    nl = pot.prepare_neighbors(system)
    ref = by_hand(pot, system, nl)
    with arena.scope():
        compiled = pot.compile()
        assert_same(compiled.evaluate(system.positions, system.species, nl), ref)
    assert compiled.stats()["n_captures"] == 1
    for seed in (3, 4):  # churn the arena: same blocks, other contents
        other = fcc(6, seed=seed)
        pot.evaluate(other.positions, other.species, pot.prepare_neighbors(other))
    assert_same(compiled.evaluate(system.positions, system.species, nl), ref)
    assert compiled.stats()["n_captures"] == 1


# -- what must not reach the arena --------------------------------------------
@on_fresh_thread
def test_a_compiled_run_and_a_training_tape_never_reach_the_arena():
    from repro.data import perturbed_water_frames

    system = perturbed_water_frames(1, n_grid=3, sigma=0.04)[0]
    model = AllegroModel(
        AllegroConfig(
            n_species=4, lmax=2, n_tensor=4, n_layers=2, latent_dim=24,
            two_body_hidden=(24,), latent_hidden=(32,), edge_energy_hidden=(16,),
            r_cut=3.5, avg_num_neighbors=14.0,
        )
    )
    system.seed_velocities(300.0, np.random.default_rng(0))
    sim = Simulation(
        system, model.compile(padding=0.10), dt=0.5,
        thermostat=LangevinThermostat(300.0, seed=0),
    )
    sim.run(5)
    stats = sim.stats()["tape_arena"]
    assert stats == arena.stats()
    assert stats["outputs_served"] == 0 and stats["scopes"] == 0
    # the same graph on the eager tape, no scope open: nothing is even asked
    by_hand(model, system, model.prepare_neighbors(system))
    assert arena.stats()["outputs_requested"] == 0
    # ... and under a scope with recording off: backward temporaries are malloc's
    with arena.scope(), ad.no_grad():
        model.atomic_energies(
            ad.Tensor(system.positions), system.species, model.prepare_neighbors(system)
        )
    assert arena.stats()["outputs_requested"] == 0


def test_stats_reach_the_parallel_evaluator():
    from repro.parallel import ParallelForceEvaluator, ProcessGrid

    system = fcc(6, n_species=1)
    pot = LennardJones(epsilon=0.0104, sigma=1.5, cutoff=3.0)
    evaluator = ParallelForceEvaluator(pot, ProcessGrid.create(2, system.cell), skin=0.4)
    before = arena.stats()
    evaluator.compute(system)
    stats = evaluator.stats()["tape_arena"]
    assert set(stats) >= {
        "blocks", "bytes_held", "bytes_served", "outputs_served",
        "blocks_dropped", "scopes",
    }
    assert stats["scopes"] == before["scopes"] + 2  # one per rank
    assert stats["outputs_served"] > before["outputs_served"]
    assert stats["blocks_dropped"] == before["blocks_dropped"]
