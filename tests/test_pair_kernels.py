"""The fused pair-term ops ``ad.lj_pair`` and ``ad.morse_pair``.

Each pair potential's edge term ½·φ(r)·u(r/r_c) is one forward kernel and
one r-derivative kernel with hand-derived formulas, so the checks here are
the ones a tape graph got for free: forces are −∇E (central differences),
the envelope makes the term and its force exactly zero at and past the
cutoff (pad edges of a compiled plan sit exactly on it), the ``out=``
branch the compiled replay takes is bitwise the eager one, and nothing
pretends to a second derivative.
"""

import threading

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import arena
from repro.autodiff import kernels as K
from repro.engine import CompiledPotential
from repro.md import Cell, System
from repro.md.neighborlist import NeighborList
from repro.models import LennardJones, MorsePotential

CUTOFF = 3.0


def lj(n_species):
    if n_species == 1:
        return LennardJones(epsilon=0.8, sigma=1.1, cutoff=CUTOFF)
    return LennardJones(  # asymmetric: (0, 1) and (1, 0) differ
        epsilon=np.array([[0.8, 0.5], [0.65, 1.1]]),
        sigma=np.array([[1.1, 1.2], [1.25, 1.3]]),
        cutoff=CUTOFF,
        n_species=2,
    )


def morse(n_species):
    if n_species == 1:
        return MorsePotential([[0.4]], [[1.3]], [[1.4]], cutoff=CUTOFF)
    return MorsePotential(
        D=np.array([[0.4, 0.3], [0.2, 0.5]]),
        a=np.array([[1.3, 1.1], [1.5, 1.2]]),
        r0=np.array([[1.4, 1.5], [1.6, 1.45]]),
        cutoff=CUTOFF,
    )


MODELS = {"lj": lj, "morse": morse}


def cluster(n_species, n_atoms=12, seed=3):
    """A loose random cluster: every pair between 1.2 Å and well past r_c."""
    rng = np.random.default_rng(seed)
    pos = [rng.uniform(0, 4.0, 3)]
    while len(pos) < n_atoms:
        p = rng.uniform(0, 4.0, 3)
        if min(np.linalg.norm(p - q) for q in pos) > 1.2:
            pos.append(p)
    return System(np.array(pos), rng.integers(0, n_species, n_atoms), None)


def total_energy(pot, positions, species):
    system = System(positions, species, None)
    return pot.evaluate(positions, species, pot.prepare_neighbors(system))[0].sum()


def pair_arrays(name, n=257, seed=0):
    """Per-edge inputs of one kernel: r in (0.9, 1.2·r_c) and parameters."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.9, 1.2 * CUTOFF, n)
    if name == "lj":
        return r, (rng.uniform(0.2, 1.0, n), rng.uniform(1.0, 1.4, n))
    bounds = ((0.2, 0.5), (1.0, 1.5), (1.3, 1.7))  # D, a, r0
    return r, tuple(rng.uniform(lo, hi, n) for lo, hi in bounds)


OPS = {"lj": ad.lj_pair, "morse": ad.morse_pair}

#: Both directions of one bond, as a list pruned to ``d² < r_c²(1 + 1e-9)``
#: keeps them up to ~1.5e-9 Å past a 3 Å cutoff.
DIMER = NeighborList(np.array([[0, 1], [1, 0]]), np.zeros((2, 3)))


def run_kernel(name, grad, out, r, params, g):
    fn = K.KERNELS[name + "_pair" + ("_grad" if grad else "")]
    args = ((g,) if grad else ()) + (r,) + params
    return fn(out, *args, cutoff=CUTOFF, p=6)


@pytest.mark.parametrize("n_species", [1, 2])
@pytest.mark.parametrize("name", list(MODELS))
def test_forces_are_central_differences_of_the_energy(name, n_species):
    pot, system = MODELS[name](n_species), cluster(n_species)
    _, forces = pot.evaluate(
        system.positions, system.species, pot.prepare_neighbors(system)
    )
    h = 1e-5
    numeric = np.zeros_like(forces)
    for k in range(system.n_atoms):
        for d in range(3):
            plus, minus = system.positions.copy(), system.positions.copy()
            plus[k, d] += h
            minus[k, d] -= h
            numeric[k, d] = -(
                total_energy(pot, plus, system.species)
                - total_energy(pot, minus, system.species)
            ) / (2 * h)
    assert np.abs(forces).max() > 1e-2
    np.testing.assert_allclose(forces, numeric, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", list(MODELS))
def test_op_gradient_is_the_derivative_in_r(name):
    r, params = pair_arrays(name, n=40)
    ad.gradcheck(lambda v: OPS[name](v, *params, CUTOFF, 6), [r], atol=1e-7, rtol=1e-6)


@pytest.mark.parametrize("name", list(MODELS))
def test_pairs_within_1e9_of_the_cutoff(name):
    """Just inside: the smooth tail (≈ 0 to rounding).  On r_c and just past
    it: exact zeros, energy and force."""
    pot = MODELS[name](1)
    for delta, exact in ((-1e-9, False), (0.0, True), (1e-9, True)):
        positions = np.array([[0.0, 0, 0], [CUTOFF + delta, 0, 0]])
        e, f = pot.evaluate(positions, np.zeros(2, int), DIMER)
        if exact:
            assert np.all(e == 0.0) and np.all(f == 0.0)
        else:
            assert np.abs(e).max() < 1e-14 and np.abs(f).max() < 1e-12


@pytest.mark.parametrize("name", list(MODELS))
def test_a_pad_edge_contributes_exact_zeros(name):
    _, params = pair_arrays(name, n=64)
    r, g = np.full(64, CUTOFF), np.ones(64)
    for grad in (False, True):
        assert np.all(run_kernel(name, grad, None, r, params, g) == 0.0)


@pytest.mark.parametrize("name", list(MODELS))
def test_padded_compiled_call_is_the_eager_call(name):
    """A plan at twice the pairs it is handed: its pad edges (i = j = pad
    atom, r = r_c) leave every real energy and force bit where eager has it."""
    pot = MODELS[name](2)
    loose = cluster(2, n_atoms=30)
    system = System(loose.positions, loose.species, Cell.cubic(9.0))
    nl = pot.prepare_neighbors(system)
    compiled = CompiledPotential(pot, pair_capacity=2 * nl.n_edges)
    e_c, f_c = compiled.evaluate(system.positions, system.species, nl)
    assert compiled.capacity_pairs >= 2 * nl.n_edges
    e, f = pot.evaluate(system.positions, system.species, nl)
    assert np.array_equal(e_c, e) and np.array_equal(f_c, f)
    # the pair term is two plan steps, not a graph of them
    assert compiled.stats()["plan_steps"] <= 30


@pytest.mark.parametrize("grad", [False, True], ids=["term", "grad"])
@pytest.mark.parametrize("name", list(MODELS))
def test_out_branch_is_bitwise_the_allocating_branch(name, grad):
    # 20 000 pairs: each [E] array (160 kB) is above the arena's floor
    r, params = pair_arrays(name, n=20_000, seed=1)
    g = np.random.default_rng(2).normal(size=r.shape)
    alloc = run_kernel(name, grad, None, r, params, g)
    out = np.full_like(r, np.nan)
    assert run_kernel(name, grad, out, r, params, g) is out
    assert np.array_equal(out, alloc)

    box = {}

    def in_scope():  # eager: output and temporaries from the tape arena
        with arena.scope():
            res = run_kernel(name, grad, None, r, params, g)
            box["from_arena"] = res.base is not None and res.base.dtype == np.uint8
            box["res"] = res.copy()

    thread = threading.Thread(target=in_scope)
    thread.start()
    thread.join()
    assert box["from_arena"] and np.array_equal(box["res"], alloc)


@pytest.mark.parametrize("name", list(MODELS))
def test_second_derivative_raises(name):
    pot, system = MODELS[name](2), cluster(2)
    nl = pot.prepare_neighbors(system)
    pos = ad.Tensor(system.positions, requires_grad=True)
    energy = pot.atomic_energies(pos, system.species, nl).sum()
    (gpos,) = ad.grad(energy, [pos], create_graph=True)
    with pytest.raises(NotImplementedError, match="second derivative"):
        (gpos * gpos).sum().backward()


@pytest.mark.parametrize("name", list(MODELS))
def test_trainable_parameters_are_refused(name):
    r, params = pair_arrays(name, n=8)
    tracked = (ad.Tensor(params[0], requires_grad=True),) + params[1:]
    with pytest.raises(NotImplementedError, match="constants"):
        OPS[name](ad.Tensor(r, requires_grad=True), *tracked, CUTOFF, 6)
