"""Tests for the load-balanced process grid (LAMMPS `balance` analogue)."""

import numpy as np
import pytest

from repro.data import capsid_assembly
from repro.md import Cell, System
from repro.models import LennardJones
from repro.parallel import ParallelForceEvaluator, ProcessGrid


@pytest.fixture
def rng():
    return np.random.default_rng(223)


def _clustered_system(rng, n=400, L=20.0):
    """Heterogeneous density: a dense blob in one corner + dilute gas."""
    blob = rng.normal(scale=1.5, size=(n // 2, 3)) + 4.0
    gas = rng.uniform(0, L, (n // 2, 3))
    pos = np.concatenate([blob, gas])
    return System(pos, np.zeros(n, int), Cell.cubic(L))


def _balanced(n_ranks, system):
    """The surface-minimizing grid, its cuts moved to the atoms' quantiles."""
    grid = ProcessGrid.create(n_ranks, system.cell)
    grid.rebalance(system.positions)
    return grid


class TestBalancedGrid:
    def test_quantile_cuts_equalize_ownership(self, rng):
        """Tensor-plane balancing (the LAMMPS `balance shift` scheme) cannot
        perfectly split a corner blob — the planes are shared across the
        grid — but it must get within ~2x of mean (uniform cuts are ~4x)."""
        system = _clustered_system(rng)
        grid = _balanced(8, system)
        owners = grid.owner_of(system.positions)
        counts = np.bincount(owners, minlength=8)
        assert counts.max() / counts.mean() < 2.2

    def test_uniform_grid_is_worse_on_clustered_input(self, rng):
        system = _clustered_system(rng)
        uniform = ProcessGrid.create(8, system.cell)
        balanced = _balanced(8, system)
        cu = np.bincount(uniform.owner_of(system.positions), minlength=8)
        cb = np.bincount(balanced.owner_of(system.positions), minlength=8)
        assert cb.max() < cu.max()

    def test_domain_bounds_tile_box(self, rng):
        system = _clustered_system(rng)
        grid = _balanced(8, system)
        # Each atom's owner's bounds must contain it.
        owners = grid.owner_of(system.positions)
        wrapped = system.cell.wrap(system.positions)
        for rank in range(8):
            lo, hi = grid.domain_bounds(rank)
            mine = wrapped[owners == rank]
            assert np.all(mine >= lo - 1e-9)
            assert np.all(mine <= hi + 1e-9)

    def test_forces_remain_exact(self, rng):
        system = _clustered_system(rng)
        lj = LennardJones(epsilon=0.01, sigma=1.8, cutoff=3.0)
        e_ref, f_ref = lj.energy_and_forces(system)
        grid = _balanced(4, system)
        ev = ParallelForceEvaluator(lj, grid)
        e_par, f_par, stats = ev.compute(system.copy())
        assert e_par == pytest.approx(e_ref, rel=1e-9)
        assert np.allclose(f_par, f_ref, atol=1e-8)

    def test_improves_work_balance_on_capsid(self, rng):
        """The paper's flagship workload is exactly this density profile."""
        capsid = capsid_assembly(radius=12.0, subdivisions=1, seed=5)
        system = capsid.system
        lj = LennardJones(epsilon=0.01, sigma=2.0, cutoff=3.5, n_species=4)
        imb = {}
        for name, grid in (
            ("uniform", ProcessGrid.create(8, system.cell)),
            ("balanced", _balanced(8, system)),
        ):
            ev = ParallelForceEvaluator(lj, grid)
            _, _, stats = ev.compute(system.copy())
            imb[name] = stats.load_imbalance
        assert imb["balanced"] <= imb["uniform"] + 0.05

    def test_validate_cutoff_uses_narrowest_slab(self, rng):
        system = _clustered_system(rng)
        grid = _balanced(8, system)
        with pytest.raises(ValueError):
            grid.validate_cutoff(50.0)

    def test_single_rank_noop(self, rng):
        system = _clustered_system(rng)
        grid = _balanced(1, system)
        assert (grid.owner_of(system.positions) == 0).all()
