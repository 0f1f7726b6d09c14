"""One process grid: cut planes, one ownership rule, one geometry check.

``ProcessGrid`` holds per-axis cut planes that start uniform and move to
atom-count quantiles on ``rebalance``.  These tests pin

* that on in-box positions a uniform grid's owners and bricks are bitwise
  what the uniform arithmetic gave (``⌊x / (L/d)⌋`` clamped above, and
  ``k · (L/d)``), points exactly on a cut plane included;
* that every atom has a rank, also beyond the faces of an open axis, and
  that every grid shape, uniform or rebalanced, then reproduces the serial
  energy and forces, on half lists and on full lists;
* that a rebalance which leaves a brick thinner than the cutoff is refused
  at the next build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Cell, System
from repro.models import LennardJones
from repro.parallel import DomainDecomposition, ParallelForceEvaluator, ProcessGrid


def frozen_owner_of(grid, positions):
    """The uniform grid's ``owner_of`` before cut planes, kept as the
    reference."""
    pos = grid.cell.wrap(positions)
    sub = grid.cell.lengths / np.asarray(grid.dims)
    coords = np.minimum((pos / sub).astype(int), np.asarray(grid.dims) - 1)
    px, py, pz = grid.dims
    return (coords[:, 0] * py + coords[:, 1]) * pz + coords[:, 2]


def frozen_domain_bounds(grid, rank):
    """The uniform grid's ``domain_bounds`` before cut planes."""
    c = np.asarray(grid.coords_of(rank))
    sub = grid.cell.lengths / np.asarray(grid.dims)
    return c * sub, (c + 1) * sub


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def uniform_grids_and_points(draw):
    """A uniform grid over a box with any periodicity, and in-box points,
    many of them on a cut plane or one ulp either side of it."""
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    lengths = [draw(st.floats(1.0, 50.0)) for _ in range(3)]
    cell = Cell(lengths, [draw(st.booleans()) for _ in range(3)])
    sub = cell.lengths / np.asarray(dims)
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        row = []
        for ax in range(3):
            where = draw(st.sampled_from(["inside", "on", "below", "above"]))
            if where == "inside":
                x = draw(st.floats(0.0, lengths[ax], exclude_max=True))
            else:
                x = draw(st.integers(0, dims[ax] - 1)) * sub[ax]
                if where != "on":
                    x = np.nextafter(x, -np.inf if where == "below" else np.inf)
            row.append(min(max(x, 0.0), np.nextafter(cell.lengths[ax], 0.0)))
        rows.append(row)
    return ProcessGrid(dims, cell), np.array(rows)


class TestUniformCutsAreTheUniformGrid:
    @settings(max_examples=300, deadline=None)
    @given(uniform_grids_and_points())
    def test_owners_and_bounds_are_bitwise_the_uniform_arithmetic(self, case):
        grid, pos = case
        assert_bitwise(grid.owner_of(pos), frozen_owner_of(grid, pos))
        open_axis = ~grid.cell.pbc
        for rank in range(grid.n_ranks):
            lo, hi = frozen_domain_bounds(grid, rank)
            # An open axis's outer bricks reach past its faces.
            c = np.asarray(grid.coords_of(rank))
            lo[open_axis & (c == 0)] = -np.inf
            hi[open_axis & (c == np.asarray(grid.dims) - 1)] = np.inf
            got_lo, got_hi = grid.domain_bounds(rank)
            assert_bitwise(got_lo, lo)
            assert_bitwise(got_hi, hi)


def _open_x_system(seed=5, box=10.0):
    """A jittered 4×4×4 lattice in a box open along x, with atoms moved
    past both x faces: two more than one brick below, pairs straddling the
    y and z cuts out there, and one just past the upper face."""
    rng = np.random.default_rng(seed)
    g = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), -1).reshape(-1, 3)
    pos = (g + 0.5) * (box / 4) + rng.normal(scale=0.05, size=g.shape)
    pos[:7] = [
        [-5.2, 1.25, 1.25],
        [-3.2, 1.25, 1.25],
        [-4.0, 4.2, 6.25],
        [-4.0, 5.8, 6.25],
        [12.5, 3.75, 4.2],
        [12.5, 3.75, 5.8],
        [11.0, 8.75, 8.75],
    ]
    cell = Cell.cubic(box, pbc=(False, True, True))
    return System(pos, rng.integers(0, 2, len(pos)), cell)


def _lennard_jones(half):
    eps = np.array([[0.010, 0.012], [0.012, 0.008]])
    if not half:
        eps[0, 1] = 0.014  # an asymmetric table is evaluated on full lists
    lj = LennardJones(eps, 1.6, cutoff=3.0, n_species=2)
    assert lj.half_list == half
    return lj


class TestEveryAtomHasARank:
    def test_uniform_owner_clips_past_an_open_face(self):
        grid = ProcessGrid((2, 1, 1), Cell.cubic(10.0, pbc=(False, True, True)))
        pos = np.array([[x, 1.0, 1.0] for x in (-7.0, -0.5, 3.0, 12.0)])
        assert grid.owner_of(pos).tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("half", [True, False], ids=["half-list", "full-list"])
    @pytest.mark.parametrize("rebalanced", [False, True], ids=["uniform", "rebalanced"])
    @pytest.mark.parametrize(
        "dims", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 2, 2)],
        ids=lambda d: "x".join(map(str, d)),
    )
    def test_atoms_past_an_open_face_match_serial(self, dims, rebalanced, half):
        system = _open_x_system()
        lj = _lennard_jones(half)
        e_ser, f_ser = lj.energy_and_forces(system)
        grid = ProcessGrid(dims, system.cell)
        if rebalanced:
            grid.rebalance(system.positions)
        ev = ParallelForceEvaluator(lj, grid, skin=0.4)
        try:
            e_par, f_par, stats = ev.compute(system.copy())
            owned = np.concatenate([s.owned_ids for s in ev._shards])
        finally:
            ev.close()
        np.testing.assert_array_equal(np.sort(owned), np.arange(system.n_atoms))
        assert stats.n_owned.sum() == system.n_atoms
        assert abs(e_par - e_ser) <= 1e-10 * abs(e_ser)
        np.testing.assert_allclose(f_par, f_ser, rtol=0, atol=1e-10 * np.abs(f_ser).max())


class TestOneGeometryCheck:
    def test_a_rebalance_after_construction_is_checked_at_build(self):
        cell = Cell.cubic(12.0)
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 12.0, (80, 3))
        pos[:60, 0] = rng.uniform(5.0, 6.0, 60)  # most atoms in one thin slab
        system = System(pos, np.zeros(80, int), cell)
        grid = ProcessGrid((3, 1, 1), cell)
        decomp = DomainDecomposition(grid, 3.0)
        decomp.build(system)
        grid.rebalance(system.positions)
        with pytest.raises(ValueError, match="along axis 0 is below the cutoff"):
            decomp.build(system)

    def test_a_periodic_axis_shorter_than_the_cutoff_is_refused_at_construction(self):
        grid = ProcessGrid((2, 1, 1), Cell([8.0, 2.0, 8.0]))
        with pytest.raises(ValueError, match="along axis 1 is below the cutoff"):
            DomainDecomposition(grid, 3.0)
        # Open, the same axis needs no image and is accepted.
        open_y = Cell([8.0, 2.0, 8.0], (True, False, True))
        DomainDecomposition(ProcessGrid((2, 1, 1), open_y), 3.0)


def frozen_rebalance_cuts(grid, positions):
    """The cut planes ``rebalance`` gave before its open-axis rule: box
    faces as the outer cuts, kept as the reference for in-box atoms."""
    pos = grid.cell.wrap(np.asarray(positions, dtype=np.float64))
    brick = grid.cell.lengths / np.asarray(grid.dims)
    out = []
    for ax, d in enumerate(grid.dims):
        if d == 1:
            out.append(np.arange(d + 1, dtype=np.float64))
            continue
        L = grid.cell.lengths[ax]
        inner = np.quantile(pos[:, ax], np.linspace(0.0, 1.0, d + 1)[1:-1])
        cuts = np.concatenate([[0.0], inner, [L]])
        for k in range(1, len(cuts)):
            cuts[k] = max(cuts[k], cuts[k - 1] + 1e-6)
        cuts[-1] = L
        out.append(cuts / brick[ax])
    return out


class TestRebalanceOnAnOpenAxis:
    @staticmethod
    def crowded_past_the_face(seed=3):
        """100 atoms in a 10 Å box open along x, 70 of them at x = 11–20."""
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, 10.0, (100, 3))
        pos[:70, 0] = rng.uniform(11.0, 20.0, 70)
        cell = Cell.cubic(10.0, pbc=(False, True, True))
        return System(pos, rng.integers(0, 2, 100), cell)

    @pytest.mark.parametrize("half", [True, False], ids=["half-list", "full-list"])
    def test_cuts_follow_the_atoms_and_forces_match_serial(self, half):
        system = self.crowded_past_the_face()
        grid = ProcessGrid((2, 1, 1), system.cell)
        grid.rebalance(system.positions)
        x = system.positions[:, 0]
        cuts = grid._cuts[0] * 5.0  # Å: the uniform brick is 5 Å
        assert np.all(np.diff(cuts) > 0)
        assert cuts[0] == 0.0 and cuts[-1] == x.max()
        grid.validate_cutoff(3.0)
        assert np.bincount(grid.owner_of(system.positions)).tolist() == [50, 50]

        lj = _lennard_jones(half)
        e_ser, f_ser = lj.energy_and_forces(system)
        ev = ParallelForceEvaluator(lj, grid, skin=0.4)
        try:
            e_par, f_par, stats = ev.compute(system.copy())
        finally:
            ev.close()
        assert stats.n_owned.tolist() == [50, 50]
        assert abs(e_par - e_ser) <= 1e-10 * abs(e_ser)
        np.testing.assert_allclose(f_par, f_ser, rtol=0, atol=1e-10 * np.abs(f_ser).max())

    def test_an_inner_brick_of_an_open_axis_is_still_checked(self):
        system = self.crowded_past_the_face()
        system.positions[:60, 0] = np.linspace(14.0, 14.5, 60)  # a thin middle slab
        grid = ProcessGrid((3, 1, 1), system.cell)
        grid.rebalance(system.positions)
        with pytest.raises(ValueError, match="along axis 0 is below the cutoff"):
            grid.validate_cutoff(3.0)

    @settings(max_examples=200, deadline=None)
    @given(uniform_grids_and_points())
    def test_in_box_cuts_are_bitwise_the_box_faced_rule(self, case):
        grid, pos = case
        grid.rebalance(pos)
        for got, want in zip(grid._cuts, frozen_rebalance_cuts(grid, pos)):
            assert_bitwise(got, want)
