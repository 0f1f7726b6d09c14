"""Tests for neighbor lists: cell vs brute agreement, per-pair cutoffs, skins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import (
    Cell,
    System,
    VerletList,
    filter_by_pair_cutoffs,
    neighbor_list,
    ordered_pair_counts,
)
from repro.md.neighborlist import NeighborList, prune_to_cutoff, triplet_list


@pytest.fixture
def rng():
    return np.random.default_rng(61)


def _canon(nl: NeighborList):
    arr = np.concatenate([nl.edge_index.T, np.round(nl.shifts, 6)], axis=1)
    return set(map(tuple, arr.tolist()))


class TestNeighborListCorrectness:
    def test_cell_equals_brute_periodic(self, rng):
        L, n = 13.0, 500
        s = System(rng.uniform(0, L, (n, 3)), np.zeros(n, int), Cell.cubic(L))
        assert _canon(neighbor_list(s, 3.1, "cells")) == _canon(
            neighbor_list(s, 3.1, "brute")
        )

    def test_cell_equals_brute_open(self, rng):
        n = 400
        s = System(rng.uniform(0, 12, (n, 3)), np.zeros(n, int), None)
        assert _canon(neighbor_list(s, 3.0, "cells")) == _canon(
            neighbor_list(s, 3.0, "brute")
        )

    def test_out_of_box_positions_consistent_shifts(self, rng):
        """Shift vectors must be valid in the caller's position frame."""
        L, n = 12.0, 400
        pos = rng.uniform(-0.4, L + 0.4, (n, 3))  # slightly outside the box
        s = System(pos, np.zeros(n, int), Cell.cubic(L))
        for method in ("cells", "brute"):
            nl = neighbor_list(s, 3.0, method)
            assert nl.distances(s.positions).max() < 3.0

    def test_ordered_pairs_symmetric(self, rng):
        L, n = 11.0, 300
        s = System(rng.uniform(0, L, (n, 3)), np.zeros(n, int), Cell.cubic(L))
        nl = neighbor_list(s, 3.0)
        pairs = set(zip(*nl.edge_index))
        for i, j in pairs:
            assert (j, i) in pairs  # both ordered directions present

    def test_no_self_edges(self, rng):
        s = System(rng.uniform(0, 10, (100, 3)), np.zeros(100, int), Cell.cubic(10))
        nl = neighbor_list(s, 3.0)
        same = nl.edge_index[0] == nl.edge_index[1]
        assert np.allclose(np.abs(nl.shifts[same]).max(axis=1) > 1, True)

    def test_empty_system(self):
        s = System(np.zeros((0, 3)), np.zeros(0, int), Cell.cubic(5.0))
        assert neighbor_list(s, 2.0).n_edges == 0

    def test_brute_rejects_too_large_cutoff(self, rng):
        s = System(rng.uniform(0, 5, (10, 3)), np.zeros(10, int), Cell.cubic(5.0))
        with pytest.raises(ValueError):
            neighbor_list(s, 3.0, "brute")

    def test_invalid_method(self, rng):
        s = System(rng.uniform(0, 5, (4, 3)), np.zeros(4, int), Cell.cubic(5.0))
        with pytest.raises(ValueError):
            neighbor_list(s, 1.0, "magic")

    def test_small_periodic_image_counts(self):
        """Two atoms in a small box: image pairs appear once per image."""
        s = System(
            np.array([[0.5, 0.5, 0.5], [2.0, 0.5, 0.5]]),
            np.zeros(2, int),
            Cell.cubic(4.0),
        )
        nl = neighbor_list(s, 1.9, "brute")
        # i->j at +1.5 and via wrap at -2.5 (excluded, > cutoff): 2 ordered edges
        assert nl.n_edges == 2

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_distance_bound_property(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.uniform(9.0, 15.0)
        n = rng.integers(50, 300)
        s = System(rng.uniform(0, L, (n, 3)), np.zeros(n, int), Cell.cubic(L))
        cutoff = rng.uniform(1.5, 3.0)
        nl = neighbor_list(s, cutoff)
        if nl.n_edges:
            assert nl.distances(s.positions).max() < cutoff


class TestCentersOnly:
    """``n_centers`` gives the full list filtered by center — the same edges
    in the same order, which is what keeps a shard's forces bitwise — without
    searching around the atoms that are neighbors only."""

    @staticmethod
    def assert_is_filtered_full_list(system, cutoff, method, n_centers):
        full = neighbor_list(system, cutoff, method)
        keep = full.edge_index[0] < n_centers
        assert 0 < keep.sum() < full.n_edges or n_centers in (0, system.n_atoms)
        got = neighbor_list(system, cutoff, method, n_centers=n_centers)
        assert got.edge_index.dtype == np.int64
        assert np.array_equal(got.edge_index, full.edge_index[:, keep])
        assert np.array_equal(got.shifts, full.shifts[keep])

    @pytest.mark.parametrize("n_centers", [0, 1, 137, 431, 500])
    def test_periodic_crystal(self, rng, n_centers):
        # 5^3 fcc cells, atoms pushed slightly out of the box so the wrap
        # offsets of both endpoints enter the shifts
        cells = np.stack(np.meshgrid(*[np.arange(5)] * 3, indexing="ij"), -1)
        basis = np.array([[0, 0, 0], [.5, .5, 0], [.5, 0, .5], [0, .5, .5]])
        pos = (2.31 * (cells.reshape(-1, 1, 3) + basis)).reshape(-1, 3)
        pos = rng.permutation(pos + rng.normal(scale=0.05, size=pos.shape) - 0.1)
        system = System(pos, np.zeros(len(pos), int), Cell.cubic(2.31 * 5))
        self.assert_is_filtered_full_list(system, 3.4, "cells", n_centers)
        self.assert_is_filtered_full_list(system, 3.4, "brute", n_centers)

    @pytest.mark.parametrize("method", ["auto", "cells", "brute"])
    def test_open_boundary_shard(self, rng, method):
        """Owned atoms in a brick, ghosts in the shell around it (cell=None):
        the shape ``DomainDecomposition.local_neighbor_list`` passes."""
        inner = rng.uniform(0.0, 14.0, (900, 3))
        shell = rng.uniform(-3.4, 17.4, (4000, 3))
        shell = shell[((shell < 0.0) | (shell > 14.0)).any(axis=1)]
        system = System(np.concatenate([inner, shell]), np.zeros(900 + len(shell), int), None)
        assert system.n_atoms >= 2000  # 'auto' bins an open system this large
        self.assert_is_filtered_full_list(system, 3.4, method, 900)

    def test_small_system_takes_the_brute_force_route(self, rng):
        n = 200  # < 256 atoms: 'auto' is brute force, periodic or not
        pos = rng.uniform(0, 11.0, (n, 3))
        for cell in (Cell.cubic(11.0), None):
            system = System(pos, np.zeros(n, int), cell)
            self.assert_is_filtered_full_list(system, 3.0, "auto", 60)
            auto = neighbor_list(system, 3.0, n_centers=60)
            brute = neighbor_list(system, 3.0, "brute", n_centers=60)
            assert np.array_equal(auto.edge_index, brute.edge_index)

    def test_shard_lists_equal_the_filtered_full_list(self, rng):
        from repro.parallel import DomainDecomposition, ProcessGrid

        n, L = 1500, 21.0
        system = System(rng.uniform(0, L, (n, 3)), np.zeros(n, int), Cell.cubic(L))
        decomp = DomainDecomposition(ProcessGrid.create(4, system.cell), 3.4)
        for shard in decomp.build(system):
            local = System(shard.positions, shard.species, cell=None)
            full = neighbor_list(local, 3.4)
            keep = full.edge_index[0] < shard.n_owned
            got = decomp.local_neighbor_list(shard, 3.4)
            assert np.array_equal(got.edge_index, full.edge_index[:, keep])
            assert np.array_equal(got.shifts, full.shifts[keep])

    def test_rejects_a_center_count_outside_the_system(self, rng):
        system = System(rng.uniform(0, 5, (10, 3)), np.zeros(10, int), None)
        for bad in (-1, 11):
            with pytest.raises(ValueError, match="n_centers"):
                neighbor_list(system, 2.0, n_centers=bad)


class TestPerPairCutoffs:
    def test_ordered_filtering(self, rng):
        n = 200
        s = System(
            rng.uniform(0, 10, (n, 3)),
            rng.integers(0, 2, n),
            Cell.cubic(10.0),
        )
        cut = np.array([[3.0, 1.2], [3.0, 3.0]])  # (0→1) strict
        nl = neighbor_list(s, 3.0)
        f = filter_by_pair_cutoffs(nl, s.positions, s.species, cut)
        i, j = f.edge_index
        d = f.distances(s.positions)
        mask01 = (s.species[i] == 0) & (s.species[j] == 1)
        if mask01.any():
            assert d[mask01].max() < 1.2
        mask10 = (s.species[i] == 1) & (s.species[j] == 0)
        if mask10.any():
            assert d[mask10].max() < 3.0
            assert d[mask10].max() > 1.2  # asymmetry retained

    def test_pair_count_reduction(self, rng):
        n = 300
        s = System(
            rng.uniform(0, 12, (n, 3)), rng.integers(0, 2, n), Cell.cubic(12.0)
        )
        cut = np.array([[1.5, 1.5], [4.0, 4.0]])
        full, reduced = ordered_pair_counts(s, cut)
        assert reduced < full


class TestVerletList:
    def test_rebuild_on_motion(self, rng):
        s = System(rng.uniform(0, 10, (100, 3)), np.zeros(100, int), Cell.cubic(10.0))
        v = VerletList(2.5, skin=0.5)
        v.get(s)
        assert v.n_builds == 1
        s.positions += 0.05  # uniform drift below skin/2
        v.get(s)
        assert v.n_builds == 1
        s.positions[0] += 0.5
        v.get(s)
        assert v.n_builds == 2

    def test_wraps_at_rebuild(self, rng):
        s = System(rng.uniform(0, 10, (50, 3)), np.zeros(50, int), Cell.cubic(10.0))
        s.positions[0] = [12.0, 5.0, 5.0]
        VerletList(2.0, skin=0.4).get(s)
        assert s.positions[0, 0] == pytest.approx(2.0)

    def test_rejects_negative_skin(self):
        with pytest.raises(ValueError):
            VerletList(2.0, skin=-0.1)

    def test_get_returns_the_pairs_inside_the_cutoff(self, rng):
        """Built at cutoff + skin, handed out pruned: between rebuilds the
        list equals a fresh build at the exact cutoff."""
        s = System(rng.uniform(0, 10, (100, 3)), np.zeros(100, int), Cell.cubic(10.0))
        v = VerletList(2.5, skin=0.5)
        for _ in range(4):
            nl = v.get(s)
            exact = neighbor_list(s, 2.5)
            assert nl.n_edges == exact.n_edges < v.n_candidates
            np.testing.assert_allclose(
                np.sort(nl.distances(s.positions)),
                np.sort(exact.distances(s.positions)),
                rtol=1e-12,
            )
            s.positions += rng.normal(scale=0.03, size=s.positions.shape)
        assert v.n_builds == 1

    def test_ordered_pair_matrix_cutoff(self, rng):
        """A matrix cutoff builds at its max + skin and prunes per ordered
        species pair — the same edges as filtering an exact-max list."""
        s = System(
            rng.uniform(0, 10, (150, 3)), rng.integers(0, 2, 150), Cell.cubic(10.0)
        )
        cut = np.array([[3.0, 1.2], [2.4, 3.0]])
        v = VerletList(cut, skin=0.4)
        nl = v.get(s)
        ref = filter_by_pair_cutoffs(neighbor_list(s, 3.0), s.positions, s.species, cut)
        assert _canon(nl) == _canon(ref)
        assert v.n_candidates == neighbor_list(s, 3.4).n_edges

    def test_unchanged_list_is_returned_as_is(self, rng):
        s = System(rng.uniform(0, 10, (60, 3)), np.zeros(60, int), Cell.cubic(10.0))
        nl = neighbor_list(s, 2.5)
        assert prune_to_cutoff(nl, s.positions, s.species, 2.5) is nl


class TestTripletList:
    def test_counts_and_centers(self, rng):
        s = System(rng.uniform(0, 8, (60, 3)), np.zeros(60, int), Cell.cubic(8.0))
        nl = neighbor_list(s, 2.5)
        e1, e2 = triplet_list(nl)
        i = nl.edge_index[0]
        assert (i[e1] == i[e2]).all()
        assert (e1 != e2).all()
        c = np.bincount(i)
        assert len(e1) == (c * (c - 1)).sum()

    def test_empty(self):
        nl = NeighborList(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3)))
        e1, e2 = triplet_list(nl)
        assert len(e1) == 0 and len(e2) == 0
