"""The batch neighbor builder ≡ one list per structure, bit for bit.

``merged_neighbor_list`` lays the candidate pairs of a whole batch out
ragged and runs one brute-force pass over them; a served batch and the
batch-of-one behind every ``neighbor_list(..., "brute")`` go through the
same kernel.  Served ≡ direct rests on that kernel giving each structure
the edges, the edge order and the shift *bits* (signed zeros included) it
gets on its own, so the reference here is a frozen copy of the
per-structure implementation the kernel replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Cell, System, neighbor_list
from repro.md.neighborlist import (
    _PAIR_CHUNK,
    NeighborList,
    _brute_force,
    filter_by_pair_cutoffs,
    merged_neighbor_list,
)

CUTOFF = 2.9


def frozen_brute_force(pos, cell, cutoff, n_centers):
    """``md.neighborlist._brute_force`` as of PR 22, kept as the reference."""
    n = len(pos)
    if cell is not None:
        for ax in range(3):
            if cell.pbc[ax] and cutoff > cell.lengths[ax] / 2 + 1e-9:
                raise ValueError(
                    f"brute-force minimum image needs cutoff <= L/2; "
                    f"cutoff={cutoff}, L[{ax}]={cell.lengths[ax]}"
                )
    chunk = max(1, int(4e6 // max(n, 1)))
    rows_i, rows_j, rows_s = [], [], []
    cut2 = cutoff * cutoff
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        disp = pos[None, start:stop, :] - pos[:n_centers, None, :]
        shift = np.zeros_like(disp)
        if cell is not None:
            for ax in range(3):
                if cell.pbc[ax]:
                    L = cell.lengths[ax]
                    s = -L * np.round(disp[..., ax] / L)
                    shift[..., ax] = s
            disp = disp + shift
        d2 = np.sum(disp * disp, axis=-1)
        ii, jj = np.nonzero(d2 < cut2)
        jj_global = jj + start
        keep = ii != jj_global
        rows_i.append(ii[keep])
        rows_j.append(jj_global[keep])
        rows_s.append(shift[ii[keep], jj[keep]])
    edge_index = np.stack(
        [np.concatenate(rows_i).astype(np.int64), np.concatenate(rows_j).astype(np.int64)]
    )
    return NeighborList(edge_index, np.concatenate(rows_s, axis=0))


def concatenation(systems, nls):
    """One super-structure: atoms stacked, each list's edges shifted by its
    structure's first atom row."""
    offsets = np.concatenate([[0], np.cumsum([s.n_atoms for s in systems])])
    edge_index = np.concatenate(
        [np.zeros((2, 0), np.int64)] + [nl.edge_index + off for nl, off in zip(nls, offsets)],
        axis=1,
    )
    return (
        np.concatenate([s.positions for s in systems]),
        np.concatenate([s.species for s in systems]),
        NeighborList(edge_index, np.concatenate([np.zeros((0, 3))] + [nl.shifts for nl in nls])),
        offsets,
    )


def edge_counts(nl, offsets):
    """Edges per structure of a merged list, counted by center atom."""
    structure = np.searchsorted(offsets, nl.edge_index[0], side="right") - 1
    return np.bincount(structure, minlength=len(offsets) - 1)


def assert_same_list(got: NeighborList, want: NeighborList):
    assert got.edge_index.dtype == want.edge_index.dtype == np.int64
    assert got.edge_index.shape == want.edge_index.shape
    assert np.array_equal(got.edge_index, want.edge_index)
    assert got.shifts.shape == want.shifts.shape
    # bits, not values: -0.0 and +0.0 are different shifts here
    assert np.array_equal(
        np.ascontiguousarray(got.shifts).view(np.int64),
        np.ascontiguousarray(want.shifts).view(np.int64),
    )


def random_structure(rng, n, lattice=False):
    """Atoms scattered slightly beyond a box with a random mix of open and
    periodic axes (one time in four: no box at all)."""
    lengths = rng.uniform(2 * CUTOFF + 0.1, 12.0, size=3)
    cell = None if rng.random() < 0.25 else Cell(lengths, rng.random(3) < 0.6)
    pos = rng.uniform(-1.0, lengths + 1.0, size=(n, 3))
    if lattice:  # exact zeros, exact ties at round()'s half-way points
        pos = np.round(pos)
    return System(pos, rng.integers(0, 2, size=n), cell)


class TestKernelAgainstTheFrozenCopy:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batch_of_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        system = random_structure(rng, n, lattice=seed % 3 == 0)
        n_centers = int(rng.integers(0, n + 1))
        got = _brute_force(system.positions, [n], [system.cell], CUTOFF, [n_centers])
        assert_same_list(
            got, frozen_brute_force(system.positions, system.cell, CUTOFF, n_centers)
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_with_fewer_centers_than_atoms(self, seed):
        """Each structure's edges are its own frozen list, offset."""
        rng = np.random.default_rng(seed)
        systems = [
            random_structure(rng, int(rng.integers(1, 70)))
            for _ in range(int(rng.integers(1, 9)))
        ]
        sizes = [s.n_atoms for s in systems]
        n_centers = [int(rng.integers(0, n + 1)) for n in sizes]
        got = _brute_force(
            np.concatenate([s.positions for s in systems]),
            sizes,
            [s.cell for s in systems],
            CUTOFF,
            n_centers,
        )
        want = concatenation(
            systems,
            [
                frozen_brute_force(s.positions, s.cell, CUTOFF, nc)
                for s, nc in zip(systems, n_centers)
            ],
        )[2]
        assert_same_list(got, want)

    @pytest.mark.parametrize("cell", [None, Cell((30.0, 31.0, 32.0), (True, False, True))])
    def test_column_tiles_of_a_large_structure(self, cell):
        """More than 2000 atoms: edges come column tile by column tile, and
        a pass never holds more than ``_PAIR_CHUNK`` candidate pairs."""
        rng = np.random.default_rng(5)
        pos = rng.uniform(0.0, 30.0, size=(2300, 3))
        assert 4e6 // len(pos) < len(pos) and 4e6 // len(pos) <= _PAIR_CHUNK
        got = _brute_force(pos, [len(pos)], [cell], CUTOFF, [700])
        assert_same_list(got, frozen_brute_force(pos, cell, CUTOFF, 700))


class TestMergedAgainstPerStructureLists:
    @staticmethod
    def assert_is_the_concatenation(systems, merged, nls):
        positions, species, nl, offsets = concatenation(systems, nls)
        assert len(merged) == 4
        assert np.array_equal(merged[0], positions)
        assert np.array_equal(merged[1], species) and merged[1].dtype == species.dtype
        assert_same_list(merged[2], nl)
        assert np.array_equal(merged[3], offsets) and merged[3].dtype == np.int64
        assert edge_counts(merged[2], merged[3]).tolist() == [x.n_edges for x in nls]

    def test_offsets_and_edge_shifting(self):
        """Every list given: the graphs stay disjoint, each structure's
        edges index only its own atom rows."""
        rng = np.random.default_rng(1)
        s1, s2 = random_structure(rng, 5), random_structure(rng, 7)
        nl1, nl2 = neighbor_list(s1, CUTOFF), neighbor_list(s2, CUTOFF)
        pos, spec, nl, offsets = merged_neighbor_list([s1, s2], None, [nl1, nl2])
        assert pos.shape == (12, 3) and spec.shape == (12,)
        assert offsets.tolist() == [0, 5, 12]
        assert nl.n_edges == nl1.n_edges + nl2.n_edges
        assert np.array_equal(nl.edge_index[:, : nl1.n_edges], nl1.edge_index)
        assert np.array_equal(nl.edge_index[:, nl1.n_edges :], nl2.edge_index + 5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        systems = [
            random_structure(rng, int(rng.integers(2, 70)), lattice=k == 3)
            for k in range(int(rng.integers(1, 8)))
        ]
        # always present: one atom, no edge at all, no box
        systems.insert(int(rng.integers(0, len(systems) + 1)), random_structure(rng, 1))
        far = System(
            np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0], [8.0, 8.0, 8.0]]),
            np.zeros(3, int),
            Cell.cubic(12.0),
        )
        systems.insert(int(rng.integers(0, len(systems) + 1)), far)
        systems.append(System(rng.uniform(0, 5, (9, 3)), np.zeros(9, int), None))
        nls = [neighbor_list(s, CUTOFF) for s in systems]
        assert nls[systems.index(far)].n_edges == 0
        self.assert_is_the_concatenation(
            systems, merged_neighbor_list(systems, CUTOFF), nls
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_cell_list_sized_and_caller_supplied_lists_keep_their_place(self, seed):
        rng = np.random.default_rng(seed)
        systems = [random_structure(rng, int(rng.integers(2, 50))) for _ in range(4)]
        big = System(
            rng.uniform(0, 12.0, (300, 3)), rng.integers(0, 2, 300), Cell.cubic(12.0)
        )
        systems.insert(int(rng.integers(0, 5)), big)
        nls = [neighbor_list(s, CUTOFF) for s in systems]
        # 'auto' bins the big one: its list is not in brute-force order
        assert not np.array_equal(
            neighbor_list(big, CUTOFF, "brute").edge_index,
            nls[systems.index(big)].edge_index,
        )
        # a caller's list is kept as it is, whatever it holds: here, reversed
        k = int(rng.integers(0, 5))
        nls[k] = NeighborList(nls[k].edge_index[:, ::-1], nls[k].shifts[::-1])
        given_lists = [nl if i == k else None for i, nl in enumerate(nls)]
        self.assert_is_the_concatenation(
            systems, merged_neighbor_list(systems, CUTOFF, given_lists), nls
        )

    def test_pruning_the_merged_list_is_pruning_each_list(self):
        rng = np.random.default_rng(11)
        systems = [random_structure(rng, int(rng.integers(5, 60))) for _ in range(6)]
        big = System(
            rng.uniform(0, 12.0, (280, 3)), rng.integers(0, 2, 280), Cell.cubic(12.0)
        )
        systems.insert(2, big)
        matrix = np.array([[CUTOFF, 1.7], [2.3, CUTOFF]])

        def pruned(system):
            return filter_by_pair_cutoffs(
                neighbor_list(system, CUTOFF), system.positions, system.species, matrix
            )

        nls = [pruned(s) for s in systems]
        given_lists = [None] * len(systems)
        given_lists[4] = nls[4] = neighbor_list(systems[4], CUTOFF)  # not pruned again
        merged = merged_neighbor_list(systems, CUTOFF, given_lists, pruned, matrix)
        self.assert_is_the_concatenation(systems, merged, nls)
        assert merged[2].n_edges < sum(neighbor_list(s, CUTOFF).n_edges for s in systems)


class TestValidation:
    def test_cutoff_beyond_half_a_periodic_box_raises_the_same_error(self):
        rng = np.random.default_rng(2)
        ok = System(rng.uniform(0, 9, (12, 3)), np.zeros(12, int), Cell.cubic(9.0))
        small = System(
            rng.uniform(0, 5, (10, 3)), np.zeros(10, int), Cell((9.0, 5.0, 4.0))
        )
        with pytest.raises(ValueError) as alone:
            neighbor_list(small, 3.0)
        with pytest.raises(ValueError) as frozen:
            frozen_brute_force(small.positions, small.cell, 3.0, 10)
        with pytest.raises(ValueError) as batched:
            merged_neighbor_list([ok, small, ok], 3.0)
        assert str(alone.value) == str(frozen.value) == str(batched.value)
        assert "L[1]=5.0" in str(batched.value)
        # open along the short axes: nothing to wrap, nothing to reject
        small.cell = Cell((9.0, 5.0, 4.0), (True, False, False))
        merged_neighbor_list([ok, small], 3.0)
        # and a structure that brings its list is not this function's to judge
        own = neighbor_list(small, 3.0)
        small.cell = Cell((9.0, 5.0, 4.0))
        merged_neighbor_list([ok, small], 3.0, [None, own])

    def test_cutoff_must_be_positive(self):
        s = System(np.zeros((2, 3)), np.zeros(2, int), None)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="cutoff must be positive"):
                merged_neighbor_list([s], bad)

    def test_one_list_slot_per_structure(self):
        s = System(np.zeros((2, 3)), np.zeros(2, int), None)
        with pytest.raises(ValueError, match="one neighbor list per structure"):
            merged_neighbor_list([s, s], 1.0, [None])

    def test_empty_structures_and_an_all_empty_batch(self):
        none = System(np.zeros((0, 3)), np.zeros(0, int), Cell.cubic(9.0))
        one = System(np.ones((1, 3)), np.zeros(1, int), Cell.cubic(9.0))
        positions, species, nl, offsets = merged_neighbor_list([none, one, none], 3.0)
        assert positions.shape == (1, 3) and offsets.tolist() == [0, 0, 1, 1]
        assert nl.edge_index.shape == (2, 0) and nl.edge_index.dtype == np.int64
        assert nl.shifts.shape == (0, 3)
        assert edge_counts(nl, offsets).tolist() == [0, 0, 0]
