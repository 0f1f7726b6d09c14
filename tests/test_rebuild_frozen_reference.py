"""The reneighbor path ≡ frozen copies of the code it replaced, bit for bit.

A parallel rebuild runs ``DomainDecomposition.build`` (ghost selection per
axis instead of 27 shifted copies per rank) and one ``_cell_list`` per shard
(gathers from bin-sorted columns, column-add d², shifts only where a bin
wraps); every step runs the halo exchanges (message tables per rebuild, one
``np.bincount`` per column instead of ``np.add.at`` per rank), and each
halo message is one ``VirtualCluster.transfer`` in a ledger instead of a
mailbox ``send`` + ``recv`` pair.  Bitwise trajectories rest on each of them
giving what the straightforward version gave: the same edges in the same
order with the same shift bits, the same shard arrays, the same comm
traffic, fault counters and fault draws.  The references here are frozen
copies of those straightforward versions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Cell, System
from repro.md.neighborlist import NeighborList, _cell_list
from repro.parallel import ProcessGrid
from repro.parallel.comm import CommStats, VirtualCluster
from repro.parallel.decomposition import DomainDecomposition
from repro.resilience import FaultPlan

_POS_BYTES = 24


def frozen_ragged_arange(starts, lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        np.asarray(starts, dtype=np.int64) - (ends - lengths), lengths
    )


def frozen_cell_list(pos, cell, cutoff, n_centers):
    """``md.neighborlist._cell_list`` before the bin-sorted gathers, kept
    as the reference."""
    if cell is not None:
        orig = pos
        pos = cell.wrap(pos)
        wrap_offset = pos - orig
        lengths = cell.lengths
        pbc = cell.pbc
    else:
        lo = pos.min(axis=0) - 1e-9
        pos = pos - lo
        wrap_offset = None
        lengths = pos.max(axis=0) + 1e-6
        pbc = np.zeros(3, dtype=bool)

    nbins = np.maximum(np.floor(lengths / cutoff).astype(int), 1)
    for ax in range(3):
        if pbc[ax] and nbins[ax] < 3:
            raise ValueError("cell list needs >= 3 bins per periodic axis")
    bin_size = lengths / nbins
    coords = np.minimum((pos / bin_size).astype(int), nbins - 1)
    flat = (coords[:, 0] * nbins[1] + coords[:, 1]) * nbins[2] + coords[:, 2]
    total_bins = int(np.prod(nbins))

    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    counts = np.bincount(sorted_flat, minlength=total_bins)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    centers = np.nonzero(order < n_centers)[0]
    center_bins = sorted_flat[centers]

    bx, by, bz = np.meshgrid(
        np.arange(nbins[0]), np.arange(nbins[1]), np.arange(nbins[2]), indexing="ij"
    )
    bin_coords = np.stack([bx.ravel(), by.ravel(), bz.ravel()], axis=1)

    cut2 = cutoff * cutoff
    all_i, all_j, all_s = [], [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                d = np.array([dx, dy, dz])
                ncoords = bin_coords + d
                wrap_shift = np.zeros((total_bins, 3))
                valid = np.ones(total_bins, dtype=bool)
                for ax in range(3):
                    over = ncoords[:, ax] >= nbins[ax]
                    under = ncoords[:, ax] < 0
                    if pbc[ax]:
                        wrap_shift[over, ax] = lengths[ax]
                        wrap_shift[under, ax] = -lengths[ax]
                        ncoords[over, ax] -= nbins[ax]
                        ncoords[under, ax] += nbins[ax]
                    else:
                        valid &= ~(over | under)
                nflat = (ncoords[:, 0] * nbins[1] + ncoords[:, 1]) * nbins[2] + ncoords[:, 2]
                nflat = np.where(valid, nflat, 0)

                nb_of_atom = nflat[center_bins]
                cand_count = np.where(valid[center_bins], counts[nb_of_atom], 0)
                total = int(cand_count.sum())
                if total == 0:
                    continue
                i_rep_sorted = np.repeat(centers, cand_count)
                j_sorted_idx = frozen_ragged_arange(offsets[nb_of_atom], cand_count)

                i_atoms = order[i_rep_sorted]
                j_atoms = order[j_sorted_idx]
                shift = (wrap_shift[sorted_flat])[i_rep_sorted]

                disp = pos[j_atoms] + shift - pos[i_atoms]
                d2 = np.sum(disp * disp, axis=1)
                keep = d2 < cut2
                if dx == 0 and dy == 0 and dz == 0:
                    keep &= i_atoms != j_atoms
                i_k, j_k = i_atoms[keep], j_atoms[keep]
                s_k = shift[keep]
                if wrap_offset is not None:
                    s_k = s_k + wrap_offset[j_k] - wrap_offset[i_k]
                all_i.append(i_k)
                all_j.append(j_k)
                all_s.append(s_k)

    if not all_i:
        return NeighborList(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3)))
    edge_index = np.stack(
        [np.concatenate(all_i).astype(np.int64), np.concatenate(all_j).astype(np.int64)]
    )
    return NeighborList(edge_index, np.concatenate(all_s, axis=0))


class FrozenCommError(RuntimeError):
    pass


class FrozenVirtualCluster:
    """The mailbox ``VirtualCluster`` before the ledger, kept as the
    reference: ``send`` records and draws, ``recv`` pops the mailbox and
    redelivers a delayed or (retransmitting it) a dropped payload."""

    def __init__(self, n_ranks, fault_plan=None, max_retries=3):
        self.n_ranks = n_ranks
        self.stats = CommStats()
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.n_dropped = self.n_delayed = self.n_retransmits = 0
        self._mailboxes, self._lost, self._delayed = {}, {}, {}

    def send(self, src, dst, category, payload, tag=0):
        self._check(src)
        self._check(dst)
        key = (src, dst, category, tag)
        if src != dst:
            self.stats.record(category, sum(np.asarray(a).nbytes for a in payload))
            if self.fault_plan is not None:
                if self.fault_plan.fires("comm.drop"):
                    self.n_dropped += 1
                    self._lost.setdefault(key, []).append(payload)
                    return
                if self.fault_plan.fires("comm.delay"):
                    self.n_delayed += 1
                    self._delayed.setdefault(key, []).append(payload)
                    return
        self._mailboxes.setdefault(key, []).append(payload)

    def recv(self, dst, src, category, tag=0):
        key = (src, dst, category, tag)
        for _ in range(self.max_retries + 1):
            box = self._mailboxes.get(key)
            if box:
                return box.pop(0)
            if not self._redeliver(key):
                break
        raise FrozenCommError(f"no message from rank {src} to {dst} in {category!r}")

    def _redeliver(self, key):
        delayed = self._delayed.get(key)
        if delayed:
            self._mailboxes.setdefault(key, []).append(delayed.pop(0))
            return True
        lost = self._lost.get(key)
        if lost:
            payload = lost.pop(0)
            self.n_retransmits += 1
            self.stats.record("retransmit", sum(np.asarray(a).nbytes for a in payload))
            self._mailboxes.setdefault(key, []).append(payload)
            return True
        return False

    def pending(self):
        return sum(
            len(v) for boxes in (self._mailboxes, self._lost, self._delayed)
            for v in boxes.values()
        )

    def fault_stats(self):
        return {
            "n_dropped": self.n_dropped,
            "n_delayed": self.n_delayed,
            "n_retransmits": self.n_retransmits,
        }

    def _check(self, rank):
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")


class FrozenDecomposition(DomainDecomposition):
    """``build`` and the two halo exchanges before the per-axis ghost
    selection, the per-rebuild message tables, the bincount reverse sum and
    the ledger, kept as the reference (on a :class:`FrozenVirtualCluster`)."""

    def build(self, system):
        pos = system.cell.wrap(system.positions)
        owner = self.grid.owner_of(pos)
        if self._prev_owner is not None and len(self._prev_owner) == len(owner):
            moved = np.nonzero(owner != self._prev_owner)[0]
            for g in np.unique(owner[moved]):
                count = int((owner[moved] == g).sum())
                self.cluster.stats.record("migrate", count * (2 * _POS_BYTES + 16))
        self._prev_owner = owner.copy()

        ranges = [(-1, 0, 1) if system.cell.pbc[ax] else (0,) for ax in range(3)]
        image_shifts = [
            np.array([sx, sy, sz]) * system.cell.lengths
            for sx in ranges[0]
            for sy in ranges[1]
            for sz in ranges[2]
        ]
        shards = []
        for rank in range(self.grid.n_ranks):
            lo, hi = self.grid.domain_bounds(rank)
            owned = np.nonzero(owner == rank)[0]
            ghost_ids, ghost_shift_rows = [], []
            for shift in image_shifts:
                shifted = pos + shift
                inside = np.all(
                    (shifted >= lo - self.cutoff) & (shifted < hi + self.cutoff),
                    axis=1,
                )
                if shift.any():
                    cand = np.nonzero(inside)[0]
                else:
                    cand = np.nonzero(inside & (owner != rank))[0]
                if len(cand):
                    ghost_ids.append(cand)
                    ghost_shift_rows.append(np.broadcast_to(shift, (len(cand), 3)))
            if ghost_ids:
                gids = np.concatenate(ghost_ids)
                gshifts = np.concatenate(ghost_shift_rows, axis=0)
            else:
                gids = np.zeros(0, dtype=np.int64)
                gshifts = np.zeros((0, 3))
            gowner = owner[gids]
            for src in np.unique(gowner):
                if src == rank:
                    continue
                count = int((gowner == src).sum())
                self.cluster.stats.record("halo_build", count * (_POS_BYTES + 16))
            local_pos = np.concatenate([pos[owned], pos[gids] + gshifts], axis=0)
            local_spec = np.concatenate([system.species[owned], system.species[gids]])
            shards.append(
                _Shard(rank, owned, gids, gshifts, gowner, local_pos, local_spec)
            )
        return shards

    def update_ghost_positions(self, shards, system):
        pos = system.positions
        for shard in shards:
            shard.positions[: shard.n_owned] = pos[shard.owned_ids]
            if shard.n_ghost == 0:
                continue
            shard.positions[shard.n_owned :] = pos[shard.ghost_ids] + shard.ghost_shifts
            for src in np.unique(shard.ghost_owner):
                if src == shard.rank:
                    continue
                count = int((shard.ghost_owner == src).sum())
                self.cluster.send(int(src), shard.rank, "halo_forward", (np.empty((count, 3)),))
                self.cluster.recv(shard.rank, int(src), "halo_forward")

    def reverse_force_exchange(self, shards, ghost_forces, n_atoms):
        n_total = max((int(s.owned_ids.max()) + 1 if s.n_owned else 0) for s in shards)
        n_total = max(
            n_total,
            max((int(s.ghost_ids.max()) + 1 if s.n_ghost else 0) for s in shards),
        )
        out = np.zeros((n_total, 3))
        for shard, gf in zip(shards, ghost_forces):
            if shard.n_ghost == 0:
                continue
            if gf.shape != (shard.n_ghost, 3):
                raise ValueError("ghost force block has wrong shape")
            np.add.at(out, shard.ghost_ids, gf)
            for dst in np.unique(shard.ghost_owner):
                if dst == shard.rank:
                    continue
                count = int((shard.ghost_owner == dst).sum())
                self.cluster.send(shard.rank, int(dst), "halo_reverse", (np.empty((count, 3)),))
                self.cluster.recv(int(dst), shard.rank, "halo_reverse")
        return out


class _Shard:
    def __init__(self, rank, owned, gids, gshifts, gowner, positions, species):
        self.rank, self.owned_ids, self.ghost_ids = rank, owned, gids
        self.ghost_shifts, self.ghost_owner = gshifts, gowner
        self.positions, self.species = positions, species
        self.n_owned, self.n_ghost = len(owned), len(gids)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    # bits, not values: -0.0 and +0.0 differ here
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def assert_same_list(got: NeighborList, want: NeighborList):
    assert_bitwise(got.edge_index, want.edge_index)
    assert_bitwise(got.shifts, want.shifts)


def comm_state(cluster):
    """Messages and bytes per category, fault counters and fault-plan
    draws; a frozen cluster must also have delivered everything."""
    if isinstance(cluster, FrozenVirtualCluster):
        assert cluster.pending() == 0
    plan = cluster.fault_plan
    return (
        dict(cluster.stats.messages),
        dict(cluster.stats.bytes),
        cluster.fault_stats(),
        None if plan is None else plan.stats(),
    )


class TestCellListAgainstTheFrozenCopy:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_open_and_periodic_systems(self, seed):
        """Edges, order and shift bits, for any mix of open and periodic
        axes, any number of centers and atoms outside the box."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 250))
        cutoff = float(rng.choice([1.7, 2.5, 3.0]))
        lengths = rng.uniform(2.0 * cutoff, 7.0 * cutoff, size=3)
        cell = None if rng.random() < 0.3 else Cell(lengths, rng.random(3) < 0.7)
        pos = rng.uniform(-1.5, lengths + 1.5, size=(n, 3))
        if seed % 3 == 0:  # exact zeros, atoms on bin edges
            pos = np.round(pos * 2) / 2
        n_centers = int(rng.integers(0, n + 1))
        try:
            want = frozen_cell_list(pos, cell, cutoff, n_centers)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                _cell_list(pos, cell, cutoff, n_centers)
            return
        assert_same_list(_cell_list(pos, cell, cutoff, n_centers), want)

    @pytest.mark.parametrize("pbc", [True, (True, False, True)])
    def test_a_benchmark_sized_crystal_and_its_shards(self, pbc):
        """4 000 fcc atoms: the periodic list and each 4-rank shard's open
        list, as the parallel driver builds them."""
        rng = np.random.default_rng(3)
        basis = np.array([[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]])
        cells = np.stack(np.meshgrid(*[np.arange(10)] * 3, indexing="ij"), -1)
        pos = (2.31 * (cells.reshape(-1, 1, 3) + basis)).reshape(-1, 3)
        pos = pos + rng.normal(scale=0.05, size=pos.shape)
        system = System(pos, np.zeros(len(pos), dtype=int), Cell.cubic(23.1, pbc))
        assert_same_list(
            _cell_list(pos, system.cell, 3.4, 2500),
            frozen_cell_list(pos, system.cell, 3.4, 2500),
        )
        decomp = DomainDecomposition(ProcessGrid.create(4, system.cell), 3.4)
        for shard in decomp.build(system):
            assert_same_list(
                _cell_list(shard.positions, None, 3.4, shard.n_owned),
                frozen_cell_list(shard.positions, None, 3.4, shard.n_owned),
            )


GRIDS = {
    1: [(1, 1, 1)],
    2: [(2, 1, 1), (1, 1, 2)],
    4: [(1, 2, 2), (4, 1, 1), (2, 1, 2)],
    8: [(2, 2, 2), (1, 2, 4)],
}


def decompositions(grid, cutoff, seed=0, fault_rate=0.0):
    """One decomposition of each kind — the ledger and the frozen mailbox
    cluster with the smallest retry budget that delivers everything — on
    independent clusters drawing from identical fault plans."""
    rates = {"comm.drop": fault_rate, "comm.delay": fault_rate}
    plans = [FaultPlan(seed, rates=rates) if fault_rate else None for _ in range(2)]
    return [
        DomainDecomposition(grid, cutoff, VirtualCluster(grid.n_ranks, plans[0])),
        FrozenDecomposition(
            grid, cutoff, FrozenVirtualCluster(grid.n_ranks, plans[1], max_retries=1)
        ),
    ]


def box_of_atoms(n, length, seed):
    rng = np.random.default_rng(seed)
    return System(
        rng.uniform(0, length, size=(n, 3)), np.zeros(n, dtype=int), Cell.cubic(length)
    )


def random_decomposition(seed, fault_rate=0.0):
    """A system, a grid of 1/2/4/8 ranks over it, and :func:`decompositions`."""
    rng = np.random.default_rng(seed)
    n_ranks = int(rng.choice([1, 2, 4, 8]))
    dims = GRIDS[n_ranks][int(rng.integers(len(GRIDS[n_ranks])))]
    cutoff = float(rng.choice([1.5, 2.2, 3.0]))
    lengths = np.array([rng.uniform(max(d, 2) * cutoff + 0.1, 20.0) for d in dims])
    pbc = rng.random(3) < 0.8
    cell = Cell(lengths, pbc)
    n = int(rng.integers(1, 400))
    # Periodic axes may hold atoms outside the box (build wraps them);
    # open ones keep theirs inside, where owner_of can place them.
    margin = np.where(pbc, 1.0, 0.0)
    pos = rng.uniform(-margin, lengths + margin - 1e-9 * ~pbc, size=(n, 3))
    system = System(pos, rng.integers(0, 3, size=n), cell)
    if rng.random() < 0.3:
        grid = ProcessGrid(dims, cell)
        grid.rebalance(pos)
        try:
            grid.validate_cutoff(cutoff)
        except ValueError:
            grid = ProcessGrid(dims, cell)
    else:
        grid = ProcessGrid(dims, cell)
    return rng, system, decompositions(grid, cutoff, seed, fault_rate)


def assert_same_shards(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.rank == w.rank
        for name in ("owned_ids", "ghost_ids", "ghost_shifts", "ghost_owner",
                     "positions", "species"):
            assert_bitwise(getattr(g, name), getattr(w, name))


class TestDecompositionAgainstTheFrozenCopy:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shards_halo_traffic_and_reverse_sums(self, seed):
        """Two rebuilds (the second after atoms moved, so some migrate),
        each followed by a forward and a reverse exchange."""
        rng, system, (new, frozen) = random_decomposition(seed)
        for _ in range(2):
            got, want = new.build(system), frozen.build(system)
            assert_same_shards(got, want)
            assert comm_state(new.cluster) == comm_state(frozen.cluster)

            moved = system.copy()
            moved.positions = system.positions + rng.normal(scale=0.1, size=(system.n_atoms, 3))
            new.update_ghost_positions(got, moved)
            frozen.update_ghost_positions(want, moved)
            assert_same_shards(got, want)
            assert comm_state(new.cluster) == comm_state(frozen.cluster)

            blocks = [rng.normal(size=(s.n_ghost, 3)) for s in got]
            for block in blocks:  # signed zeros must add up the same way
                block[rng.random(block.shape) < 0.2] = -0.0
            assert_bitwise(
                new.reverse_force_exchange(got, blocks, system.n_atoms),
                frozen.reverse_force_exchange(want, blocks, system.n_atoms),
            )
            assert comm_state(new.cluster) == comm_state(frozen.cluster)
            system = moved

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fault_draws_and_failures_line_up(self, seed):
        """Same draws, same counters: under dropped and delayed messages
        every transfer draws what the mailbox send drew, in the same order,
        and the ledger counts what its redelivery counted."""
        rng, system, (new, frozen) = random_decomposition(seed, fault_rate=0.4)
        got, want = new.build(system), frozen.build(system)
        for _ in range(3):
            for decomp, shards in ((new, got), (frozen, want)):
                decomp.update_ghost_positions(shards, system)
            blocks = [np.ones((s.n_ghost, 3)) for s in got]
            assert_bitwise(
                new.reverse_force_exchange(got, blocks, system.n_atoms),
                frozen.reverse_force_exchange(want, blocks, system.n_atoms),
            )
            assert comm_state(new.cluster) == comm_state(frozen.cluster)

    def test_every_fault_branch_fires_the_same_way(self):
        """Dropped, delayed and clean messages all occur, and the ledger
        counts each as the mailbox did."""
        system = box_of_atoms(300, 12.0, seed=0)
        new, frozen = decompositions(
            ProcessGrid((2, 2, 1), system.cell), 3.0, seed=4, fault_rate=0.4
        )
        for decomp in (new, frozen):
            shards = decomp.build(system)
            for _ in range(3):
                decomp.update_ghost_positions(shards, system)
                decomp.reverse_force_exchange(
                    shards, [np.ones((s.n_ghost, 3)) for s in shards], system.n_atoms
                )
        assert comm_state(new.cluster) == comm_state(frozen.cluster)
        faults = new.cluster.fault_stats()
        halo = sum(new.cluster.stats.messages[k] for k in ("halo_forward", "halo_reverse"))
        assert faults["n_dropped"] > 0 and faults["n_delayed"] > 0
        assert halo > faults["n_dropped"] + faults["n_delayed"]
        assert new.cluster.stats.messages["retransmit"] == faults["n_dropped"]

    def test_a_wrong_ghost_block_is_refused_after_the_same_messages(self):
        system = box_of_atoms(300, 12.0, seed=0)
        new, frozen = decompositions(ProcessGrid((2, 2, 1), system.cell), 3.0)
        for decomp in (new, frozen):
            shards = decomp.build(system)
            blocks = [np.zeros((s.n_ghost, 3)) for s in shards]
            blocks[2] = np.zeros((shards[2].n_ghost + 1, 3))
            with pytest.raises(ValueError, match="wrong shape"):
                decomp.reverse_force_exchange(shards, blocks, system.n_atoms)
        assert comm_state(new.cluster) == comm_state(frozen.cluster)

    def test_message_tables_follow_the_shard_list(self):
        """A rebuilt (or restored) shard list gets its own tables: the
        traffic of an exchange is always that of the list it is handed."""
        system = box_of_atoms(400, 14.0, seed=1)
        moved = box_of_atoms(400, 14.0, seed=2)
        new, frozen = decompositions(ProcessGrid((2, 2, 1), system.cell), 2.5)
        first, ref_first = new.build(system), frozen.build(system)
        second, ref_second = new.build(moved), frozen.build(moved)
        for shards, ref in ((first, ref_first), (second, ref_second), (first, ref_first)):
            new.update_ghost_positions(shards, system)
            frozen.update_ghost_positions(ref, system)
            assert comm_state(new.cluster) == comm_state(frozen.cluster)
