"""Domain decomposition: partitioning, ghost (halo) atoms, migration.

Each rank owns the atoms inside its brick and carries *ghost copies* of all
atoms (and periodic self-images) within the interaction cutoff of its
boundary.  Because Allegro assigns each ordered pair (i→j) to its center
atom i, a rank that owns i can evaluate E_ij entirely from local + ghost
data — the strict locality that lets the model drop into spatial
decomposition unchanged (paper §V-C: "Allegro ... fits perfectly into the
spatial decomposition concept of LAMMPS").  A symmetric pair potential
needs each pair only once (E_ij = E_ji): its shard lists are half lists,
split between ranks by global atom id, and the reverse halo returns the
force on the ghost end of a pair.

Ghost sets are constructed by the periodic-image containment rule (an atom
image belongs to rank r's halo iff it falls in r's cutoff-expanded brick),
which yields exactly the same ghost sets as LAMMPS's staged 6-direction
exchange; the traffic is accounted per owner→receiver rank pair as that
protocol would send it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..md.neighborlist import NeighborList, half_list, neighbor_list
from ..md.system import System
from .comm import VirtualCluster
from .topology import ProcessGrid

_FLOAT_BYTES = 8
_POS_BYTES = 3 * _FLOAT_BYTES


@dataclass
class RankShard:
    """One rank's slice of the system: owned atoms then ghosts."""

    rank: int
    owned_ids: np.ndarray  # [n_owned] global atom indices
    ghost_ids: np.ndarray  # [n_ghost] global atom indices of ghost sources
    ghost_shifts: np.ndarray  # [n_ghost, 3] cartesian image shifts
    ghost_owner: np.ndarray  # [n_ghost] rank owning each ghost source
    positions: np.ndarray  # [n_owned+n_ghost, 3]
    species: np.ndarray  # [n_owned+n_ghost]
    nl: Optional[NeighborList] = None  # local list, centers owned only

    @property
    def n_owned(self) -> int:
        return len(self.owned_ids)

    @property
    def n_ghost(self) -> int:
        return len(self.ghost_ids)

    @property
    def n_local(self) -> int:
        return self.n_owned + self.n_ghost


class DomainDecomposition:
    """Builds and maintains rank shards for a periodic system."""

    def __init__(
        self,
        grid: ProcessGrid,
        cutoff: float,
        cluster: Optional[VirtualCluster] = None,
    ) -> None:
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        grid.validate_cutoff(cutoff)
        self.grid = grid
        self.cutoff = float(cutoff)
        self.cluster = cluster or VirtualCluster(grid.n_ranks)
        self._prev_owner: Optional[np.ndarray] = None
        self._messages_for: Optional[List[RankShard]] = None
        self._message_table: List[list] = []

    # -- construction -----------------------------------------------------------
    def build(self, system: System) -> List[RankShard]:
        """Partition + halo construction; accounts migration and halo bytes."""
        if system.cell is None:
            raise ValueError("domain decomposition requires a periodic cell")
        # Checked at every build too: a rebalance may have moved the cuts.
        self.grid.validate_cutoff(self.cutoff)
        pos = system.cell.wrap(system.positions)
        owner = self.grid.owner_of(pos)

        # Migration accounting: atoms whose owner changed since last build
        # move with full state (position + velocity + species + id).
        if self._prev_owner is not None and len(self._prev_owner) == len(owner):
            moved = np.nonzero(owner != self._prev_owner)[0]
            for g in np.unique(owner[moved]):
                count = int((owner[moved] == g).sum())
                self.cluster.stats.record("migrate", count * (2 * _POS_BYTES + 16))
        self._prev_owner = owner.copy()

        # Ghost selection, per axis: whether each atom's image at shift k
        # (in box lengths) is in a brick's cutoff-expanded [lo, hi) along it,
        # once per slab; a rank's image (kx, ky, kz) is its three slabs' AND.
        # Images −1, 0, +1 suffice: validate_cutoff saw each periodic axis
        # span the cutoff.
        lengths, cut = system.cell.lengths, self.cutoff
        images = [(-1, 0, 1) if system.cell.pbc[ax] else (0,) for ax in range(3)]
        shifted = [{k: pos[:, ax] + k * lengths[ax] for k in images[ax]} for ax in range(3)]
        slabs: dict = {}

        def slab(ax, k, lo, hi):
            key = (ax, k, lo, hi)
            if key not in slabs:
                p = shifted[ax][k]
                slabs[key] = (p >= lo - cut) & (p < hi + cut)
            return slabs[key]

        shards: List[RankShard] = []
        for rank in range(self.grid.n_ranks):
            lo, hi = self.grid.domain_bounds(rank)
            x, y, z = (
                {k: slab(ax, k, lo[ax], hi[ax]) for k in images[ax]} for ax in range(3)
            )
            owned = np.flatnonzero(owner == rank)

            ghost_ids, ghost_shift_rows = [], []
            for kx in images[0]:
                for ky in images[1]:
                    inside_xy = x[kx] & y[ky]
                    for kz in images[2]:
                        inside = inside_xy & z[kz]
                        if kx or ky or kz:
                            cand = np.flatnonzero(inside)
                        else:
                            cand = np.flatnonzero(inside & (owner != rank))
                        if len(cand):
                            shift = np.array([kx, ky, kz]) * lengths
                            ghost_ids.append(cand)
                            ghost_shift_rows.append(np.broadcast_to(shift, (len(cand), 3)))
            if ghost_ids:
                gids = np.concatenate(ghost_ids)
                gshifts = np.concatenate(ghost_shift_rows, axis=0)
            else:
                gids = np.zeros(0, dtype=np.int64)
                gshifts = np.zeros((0, 3))
            gowner = owner[gids]

            local_pos = np.concatenate([pos[owned], pos[gids] + gshifts], axis=0)
            local_spec = np.concatenate([system.species[owned], system.species[gids]])
            shards.append(
                RankShard(
                    rank=rank,
                    owned_ids=owned,
                    ghost_ids=gids,
                    ghost_shifts=gshifts,
                    ghost_owner=gowner,
                    positions=local_pos,
                    species=local_spec,
                )
            )
        # Halo-build traffic: each owner rank sends its ghost atoms'
        # positions + species + ids to this rank.
        for messages in self._messages(shards):
            for _, count in messages:
                self.cluster.stats.record("halo_build", count * (_POS_BYTES + 16))
        return shards

    def _messages(self, shards: List[RankShard]) -> List[list]:
        """Per shard, ``(peer, count)`` of each halo message between it and
        the ranks owning its ghosts (peers ascending, itself excluded):
        ``count`` atoms' worth of 3-vectors.  Built once per shard list, so
        once per rebuild, and reused by every exchange until the next."""
        if self._messages_for is not shards:
            self._message_table = [
                [
                    (int(peer), int(count))
                    for peer, count in zip(*np.unique(s.ghost_owner, return_counts=True))
                    if peer != s.rank
                ]
                for s in shards
            ]
            self._messages_for = shards
        return self._message_table

    # -- per-step communication -------------------------------------------------
    def update_ghost_positions(
        self, shards: List[RankShard], system: System
    ) -> None:
        """Forward halo exchange: refresh every shard's owned atoms, and
        every ghost from its owner (in place: a worker rank's positions are
        its shared block)."""
        pos = system.positions
        for shard, messages in zip(shards, self._messages(shards)):
            shard.positions[: shard.n_owned] = pos[shard.owned_ids]
            if shard.n_ghost == 0:
                continue
            shard.positions[shard.n_owned :] = pos[shard.ghost_ids] + shard.ghost_shifts
            for src, count in messages:
                self.cluster.transfer(src, shard.rank, "halo_forward", count * _POS_BYTES)

    def reverse_force_exchange(
        self, shards: List[RankShard], ghost_forces: List[np.ndarray], n_atoms: int
    ) -> np.ndarray:
        """Reverse halo: send ghost force contributions back to owners.

        ``ghost_forces[r]`` is rank r's [n_ghost, 3] contribution block;
        returns the assembled [n_atoms, 3] global correction array: per
        column, one ``np.bincount`` over the blocks concatenated in rank
        order — the same additions, in the same order, as adding each rank's
        block row by row, rank after rank.
        """
        ids, blocks = [], []
        for shard, gf, messages in zip(shards, ghost_forces, self._messages(shards)):
            if shard.n_ghost == 0:
                continue
            if gf.shape != (shard.n_ghost, 3):
                raise ValueError("ghost force block has wrong shape")
            ids.append(shard.ghost_ids)
            blocks.append(gf)
            for dst, count in messages:
                self.cluster.transfer(shard.rank, dst, "halo_reverse", count * _POS_BYTES)
        if not ids:
            return np.zeros((n_atoms, 3))
        ids, blocks = np.concatenate(ids), np.concatenate(blocks)
        return np.stack(
            [np.bincount(ids, blocks[:, ax], minlength=n_atoms) for ax in range(3)],
            axis=1,
        )

    # -- local neighbor lists ----------------------------------------------------
    @staticmethod
    def local_neighbor_list(
        shard: RankShard, cutoff: float, half: bool = False
    ) -> NeighborList:
        """Open-boundary local list with owned atoms as the only centers.

        ``half``: each global pair on one rank only (:func:`half_list`,
        keys = global ids, a ghost's row image = its lattice shift); the
        reverse halo returns the force on its ghost end.
        """
        local = System(shard.positions, shard.species, cell=None)
        nl = neighbor_list(local, cutoff, n_centers=shard.n_owned)
        if not half:
            return nl
        keys = np.concatenate([shard.owned_ids, shard.ghost_ids])
        images = np.concatenate([np.zeros((shard.n_owned, 3)), shard.ghost_shifts])
        return half_list(nl, keys, images)
