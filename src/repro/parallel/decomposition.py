"""Domain decomposition: partitioning, ghost (halo) atoms, migration.

Each rank owns the atoms inside its brick and carries *ghost copies* of all
atoms (and periodic self-images) within the interaction cutoff of its
boundary.  Because Allegro assigns each ordered pair (i→j) to its center
atom i, a rank that owns i can evaluate E_ij entirely from local + ghost
data — the strict locality that lets the model drop into spatial
decomposition unchanged (paper §V-C: "Allegro ... fits perfectly into the
spatial decomposition concept of LAMMPS").

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

from ..md.cell import Cell
from ..md.neighborlist import NeighborList, neighbor_list
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

    # -- construction -----------------------------------------------------------
    def build(self, system: System) -> List[RankShard]:
        """Partition + halo construction; accounts migration and halo bytes."""
        if system.cell is None:
            raise ValueError("domain decomposition requires a periodic cell")
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

        shards: List[RankShard] = []
        image_shifts = self._image_shifts(system.cell)
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

            # Halo-build traffic: each owner rank sends its ghost atoms'
            # positions + species + ids to this rank.
            for src in np.unique(gowner):
                if src == rank:
                    continue
                count = int((gowner == src).sum())
                self.cluster.stats.record("halo_build", count * (_POS_BYTES + 16))

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
        return shards

    def _image_shifts(self, cell: Cell) -> List[np.ndarray]:
        """Cartesian shifts of the periodic images that can reach a halo."""
        ranges = []
        for ax in range(3):
            ranges.append((-1, 0, 1) if cell.pbc[ax] else (0,))
        shifts = []
        for sx in ranges[0]:
            for sy in ranges[1]:
                for sz in ranges[2]:
                    shifts.append(np.array([sx, sy, sz]) * cell.lengths)
        return shifts

    # -- per-step communication -------------------------------------------------
    def update_ghost_positions(
        self, shards: List[RankShard], system: System
    ) -> None:
        """Forward halo exchange: refresh every shard's owned atoms, and
        every ghost from its owner (in place: a worker rank's positions are
        its shared block)."""
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
                self.cluster.send(
                    int(src),
                    shard.rank,
                    "halo_forward",
                    (np.empty((count, 3)),),
                )
                self.cluster.recv(shard.rank, int(src), "halo_forward")

    def reverse_force_exchange(
        self, shards: List[RankShard], ghost_forces: List[np.ndarray]
    ) -> np.ndarray:
        """Reverse halo: send ghost force contributions back to owners.

        ``ghost_forces[r]`` is rank r's [n_ghost, 3] contribution block;
        returns the assembled [N, 3] global correction array.
        """
        n_total = max(
            (int(s.owned_ids.max()) + 1 if s.n_owned else 0) for s in shards
        )
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

    # -- local neighbor lists ----------------------------------------------------
    @staticmethod
    def local_neighbor_list(shard: RankShard, cutoff: float) -> NeighborList:
        """Open-boundary local list with owned atoms as the only centers."""
        local = System(shard.positions, shard.species, cell=None)
        return neighbor_list(local, cutoff, n_centers=shard.n_owned)
