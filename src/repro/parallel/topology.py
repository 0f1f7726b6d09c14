"""Process grids: mapping ranks onto spatial subdomains.

LAMMPS factorizes the rank count into a 3D grid that minimizes the total
subdomain surface area (communication is proportional to surface); the
same heuristic is used here.  Each rank owns an axis-aligned brick of the
box, bounded by per-axis cut planes.  The cuts start uniform, which
balances homogeneous systems (bulk water); :meth:`ProcessGrid.rebalance`
moves them to atom-count quantiles, as LAMMPS's ``balance`` command shifts
its grid planes, so a heterogeneous one (the capsid: a dense shell in
dilute surroundings) gives every rank ≈ N/P atoms.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..md.cell import Cell

#: Narrowest brick (Å) :meth:`ProcessGrid.rebalance` leaves, so the cuts of
#: a degenerate distribution stay strictly increasing.
_MIN_WIDTH = 1e-6


def _factor_triplets(p: int) -> List[Tuple[int, int, int]]:
    out = []
    for px in range(1, p + 1):
        if p % px:
            continue
        rem = p // px
        for py in range(1, rem + 1):
            if rem % py:
                continue
            out.append((px, py, rem // py))
    return out


class ProcessGrid:
    """A (px, py, pz) decomposition of ``n_ranks`` over a box.

    The cut planes of axis ``a`` are held in units of the uniform brick
    length ``L_a / d_a`` (uniform cuts are 0, 1, …, d_a), so the grid
    follows its cell's current lengths, and a uniform grid's bricks are
    exactly ``k · (L / d)`` with owners ``⌊x / (L / d)⌋``.
    """

    def __init__(self, dims: Tuple[int, int, int], cell: Cell) -> None:
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("grid dims must be positive")
        self.dims = dims
        self.cell = cell
        self.n_ranks = int(np.prod(dims))
        self._cuts = [np.arange(d + 1, dtype=np.float64) for d in dims]

    @classmethod
    def create(cls, n_ranks: int, cell: Cell) -> "ProcessGrid":
        """Surface-minimizing factorization for the given box shape."""
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        L = cell.lengths
        best, best_cost = None, np.inf
        for dims in _factor_triplets(n_ranks):
            sub = L / np.asarray(dims)
            # Total surface area over all subdomains.
            cost = n_ranks * 2 * (sub[0] * sub[1] + sub[1] * sub[2] + sub[0] * sub[2])
            if cost < best_cost - 1e-12:
                best, best_cost = dims, cost
        return cls(best, cell)

    def _brick(self) -> np.ndarray:
        """The uniform brick length per axis: the unit of the cuts."""
        return self.cell.lengths / np.asarray(self.dims)

    # -- balancing -----------------------------------------------------------
    def rebalance(self, positions: np.ndarray) -> None:
        """Move cut planes to atom-count quantiles, staged per axis.

        Axis 0 cuts equalize counts across x-slabs; within the resulting
        assignment, axis 1 cuts use the global y-distribution (a
        single-pass approximation of full recursive bisection that is exact
        for separable densities and close otherwise), and likewise z.
        Along an open axis the outer cuts follow atoms past the box's faces.
        """
        pos = self.cell.wrap(np.asarray(positions, dtype=np.float64))
        brick = self._brick()
        for ax, d in enumerate(self.dims):
            if d == 1:
                continue
            lo, hi = 0.0, self.cell.lengths[ax]
            if not self.cell.pbc[ax]:
                lo, hi = min(lo, pos[:, ax].min()), max(hi, pos[:, ax].max())
            inner = np.quantile(pos[:, ax], np.linspace(0.0, 1.0, d + 1)[1:-1])
            cuts = np.concatenate([[lo], inner, [hi]])
            for k in range(1, len(cuts)):
                cuts[k] = max(cuts[k], cuts[k - 1] + _MIN_WIDTH)
            cuts[-1] = hi
            self._cuts[ax] = cuts / brick[ax]

    # -- rank <-> coordinates -------------------------------------------------
    def coords_of(self, rank: int) -> Tuple[int, int, int]:
        px, py, pz = self.dims
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return (rank // (py * pz), (rank // pz) % py, rank % pz)

    # -- geometry ---------------------------------------------------------------
    def domain_bounds(self, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corner of the rank's brick.  Along an open axis the
        outer bricks reach to ∓∞: :meth:`owner_of` gives them the atoms
        beyond the box's faces."""
        c = np.asarray(self.coords_of(rank))
        brick = self._brick()
        lo = np.array([cuts[k] for cuts, k in zip(self._cuts, c)]) * brick
        hi = np.array([cuts[k + 1] for cuts, k in zip(self._cuts, c)]) * brick
        open_axis = ~self.cell.pbc
        lo[open_axis & (c == 0)] = -np.inf
        hi[open_axis & (c == np.asarray(self.dims) - 1)] = np.inf
        return lo, hi

    def owner_of(self, positions: np.ndarray) -> np.ndarray:
        """Rank owning each (wrapped) position: the brick between the cuts
        that hold it; one beyond an open axis's face belongs to the outer
        brick, so every atom has a rank."""
        u = self.cell.wrap(positions) / self._brick()
        cx, cy, cz = (
            np.searchsorted(self._cuts[ax][1:-1], u[:, ax], side="right")
            for ax in range(3)
        )
        px, py, pz = self.dims
        return (cx * py + cy) * pz + cz

    def validate_cutoff(self, cutoff: float) -> None:
        """Every brick spans at least the cutoff along each axis split
        between ranks (halo exchange reaches face neighbors only) and along
        each periodic axis (ghost images −1, 0, +1 hold every partner within
        the cutoff only when the box spans it).  The outer bricks of an open
        axis are unbounded, as :meth:`domain_bounds` gives them."""
        brick = self._brick()
        for ax in range(3):
            if self.dims[ax] > 1 or self.cell.pbc[ax]:
                widths = np.diff(self._cuts[ax]) * brick[ax]
                if not self.cell.pbc[ax]:
                    widths[[0, -1]] = np.inf
                width = widths.min()
                if width < cutoff:
                    fix = "use fewer ranks" if self.dims[ax] > 1 else "use a longer box"
                    raise ValueError(
                        f"subdomain length {width:.2f} Å along axis {ax} is below "
                        f"the cutoff {cutoff:.2f} Å; {fix} along this axis"
                    )

    def __repr__(self) -> str:
        return f"ProcessGrid(dims={self.dims}, n_ranks={self.n_ranks})"
