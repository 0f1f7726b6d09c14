"""Neighbor lists: O(N) cell binning, Verlet skins, per-species-pair cutoffs.

Allegro is linear-scaling in the number of *ordered* neighbor pairs, so the
neighbor list is the contract between geometry and model: ``edge_index[0]``
is the center atom i, ``edge_index[1]`` the neighbor j, and ``shifts`` the
cartesian lattice offset such that ``r_ij = pos[j] + shift - pos[i]``.
Every ordered pair within the cutoff appears exactly once — also in MD,
whose skinned :class:`VerletList` is cut to the cutoff every step, as
pair_allegro cuts LAMMPS's: the skin buys rebuild cadence, not force work.
A *half* list (:func:`half_list`, LAMMPS ``newton on``) keeps one of the
two orders of every pair: MD drivers build one for a potential whose bond
energy is symmetric (``Potential.half_list``), never for Allegro.

§V-B4 of the paper prunes pairs with per-*ordered*-species-pair cutoffs
(H→C at 1.25 Å while C→H keeps 4.0 Å), cutting ordered pairs ~3× in water;
:func:`filter_by_pair_cutoffs` implements that pruning on lists built at
the exact cutoff and the ablation benchmark measures the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .cell import Cell
from .system import System


@dataclass
class NeighborList:
    """Ordered neighbor pairs with periodic shift vectors."""

    edge_index: np.ndarray  # [2, E] int64: row 0 = center i, row 1 = neighbor j
    shifts: np.ndarray  # [E, 3] float64 cartesian shifts
    half: bool = False  # each unordered pair once (:func:`half_list`)

    @property
    def n_edges(self) -> int:
        return self.edge_index.shape[1]

    def displacements(self, positions: np.ndarray) -> np.ndarray:
        """r_ij vectors [E, 3] for the given positions."""
        i, j = self.edge_index
        return positions[j] + self.shifts - positions[i]

    def distances(self, positions: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.displacements(positions), axis=1)


def _empty_list() -> NeighborList:
    return NeighborList(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3)))


def _ragged_arange(starts, lengths) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        np.asarray(starts, dtype=np.int64) - (ends - lengths), lengths
    )


def _auto_method(n: int, cell: Optional[Cell], cutoff: float) -> str:
    """Cell binning when the box supports ≥3 bins per periodic axis and the
    system is large, otherwise brute force."""
    if cell is None:
        return "brute" if n < 2000 else "cells"
    if n < 256:
        return "brute"
    nbins = np.floor(cell.lengths / cutoff).astype(int)
    ok = all((not cell.pbc[ax]) or nbins[ax] >= 3 for ax in range(3))
    return "cells" if ok else "brute"


def neighbor_list(
    system: System,
    cutoff: float,
    method: str = "auto",
    n_centers: Optional[int] = None,
) -> NeighborList:
    """All ordered pairs with |r_ij| < cutoff.

    ``method``: 'auto' picks cell binning when the box supports ≥3 bins per
    periodic axis and the system is large, otherwise chunked brute force
    with the minimum-image convention.

    ``n_centers``: only the first ``n_centers`` atoms are centers (a rank's
    owned atoms, stored ahead of its ghosts); the rest appear as neighbors
    only.  The result is the full list filtered by ``edge_index[0] <
    n_centers`` — same edges, same order — without the candidate pairs of
    the other centers ever being generated.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    pos = system.positions
    n = len(pos)
    n_centers = n if n_centers is None else int(n_centers)
    if not 0 <= n_centers <= n:
        raise ValueError(f"n_centers={n_centers} outside [0, {n}]")
    if n == 0:
        return _empty_list()
    if method == "auto":
        method = _auto_method(n, system.cell, cutoff)
    if method == "cells":
        return _cell_list(pos, system.cell, cutoff, n_centers)
    if method == "brute":
        return _brute_force(pos, [n], [system.cell], cutoff, [n_centers])
    raise ValueError(f"unknown method {method!r}")


#: Candidate pairs per pass of the brute-force kernel: its largest
#: temporaries are [4096, 3] float64 = 96 KiB, under malloc's 128 KiB mmap
#: threshold, so a pass reuses heap memory instead of mapping fresh pages —
#: and a thread's scratch is this big however large the batch is.
_PAIR_CHUNK = 4096


def _brute_force(
    pos: np.ndarray,
    sizes: Sequence[int],
    cells: Sequence[Optional[Cell]],
    cutoff: float,
    n_centers: Sequence[int],
) -> NeighborList:
    """O(N²) minimum-image search over a batch of structures in one pass.

    ``pos`` holds the structures back to back (``sizes[k]`` rows each, a
    single structure being the batch of one); a structure's first
    ``n_centers[k]`` atoms are its centers.  The list indexes ``pos`` rows
    and runs structure by structure, each structure's edges in row-major
    (i, j) order — for a structure of more than 2000 atoms, column tile by
    column tile, as the candidate pairs of one tile are bounded at 4·10⁶.
    Requires cutoff ≤ L/2 on periodic axes.

    The candidate pairs of the whole batch are laid out ragged — structure
    k contributes ``n_centers[k] · sizes[k]`` of them, nothing is padded
    to the largest structure — and displacement, minimum-image shift and
    distance are computed over that flat list ``_PAIR_CHUNK`` pairs at a
    time.  Every value is computed per pair by the same expression whatever
    shares the pass, so a structure's edges and shift bits do not depend on
    the batch it is in.
    """
    lengths = np.ones((len(sizes), 3))
    pbc = np.zeros((len(sizes), 3), dtype=bool)
    for k, cell in enumerate(cells):
        if cell is not None:
            lengths[k], pbc[k] = cell.lengths, cell.pbc
    too_small = pbc & (cutoff > lengths / 2 + 1e-9)
    if too_small.any():
        k, ax = np.argwhere(too_small)[0]
        raise ValueError(
            f"brute-force minimum image needs cutoff <= L/2; "
            f"cutoff={cutoff}, L[{ax}]={lengths[k, ax]}"
        )
    # One tile per (structure, block of columns); one segment per (tile,
    # center): the candidates j of center i are the tile's columns.
    tile_i0, tile_nc, tile_j0, tile_len = [], [], [], []
    offset = 0
    for n, nc in zip(sizes, n_centers):
        width = max(1, int(4e6 // max(n, 1)))
        for start in range(0, n, width):
            tile_i0.append(offset)
            tile_nc.append(nc)
            tile_j0.append(offset + start)
            tile_len.append(min(width, n - start))
        offset += n
    tile_nc = np.asarray(tile_nc, dtype=np.int64)
    seg_i = _ragged_arange(tile_i0, tile_nc)
    seg_j0 = np.repeat(np.asarray(tile_j0, dtype=np.int64), tile_nc)
    seg_len = np.repeat(np.asarray(tile_len, dtype=np.int64), tile_nc)
    seg_end = np.cumsum(seg_len)

    periodic = bool(pbc.any())
    if periodic:
        # Per atom, so one gather by center serves every pair of the pass.
        # Open axes get L = 1 and -L = 0: their product below is a signed
        # zero that changes no distance.
        atom_l = np.repeat(lengths, sizes, axis=0)
        atom_neg_l = np.repeat(np.where(pbc, -lengths, 0.0), sizes, axis=0)
    cut2 = cutoff * cutoff
    rows_i, rows_j, rows_s = [], [], []
    a, done = 0, 0
    while a < len(seg_len):
        # A segment is at most 2000 pairs, so at least one fits.
        b = int(np.searchsorted(seg_end, done + _PAIR_CHUNK, side="right"))
        ii = np.repeat(seg_i[a:b], seg_len[a:b])
        jj = _ragged_arange(seg_j0[a:b], seg_len[a:b])
        disp = np.take(pos, jj, axis=0)
        disp -= np.take(pos, ii, axis=0)
        if periodic:
            shift = disp / np.take(atom_l, ii, axis=0)
            np.round(shift, out=shift)
            shift *= np.take(atom_neg_l, ii, axis=0)
            disp += shift
        disp *= disp
        d2 = disp[:, 0] + disp[:, 1] + disp[:, 2]
        hit = np.flatnonzero((d2 < cut2) & (ii != jj))
        rows_i.append(np.take(ii, hit))
        rows_j.append(np.take(jj, hit))
        if periodic:
            rows_s.append(np.take(shift, hit, axis=0))
        a, done = b, seg_end[b - 1]
    if not rows_i:
        return _empty_list()
    edge_index = np.stack([np.concatenate(rows_i), np.concatenate(rows_j)])
    if not periodic:
        return NeighborList(edge_index, np.zeros((edge_index.shape[1], 3)))
    shifts = np.concatenate(rows_s)
    if not pbc.all():
        # The shift along an open axis is +0.0, not the product's ±0.0.
        open_axis = ~np.repeat(pbc, sizes, axis=0)
        shifts[np.take(open_axis, edge_index[0], axis=0)] = 0.0
    return NeighborList(edge_index, shifts)


def _cell_list(
    pos: np.ndarray, cell: Optional[Cell], cutoff: float, n_centers: int
) -> NeighborList:
    """O(N) binned neighbor search, fully vectorized (no Python per-atom loop).

    Edges come bin offset by offset, center by center, candidates in bin
    order.  Candidates are gathered from bin-sorted position columns, d² is
    formed by column adds (bitwise ``np.sum(disp**2, axis=1)``), an image
    shift is added only along axes where the offset wraps, and only kept
    candidates are mapped back to atom ids.
    """
    if cell is not None:
        orig = pos
        pos = cell.wrap(pos)
        # Shifts are computed in the wrapped frame; wrap_offset converts
        # them back so r_ij = pos_orig[j] + shift - pos_orig[i] holds for
        # the caller's (possibly slightly out-of-box) positions.
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

    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=int(np.prod(nbins)))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # Centers, as positions in bin order; their atom ids and bin coordinates.
    centers = np.flatnonzero(order < n_centers)
    center_ids = np.take(order, centers)
    center_coords = np.take(coords, center_ids, axis=0)
    cols = np.take(pos, order, axis=0).T.copy()  # [3, N] bin-sorted columns
    center_cols = np.take(cols, centers, axis=1)

    # Per axis and bin step d: each center's neighbor-bin coordinate, and
    # its cartesian image shift (periodic axes; None when no center wraps)
    # or whether the bin exists (open axes; None when every one does).
    steps = [{}, {}, {}]
    for ax in range(3):
        for d in (-1, 0, 1):
            c = center_coords[:, ax] + d
            over, under = c >= nbins[ax], c < 0
            outside = over.any() or under.any()
            if pbc[ax]:
                shift = lengths[ax] * over - lengths[ax] * under if outside else None
                steps[ax][d] = (c - nbins[ax] * over + nbins[ax] * under, shift, None)
            else:
                valid = ~(over | under) if outside else None
                steps[ax][d] = (np.where(over | under, 0, c), None, valid)

    cut2 = cutoff * cutoff
    all_i, all_j, all_s = [], [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                (cx, sx, vx), (cy, sy, vy), (cz, sz, vz) = (
                    steps[0][dx], steps[1][dy], steps[2][dz]
                )
                nb = (cx * nbins[1] + cy) * nbins[2] + cz
                cand_count = np.take(counts, nb)
                for v in (vx, vy, vz):
                    if v is not None:
                        cand_count = cand_count * v
                if not cand_count.any():
                    continue
                ci = np.repeat(np.arange(len(centers)), cand_count)
                jj = _ragged_arange(np.take(offsets, nb), cand_count)

                # r_ij = (x_j + shift) - x_i, one column at a time.
                d2 = None
                for ax, shift in enumerate((sx, sy, sz)):
                    col = np.take(cols[ax], jj)
                    if shift is not None:
                        col += np.repeat(shift, cand_count)
                    col -= np.take(center_cols[ax], ci)
                    col *= col
                    d2 = col if d2 is None else np.add(d2, col, out=d2)
                keep = d2 < cut2
                if dx == 0 and dy == 0 and dz == 0:
                    keep &= jj != np.take(centers, ci)
                keep = np.flatnonzero(keep)
                ck = np.take(ci, keep)
                i_k = np.take(center_ids, ck)
                j_k = np.take(order, np.take(jj, keep))
                all_i.append(i_k)
                all_j.append(j_k)
                if wrap_offset is not None:
                    s_k = np.zeros((len(keep), 3))
                    for ax, shift in enumerate((sx, sy, sz)):
                        if shift is not None:
                            s_k[:, ax] = np.take(shift, ck)
                    s_k += np.take(wrap_offset, j_k, axis=0)
                    s_k -= np.take(wrap_offset, i_k, axis=0)
                    all_s.append(s_k)

    if not all_i:
        return _empty_list()
    edge_index = np.stack([np.concatenate(all_i), np.concatenate(all_j)])
    if wrap_offset is None:
        return NeighborList(edge_index, np.zeros((edge_index.shape[1], 3)))
    return NeighborList(edge_index, np.concatenate(all_s, axis=0))


def filter_by_pair_cutoffs(
    nl: NeighborList,
    positions: np.ndarray,
    species: np.ndarray,
    cutoff_matrix: np.ndarray,
) -> NeighborList:
    """Keep edge (i→j) only if |r_ij| < cutoff_matrix[Z_i, Z_j] (§V-B4).

    The matrix is *ordered*: cutoff_matrix[H, C] may be smaller than
    cutoff_matrix[C, H].  The input list must have been built with the
    maximum entry of the matrix.
    """
    cutoff_matrix = np.asarray(cutoff_matrix)
    i, j = nl.edge_index
    rc = cutoff_matrix[species[i], species[j]]
    dist = nl.distances(positions)
    keep = dist < rc
    return NeighborList(nl.edge_index[:, keep], nl.shifts[keep])


def model_cutoff(potential):
    """The cutoff MD prunes to: the ordered-pair matrix, if the model has one."""
    return potential.cutoff if potential.pair_cutoffs is None else potential.pair_cutoffs


def prune_to_cutoff(
    nl: NeighborList, positions: np.ndarray, species: np.ndarray, cutoff
) -> NeighborList:
    """The edges of ``nl`` inside ``cutoff`` (scalar or ordered-pair matrix).

    Drops an edge only if d² ≥ r_c²·(1 + 1e-9): envelopes are exact zero
    from r_c on, so the margin keeps this exact however a model rounds
    |r_ij|, and a NaN d² is kept to fail fast.  It runs every MD step, so:
    gathers in the model's ``x_j + shift − x_i`` order, no sqrt or mask.
    """
    i, j = nl.edge_index
    disp = np.take(positions, j, axis=0)
    disp += nl.shifts
    disp -= np.take(positions, i, axis=0)
    disp *= disp
    d2 = disp[:, 0] + disp[:, 1] + disp[:, 2]
    bound = np.square(cutoff) * (1.0 + 1e-9)
    if bound.ndim:
        bound = bound[np.take(species, i), np.take(species, j)]
    keep = np.flatnonzero(~(d2 >= bound))
    if len(keep) == nl.n_edges:
        return nl
    return NeighborList(
        np.take(nl.edge_index, keep, axis=1), np.take(nl.shifts, keep, axis=0),
        nl.half,
    )


def half_list(nl: NeighborList, keys: np.ndarray, row_images=None) -> NeighborList:
    """The edges of the full list ``nl`` that carry each unordered pair once.

    Keeps edge i→j when ``keys[i] < keys[j]``; when the keys are equal (an
    atom and its own periodic image), when the pair's net image ``shift +
    row_images[j] − row_images[i]`` is lexicographically positive.  Keys
    are global atom ids and row images lattice shifts (a ghost row's), so
    only integers and lattice vectors decide, never positions: two ranks
    that see a pair through differently rounded coordinates agree on which
    of them keeps it.  Stable: the kept edges keep their order.
    """
    i, j = nl.edge_index
    k_i, k_j = np.take(keys, i), np.take(keys, j)
    keep = k_i < k_j
    tie = np.flatnonzero(k_i == k_j)
    if len(tie):
        image = np.take(nl.shifts, tie, axis=0)
        if row_images is not None:
            image = image + np.take(row_images, j[tie], axis=0)
            image -= np.take(row_images, i[tie], axis=0)
        # Lattice shifts are 0 or at least a box length; 1e-6 Å absorbs
        # the rounding of wrap offsets.
        sign = np.sign(image) * (np.abs(image) > 1e-6)
        first = np.argmax(sign != 0, axis=1)
        keep[tie] = sign[np.arange(len(tie)), first] > 0
    keep = np.flatnonzero(keep)
    return NeighborList(
        np.take(nl.edge_index, keep, axis=1), np.take(nl.shifts, keep, axis=0), True
    )


def merged_neighbor_list(
    systems, cutoff, nls=None, per_structure=None, pair_cutoffs=None
):
    """The disjoint graph of a batch of structures, built in one pass.

    Returns ``(positions, species, nl, offsets)``: structure ``k`` owns
    atom rows ``offsets[k]:offsets[k+1]`` and the edges centered on them,
    shifted by its atom offset so the graphs stay disjoint — no
    cross-structure interaction exists, which is what makes batched
    evaluation (a served batch, a training batch) exact.  Arrays and edge
    order are those of concatenating one ``neighbor_list(system, cutoff)``
    per structure.

    A structure whose list is given in ``nls`` keeps it as it is.  Of the
    others, those ``method="auto"`` sends to brute force — every small
    structure — share one ragged :func:`_brute_force` pass, pruned with
    ``pair_cutoffs`` (:func:`filter_by_pair_cutoffs`) when given; a
    structure big enough for the cell list is built by
    ``per_structure(system)``, which does its own pruning.
    """
    nls = [None] * len(systems) if nls is None else list(nls)
    if len(nls) != len(systems):
        raise ValueError("one neighbor list per structure required")
    sizes = [s.n_atoms for s in systems]
    offsets = np.zeros(len(systems) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    positions = np.concatenate([np.asarray(s.positions) for s in systems])
    species = np.concatenate([np.asarray(s.species) for s in systems])
    shared = [False] * len(systems)
    for k, system in enumerate(systems):
        if nls[k] is None:
            if cutoff <= 0:
                raise ValueError("cutoff must be positive")
            if _auto_method(sizes[k], system.cell, cutoff) == "brute":
                shared[k] = True
            elif per_structure is None:
                nls[k] = neighbor_list(system, cutoff)
            else:
                nls[k] = per_structure(system)
    merged = _empty_list()
    if any(shared):
        # The others enter the pass as open structures without centers:
        # no candidate pairs, no box to validate.
        merged = _brute_force(
            positions,
            sizes,
            [s.cell if own else None for s, own in zip(systems, shared)],
            cutoff,
            [n if own else 0 for n, own in zip(sizes, shared)],
        )
        if pair_cutoffs is not None:
            merged = filter_by_pair_cutoffs(merged, positions, species, pair_cutoffs)
    edge_index, shifts = merged.edge_index, merged.shifts
    given = [(nl, off) for nl, off in zip(nls, offsets) if nl is not None]
    if given:
        edge_index = np.concatenate(
            [edge_index] + [nl.edge_index + off for nl, off in given], axis=1
        )
        shifts = np.concatenate([shifts] + [nl.shifts for nl, _ in given])
    if given and any(shared):
        # Back into structure order (offsets[structure] <= center <
        # offsets[structure + 1]); within a structure nothing moves.
        structure = np.searchsorted(offsets, edge_index[0], side="right") - 1
        order = np.argsort(structure, kind="stable")
        edge_index, shifts = edge_index[:, order], shifts[order]
    return positions, species, NeighborList(edge_index, shifts), offsets


def ordered_pair_counts(
    system: System, cutoff_matrix: np.ndarray
) -> Tuple[int, int]:
    """(pairs at max uniform cutoff, pairs with per-pair cutoffs).

    Feeds the §V-B4 ablation: the paper reports ~3× fewer ordered pairs in
    liquid water with the selected per-species-pair cutoffs.
    """
    rmax = float(np.max(cutoff_matrix))
    nl = neighbor_list(system, rmax)
    filtered = filter_by_pair_cutoffs(
        nl, system.positions, system.species, cutoff_matrix
    )
    return nl.n_edges, filtered.n_edges


class VerletList:
    """Skin-buffered neighbor list: rebuild only after atoms move enough.

    ``cutoff`` is the model's: a scalar or an ordered-species-pair matrix.
    The list is built at its maximum + ``skin`` and reused until some atom
    has moved more than skin/2 since the last build (the classic safety
    criterion, as LAMMPS reneighbors).  That skinned list is private state;
    :meth:`get` returns its pairs inside ``cutoff`` at the current positions.

    ``check_every`` thins the displacement *check* itself (LAMMPS
    ``neigh_modify every N``): the max-displacement scan is O(n_atoms)
    per step, and with a generous skin it almost never trips, so checking
    every step is wasted work.  Skipped steps reuse the list untested —
    sound only when the skin comfortably covers ``check_every`` steps of
    drift, which is exactly the coupling the ``md`` tuning target
    searches over.

    ``half`` builds a half list (:func:`half_list`, keys = atom index) for
    a model whose ``half_list`` is True: each pair is pruned and evaluated
    once.
    """

    def __init__(
        self, cutoff, skin: float = 0.5, check_every: int = 1, half: bool = False
    ):
        if skin < 0:
            raise ValueError("skin must be non-negative")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.cutoff = cutoff
        self.skin = float(skin)
        self.check_every = int(check_every)
        self.half = bool(half)
        self._nl: Optional[NeighborList] = None
        self._ref_positions: Optional[np.ndarray] = None
        self.n_builds = 0
        self._since_check = 0

    @property
    def n_candidates(self) -> int:
        """Edges of the skinned list the last :meth:`get` pruned."""
        return 0 if self._nl is None else self._nl.n_edges

    def get(self, system: System) -> NeighborList:
        """The pairs inside the cutoff at ``system``'s current positions."""
        if self._needs_rebuild(system):
            # Wrapping must coincide with rebuilding: stored shift vectors
            # are only valid for the positions they were computed against,
            # so positions are folded into the box exactly here (the same
            # reason LAMMPS remaps atoms at reneighboring time).
            system.wrap()
            nl = neighbor_list(system, float(np.max(self.cutoff)) + self.skin)
            self._nl = half_list(nl, np.arange(system.n_atoms)) if self.half else nl
            self._ref_positions = system.positions.copy()
            self.n_builds += 1
            self._since_check = 0
        return prune_to_cutoff(
            self._nl, system.positions, system.species, self.cutoff
        )

    def _needs_rebuild(self, system: System) -> bool:
        if self._nl is None or self._ref_positions is None:
            return True
        # Structural changes must never be skipped past.
        if len(self._ref_positions) != system.n_atoms:
            return True
        if self.check_every > 1:
            self._since_check += 1
            if self._since_check < self.check_every:
                return False
            self._since_check = 0
        disp = system.positions - self._ref_positions
        if system.cell is not None:
            disp = system.cell.minimum_image(disp)
        max_disp = np.sqrt((disp * disp).sum(axis=1).max())
        return bool(max_disp > self.skin / 2)


def triplet_list(nl: NeighborList) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs of edge indices sharing a center atom: (e1, e2) with e1 ≠ e2.

    For every center i, every ordered pair of its neighbor edges appears
    once.  This is the angular-term expansion used by the many-body
    reference potential (Stillinger–Weber-style 3-body sums).
    """
    centers = nl.edge_index[0]
    order = np.argsort(centers, kind="stable")
    sorted_centers = centers[order]
    n_edges = nl.n_edges
    if n_edges == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    counts = np.bincount(sorted_centers)
    counts = counts[counts > 0]
    group_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    # Each edge pairs with every edge in its center group.
    per_edge_count = np.repeat(counts, counts)  # group size for each sorted edge
    per_edge_start = np.repeat(group_starts, counts)
    e1_sorted = np.repeat(np.arange(n_edges), per_edge_count)
    e2_sorted = _ragged_arange(per_edge_start, per_edge_count)

    e1 = order[e1_sorted]
    e2 = order[e2_sorted]
    keep = e1 != e2
    return e1[keep], e2[keep]
