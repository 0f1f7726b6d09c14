"""Simple analytic pair potentials: Lennard-Jones and Morse.

These serve three roles: fast potentials for exercising the MD engine and
domain decomposition with exactly known physics, ingredients of the
classical force field baseline, and components of the synthetic reference
potential that labels training data.
"""

from __future__ import annotations


import numpy as np

from .. import autodiff as ad
from ..md.neighborlist import NeighborList
from .base import Potential

#: Degree of the polynomial cutoff envelope both pair potentials use.
ENVELOPE_P = 6


def _symmetric(*tables) -> bool:
    return all(np.array_equal(t, t.T) for t in tables)


def _pair_idx(species, nl: NeighborList, S: int) -> np.ndarray:
    """Each edge's row in :func:`_blocks` tables: its species pair, in the
    second block on a half list."""
    i_idx, j_idx = nl.edge_index
    idx = species[i_idx] * S + species[j_idx]
    return idx + S * S if nl.half else idx


def _blocks(table: np.ndarray, half_factor: float) -> ad.Tensor:
    """[S, S] → [2S²]: the per-species-pair parameters of a full list's
    edges (half a bond each), then a half list's (the whole bond): energy
    scales get ``half_factor`` 2, shape parameters 1.  The kernels are
    linear in the energy scale, so a half-list edge term and its gradient
    are bitwise twice the full-list ones."""
    flat = table.reshape(-1)
    return ad.Tensor(np.concatenate([flat, half_factor * flat]))


class LennardJones(Potential):
    """12-6 Lennard-Jones with per-species-pair ε and σ, smoothly cut off.

    E_ij = 4ε[(σ/r)¹² − (σ/r)⁶] · u(r/r_c).  On a full list each ordered
    pair carries half the bond energy, so per-atom energies sum to the
    usual total; on a half list (symmetric tables only) the one kept edge
    carries all of it, on its center.
    """

    def __init__(
        self,
        epsilon: np.ndarray | float = 1.0,
        sigma: np.ndarray | float = 1.0,
        cutoff: float = 2.5,
        n_species: int = 1,
    ) -> None:
        eps = np.asarray(epsilon, dtype=np.float64)
        sig = np.asarray(sigma, dtype=np.float64)
        if eps.ndim == 0:
            eps = np.full((n_species, n_species), float(eps))
        if sig.ndim == 0:
            sig = np.full((n_species, n_species), float(sig))
        if eps.shape != (n_species, n_species) or sig.shape != (n_species, n_species):
            raise ValueError("epsilon/sigma must be scalars or [S, S] matrices")
        self.eps_table = eps
        self.sigma_table = sig
        self.cutoff = float(cutoff)

    @property
    def half_list(self) -> bool:
        return _symmetric(self.eps_table, self.sigma_table)

    def graph_inputs(self, species: np.ndarray, nl: NeighborList) -> dict:
        inputs = super().graph_inputs(species, nl)
        inputs["pair_idx"] = _pair_idx(species, nl, self.eps_table.shape[0])
        return inputs

    def traced_energies(self, positions, species, inputs: dict):
        i, j = inputs["i_idx"], inputs["j_idx"]
        pair_idx = inputs["pair_idx"]
        disp = ad.gather(positions, j) + ad.astensor(inputs["shifts"]) - ad.gather(
            positions, i
        )
        r = ad.safe_norm(disp, axis=-1)
        eps = ad.gather(_blocks(self.eps_table, 2.0), pair_idx)
        sig = ad.gather(_blocks(self.sigma_table, 1.0), pair_idx)
        e_edge = ad.lj_pair(r, eps, sig, self.cutoff, ENVELOPE_P)
        return ad.scatter_add(e_edge, i, positions.shape[0])


class MorsePotential(Potential):
    """Morse pairs: D·[(1 − e^{−a(r−r0)})² − 1] with per-species-pair params.

    Smooth, strongly anharmonic, and species-sensitive — used inside the
    synthetic quantum reference potential (:mod:`repro.data.reference`).
    Full and half lists split the bond energy as :class:`LennardJones`.
    """

    def __init__(
        self,
        D: np.ndarray,
        a: np.ndarray,
        r0: np.ndarray,
        cutoff: float = 4.0,
    ) -> None:
        self.D = np.asarray(D, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.float64)
        self.r0 = np.asarray(r0, dtype=np.float64)
        S = self.D.shape[0] if self.D.ndim == 2 else -1
        if not self.D.shape == self.a.shape == self.r0.shape == (S, S):
            raise ValueError("D, a, r0 must be [S, S] matrices of equal shape")
        self.cutoff = float(cutoff)

    @property
    def half_list(self) -> bool:
        return _symmetric(self.D, self.a, self.r0)

    def graph_inputs(self, species: np.ndarray, nl: NeighborList) -> dict:
        inputs = super().graph_inputs(species, nl)
        inputs["pair_idx"] = _pair_idx(species, nl, self.D.shape[0])
        return inputs

    def traced_energies(self, positions, species, inputs: dict):
        i, j = inputs["i_idx"], inputs["j_idx"]
        pair_idx = inputs["pair_idx"]
        disp = ad.gather(positions, j) + ad.astensor(inputs["shifts"]) - ad.gather(
            positions, i
        )
        r = ad.safe_norm(disp, axis=-1)
        D = ad.gather(_blocks(self.D, 2.0), pair_idx)
        a = ad.gather(_blocks(self.a, 1.0), pair_idx)
        r0 = ad.gather(_blocks(self.r0, 1.0), pair_idx)
        e_edge = ad.morse_pair(r, D, a, r0, self.cutoff, ENVELOPE_P)
        return ad.scatter_add(e_edge, i, positions.shape[0])
