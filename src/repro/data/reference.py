"""The analytic many-body reference potential that labels synthetic data.

Substitute for the paper's DFT reference calculations (ωB97M-D3(BJ) /
def2-TZVPPD on SPICE; see DESIGN.md).  Requirements for a faithful
substitution:

1. **Exactly evaluable** energies and forces (it is a Potential on the same
   autodiff substrate, so labels are machine-precision consistent).
2. **Many-body angular structure.**  The 3-body Stillinger–Weber-style term
   E₃ = Σ λ(s_i,s_j,s_k)·(cosθ_jik − c₀(s_i))²·f(r_ij)·f(r_ik) cannot be
   represented by any pair-additive form and is only partially captured by
   fixed rotation-invariant descriptors — giving the accuracy hierarchy
   classical < invariant < equivariant that Tables I/II rest on.
3. **Species sensitivity** through per-pair Morse parameters and per-species
   preferred angles (H: terminal, O: bent, C/N: tetrahedral-ish).

Units are eV / Å throughout, with magnitudes tuned to produce force scales
of O(1) eV/Å in equilibrium-ish structures, comparable to DFT forces in
SPICE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import autodiff as ad
from ..md.neighborlist import NeighborList, triplet_list
from ..md.system import System
from ..models.base import Potential
from ..nn.radial import PolynomialCutoff

#: canonical species order used by all synthetic generators
SPECIES = ("H", "C", "N", "O")
SPECIES_INDEX: Dict[str, int] = {s: i for i, s in enumerate(SPECIES)}
ATOMIC_NUMBERS = np.array([1.0, 6.0, 7.0, 8.0])


@dataclass
class SpeciesParams:
    """Parameter tables for the reference potential (S species)."""

    morse_D: np.ndarray  # [S, S] well depth, eV
    morse_a: np.ndarray  # [S, S] inverse width, 1/Å
    morse_r0: np.ndarray  # [S, S] equilibrium distance, Å
    three_body_lambda: np.ndarray  # [S] angular strength at center, eV
    cos_theta0: np.ndarray  # [S] preferred cosine at center species
    charges: np.ndarray  # [S] partial charges for the screened Coulomb tail


def default_species_params() -> SpeciesParams:
    """H/C/N/O parameters with chemically sensible orderings."""
    # Pairwise equilibrium distances loosely following covalent radii sums.
    r0 = np.array(
        [  # H     C     N     O
            [0.74, 1.09, 1.01, 0.96],  # H
            [1.09, 1.52, 1.47, 1.43],  # C
            [1.01, 1.47, 1.45, 1.40],  # N
            [0.96, 1.43, 1.40, 1.48],  # O
        ]
    )
    D = np.array(
        [
            [0.18, 0.35, 0.32, 0.38],
            [0.35, 0.30, 0.28, 0.30],
            [0.32, 0.28, 0.25, 0.26],
            [0.38, 0.30, 0.26, 0.22],
        ]
    )
    a = np.array(
        [
            [2.0, 1.9, 1.9, 2.0],
            [1.9, 1.8, 1.8, 1.8],
            [1.9, 1.8, 1.7, 1.7],
            [2.0, 1.8, 1.7, 1.9],
        ]
    )
    lam = np.array([0.0, 0.9, 0.7, 0.6])  # H has no angular preference
    cos0 = np.array([0.0, -1.0 / 3.0, -1.0 / 3.0, -0.27])  # tetrahedral-ish; O bent
    q = np.array([0.25, 0.05, -0.20, -0.45])
    return SpeciesParams(D, a, r0, lam, cos0, q)


class ReferencePotential(Potential):
    """Morse pairs + SW-style 3-body + screened Coulomb tail.

    E = Σ_{pairs} ½[Morse + q_i q_j·g(r)]·u(r/r_c)
      + Σ_i λ(Z_i) Σ_{j≠k} w_jk (cosθ_jik − c₀(Z_i))² f(r_ij) f(r_ik)

    with f a smooth radial weight vanishing at the 3-body cutoff.
    """

    def __init__(
        self,
        params: Optional[SpeciesParams] = None,
        cutoff: float = 4.0,
        three_body_cutoff: float = 2.2,
        coulomb_strength: float = 1.2,
    ) -> None:
        self.params = params or default_species_params()
        self.cutoff = float(cutoff)
        self.three_body_cutoff = float(three_body_cutoff)
        self.coulomb_strength = float(coulomb_strength)
        self.envelope = PolynomialCutoff(6)
        self._n_species = len(self.params.charges)

    def atomic_energies(self, positions, species, nl: NeighborList):
        self._refuse_half(nl)
        p = self.params
        species = np.asarray(species)
        n_atoms = positions.shape[0]
        i_idx, j_idx = nl.edge_index
        positions = ad.astensor(positions)
        disp = ad.gather(positions, j_idx) + ad.Tensor(nl.shifts) - ad.gather(
            positions, i_idx
        )
        r = ad.safe_norm(disp, axis=-1)

        # -- pair part -------------------------------------------------------
        D = ad.Tensor(p.morse_D[species[i_idx], species[j_idx]])
        a = ad.Tensor(p.morse_a[species[i_idx], species[j_idx]])
        r0 = ad.Tensor(p.morse_r0[species[i_idx], species[j_idx]])
        decay = ad.exp(-(a * (r - r0)))
        e_morse = D * ((1.0 - decay) ** 2 - 1.0)
        qq = p.charges[species[i_idx]] * p.charges[species[j_idx]]
        e_coul = ad.Tensor(qq * self.coulomb_strength) / (r + 0.9)
        u = self.envelope(r * (1.0 / self.cutoff))
        e_edge = (e_morse + e_coul) * u * 0.5
        e_atoms = ad.scatter_add(e_edge, i_idx, n_atoms)

        # -- 3-body part -------------------------------------------------------
        f = self.envelope(r * (1.0 / self.three_body_cutoff))
        e1, e2 = triplet_list(nl)
        if len(e1) > 0:
            d1 = ad.gather(disp, e1)
            d2 = ad.gather(disp, e2)
            r1 = ad.gather(r, e1)
            r2 = ad.gather(r, e2)
            cos = (d1 * d2).sum(axis=-1) / (r1 * r2)
            centers = species[i_idx[e1]]
            lam = p.three_body_lambda[centers]
            c0 = p.cos_theta0[centers]
            w = ad.gather(f, e1) * ad.gather(f, e2)
            # ½: each unordered (j, k) appears twice in the ordered triplets.
            e_tri = ad.Tensor(lam * 0.5) * (cos - ad.Tensor(c0)) ** 2 * w
            e_atoms = e_atoms + ad.scatter_add(e_tri, i_idx[e1], n_atoms)
        return e_atoms

    def label(self, system: System, nl: Optional[NeighborList] = None):
        """(energy, forces) labels for a structure (convenience alias)."""
        return self.energy_and_forces(system, nl)
