"""The Allegro model: strictly local equivariant deep learning (paper §V-A).

Architecture (fig. 2 of the paper):

1. **Two-body embedding** — each ordered pair (i→j) embeds the species pair
   (one-hots) and the distance (trainable per-ordered-species-pair Bessel
   basis × polynomial cutoff) through the two-body latent MLP, producing the
   initial scalar latent x⁰_ij.  Initial tensor features are the spherical
   harmonics of r̂_ij weighted per channel/ℓ by a linear projection of x⁰.

2. **Tensor product layers** — the central operation of eq. 2: the pair
   features V_ij are updated by a tensor product with the *environment
   embedding* Σ_{k∈N(i)} w_ik · Y(r̂_ik), a learned weighted sum of the
   central atom's neighbor directions.  Because every pair shares the same
   center i, the receptive field never grows — the model stays strictly
   local and spatially decomposable.  The product is the fused strided
   kernel of §V-B2 with per-path weights and scalar-output specialization
   in the last layer.

3. **Two-track design** — the scalar track (latent MLPs, cheap dense
   matmuls) carries most of the capacity; each layer feeds the 0e scalars
   extracted from the tensor track back into the latent MLP, and the next
   layer's environment weights come from the scalar track, letting the
   scalar capacity "control" the equivariant features.

4. **Output** — per-pair energies E_ij from the final edge-energy MLP,
   enveloped for smoothness, summed to atoms, then per-species scale/shift
   and total sum in float64 (§V-B3).

A ZBL core repulsion can be added (§VI-D) for MD stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..equivariant import (
    FusedTensorProduct,
    Irrep,
    ScalarOutputTensorProduct,
    StridedLayout,
    reachable_output_irreps,
)
from ..equivariant.spherical_harmonics import spherical_harmonics
from ..md.neighborlist import (
    NeighborList,
    filter_by_pair_cutoffs,
    merged_neighbor_list,
    neighbor_list,
)
from ..md.system import System
from ..nn.mlp import MLP, Linear
from ..nn.module import ParameterList
from ..nn.radial import PerPairBesselBasis
from .base import PerSpeciesScaleShift, Potential
from .zbl import ZBLRepulsion


@dataclass
class AllegroConfig:
    """Hyperparameters; defaults are test-scale, :meth:`paper` is full-scale."""

    n_species: int = 2
    lmax: int = 2
    n_tensor: int = 8  # paper: 64
    n_layers: int = 2  # paper: 2
    r_cut: float = 4.0
    #: optional [S, S] ordered per-species-pair cutoff matrix (§V-B4);
    #: None means uniform r_cut.
    per_pair_cutoffs: Optional[np.ndarray] = None
    num_bessel: int = 8
    latent_dim: int = 32  # paper: 1024
    two_body_hidden: Tuple[int, ...] = (32, 64)  # paper: (128, 256, 512, 1024)
    latent_hidden: Tuple[int, ...] = (64,)  # paper: (1024, 1024, 1024)
    edge_energy_hidden: Tuple[int, ...] = (16,)  # paper: (128,)
    #: 'silu' in latent MLPs; the paper's edge-energy MLP has no nonlinearity.
    nonlinearity: str = "silu"
    avg_num_neighbors: float = 20.0
    #: Add the ZBL core repulsion (needs atomic_numbers).
    zbl: bool = False
    atomic_numbers: Optional[np.ndarray] = None
    #: ZBL envelope cutoff.  The default sits *below* bonding distances
    #: (shortest O-H bond ≈ 0.96 Å), making ZBL a pure anti-collapse safety
    #: net that is numerically zero on training data.  The paper trains
    #: through the full-range ZBL, which its 1M-frame dataset can absorb;
    #: at reduced data scale the network cannot learn to cancel ~eV-scale
    #: core repulsion inside every bond.
    zbl_cutoff: float = 0.75
    seed: int = 0

    @classmethod
    def paper(cls, n_species: int, **overrides) -> "AllegroConfig":
        """The production hyperparameters of §VI-D (7.85M-weight scale)."""
        cfg = dict(
            n_species=n_species,
            lmax=2,
            n_tensor=64,
            n_layers=2,
            r_cut=4.0,
            num_bessel=8,
            latent_dim=1024,
            two_body_hidden=(128, 256, 512),
            latent_hidden=(1024, 1024),
            edge_energy_hidden=(128,),
        )
        cfg.update(overrides)
        return cls(**cfg)

    def cutoff_matrix(self) -> np.ndarray:
        if self.per_pair_cutoffs is not None:
            m = np.asarray(self.per_pair_cutoffs, dtype=np.float64)
            if m.shape != (self.n_species, self.n_species):
                raise ValueError("per_pair_cutoffs must be [n_species, n_species]")
            return m
        return np.full((self.n_species, self.n_species), self.r_cut)


class AllegroModel(Potential):
    """Strictly local equivariant interatomic potential."""

    def __init__(self, config: AllegroConfig) -> None:
        cfg = config
        self.config = cfg
        rng = np.random.default_rng(cfg.seed)
        S = cfg.n_species
        self.n_species = S
        cut_mat = cfg.cutoff_matrix()
        self.cutoff = float(cut_mat.max())
        self.pair_cutoffs = None if np.allclose(cut_mat, self.cutoff) else cut_mat

        # -- two-body embedding ------------------------------------------------
        self.radial_basis = PerPairBesselBasis(cut_mat, num_basis=cfg.num_bessel)
        two_body_in = 2 * S + cfg.num_bessel
        self.two_body_mlp = MLP(
            [two_body_in, *cfg.two_body_hidden, cfg.latent_dim],
            nonlinearity=cfg.nonlinearity,
            rng=rng,
        )

        # -- tensor track layouts, pruned to scalar-reachable irreps -----------
        env_irreps = [Irrep(l, (-1) ** l) for l in range(cfg.lmax + 1)]
        self.env_layout = StridedLayout.spherical(cfg.lmax, mul=cfg.n_tensor)
        self.sh_block_cols = _block_expansion(cfg.lmax)

        layouts: List[StridedLayout] = [
            StridedLayout.spherical(cfg.lmax, mul=cfg.n_tensor)
        ]
        self.v0_linear = Linear(cfg.latent_dim, cfg.n_tensor * (cfg.lmax + 1), rng=rng)
        self.tps: ParameterList = ParameterList()
        self.env_linears: ParameterList = ParameterList()
        self.latent_mlps: ParameterList = ParameterList()
        for L in range(cfg.n_layers):
            remaining = cfg.n_layers - 1 - L
            self.env_linears.append(
                Linear(cfg.latent_dim, cfg.n_tensor * (cfg.lmax + 1), rng=rng)
            )
            if remaining == 0:
                tp = ScalarOutputTensorProduct(layouts[-1], self.env_layout)
            else:
                keep = reachable_output_irreps(cfg.lmax, remaining, env_irreps)
                tp = FusedTensorProduct(
                    layouts[-1], self.env_layout, output_irreps=keep
                )
            self.tps.append(tp)
            layouts.append(tp.layout_out)
            self.latent_mlps.append(
                MLP(
                    [cfg.latent_dim + cfg.n_tensor, *cfg.latent_hidden, cfg.latent_dim],
                    nonlinearity=cfg.nonlinearity,
                    rng=rng,
                )
            )
        self.layouts = layouts

        # -- output head --------------------------------------------------------
        # Paper §VI-D: single hidden layer, *no* nonlinearity.
        self.edge_energy_mlp = MLP(
            [cfg.latent_dim, *cfg.edge_energy_hidden, 1],
            nonlinearity="identity",
            rng=rng,
        )
        self.scale_shift = PerSpeciesScaleShift(S)

        self.zbl: Optional[ZBLRepulsion] = None
        if cfg.zbl:
            if cfg.atomic_numbers is None:
                raise ValueError("zbl=True requires atomic_numbers in the config")
            self.zbl = ZBLRepulsion(
                cfg.atomic_numbers, cutoff=min(cfg.zbl_cutoff, self.cutoff)
            )

        self._env_norm = 1.0 / math.sqrt(max(cfg.avg_num_neighbors, 1.0))
        self._species_eye = np.eye(S)

    # -- neighbor handling ------------------------------------------------------
    def prepare_neighbors(self, system: System) -> NeighborList:
        """Neighbor list at the max cutoff, pruned per ordered species pair."""
        nl = neighbor_list(system, self.cutoff)
        if self.pair_cutoffs is not None:
            nl = filter_by_pair_cutoffs(
                nl, system.positions, system.species, self.pair_cutoffs
            )
        return nl

    def prepare_batch(self, systems, nls=None):
        """The merged list at the max cutoff, pruned the same way."""
        return merged_neighbor_list(
            systems, self.cutoff, nls, self.prepare_neighbors, self.pair_cutoffs
        )

    # -- forward ------------------------------------------------------------------
    def graph_inputs(self, species: np.ndarray, nl: NeighborList) -> dict:
        inputs = super().graph_inputs(species, nl)
        i_idx, j_idx = nl.edge_index
        inputs["pair_idx"] = species[i_idx] * self.n_species + species[j_idx]
        return inputs

    def traced_energies(self, positions, species, inputs: dict):
        cfg = self.config
        n_atoms = positions.shape[0]
        i_idx, j_idx = inputs["i_idx"], inputs["j_idx"]
        pair_idx = inputs["pair_idx"]

        disp = ad.gather(positions, j_idx) + ad.astensor(inputs["shifts"]) - ad.gather(
            positions, i_idx
        )
        r = ad.safe_norm(disp, axis=-1)

        # Two-body scalar latent, multiplied by the cutoff envelope so every
        # pair's influence (and hence its environment weights) vanishes
        # smoothly at its own per-species-pair cutoff — required for energy
        # continuity and conservative forces.
        basis = self.radial_basis(r, pair_idx)
        u = self.radial_basis.envelope_of(r, pair_idx)
        uc = u.expand_dims(-1)
        # Nested traced gathers (eye[species][i_idx]) instead of numpy fancy
        # indexing: the captured plan then follows rebound species/edges.
        sp_onehot = ad.gather(ad.Tensor(self._species_eye), species)
        onehots = ad.concatenate(
            [ad.gather(sp_onehot, i_idx), ad.gather(sp_onehot, j_idx)], axis=1
        )
        x = self.two_body_mlp(ad.concatenate([onehots, basis], axis=-1)) * uc

        # Spherical harmonics of the pair direction (shared by V0 and env).
        Y = spherical_harmonics(cfg.lmax, disp)  # [E, (lmax+1)^2]
        Yc = Y.expand_dims(-2)  # [E, 1, D]

        # Initial tensor features: V0 = w(x) ⊗ Y per channel and ℓ-block.
        w0 = self.v0_linear(x).reshape((-1, cfg.n_tensor, cfg.lmax + 1))
        V = ad.einsum("znl,ld->znd", w0, ad.Tensor(self.sh_block_cols)) * Yc

        env_weights_src = x
        for L in range(cfg.n_layers):
            # Environment embedding: Σ_k w_ik Y_ik over the center atom i.
            we = self.env_linears[L](env_weights_src).reshape(
                (-1, cfg.n_tensor, cfg.lmax + 1)
            )
            env_edge = ad.einsum("znl,ld->znd", we, ad.Tensor(self.sh_block_cols)) * Yc
            env_center = ad.scatter_add(env_edge, i_idx, n_atoms) * self._env_norm
            env_pair = ad.gather(env_center, i_idx)

            V = self.tps[L](V, env_pair)

            # Feed tensor-track scalars back into the scalar track.
            sl = self.tps[L].layout_out.scalar_slice
            scalars = V[..., sl].reshape((-1, cfg.n_tensor))
            mlp_out = self.latent_mlps[L](ad.concatenate([x, scalars], axis=-1))
            # Envelope each update too, so the latent stays ∝ u(r) at every
            # depth (Allegro's residual update is cutoff-enveloped).
            x = (x + mlp_out * uc) * (1.0 / math.sqrt(2.0))
            env_weights_src = x

        # Per-pair energies, enveloped at each pair's own cutoff.
        e_edge = self.edge_energy_mlp(x).squeeze(-1)
        e_edge = e_edge * u

        e_atoms = ad.scatter_add(e_edge, i_idx, n_atoms)
        e_atoms = self.scale_shift(e_atoms, species)
        if self.zbl is not None:
            e_atoms = e_atoms + self.zbl.traced_energies(positions, species, inputs)
        return e_atoms


def _block_expansion(lmax: int) -> np.ndarray:
    """[lmax+1, (lmax+1)²] matrix repeating per-ℓ weights over 2ℓ+1 columns."""
    D = (lmax + 1) ** 2
    M = np.zeros((lmax + 1, D))
    col = 0
    for l in range(lmax + 1):
        M[l, col : col + 2 * l + 1] = 1.0
        col += 2 * l + 1
    return M
