"""Interatomic potentials: Allegro and the baselines it is compared against.

* :class:`AllegroModel` — the paper's strictly-local equivariant model
  (two-track architecture, fused strided tensor products, per-species-pair
  cutoffs, ZBL core repulsion, mixed-precision-aware energy summation).
* :class:`NequIPModel` — equivariant *message-passing* baseline whose
  receptive field grows with depth (the scalability contrast of §IV-A).
* :class:`DeepMDModel` — first-generation invariant descriptor baseline
  (Table II sample-efficiency comparison).
* :class:`ClassicalForceField` — LJ + bonded terms (Table I classical row).
* :class:`LennardJones` — simple pair potential used in MD engine tests.
"""

from .base import HalfListError, Potential, PerSpeciesScaleShift
from .pairwise import LennardJones, MorsePotential
from .zbl import ZBLRepulsion
from .allegro import AllegroModel, AllegroConfig
from .nequip import NequIPModel, NequIPConfig
from .deepmd import DeepMDModel, DeepMDConfig
from .classical import ClassicalForceField, ClassicalConfig

__all__ = [
    "HalfListError",
    "Potential",
    "PerSpeciesScaleShift",
    "LennardJones",
    "MorsePotential",
    "ZBLRepulsion",
    "AllegroModel",
    "AllegroConfig",
    "NequIPModel",
    "NequIPConfig",
    "DeepMDModel",
    "DeepMDConfig",
    "ClassicalForceField",
    "ClassicalConfig",
]
