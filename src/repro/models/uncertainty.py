"""Ensemble uncertainty for interatomic potentials.

The paper's implications section (§VIII) points to uncertainty-aware
large-scale simulation: "Recently we demonstrated that it is possible to
efficiently quantify uncertainty of deep equivariant model predictions ...
and use it to perform active learning" [42], with Gaussian-mixture
single-model estimates as future work and *ensembles* as the baseline they
improve on.  This module implements the ensemble baseline:

* :class:`EnsemblePotential` — averages energies of member models (usable
  directly as an MD potential) and exposes per-atom force standard
  deviations as the uncertainty signal.
* :func:`train_ensemble` — trains N members differing in weight
  initialization on the same data (the standard deep-ensemble recipe).
* :func:`max_force_uncertainty` — the per-structure scalar used as an
  active-learning acquisition score.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..md.neighborlist import NeighborList
from ..md.system import System
from .base import Potential


class EnsemblePotential(Potential):
    """Mean of member potentials; spread of member forces = uncertainty."""

    def __init__(self, members: Sequence[Potential]) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)
        self.cutoff = max(m.cutoff for m in self.members)

    @property
    def n_members(self) -> int:
        return len(self.members)

    def prepare_neighbors(self, system: System) -> NeighborList:
        # Members share one architecture (``train_ensemble``): any member's
        # list — pruned the way that architecture prunes — serves them all.
        return self.members[0].prepare_neighbors(system)

    def prepare_batch(self, systems, nls=None):
        return self.members[0].prepare_batch(systems, nls)

    def atomic_energies(self, positions, species, nl: NeighborList):
        total = self.members[0].atomic_energies(positions, species, nl)
        for m in self.members[1:]:
            total = total + m.atomic_energies(positions, species, nl)
        return total * (1.0 / self.n_members)

    # -- uncertainty API -------------------------------------------------------
    def predict_with_uncertainty(
        self, system: System, nl: Optional[NeighborList] = None
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """(mean energy, mean forces [N,3], per-atom force std [N]).

        The per-atom uncertainty is the RMS over members and components of
        the deviation from the mean force — the quantity active learning
        thresholds on.
        """
        if nl is None:
            nl = self.prepare_neighbors(system)
        energies, forces = [], []
        for m in self.members:
            e, f = m.energy_and_forces(system, nl)
            energies.append(e)
            forces.append(f)
        fstack = np.stack(forces)  # [M, N, 3]
        f_mean = fstack.mean(axis=0)
        dev = fstack - f_mean
        per_atom_std = np.sqrt((dev**2).mean(axis=(0, 2)))
        return float(np.mean(energies)), f_mean, per_atom_std


def train_ensemble(
    model_factory: Callable[[int], Potential],
    train_frames,
    n_members: int = 3,
    trainer_config=None,
    epochs: int = 10,
) -> EnsemblePotential:
    """Deep-ensemble recipe: same data, different weight initializations.

    ``model_factory(seed)`` must build a fresh member with that seed.
    """
    from ..nn.training import TrainConfig, Trainer

    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    members: List[Potential] = []
    for k in range(n_members):
        model = model_factory(k)
        cfg = trainer_config or TrainConfig(lr=5e-3, batch_size=4, seed=k)
        trainer = Trainer(model, train_frames, config=cfg)
        trainer.fit(epochs=epochs)
        trainer.ema.swap()
        members.append(model)
    return EnsemblePotential(members)


def max_force_uncertainty(
    ensemble: EnsemblePotential, system: System
) -> float:
    """Per-structure acquisition score: max per-atom force uncertainty."""
    _, _, std = ensemble.predict_with_uncertainty(system)
    return float(std.max()) if len(std) else 0.0
