"""The :class:`Potential` interface shared by every interatomic model.

A potential maps (positions, species, neighbor list) to per-atom energies;
forces come for free as −∂E/∂r through the autodiff tape — the same route
the paper takes through PyTorch autograd.  The per-species scale/shift of
the total-energy decomposition E = Σ_i σ_{Z_i}·E_i + μ_{Z_i} (paper §V-A)
is applied in float64 regardless of the working precision (§V-B3: "we
conduct the shifting, scaling, and summation of the atomic energies in
double precision").
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..md.neighborlist import NeighborList, merged_neighbor_list, neighbor_list
from ..md.system import System
from ..nn.module import Module


class HalfListError(ValueError):
    """A half neighbor list given to a model that needs every ordered pair."""


class PerSpeciesScaleShift(Module):
    """E_i → σ_{Z_i}·E_i + μ_{Z_i}, computed in float64.

    σ initialized to ``scale_init`` (typically the force RMS of the training
    set), μ to per-species mean energies.
    """

    def __init__(
        self,
        n_species: int,
        scale_init: float = 1.0,
        shift_init: Optional[np.ndarray] = None,
        trainable: bool = True,
    ) -> None:
        self.n_species = int(n_species)
        self.scales = ad.Tensor(
            np.full(n_species, float(scale_init)), requires_grad=trainable, name="sigma"
        )
        shifts = (
            np.zeros(n_species)
            if shift_init is None
            else np.asarray(shift_init, dtype=np.float64)
        )
        if shifts.shape != (n_species,):
            raise ValueError("shift_init must have one entry per species")
        self.shifts = ad.Tensor(shifts, requires_grad=trainable, name="mu")

    def __call__(self, atomic_energies: ad.Tensor, species: np.ndarray) -> ad.Tensor:
        species = np.asarray(species)
        dtype = ad.config.final_dtype
        e_final = atomic_energies.astype(dtype)
        sigma = ad.gather(self.scales, species).astype(dtype)
        mu = ad.gather(self.shifts, species).astype(dtype)
        return e_final * sigma + mu


class Potential(Module):
    """Base class: implement :meth:`traced_energies` (or override
    :meth:`atomic_energies` directly); the rest is provided."""

    #: Maximum interaction cutoff in Å (used to build neighbor lists).
    cutoff: float = 0.0
    #: Per-ordered-species-pair cutoff matrix [S, S] in Å (paper §V-B4), or
    #: None when every pair interacts out to ``cutoff``.
    pair_cutoffs: Optional[np.ndarray] = None

    @property
    def half_list(self) -> bool:
        """Whether MD may evaluate this model on a half list, each unordered
        pair once (:func:`repro.md.neighborlist.half_list`).  Only a pair
        potential with E_ij = E_ji may: Allegro's per-ordered-pair energies
        (and every other many-body or composite model) need both orders."""
        return False

    def _refuse_half(self, nl: NeighborList) -> None:
        """Raise :class:`HalfListError` on a half list this model cannot use."""
        if nl.half and not self.half_list:
            raise HalfListError(
                f"{type(self).__name__} needs every ordered pair; "
                "it was given a half neighbor list"
            )

    def prepare_neighbors(self, system: System) -> NeighborList:
        """The neighbor list this model is evaluated on: every caller that
        has a system and no list (MD, serving, training, wrappers) asks here."""
        return neighbor_list(system, self.cutoff)

    def prepare_batch(self, systems, nls=None):
        """The merged graph several structures are evaluated on at once:
        ``(positions, species, nl, offsets)`` of
        :func:`repro.md.neighborlist.merged_neighbor_list`, equal to
        concatenating one :meth:`prepare_neighbors` list per structure.
        ``nls[k]``, where not None, is the list structure ``k`` brought.

        Small structures share one brute-force pass at ``self.cutoff``.  A
        subclass that builds its list differently overrides both methods;
        one that overrides only :meth:`prepare_neighbors` keeps its own
        list for every structure.
        """
        if type(self).prepare_neighbors is not Potential.prepare_neighbors:
            nls = [None] * len(systems) if nls is None else nls
            nls = [
                self.prepare_neighbors(s) if nl is None else nl
                for s, nl in zip(systems, nls)
            ]
        return merged_neighbor_list(systems, self.cutoff, nls, self.prepare_neighbors)

    def atomic_energies(
        self, positions: ad.Tensor, species: np.ndarray, nl: NeighborList
    ) -> ad.Tensor:
        """Per-atom energies [N] in eV (float64, already scaled/shifted);
        :class:`HalfListError` on a half list the model cannot take."""
        self._refuse_half(nl)
        species = np.asarray(species)
        return self.traced_energies(
            ad.astensor(positions), species, self.graph_inputs(species, nl)
        )

    def graph_inputs(self, species: np.ndarray, nl: NeighborList) -> dict:
        """Step-varying arrays of the traced graph, keyed by name.

        Contract (relied on by :class:`repro.engine.CompiledPotential`):
        every array has leading dimension ``nl.n_edges``.  The reserved keys
        ``"i_idx"``/``"j_idx"``/``"shifts"`` are padded with pad-atom indices
        and cutoff-length shift vectors respectively; any other key is
        zero-padded.  A half list (``nl.half``) is refused unless
        :attr:`half_list`.
        """
        self._refuse_half(nl)
        i_idx, j_idx = nl.edge_index
        return {"i_idx": i_idx, "j_idx": j_idx, "shifts": nl.shifts}

    def traced_energies(
        self, positions: ad.Tensor, species: np.ndarray, inputs: dict
    ) -> ad.Tensor:
        """Per-atom energies as a pure traced function of ``inputs``.

        Must consume geometry *only* through ``positions`` and the arrays in
        ``inputs`` (every value-dependent branch expressed as recorded ops),
        so a captured plan replays correctly when those arrays are rebound.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement traced_energies"
        )

    def compile(
        self,
        capacity: Optional[int] = None,
        pair_capacity: Optional[int] = None,
        padding: Optional[float] = 0.05,
        registry=None,
        labels=None,
    ):
        """Freeze + capture this potential into a replayable evaluator.

        Returns a :class:`repro.engine.CompiledPotential`: parameters are
        frozen, tensor products pre-fused, and the energy+force graph is
        captured once at a padded capacity and replayed on every call
        (re-capturing only on capacity overflow, paper §V-C / Fig. 5).
        ``padding=None`` disables the headroom entirely (exact-fit buffers,
        the Fig. 5 unpadded baseline: every size change re-captures).
        ``registry``/``labels`` route the evaluator's capture/replay
        counters into a shared :class:`repro.obs.Registry` tree instead of
        a private one.
        """
        from ..engine import CompiledPotential

        return CompiledPotential(
            self,
            capacity=capacity,
            pair_capacity=pair_capacity,
            padding=padding,
            registry=registry,
            labels=labels,
        )

    # -- generic API ----------------------------------------------------------
    def total_energy(
        self, positions: ad.Tensor, species: np.ndarray, nl: NeighborList
    ) -> ad.Tensor:
        """Scalar total energy; the final sum stays in float64."""
        return self.atomic_energies(positions, species, nl).sum()

    def evaluate(
        self,
        positions: np.ndarray,
        species: np.ndarray,
        nl: NeighborList,
        n_active: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-atom energies [N] and forces [N,3] on the eager tape.

        The signature of :meth:`repro.engine.CompiledPotential.evaluate`:
        ``n_active`` restricts the differentiated energy to the first atoms
        (a shard's owners; the gradient on the remaining rows is then the
        halo force contribution), default all.  Only the gradient with
        respect to positions is formed (:func:`repro.autodiff.grad`); a
        graph with no geometric dependence — an empty neighbor list — gives
        zero forces.
        """
        # The tape's large arrays live in this thread's arena until the
        # scope closes; _force_call's frame (and with it the tape) is gone
        # by then, and the energies leave as a copy.
        with ad.arena.scope():
            e_atoms, forces = self._force_call(positions, species, nl, n_active)
            e_atoms = e_atoms.copy()
        return e_atoms, forces

    def _force_call(self, positions, species, nl, n_active):
        pos = ad.Tensor(positions, requires_grad=True)
        e_atoms = self.atomic_energies(pos, species, nl)
        e_seed = e_atoms if n_active is None else e_atoms[:n_active]
        (gpos,) = ad.grad(e_seed.sum(), [pos])
        return e_atoms.data, -gpos.data

    def energy_and_forces(
        self,
        system: System,
        nl: Optional[NeighborList] = None,
    ) -> Tuple[float, np.ndarray]:
        """Convenience numpy API: (E [eV], F [N,3] eV/Å) for a system."""
        if nl is None:
            nl = self.prepare_neighbors(system)
        e_atoms, forces = self.evaluate(system.positions, system.species, nl)
        return float(e_atoms.sum()), forces

    @contextlib.contextmanager
    def inference_mode(self) -> Iterator[None]:
        """Deployment context: parameters stop requiring gradients.

        Used to capture a plan: the tape (and so the recorded graph) no
        longer extends into the weights, and tensor products pre-fuse their
        path weights into one Clebsch-Gordan tensor — the same effect as
        deploying a compiled TorchScript model in pair_allegro.  Numbers are
        identical.  It is not needed to make an eager force call cheap:
        :meth:`evaluate` never differentiates with respect to the weights,
        inside this context or outside it.
        """
        params = self.parameters()
        old = [p.requires_grad for p in params]
        tps = self.freezable_modules()
        for p in params:
            p.requires_grad = False
        for tp in tps:
            tp.freeze()
        try:
            yield
        finally:
            for p, flag in zip(params, old):
                p.requires_grad = flag
            for tp in tps:
                tp.unfreeze()
