"""CompiledPotential: frozen, padded, replayable force evaluation.

Mirrors pair_allegro's deployment model (paper §V-C): the potential is
captured once at a fixed capacity — parameters frozen, tensor-product path
weights pre-fused, the full energy+force graph recorded into an
:class:`~repro.engine.ExecutionPlan` — and every subsequent call just rebinds
the input buffers and replays the plan.  Inputs are padded to capacities
governed by :class:`repro.perf.allocator.PaddingPolicy` (5% growth), so
fluctuating neighbor counts do not trigger re-capture: the plan is rebuilt
only when the padded atom or pair count overflows capacity, and
``n_captures``/``recaptures`` expose exactly the counter the Fig. 5
experiment needs.

Padding scheme
--------------
One extra "pad atom" slot (index ``capacity_atoms - 1``, position 0) absorbs
all pad edges: each pad edge has ``i = j = pad_atom`` and a shift vector of
``(cutoff, 0, 0)``, so its distance sits exactly at the cutoff where every
envelope is identically zero.  Pad edges therefore contribute exactly 0 to
every real atom's energy and force, and because they occupy the *tail* of the
edge arrays the scatter's edge-order accumulation over real edges is unchanged
— replayed results are bitwise-identical to the eager tape.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from .. import autodiff as ad
from ..obs import Registry, span
from ..perf.allocator import PaddingPolicy
from .plan import ExecutionPlan

__all__ = ["CompiledPotential"]


class _EvalState:
    """The captured plan and the padded input buffers it reads.

    :meth:`CompiledPotential._bind` overwrites the buffers in place before
    every replay; the plan's compute buffers are its own arena.
    """

    __slots__ = (
        "plan",
        "cap_atoms",
        "cap_pairs",
        "pos_buf",
        "species_buf",
        "mask_buf",
        "input_bufs",
        "pad_shift",
    )


class PotentialWrapper:
    """Mixin for a force evaluator around ``self.potential`` (the captured
    plan below, :class:`repro.resilience.FaultyPotential`): the neighbor half
    of the potential protocol is the wrapped model's, and
    ``energy_and_forces`` is the wrapper's own ``evaluate`` on the list that
    model prepares — so a wrapper drops into ``Simulation`` or a server."""

    @property
    def cutoff(self) -> float:
        return self.potential.cutoff

    @property
    def pair_cutoffs(self):
        return self.potential.pair_cutoffs

    @property
    def half_list(self) -> bool:
        return self.potential.half_list

    def prepare_neighbors(self, system):
        return self.potential.prepare_neighbors(system)

    def prepare_batch(self, systems, nls=None):
        return self.potential.prepare_batch(systems, nls)

    def energy_and_forces(self, system, nl=None):
        """Drop-in for :meth:`repro.models.base.Potential.energy_and_forces`."""
        if nl is None:
            nl = self.prepare_neighbors(system)
        e_atoms, forces = self.evaluate(system.positions, system.species, nl)
        return float(np.sum(e_atoms)), forces


class CompiledPotential(PotentialWrapper):
    """Capture-once / replay-many wrapper around a :class:`Potential`.

    Parameters
    ----------
    potential:
        Any potential implementing the ``graph_inputs``/``traced_energies``
        contract (Allegro, NequIP, DeepMD, classical pair potentials, ...).
    capacity:
        Optional initial atom capacity (atoms + 1 pad slot must fit).
    pair_capacity:
        Optional initial edge capacity.
    padding:
        Fractional headroom applied when capacity grows (paper uses 5%).
        ``None`` selects exact-fit buffers: capacities track the incoming
        sizes exactly, so *every* neighbor-list size change forces a
        re-capture — the paper's unpadded baseline in Fig. 5.

    Notes
    -----
    The captured plan bakes in the *current* parameter values (including
    pre-fused tensor-product weights).  After a training update, call
    :meth:`invalidate` (or build a fresh compiled potential) to re-capture.

    One plan, one caller at a time, as in pair_allegro's one model per
    rank: capture, bind, replay and the replay-failure chain all run under
    one lock, so concurrent callers are correct and served in turn.
    """

    def __init__(
        self,
        potential,
        capacity: Optional[int] = None,
        pair_capacity: Optional[int] = None,
        padding: float = 0.05,
        registry: Optional[Registry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        base = type(potential)
        traced = getattr(base, "traced_energies", None)
        from ..models.base import Potential

        if traced is None or traced is Potential.traced_energies:
            raise TypeError(
                f"{base.__name__} does not implement traced_energies(); "
                "it cannot be compiled"
            )
        self.potential = potential
        self.exact_fit = padding is None
        frac = 0.0 if self.exact_fit else padding
        self.atom_policy = PaddingPolicy(fraction=frac)
        self.pair_policy = PaddingPolicy(fraction=frac)
        if capacity is not None:
            self.atom_policy._capacity = int(capacity)
        if pair_capacity is not None:
            self.pair_policy._capacity = int(pair_capacity)
        # Event counters live in an obs.Registry (private by default, or a
        # shared tree with e.g. per-rank labels), so ``stats()`` is a view
        # over the same registry model as every other layer.  The replay
        # counter is a plain int under the evaluation lock, so a replay
        # takes no second lock.
        self.obs = registry if registry is not None else Registry()
        self._obs_labels = dict(labels) if labels else None
        self._c_captures = self.obs.counter("engine.captures", self._obs_labels)
        # Degradation chain (replay failure → recapture once → eager):
        # counters expose how often each stage fired; ``fault_hook`` is the
        # deterministic injection point (called with the stage name before
        # each replay; an exception it raises counts as that stage failing).
        self._c_replay_failures = self.obs.counter(
            "engine.replay_failures", self._obs_labels
        )
        self._c_failure_recaptures = self.obs.counter(
            "engine.failure_recaptures", self._obs_labels
        )
        self._c_eager_fallbacks = self.obs.counter(
            "engine.eager_fallbacks", self._obs_labels
        )
        self._g_cap_atoms = self.obs.gauge("engine.capacity_atoms", self._obs_labels)
        self._g_cap_pairs = self.obs.gauge("engine.capacity_pairs", self._obs_labels)
        self._g_arena_bytes = self.obs.gauge("engine.arena_bytes", self._obs_labels)
        self._g_arena_buffers = self.obs.gauge(
            "engine.arena_buffers", self._obs_labels
        )
        self.fault_hook = None
        self._lock = threading.Lock()
        self._state: Optional[_EvalState] = None
        #: Successful plan executions, the one after each capture included.
        self.n_replays = 0

    # -- counter views (registry-backed; see __init__) ------------------------
    @property
    def n_captures(self) -> int:
        return self._c_captures.value

    @property
    def capacity_atoms(self) -> int:
        state = self._state
        return 0 if state is None else state.cap_atoms

    @property
    def capacity_pairs(self) -> int:
        state = self._state
        return 0 if state is None else state.cap_pairs

    @property
    def plan(self) -> Optional[ExecutionPlan]:
        state = self._state
        return None if state is None else state.plan

    def invalidate(self) -> None:
        """Drop the captured plan (call after parameter updates).

        Safe during :meth:`evaluate`: it waits for the call in flight, and
        the next call recaptures.
        """
        with self._lock:
            self._state = None

    def stats(self) -> dict:
        """Capture/replay counters and arena statistics.

        A view over the instance's ``obs`` registry (plus the replay
        counter and the live plan's arena numbers).
        """
        out = {
            "n_captures": self.n_captures,
            # Captures beyond the initial one (the Fig. 5 counter).
            "recaptures": max(0, self.n_captures - 1),
            "n_replays": self.n_replays,
            "capacity_atoms": self.capacity_atoms,
            "capacity_pairs": self.capacity_pairs,
            "n_replay_failures": self._c_replay_failures.value,
            "n_failure_recaptures": self._c_failure_recaptures.value,
            "n_eager_fallbacks": self._c_eager_fallbacks.value,
        }
        plan = self.plan
        if plan is not None:
            out["plan_steps"] = plan.n_steps
            out["plan_folded"] = plan.n_folded
            out["plan_hoisted"] = plan.n_hoisted
            out["arena_buffers"] = plan.arena.n_buffers
            out["arena_bytes"] = plan.arena.total_bytes
            out["arena_reuses"] = plan.arena.n_reused
        return out

    def kernel_profile(self, repeats: int = 10) -> dict:
        """Per-kernel-class time of one replay of the live plan.

        Runs :meth:`ExecutionPlan.profile` on the live plan (on the inputs
        bound to it last) and publishes the result as
        ``engine.kernel_seconds{class=}`` gauges on the registry.  Returns
        the table; empty before the first capture.  Attribution is paid
        here, on demand — the replay loop itself has no timer.
        """
        with self._lock:
            plan = self.plan
            if plan is None:
                return {}
            table = plan.profile(repeats)
        for cls, row in table.items():
            labels = {**(self._obs_labels or {}), "class": cls}
            self.obs.gauge("engine.kernel_seconds", labels).set(row["seconds"])
        return table

    def step_profile(self, repeats: int = 10) -> list:
        """Per-step time of one replay of the live plan, in execution order.

        :meth:`ExecutionPlan.profile_steps` on the live plan; empty before
        the first capture.
        """
        with self._lock:
            plan = self.plan
            return [] if plan is None else plan.profile_steps(repeats)

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, positions, species, nl, n_active: Optional[int] = None):
        """Per-atom energies and forces via plan replay.

        ``n_active`` restricts the force seed to the first atoms (shard
        owners in the parallel driver); defaults to all atoms.  Returns
        ``(e_atoms, forces)``; both are caller-owned arrays.

        Concurrent callers take turns on the one plan: a burst of cold-start
        or overflow callers captures once, and the rest replay it.
        """
        positions = np.asarray(positions, dtype=np.float64)
        species = np.asarray(species)
        n = int(species.shape[0])
        n_act = n if n_active is None else int(n_active)
        inputs = self.potential.graph_inputs(species, nl)
        n_edges = int(nl.n_edges)
        with self._lock:
            state = self._state
            if state is None or not self._fits(state, n, n_edges):
                if self.exact_fit:
                    self.atom_policy._capacity = 0
                    self.pair_policy._capacity = 0
                state = self._capture(n, n_edges, positions, species, inputs, n_act)
            try:
                with span("engine.replay"):
                    self._bind(state, positions, species, inputs, n_edges, n_act)
                    if self.fault_hook is not None:
                        self.fault_hook("replay")
                    e_buf, g_buf = state.plan.execute()
            except Exception:
                # A failed replay leaves the buffers in an unknown condition:
                # recapture once, and if that plan fails too, finish on the
                # eager tape — a broken plan costs throughput, never
                # correctness.
                self._c_replay_failures.inc()
                try:
                    state = self._capture(
                        n, n_edges, positions, species, inputs, n_act
                    )
                    if self.fault_hook is not None:
                        self.fault_hook("recapture")
                    e_buf, g_buf = state.plan.execute()
                except Exception:
                    self._state = None  # do not keep replaying a bad plan
                    self._c_eager_fallbacks.inc()
                    return self.potential.evaluate(positions, species, nl, n_act)
                self._c_failure_recaptures.inc()
            self.n_replays += 1
            # The next call overwrites the plan's buffers: copy the energy
            # slice (the force negation already allocates).
            return e_buf[:n].copy(), -g_buf[:n]

    def _fits(self, state: _EvalState, n: int, n_edges: int) -> bool:
        if self.exact_fit:
            # Unpadded baseline: buffer shapes equal the inputs, so any size
            # change is a new "shape" and re-captures (Fig. 5, no padding).
            return n + 1 == state.cap_atoms and n_edges == state.cap_pairs
        return n + 1 <= state.cap_atoms and n_edges <= state.cap_pairs

    # -- internals ------------------------------------------------------------
    def _allocate_state(self, n: int, n_edges: int, species, inputs) -> _EvalState:
        state = _EvalState()
        cap_a = self.atom_policy.padded_size(n + 1)
        cap_e = self.pair_policy.padded_size(max(n_edges, 1))
        state.cap_atoms, state.cap_pairs = cap_a, cap_e
        state.pos_buf = np.zeros((cap_a, 3))
        state.species_buf = np.zeros(cap_a, dtype=np.asarray(species).dtype)
        state.mask_buf = np.zeros(cap_a)
        state.input_bufs = {}
        for key, arr in inputs.items():
            arr = np.asarray(arr)
            if arr.shape[:1] != (n_edges,):
                raise ValueError(
                    f"graph_inputs[{key!r}] must have leading dim n_edges "
                    f"({n_edges}), got shape {arr.shape}"
                )
            state.input_bufs[key] = np.zeros((cap_e,) + arr.shape[1:], arr.dtype)
        state.pad_shift = np.array([self.potential.cutoff, 0.0, 0.0])
        return state

    def _bind(
        self, state: _EvalState, positions, species, inputs, n_edges: int,
        n_active: int,
    ) -> None:
        n = species.shape[0]
        pad_atom = state.cap_atoms - 1
        state.pos_buf[:n] = positions
        state.pos_buf[n:] = 0.0
        state.species_buf[:n] = species
        state.species_buf[n:] = 0
        state.mask_buf[:n_active] = 1.0
        state.mask_buf[n_active:] = 0.0
        for key, buf in state.input_bufs.items():
            arr = inputs[key]
            buf[:n_edges] = arr
            if key in ("i_idx", "j_idx"):
                buf[n_edges:] = pad_atom
            elif key == "shifts":
                buf[n_edges:] = state.pad_shift
            else:
                buf[n_edges:] = 0

    def _capture(
        self, n, n_edges, positions, species, inputs, n_act
    ) -> _EvalState:
        """Record a fresh plan (the caller holds the evaluation lock)."""
        pot = self.potential
        with span("engine.capture") as sp:
            state = self._allocate_state(n, n_edges, species, inputs)
            self._bind(state, positions, species, inputs, n_edges, n_act)
            pos_t = ad.Tensor(state.pos_buf, requires_grad=True)
            mask_t = ad.Tensor(state.mask_buf)
            traced_inputs = {
                key: (ad.Tensor(buf) if buf.dtype.kind == "f" else buf)
                for key, buf in state.input_bufs.items()
            }
            with pot.inference_mode():
                rec = ad.Recorder()
                with ad.recording(rec):
                    e_atoms = pot.traced_energies(
                        pos_t, state.species_buf, traced_inputs
                    )
                    e_masked = (e_atoms * mask_t).sum()
                    (gpos,) = ad.grad(e_masked, [pos_t])
                rebound = [  # the arrays _bind overwrites before every replay
                    state.pos_buf, state.species_buf, state.mask_buf,
                    *state.input_bufs.values(),
                ]
                state.plan = ExecutionPlan(rec, [e_atoms, gpos], rebound)
            sp.add("capacity_atoms", state.cap_atoms)
            sp.add("capacity_pairs", state.cap_pairs)
        self._c_captures.inc()
        self._g_cap_atoms.set(state.cap_atoms)
        self._g_cap_pairs.set(state.cap_pairs)
        self._g_arena_bytes.set(state.plan.arena.total_bytes)
        self._g_arena_buffers.set(state.plan.arena.n_buffers)
        self._state = state
        return state
