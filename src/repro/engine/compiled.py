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
    """One private, bindable copy of the captured plan.

    All mutable evaluation state — the padded input buffers and the plan's
    compute buffers — lives here, so two states can bind and execute
    concurrently without sharing a single array.  States are checked out of
    a pool with ``list.pop()`` and returned with ``list.append()`` (both
    atomic under the GIL), which is what keeps replays lock-free.
    """

    __slots__ = (
        "plan",
        "epoch",
        "cap_atoms",
        "cap_pairs",
        "pos_buf",
        "species_buf",
        "mask_buf",
        "input_bufs",
        "pad_shift",
        "n_replays",
    )

    def __init__(self) -> None:
        self.plan: Optional[ExecutionPlan] = None
        self.n_replays = 0


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
        # counter stays per-_EvalState (summed in ``n_replays``) because the
        # replay fast path must not take the registry lock.
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
        # Concurrency model: capture (allocate + record) is guarded by
        # ``_capture_lock`` so a burst of concurrent cold-start or overflow
        # callers performs exactly one capture.  Replays are lock-free:
        # each caller checks a private _EvalState out of ``_pool`` (atomic
        # ``list.pop``), and pool misses clone the published ``_template``
        # — cloning reads only shapes and immutable constants, so it is
        # safe even while another thread executes the template.  ``_epoch``
        # retires every outstanding state when a capture or ``invalidate``
        # supersedes it.
        self._capture_lock = threading.Lock()
        self._template: Optional[_EvalState] = None
        self._pool: list = []
        self._states: list = []  # every state ever built (counter aggregation)
        self._n_templates = 0
        self._epoch = 0

    # -- counter views (registry-backed; see __init__) ------------------------
    @property
    def n_captures(self) -> int:
        return self._c_captures.value

    @property
    def n_replays(self) -> int:
        """Total replays across all evaluation states.

        Each state's counter is touched only by its checkout owner, so the
        sum is exact whenever no evaluation is in flight.
        """
        return sum(s.n_replays for s in list(self._states))

    @property
    def capacity_atoms(self) -> int:
        t = self._template
        return 0 if t is None else t.cap_atoms

    @property
    def capacity_pairs(self) -> int:
        t = self._template
        return 0 if t is None else t.cap_pairs

    @property
    def plan(self) -> Optional[ExecutionPlan]:
        t = self._template
        return None if t is None else t.plan

    def invalidate(self) -> None:
        """Drop the captured plan (call after parameter updates).

        Not safe to call concurrently with :meth:`evaluate` — invalidate
        between evaluations, as after a training step.
        """
        with self._capture_lock:
            self._epoch += 1  # retires every outstanding state
            self._template = None
            self._pool.clear()

    def stats(self) -> dict:
        """Capture/replay counters and arena statistics.

        A view over the instance's ``obs`` registry (plus the per-state
        replay accumulators and the live plan's arena numbers).
        """
        out = {
            "n_captures": self.n_captures,
            # Captures beyond the initial one (the Fig. 5 counter).
            "recaptures": max(0, self.n_captures - 1),
            "n_replays": self.n_replays,
            # Evaluation states cloned for concurrent callers (not captures).
            "n_clones": len(self._states) - self._n_templates,
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

        Runs :meth:`ExecutionPlan.profile` on the template plan (on the
        inputs bound to it last) and publishes the result as
        ``engine.kernel_seconds{class=}`` gauges on the registry.  Returns
        the table; empty before the first capture.  Attribution is paid
        here, on demand — the replay loop itself has no timer.  Not safe
        concurrently with :meth:`evaluate`.
        """
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

        :meth:`ExecutionPlan.profile_steps` on the template plan; empty
        before the first capture.  Same caveats as :meth:`kernel_profile`.
        """
        plan = self.plan
        return [] if plan is None else plan.profile_steps(repeats)

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, positions, species, nl, n_active: Optional[int] = None):
        """Per-atom energies and forces via plan replay.

        ``n_active`` restricts the force seed to the first atoms (shard
        owners in the parallel driver); defaults to all atoms.  Returns
        ``(e_atoms, forces)``; both are caller-owned arrays.

        Safe for concurrent callers: replays run on per-caller evaluation
        states (lock-free pool), captures are serialized so a burst of
        overflow callers re-captures exactly once.
        """
        positions = np.asarray(positions, dtype=np.float64)
        species = np.asarray(species)
        n = int(species.shape[0])
        n_act = n if n_active is None else int(n_active)
        if nl.n_edges == 0:
            # Degenerate graph: delegate to the eager path (shape-special
            # cases like per-model empty returns are not worth capturing).
            return self.potential.evaluate(positions, species, nl, n_active)

        inputs = self.potential.graph_inputs(species, nl)
        n_edges = int(nl.n_edges)
        state = self._checkout(n, n_edges, positions, species, inputs, n_act)
        try:
            with span("engine.replay"):
                self._bind(state, positions, species, inputs, n_edges, n_act)
                if self.fault_hook is not None:
                    self.fault_hook("replay")
                e_buf, g_buf = state.plan.execute()
        except Exception:
            # A failed replay leaves the state's buffers in an unknown
            # condition: discard it (never pool it) and degrade.
            self._c_replay_failures.inc()
            return self._evaluate_degraded(
                n, n_edges, positions, species, nl, inputs, n_act
            )
        state.n_replays += 1
        # Copy the energy slice: the state goes back to the pool below
        # and another caller may overwrite its buffers.  Forces are
        # already a fresh array (the negation allocates).
        result = (e_buf[:n].copy(), -g_buf[:n])
        self._pool.append(state)
        return result

    def _evaluate_degraded(
        self, n, n_edges, positions, species, nl, inputs, n_act
    ):
        """Fallback chain after a replay failure: recapture once, then eager.

        The corrupt template (if any) is dropped and a fresh plan captured
        under the capture lock; if the recaptured plan also fails, this
        evaluation completes on the eager autodiff tape so a broken plan
        degrades throughput, never correctness.
        """
        try:
            with self._capture_lock:
                state = self._capture(n, n_edges, positions, species, inputs, n_act)
                if self.fault_hook is not None:
                    self.fault_hook("recapture")
                e_buf, g_buf = state.plan.execute()
            state.n_replays += 1
            self._c_failure_recaptures.inc()
            result = (e_buf[:n].copy(), -g_buf[:n])
            self._pool.append(state)
            return result
        except Exception:
            # Invalidate so later calls do not keep replaying a bad plan.
            self.invalidate()
            self._c_eager_fallbacks.inc()
            return self.potential.evaluate(positions, species, nl, n_act)

    def _checkout(self, n, n_edges, positions, species, inputs, n_act) -> _EvalState:
        """Acquire a private evaluation state fitting (n, n_edges).

        Fast path: pop a pooled state (atomic, lock-free), discarding any
        retired by a newer epoch or too small.  Pool miss: clone the
        published template without locking — cloning reads only shapes and
        shared constants.  Only when no usable template exists does the
        caller take the capture lock, and exactly one of a concurrent
        burst records the plan.
        """
        while True:
            try:
                state = self._pool.pop()
            except IndexError:
                break
            if self._state_fits(state, n, n_edges):
                return state
            # Stale epoch or insufficient capacity: drop it for the GC.
        template = self._template
        if template is not None and self._state_fits(template, n, n_edges):
            return self._clone(template)
        with self._capture_lock:
            template = self._template
            if template is None or not self._state_fits(template, n, n_edges):
                if self.exact_fit:
                    self.atom_policy._capacity = 0
                    self.pair_policy._capacity = 0
                return self._capture(n, n_edges, positions, species, inputs, n_act)
        # Lost the race to a capturing winner: its fresh template fits.
        return self._clone(template)

    def _state_fits(self, state: _EvalState, n: int, n_edges: int) -> bool:
        if state.epoch != self._epoch:
            return False
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
        """Record a fresh template plan (capture lock held by the caller)."""
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
                state.plan = ExecutionPlan(
                    rec, [e_atoms, gpos], self._input_arrays(state)
                )
            sp.add("capacity_atoms", state.cap_atoms)
            sp.add("capacity_pairs", state.cap_pairs)
        self._epoch += 1  # retires every pre-capture state, pooled or in flight
        state.epoch = self._epoch
        self._c_captures.inc()
        self._g_cap_atoms.set(state.cap_atoms)
        self._g_cap_pairs.set(state.cap_pairs)
        self._g_arena_bytes.set(state.plan.arena.total_bytes)
        self._g_arena_buffers.set(state.plan.arena.n_buffers)
        self._n_templates += 1
        self._states.append(state)
        self._template = state
        return state

    @staticmethod
    def _input_arrays(state: _EvalState) -> list:
        """The arrays :meth:`_bind` overwrites before every replay."""
        return [
            state.pos_buf, state.species_buf, state.mask_buf,
            *state.input_bufs.values(),
        ]

    def _clone(self, template: _EvalState) -> _EvalState:
        """A private copy of the template for one more concurrent caller.

        Reads only array shapes/dtypes and shared immutable constants, so
        it is safe even while another thread is executing the template.
        """
        state = _EvalState()
        state.epoch = template.epoch
        state.cap_atoms, state.cap_pairs = template.cap_atoms, template.cap_pairs
        state.pos_buf = np.empty_like(template.pos_buf)
        state.species_buf = np.empty_like(template.species_buf)
        state.mask_buf = np.empty_like(template.mask_buf)
        state.input_bufs = {
            key: np.empty_like(buf) for key, buf in template.input_bufs.items()
        }
        state.pad_shift = template.pad_shift
        remap = {
            id(old): new
            for old, new in zip(
                self._input_arrays(template), self._input_arrays(state)
            )
        }
        state.plan = template.plan.clone(remap)
        self._states.append(state)
        return state
