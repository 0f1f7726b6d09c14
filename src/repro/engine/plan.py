"""Capture-once / replay-many execution plans over the autodiff tape.

This is the numpy analogue of the paper's deployment path (§V-C): pair_allegro
compiles the trained model once (TorchScript + frozen weights) and then replays
the same kernel sequence every MD step, with inputs padded to a fixed capacity
so no allocation ever happens in the hot loop.  Here the same idea is built on
:class:`repro.autodiff.Recorder`: every op executed inside a ``recording()``
block is logged as ``(out, kernel_name, parents, static)``; an
:class:`ExecutionPlan` prunes that log to the ancestors of the requested
outputs, assigns every compute node a preallocated buffer from a
:class:`BufferArena` (reusing buffers once their last consumer has run), and
replays the kernel list with zero tape construction and zero allocation.

Replay is bitwise-identical to eager evaluation because both run the *same*
kernel functions from :mod:`repro.autodiff.kernels` on arrays of the same
shape — the plan only changes where results are stored, never how they are
computed.

Everything that cannot change for the life of a plan is resolved when the
plan is built.  The caller names the arrays it rebinds between replays (the
*inputs*).  A step with no input among its ancestors is **folded**: its
capture-time value becomes a constant.  An alias step whose result is a view
of fixed storage (an arena buffer, a leaf, a folded constant) is **hoisted**:
the view is created once.  Every remaining step has its buffer and argument
arrays **bound** in a tuple, so a replay is one flat loop of kernel calls.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, Recorder, recording
from ..autodiff.kernels import ALIAS_OPS, INPLACE_OPS, KERNELS
from ..obs import MONOTONIC

#: Kernel classes reported by :meth:`ExecutionPlan.profile`, in table order.
KERNEL_CLASSES = (
    "tp_contraction",
    "einsum",
    "matmul",
    "activation",
    "scatter_put",
    "gather",
    "elementwise",
    "reduction",
    "alias_folded",
)

_CLASS_OF_OP = {
    "matmul": "matmul",
    "sigmoid": "activation",
    "tanh": "activation",
    "softplus": "activation",
    "relu": "activation",
    "scatter_add": "scatter_put",
    "put_at": "scatter_put",
    "gather": "gather",
    "getitem": "gather",
    "sum": "reduction",
}


def kernel_class(op: str, static: dict) -> str:
    """The :data:`KERNEL_CLASSES` member a recorded op belongs to."""
    if op == "einsum":
        # Three operands: the Clebsch-Gordan contraction and its gradients.
        return "tp_contraction" if static["spec"].count(",") == 2 else "einsum"
    if op in ALIAS_OPS:
        return "alias_folded"
    return _CLASS_OF_OP.get(op, "elementwise")


def _static_arrays(value):
    """Every ndarray inside one static kwarg of a kernel (tuples nest)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _static_arrays(v)


class BufferArena:
    """Pool of preallocated arrays keyed by (shape, dtype).

    Buffers are handed out during plan construction by a liveness scan: a
    node's output buffer is allocated *before* its parents' buffers are
    released, so a kernel never reads and writes the same memory (matmul,
    einsum and scatter kernels are not alias-safe).  The one exception is
    deliberate: an elementwise kernel may be handed the buffer of an operand
    it is the last to read (``INPLACE_OPS``).
    """

    def __init__(self) -> None:
        self._free: Dict[Tuple[tuple, np.dtype], List[np.ndarray]] = {}
        self.n_buffers = 0
        self.n_reused = 0
        self.total_bytes = 0

    def acquire(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        free = self._free.get(key)
        if free:
            self.n_reused += 1
            return free.pop()
        self.n_buffers += 1
        buf = np.empty(key[0], dtype=key[1])
        self.total_bytes += buf.nbytes
        return buf

    def release(self, buf: np.ndarray) -> None:
        key = (buf.shape, buf.dtype)
        self._free.setdefault(key, []).append(buf)


class ExecutionPlan:
    """A flat kernel list with preallocated buffers and pre-bound arguments.

    Built from a :class:`~repro.autodiff.Recorder`; replayed with
    :meth:`execute`.  ``inputs`` are the arrays the caller overwrites in
    place between replays — leaf ``.data`` arrays and integer index arrays
    held in kernel static kwargs alike; :meth:`execute` re-evaluates the
    graph on their current contents.  Every other leaf (parameters,
    constants) is fixed for the life of the plan, and so is every step that
    depends on no input.  ``inputs=None`` declares every leaf and every
    static array an input, so nothing is folded.
    """

    def __init__(
        self,
        recorder: Recorder,
        outputs: Sequence[Tensor],
        inputs: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        entries = recorder.entries
        entry_of: Dict[int, int] = {id(e[0]): k for k, e in enumerate(entries)}

        # -- prune to ancestors of the outputs --------------------------------
        needed: set = set()
        leaves: List[Tensor] = []
        slot_of: Dict[int, int] = {}
        stack: List[Tensor] = list(outputs)
        while stack:
            t = stack.pop()
            k = entry_of.get(id(t))
            if k is None:
                if id(t) not in slot_of:
                    slot_of[id(t)] = len(leaves)
                    leaves.append(t)
                continue
            if k in needed:
                continue
            needed.add(k)
            stack.extend(entries[k][2])

        n_leaves = len(leaves)
        order = sorted(needed)  # creation order == topological order
        for pos, k in enumerate(order):
            slot_of[id(entries[k][0])] = n_leaves + pos

        def is_input(arr: np.ndarray) -> bool:
            # Overlap, not identity: a view of an input buffer follows it.
            return inputs is None or any(np.may_share_memory(arr, b) for b in inputs)

        # -- fold: a step is live iff an input is among its ancestors ---------
        # ``fixed`` holds the value of every slot no step computes: leaves
        # and folded constants (the eager capture evaluated them with the
        # same kernels).  Arrays, not Tensors — a folded Tensor would keep
        # the whole tape alive.
        fixed: Dict[int, np.ndarray] = {s: t.data for s, t in enumerate(leaves)}
        live = {s for s, arr in fixed.items() if is_input(arr)}
        nodes = []
        last_use: Dict[int, int] = {}
        for pos, k in enumerate(order):
            out, op, parents, static = entries[k]
            if op is None:
                raise RuntimeError(
                    "captured an op with no kernel name; all autodiff ops "
                    "must pass op= to Tensor._make"
                )
            pslots = tuple(slot_of[id(p)] for p in parents)
            out_slot = n_leaves + pos
            if not any(ps in live for ps in pslots) and not any(
                is_input(a) for v in static.values() for a in _static_arrays(v)
            ):
                fixed[out_slot] = out.data
                continue
            live.add(out_slot)
            for ps in pslots:
                last_use[ps] = pos
            nodes.append((pos, out, op, pslots, static, out_slot))

        out_slots = [slot_of[id(t)] for t in outputs]
        dying: Dict[int, List[int]] = {}
        for slot, pos in last_use.items():
            if slot not in out_slots:  # output storage is never released
                dying.setdefault(pos, []).append(slot)

        # -- hoist aliases, assign arena buffers ------------------------------
        # An alias result is computed here, once, on the storage its parent
        # occupies in every replay, and shares that storage's root; the
        # rare alias that is not a view (a reshape that has to copy) gets a
        # buffer like any compute node.  A buffer returns to the arena after
        # the step that last reads any slot rooted in it, and a node's
        # buffer is acquired *before* the buffers dying at that node are
        # released (see BufferArena) — except that an elementwise kernel
        # takes over the buffer of an operand it is the last to read.  Every
        # executed step gets its buffer and argument arrays in a tuple.
        arena = BufferArena()
        vals: Dict[int, np.ndarray] = dict(fixed)
        root: Dict[int, int] = {s: s for s in fixed}
        n_rooted: Dict[int, int] = {}
        buffers: Dict[int, np.ndarray] = {}
        self._program: List[tuple] = []
        steps: List[tuple] = []
        for pos, out, op, pslots, static, out_slot in nodes:
            fn = KERNELS[op]
            buf = None
            if op in ALIAS_OPS:
                src = vals[pslots[0]]
                view = fn(None, src, **static)
                if np.may_share_memory(view, src):
                    vals[out_slot] = view
                    root[out_slot] = root[pslots[0]]
            if out_slot not in vals:
                if op in INPLACE_OPS:
                    # Overwrite an operand that dies here: it owns its
                    # buffer, nothing else views it, and it is not broadcast.
                    for ps in pslots:
                        own = buffers.get(ps)
                        if (
                            own is not None
                            and last_use[ps] == pos
                            and ps not in out_slots
                            and n_rooted[ps] == 1
                            and own.shape == out.data.shape
                            and own.dtype == out.data.dtype
                        ):
                            buf = buffers.pop(ps)
                            break
                if buf is None:
                    buf = arena.acquire(out.data.shape, out.data.dtype)
                vals[out_slot] = buffers[out_slot] = buf
                root[out_slot] = out_slot
            r = root[out_slot]
            n_rooted[r] = n_rooted.get(r, 0) + 1
            self._program.append((fn, op, buf, out_slot, pslots, static))
            if buf is not None:
                steps.append((fn, buf, tuple(vals[p] for p in pslots), static))
            for slot in dying.get(pos, ()):
                r = root[slot]
                if r in buffers:
                    n_rooted[r] -= 1
                    if n_rooted[r] == 0:
                        arena.release(buffers.pop(r))

        self.arena = arena
        self._steps = steps
        self._outputs = [vals[s] for s in out_slots]
        self.n_folded = len(order) - len(nodes)
        #: Steps one replay executes (folded and hoisted ones are not steps).
        self.n_steps = len(steps)
        self.n_hoisted = len(self._program) - len(steps)

    def execute(self) -> List[np.ndarray]:
        """Replay the kernel list; returns the output arrays (arena-owned).

        The returned arrays are views into plan-owned buffers: consume or
        copy them before the next :meth:`execute` call.
        """
        for fn, buf, args, static in self._steps:
            fn(buf, *args, **static)
        return list(self._outputs)

    def _time_steps(self, repeats: int) -> List[float]:
        """Mean seconds per executed step over ``repeats`` timed replays."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        seconds = [0.0] * len(self._steps)
        for _ in range(repeats):
            for k, (fn, buf, args, static) in enumerate(self._steps):
                t0 = MONOTONIC()
                fn(buf, *args, **static)
                seconds[k] += MONOTONIC() - t0
        return [s / repeats for s in seconds]

    def profile(self, repeats: int = 10) -> Dict[str, Dict[str, float]]:
        """Where a replay's time goes, by kernel class.

        Replays the plan ``repeats`` times on the currently bound inputs,
        reading the obs clock around every step, and returns
        ``{class: {"steps": n, "seconds": mean seconds per replay}}`` for
        each of :data:`KERNEL_CLASSES`.  ``alias_folded`` counts the folded
        and hoisted steps, which cost a replay nothing, next to the copying
        reshapes, which are timed.  Like :meth:`execute`, one caller at a
        time; :meth:`execute` itself carries no timer.
        """
        table = {c: {"steps": 0, "seconds": 0.0} for c in KERNEL_CLASSES}
        table["alias_folded"]["steps"] = self.n_folded + self.n_hoisted
        for row in self.profile_steps(repeats):
            table[row["class"]]["steps"] += 1
            table[row["class"]]["seconds"] += row["seconds"]
        return table

    def profile_steps(self, repeats: int = 10) -> List[dict]:
        """The same timed replays as :meth:`profile`, one row per step.

        Rows come in execution order: ``step`` (position in the replay
        loop), ``op``, ``spec`` (the einsum subscripts, else ``""``),
        ``class``, ``out_shape``, ``arg_shapes`` and ``seconds`` (mean per
        replay).  This is the table a kernel change is sized from: which
        contraction, at which shape, costs what.
        """
        executed = [
            (op, static) for _, op, buf, _, _, static in self._program if buf is not None
        ]
        return [
            {
                "step": k,
                "op": op,
                "spec": static["spec"] if op == "einsum" else "",
                "class": kernel_class(op, static),
                "out_shape": buf.shape,
                "arg_shapes": tuple(np.shape(a) for a in args),
                "seconds": seconds,
            }
            for k, ((op, static), (_, buf, args, _), seconds) in enumerate(
                zip(executed, self._steps, self._time_steps(repeats))
            )
        ]


def capture(
    build: Callable[[], Sequence[Tensor]],
    inputs: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[Sequence[Tensor], ExecutionPlan]:
    """Record ``build()`` and compile its op sequence into an ExecutionPlan.

    ``build`` must return the output tensor(s) (a Tensor or a sequence).
    Returns ``(outputs, plan)``; subsequent ``plan.execute()`` calls replay
    the recorded computation against the *current* contents of the
    ``inputs`` arrays (rebound by overwriting them in place) — of every
    leaf and static array when ``inputs`` is None.
    """
    rec = Recorder()
    with recording(rec):
        result = build()
    outputs = (result,) if isinstance(result, Tensor) else tuple(result)
    plan = ExecutionPlan(rec, outputs, inputs)
    return result, plan
