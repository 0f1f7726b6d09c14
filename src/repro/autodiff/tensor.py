"""Core reverse-mode autodiff tape: the :class:`Tensor` type.

The implementation is a vectorized tape machine.  Each differentiable
operation creates a new :class:`Tensor` holding the forward value, references
to its parent tensors, and a closure that maps the output gradient to parent
gradient contributions.

**Gradients are themselves Tensors and backward closures are written with
Tensor operations**, so differentiating a gradient works: ``grad(energy,
positions, create_graph=True)`` yields force tensors whose own backward
reaches the model weights.  This is what force-matching training needs
(the loss is a function of −∂E/∂r), exactly like PyTorch's
``create_graph=True``.  When ``create_graph`` is off, backward runs inside
``no_grad()`` so the same closures execute as plain numpy arithmetic with
no tape growth.

Only float arrays participate in differentiation; integer index arrays are
passed around as plain numpy arrays.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

# Imported late in this module's lifecycle (kernels back-references this
# module for `config`); attributes are only touched at call time.
from . import kernels as K  # noqa: E402


class Config:
    """Global autodiff configuration.

    Attributes
    ----------
    matmul_precision:
        Optional callable applied to the *result* of every matmul/einsum.
        Used by :mod:`repro.perf.precision` to emulate reduced-precision
        accumulation.
    matmul_input_cast:
        Optional callable applied to each matmul/einsum *input* before the
        product; TF32 emulation truncates input mantissas here, mirroring
        tensor-core rounding.  Both hooks affect forward values only —
        gradients are taken at working precision (the hooks model inference
        precision policies, paper Table IV).
    default_dtype:
        dtype given to tensors created from Python scalars/lists.
    """

    def __init__(self) -> None:
        self.matmul_precision: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.matmul_input_cast: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.default_dtype: np.dtype = np.dtype(np.float64)
        #: dtype of the final energy shift/scale/summation stage (paper
        #: §V-B3 keeps this float64; Table IV ablates it to float32).
        self.final_dtype = np.float64


config = Config()

_grad_state = threading.local()
_capture_state = threading.local()


class Recorder:
    """Records every kernel-backed op created while active.

    Entries are ``(out_tensor, op_name, parents, static)`` tuples in creation
    order (which is already a topological order).  :mod:`repro.engine` turns a
    recorder into a replayable :class:`~repro.engine.ExecutionPlan`.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list = []

    def record(self, out, op, parents, static) -> None:
        self.entries.append((out, op, parents, static))


def push_recorder(rec: Recorder) -> None:
    """Make ``rec`` the active capture recorder (stack discipline)."""
    stack = getattr(_capture_state, "stack", None)
    if stack is None:
        stack = _capture_state.stack = []
    stack.append(rec)
    _capture_state.active = rec


def pop_recorder() -> Recorder:
    """Deactivate and return the innermost capture recorder."""
    stack = _capture_state.stack
    rec = stack.pop()
    _capture_state.active = stack[-1] if stack else None
    return rec


@contextlib.contextmanager
def recording(rec: Recorder):
    """Route every op built inside the block onto ``rec`` (capture mode).

    Recording is independent of gradient tracking: ops built under
    :func:`no_grad` (e.g. a backward pass) are still recorded, which is how
    :func:`repro.engine.capture` captures the force graph without
    ``create_graph=True``.
    """
    push_recorder(rec)
    try:
        yield rec
    finally:
        pop_recorder()


def is_grad_enabled() -> bool:
    """Whether new operations are currently recorded on the tape."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (inference mode)."""
    prev = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


class Tensor:
    """A numpy array with a reverse-mode gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _backward: Optional[Callable[["Tensor"], None]] = None,
        _parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind not in "fc" and requires_grad:
            arr = arr.astype(config.default_dtype)
        self.data: np.ndarray = arr
        self.grad: Optional[Tensor] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward = _backward
        self._parents: tuple[Tensor, ...] = tuple(_parents)
        self.name = name

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def grad_data(self) -> Optional[np.ndarray]:
        """The gradient as a plain array (None if no grad accumulated)."""
        return None if self.grad is None else self.grad.data

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (gradient is cast back).

        A cast to the dtype the tensor already has is the tensor itself.
        """
        if self.data.dtype == np.dtype(dtype):
            return self
        this = self

        def backward(g: "Tensor") -> None:
            this._accumulate(g.astype(this.data.dtype))

        return Tensor._make(
            K.astype(None, self.data, dtype), (self,), backward, "astype",
            {"dtype": dtype},
        )

    # -- tape machinery ------------------------------------------------------
    def _track(self) -> bool:
        """Whether a backward closure should send this tensor a gradient.

        Inside a pass restricted to ``inputs`` (:meth:`backward`,
        :func:`grad`) that is "lies between those inputs and the output" —
        the calling thread's target set; otherwise it is ``requires_grad``.
        """
        targets = getattr(_grad_state, "targets", None)
        if targets is None:
            return self.requires_grad
        return id(self) in targets

    def _accumulate(self, grad: "Tensor") -> None:
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def _toposort(self) -> List["Tensor"]:
        topo: List[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return topo

    def backward(
        self,
        grad: Optional[np.ndarray] = None,
        create_graph: bool = False,
        inputs: Optional[Sequence["Tensor"]] = None,
    ) -> None:
        """Backpropagate from this tensor, accumulating into ``.grad``.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to ones.
        create_graph:
            Record the backward computation on the tape so gradients are
            themselves differentiable (needed for force-matching losses).
        inputs:
            Differentiate with respect to these tensors only
            (``torch.Tensor.backward(inputs=...)``).  A sweep over the
            topological order marks every node that depends on one of
            them; for the duration of the pass :meth:`_track` answers "is
            this tensor marked", so closures never enter a branch that
            leads elsewhere — to the weights, in a forces-only call — and
            gradients are accumulated into ``inputs`` alone: every other
            tensor's ``.grad`` is put back as it was.  ``requires_grad``
            is not touched, so under ``create_graph`` the ops the closures
            build still tape the weights.  The marks belong to the calling
            thread and the previous ones are restored on exit.
        """
        if grad is None:
            seed = Tensor(np.ones_like(self.data))
        else:
            g = np.asarray(grad, dtype=self.data.dtype)
            if g.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {g.shape} != tensor shape {self.data.shape}"
                )
            seed = Tensor(g)

        topo = self._toposort()
        if inputs is None:
            # Keep leaf gradients (parameters/positions) and this tensor's.
            targets, stash = None, []
            keep = {id(n) for n in topo if not n._parents}
            keep.add(id(self))
        else:
            inputs = list(inputs)
            keep = {id(t) for t in inputs}
            targets = {id(t) for t in inputs if t.requires_grad}
            for node in topo:
                if any(id(p) in targets for p in node._parents):
                    targets.add(id(node))
            stash = [(n, n.grad) for n in topo if id(n) not in keep]
            for n, _ in stash:
                n.grad = None

        prev = getattr(_grad_state, "targets", None)
        _grad_state.targets = targets
        try:
            with contextlib.nullcontext() if create_graph else no_grad():
                self._accumulate(seed)
                for node in reversed(topo):
                    if node._backward is not None and node.grad is not None:
                        node._backward(node.grad)
                        # Free intermediate gradients to bound memory: the
                        # pass holds one frontier, not the whole graph.
                        if id(node) not in keep:
                            node.grad = None
        finally:
            _grad_state.targets = prev
            for n, old in stash:
                n.grad = old

    def zero_grad(self) -> None:
        self.grad = None

    # -- helpers for building ops --------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[["Tensor"], None],
        op: Optional[str] = None,
        static: Optional[dict] = None,
    ) -> "Tensor":
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        if track:
            out = Tensor(data, requires_grad=True, _backward=backward, _parents=parents)
        else:
            out = Tensor(data)
        rec = getattr(_capture_state, "active", None)
        if rec is not None:
            rec.record(out, op, parents, static or {})
        return out

    @staticmethod
    def _make_const(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        op: str,
        static: Optional[dict] = None,
    ) -> "Tensor":
        """Build a recorded but non-differentiable op result (mask tensors)."""
        out = Tensor(data)
        rec = getattr(_capture_state, "active", None)
        if rec is not None:
            rec.record(out, op, parents, static or {})
        return out

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = astensor(other)
        a, b = self, other

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(_unbroadcast(g, a.shape))
            if b._track():
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._make(K.add(None, a.data, b.data), (a, b), backward, "add")

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = astensor(other)
        a, b = self, other

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(_unbroadcast(g * b, a.shape))
            if b._track():
                b._accumulate(_unbroadcast(g * a, b.shape))

        return Tensor._make(K.mul(None, a.data, b.data), (a, b), backward, "mul")

    __rmul__ = __mul__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = astensor(other)
        a, b = self, other

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(_unbroadcast(g, a.shape))
            if b._track():
                b._accumulate(_unbroadcast(-g, b.shape))

        return Tensor._make(K.sub(None, a.data, b.data), (a, b), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return astensor(other) - self

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(-g)

        return Tensor._make(K.neg(None, a.data), (a,), backward, "neg")

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = astensor(other)
        a, b = self, other

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(_unbroadcast(g / b, a.shape))
            if b._track():
                b._accumulate(_unbroadcast(-g * a / (b * b), b.shape))

        return Tensor._make(K.div(None, a.data, b.data), (a, b), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return astensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents unsupported; use exp(b*log(a))")
        a = self
        e = float(exponent)

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(g * (a ** (e - 1.0)) * e)

        return Tensor._make(
            K.powk(None, a.data, e), (a,), backward, "pow", {"e": e}
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        from .linalg import matmul

        return matmul(self, astensor(other))

    # -- comparisons (non-differentiable, return numpy) --------------------------
    def __lt__(self, other):
        return self.data < _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    def __gt__(self, other):
        return self.data > _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    # -- reductions ------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        in_shape = self.shape

        def backward(g: "Tensor") -> None:
            if not a._track():
                return
            gg = g
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(ax % len(in_shape) for ax in axes)
                for ax in sorted(axes):
                    gg = gg.expand_dims(ax)
            a._accumulate(gg.broadcast_to(in_shape))

        return Tensor._make(
            K.sumk(None, self.data, axis, keepdims), (a,), backward, "sum",
            {"axis": axis, "keepdims": keepdims},
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims: bool = False):
        """Non-differentiable max (returns numpy); used for diagnostics."""
        return self.data.max(axis=axis, keepdims=keepdims)

    # -- shape ops ---------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        in_shape = self.shape

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(g.reshape(in_shape))

        return Tensor._make(
            self.data.reshape(shape), (a,), backward, "reshape", {"shape": shape}
        )

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        a = self
        inv = tuple(np.argsort(axes))

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(g.transpose(inv))

        return Tensor._make(
            self.data.transpose(axes), (a,), backward, "transpose", {"axes": axes}
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, ax1: int, ax2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
        return self.transpose(tuple(axes))

    def broadcast_to(self, shape) -> "Tensor":
        a = self
        in_shape = self.shape

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(_unbroadcast(g, in_shape))

        return Tensor._make(
            np.broadcast_to(self.data, shape), (a,), backward, "broadcast_to",
            {"shape": shape},
        )

    def __getitem__(self, idx) -> "Tensor":
        if isinstance(idx, Tensor):
            idx = idx.data
        a = self
        in_shape = self.shape
        in_dtype = self.data.dtype

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(_put_at_zeros(g, idx, in_shape, in_dtype))

        op = "slice" if K.is_basic_index(idx) else "getitem"
        return Tensor._make(self.data[idx], (a,), backward, op, {"idx": idx})

    def expand_dims(self, axis: int) -> "Tensor":
        a = self

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(g.squeeze(axis))

        return Tensor._make(
            np.expand_dims(self.data, axis), (a,), backward, "expand_dims",
            {"axis": axis},
        )

    def squeeze(self, axis: int) -> "Tensor":
        a = self
        in_shape = self.shape

        def backward(g: "Tensor") -> None:
            if a._track():
                a._accumulate(g.reshape(in_shape))

        return Tensor._make(
            np.squeeze(self.data, axis=axis), (a,), backward, "squeeze",
            {"axis": axis},
        )


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Sum ``g`` over axes broadcast up from ``shape`` (Tensor-differentiable)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _put_at_zeros(g: Tensor, idx, shape, dtype) -> Tensor:
    """Scatter ``g`` into a zero array at ``idx`` (backward of getitem)."""

    def backward(gg: Tensor) -> None:
        if g._track():
            g._accumulate(gg[idx])

    return Tensor._make(
        K.put_at(None, g.data, idx, shape, dtype), (g,), backward, "put_at",
        {"idx": idx, "shape": shape, "dtype": dtype},
    )


def astensor(x: ArrayLike, dtype=None) -> Tensor:
    """Coerce to :class:`Tensor` without tracking gradients for raw arrays."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    if arr.dtype.kind not in "fiub" and dtype is None:
        arr = arr.astype(config.default_dtype)
    return Tensor(arr)


def _raw(x: ArrayLike) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    create_graph: bool = False,
    seed: Optional[np.ndarray] = None,
) -> List[Tensor]:
    """Functional gradients of ``output`` w.r.t. ``inputs`` (torch.autograd.grad).

    ``output.backward(seed, create_graph, inputs=inputs)`` with the result
    handed back instead of left in ``.grad``: only what lies between
    ``inputs`` and ``output`` is differentiated, and no ``.grad`` field is
    changed — those of ``inputs`` are restored too.  With
    ``create_graph=True`` the returned tensors carry their own tape, so a
    loss built from them (e.g. force MSE) backpropagates into the model
    weights.  An input ``output`` does not depend on gets zeros.
    """
    inputs = list(inputs)
    if seed is not None:
        seed = np.broadcast_to(seed, output.shape)
    saved = [t.grad for t in inputs]
    for t in inputs:
        t.grad = None
    try:
        output.backward(seed, create_graph=create_graph, inputs=inputs)
        return [
            Tensor(np.zeros_like(t.data)) if t.grad is None else t.grad for t in inputs
        ]
    finally:
        for t, old in zip(reversed(inputs), reversed(saved)):
            t.grad = old
