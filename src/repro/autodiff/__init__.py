"""Vectorized reverse-mode automatic differentiation on numpy arrays.

This subpackage is the substrate that replaces PyTorch autograd in this
reproduction.  It provides a :class:`Tensor` type that records a tape of
operations and can backpropagate gradients through the full Allegro
computational graph: spherical harmonics (polynomial ops), fused tensor
products (einsum), MLPs (matmul + SiLU), and per-neighbor aggregation
(gather / scatter-add).

Design notes
------------
* Tensors wrap ``numpy.ndarray`` values; gradients are accumulated into
  ``.grad`` by :meth:`Tensor.backward`.
* Broadcasting follows numpy semantics; backward passes un-broadcast
  gradients by summing over broadcast axes.
* A module-level :class:`Config` carries the matmul precision hook used by
  :mod:`repro.perf.precision` to emulate TF32 tensor-core arithmetic.
* :mod:`~repro.autodiff.arena` owns the memory of an eager force call's
  tape: large results live in per-thread blocks that are reused by the next
  call instead of being faulted in again.
"""

from . import arena
from .tensor import (
    Tensor,
    Config,
    config,
    no_grad,
    is_grad_enabled,
    astensor,
    grad,
    Recorder,
    recording,
    push_recorder,
    pop_recorder,
)
from .functional import (
    exp,
    log,
    sin,
    cos,
    sqrt,
    tanh,
    sigmoid,
    silu,
    softplus,
    relu,
    absolute,
    clip,
    maximum,
    minimum,
    where,
    safe_norm,
    lj_pair,
    morse_pair,
    less,
    step_mask,
    sign_of,
    range_mask,
    ge_mask,
    le_mask,
    pow as fpow,
)
from .linalg import matmul, einsum
from .indexing import gather, scatter_add, concatenate, stack, pad_rows
from .gradcheck import gradcheck, numerical_grad

__all__ = [
    "Tensor",
    "Config",
    "config",
    "no_grad",
    "is_grad_enabled",
    "astensor",
    "grad",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "tanh",
    "sigmoid",
    "silu",
    "softplus",
    "relu",
    "absolute",
    "clip",
    "maximum",
    "minimum",
    "where",
    "safe_norm",
    "lj_pair",
    "morse_pair",
    "less",
    "step_mask",
    "sign_of",
    "range_mask",
    "ge_mask",
    "le_mask",
    "fpow",
    "Recorder",
    "recording",
    "push_recorder",
    "pop_recorder",
    "matmul",
    "einsum",
    "gather",
    "scatter_add",
    "concatenate",
    "stack",
    "pad_rows",
    "gradcheck",
    "numerical_grad",
    "arena",
]
