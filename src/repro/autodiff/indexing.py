"""Differentiable gather / scatter and array assembly ops.

``gather``/``scatter_add`` are the neighbor-aggregation primitives of every
atomistic model here: per-pair quantities are gathered from per-atom arrays
by edge index, and per-pair energies/messages are scatter-added back to
atoms — exactly the role ``index_select``/``index_add`` play in the PyTorch
Allegro implementation.  Backwards are Tensor ops (gather ↔ scatter are
mutually adjoint), so force-matching double-backprop is exact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels as K
from .tensor import Tensor, astensor


def _as_index(idx) -> np.ndarray:
    arr = idx.data if isinstance(idx, Tensor) else np.asarray(idx)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"index array must be integer, got {arr.dtype}")
    return arr


def gather(x, index) -> Tensor:
    """Select rows of ``x`` along axis 0: ``out[k] = x[index[k]]``."""
    x = astensor(x)
    idx = _as_index(index)
    n_rows = x.shape[0]

    def backward(g: Tensor) -> None:
        if x._track():
            back = scatter_add(g, idx, n_rows)
            x._accumulate(back)

    return Tensor._make(
        K.gatherk(None, x.data, idx), (x,), backward, "gather", {"idx": idx}
    )


def scatter_add(src, index, dim_size: int) -> Tensor:
    """Sum rows of ``src`` into ``dim_size`` bins: ``out[index[k]] += src[k]``.

    This is the :math:`\\sum_{j \\in \\mathcal{N}(i)}` reduction over
    neighbor pairs.  Backward is a gather of the output gradient.
    """
    src = astensor(src)
    idx = _as_index(index)
    if idx.ndim != 1 or (src.ndim > 0 and idx.shape[0] != src.shape[0]):
        raise ValueError(
            f"index shape {idx.shape} incompatible with src rows {src.shape}"
        )
    def backward(g: Tensor) -> None:
        if src._track():
            src._accumulate(gather(g, idx))

    return Tensor._make(
        K.scatter_addk(None, src.data, idx, dim_size), (src,), backward,
        "scatter_add", {"idx": idx, "dim_size": dim_size},
    )


def concatenate(tensors: Sequence, axis: int = -1) -> Tensor:
    """Differentiable ``np.concatenate`` (of one tensor: that tensor)."""
    ts = [astensor(t) for t in tensors]
    if len(ts) == 1:
        return ts[0]
    out_data = K.concatk(None, *[t.data for t in ts], axis=axis)
    ax = axis if axis >= 0 else out_data.ndim + axis
    sizes = [t.shape[ax] for t in ts]
    bounds = np.cumsum([0] + sizes)

    def backward(g: Tensor) -> None:
        for k, t in enumerate(ts):
            if t._track():
                sl = (slice(None),) * ax + (slice(bounds[k], bounds[k + 1]),)
                t._accumulate(g[sl])

    return Tensor._make(out_data, tuple(ts), backward, "concat", {"axis": axis})


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    ts = [astensor(t) for t in tensors]
    out_data = K.stackk(None, *[t.data for t in ts], axis=axis)
    ax = axis if axis >= 0 else out_data.ndim + axis

    def backward(g: Tensor) -> None:
        for k, t in enumerate(ts):
            if t._track():
                sl = (slice(None),) * ax + (k,)
                t._accumulate(g[sl])

    return Tensor._make(out_data, tuple(ts), backward, "stack", {"axis": axis})


def pad_rows(x, n_rows: int, fill: float = 0.0) -> Tensor:
    """Pad axis 0 of ``x`` up to ``n_rows`` with constant ``fill``.

    Used by the padded-input path (paper §V-C, fig. 5): edge arrays are
    over-allocated by 5% with fake pairs so repeated evaluations keep a
    constant shape.  Gradients for pad rows are discarded.
    """
    x = astensor(x)
    extra = n_rows - x.shape[0]
    if extra < 0:
        raise ValueError(f"cannot pad {x.shape[0]} rows down to {n_rows}")
    if extra == 0:
        return x
    n_real = x.shape[0]

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g[:n_real])

    return Tensor._make(
        K.pad_rowsk(None, x.data, n_rows, fill), (x,), backward, "pad_rows",
        {"n_rows": n_rows, "fill": fill},
    )
