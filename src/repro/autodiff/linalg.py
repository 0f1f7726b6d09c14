"""Differentiable dense linear algebra: matmul and general einsum.

These two ops carry nearly all of Allegro's FLOPs (latent MLPs and the fused
tensor product contraction, paper §V-B2), so the TF32 emulation hooks of
:mod:`repro.perf.precision` attach here: ``config.matmul_input_cast`` is
applied to each operand (mantissa truncation) and ``config.matmul_precision``
to the product, mirroring how tensor cores round inputs to TF32 but
accumulate in float32.  The hooks shape forward values only; backward runs
at working precision (the policies of Table IV are inference policies).

Backward closures are written with Tensor ops, so gradients of gradients
(force-matching training) are exact.
"""

from __future__ import annotations

from . import kernels as K
from .tensor import Tensor, _unbroadcast, astensor, config  # noqa: F401

_cast_in = K._cast_in
_cast_out = K._cast_out


def matmul(a, b) -> Tensor:
    """Matrix product with numpy @ semantics (batch broadcasting, 1-D rules)."""
    a, b = astensor(a), astensor(b)
    if a.ndim == 1 and b.ndim == 1:
        return (a * b).sum()
    if a.ndim == 1:
        return _matmul2(a.expand_dims(0), b).squeeze(-2)
    if b.ndim == 1:
        return _matmul2(a, b.expand_dims(-1)).squeeze(-1)
    return _matmul2(a, b)


def _matmul2(a: Tensor, b: Tensor) -> Tensor:
    """Core matmul for operands with ndim >= 2."""

    def backward(g: Tensor) -> None:
        if a._track():
            ga = matmul(g, b.swapaxes(-1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b._track():
            if a.ndim == 2 and b.ndim == 2:
                gb = _contract_rows(a, g)
            else:
                gb = _unbroadcast(matmul(a.swapaxes(-1, -2), g), b.shape)
            b._accumulate(gb)

    return Tensor._make(K.matmulk(None, a.data, b.data), (a, b), backward, "matmul")


def _contract_rows(a: Tensor, g: Tensor) -> Tensor:
    """``aᵀ @ g`` for 2-D operands with the same rows: a sum over the batch.

    This is the weight gradient of ``a @ w``.  It is its own op, not a
    ``matmul`` of a transposed view, because the ``matmul`` kernel promises
    that a result row depends on the matching row of its first operand only
    (and pays for that with fixed-size row blocks); a contraction over the
    rows has no such rows.  Its own gradients are batch-leading again.
    """

    def backward(r: Tensor) -> None:
        if a._track():
            a._accumulate(matmul(g, r.swapaxes(0, 1)))
        if g._track():
            g._accumulate(matmul(a, r))

    return Tensor._make(
        K.contract_rowsk(None, a.data, g.data), (a, g), backward, "contract_rows"
    )


def _parse_spec(spec: str, n_ops: int) -> tuple[list[str], str]:
    if "->" not in spec:
        raise ValueError("einsum spec must be explicit (contain '->')")
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    if len(subs) != n_ops:
        raise ValueError(f"spec has {len(subs)} operands, got {n_ops}")
    for s in subs + [out]:
        if "." in s:
            raise NotImplementedError("ellipsis not supported")
    for s in subs:
        if len(set(s)) != len(s):
            raise NotImplementedError("repeated index within one operand unsupported")
    return subs, out


def einsum(spec: str, *operands) -> Tensor:
    """General tensor contraction with reverse-mode (and higher) gradients.

    The gradient w.r.t. operand *i* is itself an einsum: contract the output
    gradient with the other operands down to operand *i*'s subscripts.
    Indices appearing only in operand *i* (pure reductions) broadcast back.
    """
    tensors = [astensor(op) for op in operands]
    subs, out_sub = _parse_spec(spec, len(tensors))

    def backward(g: Tensor) -> None:
        for i, t in enumerate(tensors):
            if not t._track():
                continue
            others = [tensors[j] for j in range(len(tensors)) if j != i]
            other_subs = [subs[j] for j in range(len(tensors)) if j != i]
            avail = set(out_sub) | set("".join(other_subs))
            target = subs[i]
            reduced = "".join(c for c in target if c in avail)
            gspec = ",".join([out_sub] + other_subs) + "->" + reduced
            gi = einsum(gspec, g, *others)
            if reduced != target:
                # Broadcast over indices that were purely summed in operand i.
                shape = []
                src_axis = 0
                expand_axes = []
                for k, c in enumerate(target):
                    if c in avail:
                        shape.append(gi.shape[src_axis])
                        src_axis += 1
                    else:
                        shape.append(t.shape[k])
                        expand_axes.append(k)
                for ax in expand_axes:
                    gi = gi.expand_dims(ax)
                gi = gi.broadcast_to(tuple(shape))
            t._accumulate(gi)

    return Tensor._make(
        K.einsumk(None, *[t.data for t in tensors], spec=spec),
        tuple(tensors),
        backward,
        "einsum",
        {"spec": spec},
    )
