"""Reusable forward kernels shared by the eager tape and the compiled engine.

Every differentiable op in :mod:`repro.autodiff` computes its forward value
through one of the kernels below, and records the kernel name (plus static
arguments) on the active capture recorder (:mod:`repro.engine`).  A kernel
has the signature::

    kernel(out, *arrays, **static) -> ndarray

``out`` is an optional caller-provided output buffer: the compiled replay
passes a preallocated plan buffer (C-contiguous, of the result's shape and
dtype); the eager tape passes ``None`` and the kernel finds the buffer
itself — a slice of the calling thread's tape arena
(:mod:`repro.autodiff.arena`) when a scope is open there, gradients are
being recorded and the result is large, a fresh allocation otherwise.
Either way the same ufunc writes the result, so eager results do not depend
on where the buffer came from, and because eager evaluation and compiled
replay execute the *same* kernel code, replay results are bitwise-identical
to the tape by construction — the property the engine equivalence tests pin
down.  A kernel given ``out`` must leave its result *in* ``out``: the engine
binds every consumer to that buffer when the plan is built and ignores the
return value.

Kernels in :data:`ALIAS_OPS` are cheap view/reshape ops; their result
aliases the input's storage, so the engine evaluates them once, when the
plan is built, and replays nothing.  The exception is a result that is not
a view (a ``reshape`` of a non-contiguous array has to copy): it is replayed
like any other kernel, into an arena buffer.

No kernel keeps state between calls — no scratch, no cache keyed by an
input size: plans replay concurrently on several threads and pair counts
change at every neighbor rebuild.  What persists between eager calls is the
tape arena's blocks: per-thread state outside the kernels, owned by whoever
opened the scope (:meth:`repro.models.base.Potential.evaluate`).

Two kinds of contraction live here, with different guarantees.  *Batch-
leading* kernels — ``matmul`` on 2-D operands and the ``einsum`` routes
``P+a, P+b, W -> P+c`` and ``P+K, W -> P+M`` — carry the **pad-invariance
guarantee**: row *k* of the result depends on row *k* of the batch operand
only, never on how many rows follow it, which is what lets a plan captured
at a padded capacity reproduce the unpadded tape bit for bit.  Contractions
*over* the batch — ``contract_rows`` (``aᵀ @ g``, the weight gradient of a
matmul) and the ``einsum`` route ``P+a, P+b, P+c -> abc`` (the gradient of
a Clebsch-Gordan tensor) — sum every row into every output element, have
no such property to protect, and go to BLAS directly.  They compute
gradients with respect to parameters, so a captured plan (parameters
frozen) never contains one.

Static arguments holding integer index arrays (``gather``/``scatter_add``/
fancy ``getitem``) keep a reference to the *array object* recorded at
capture time; the engine rebinds inputs by overwriting those arrays in
place, so a replayed plan follows the current neighbor list without
re-capturing.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from .arena import state as _arena_state
from . import tensor as _tensor  # circular-safe: only touched at call time


KERNELS: Dict[str, Callable] = {}

#: Ops whose result is (or may be) a view of the input; the engine hoists
#: the views out of the replay loop.
ALIAS_OPS = frozenset(
    {"reshape", "transpose", "broadcast_to", "expand_dims", "squeeze", "slice"}
)

#: Ops that are one numpy ufunc call writing through ``out=``: elementwise,
#: so ``out`` may be one of the operands (same shape and dtype).  The engine
#: uses this to overwrite an operand it no longer needs.
INPLACE_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "exp", "log", "sin", "cos", "sqrt",
        "tanh", "abs", "sign", "maximum", "minimum",
    }
)


def _kernel(name: str):
    def deco(fn):
        KERNELS[name] = fn
        return fn

    return deco


def _fill(out, res: np.ndarray) -> np.ndarray:
    """Copy ``res`` into ``out`` when a buffer was provided."""
    if out is None:
        return res
    np.copyto(out, res)
    return out


def _tape_scope():
    """The calling thread's open arena scope if the tape will hold the result.

    That is: gradient recording is on, so the result stays referenced until
    the force call ends.  A backward sweep under ``no_grad()`` frees each
    temporary at once and ``malloc`` hands the same chunk to the next one;
    taking those from the arena was measured no faster and 17-23 MB larger.
    Outside a scope this is one thread-local read.
    """
    scope = _arena_state.open
    if scope is None or not _tensor.is_grad_enabled():
        return None
    return scope


def _tape_out(a, b=None):
    """Arena buffer for the float result of an elementwise op on ``a``
    (and ``b``, broadcast), or None: the kernel then allocates as ever."""
    scope = _tape_scope()
    if scope is None:
        return None
    if b is None:
        shape, dtype = a.shape, a.dtype
    else:
        shape, dtype = np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b)
    return scope.take(shape, dtype) if dtype.kind == "f" else None


def _tape_empty(shape, dtype) -> np.ndarray:
    """``np.empty``, from the arena when the tape will hold the result."""
    scope = _tape_scope()
    out = None if scope is None else scope.take(shape, dtype)
    return np.empty(shape, dtype) if out is None else out


# -- arithmetic ---------------------------------------------------------------
@_kernel("add")
def add(out, a, b):
    if out is None:
        out = _tape_out(a, b)
    return np.add(a, b, out=out) if out is not None else a + b


@_kernel("sub")
def sub(out, a, b):
    if out is None:
        out = _tape_out(a, b)
    return np.subtract(a, b, out=out) if out is not None else a - b


@_kernel("mul")
def mul(out, a, b):
    if out is None:
        out = _tape_out(a, b)
    return np.multiply(a, b, out=out) if out is not None else a * b


@_kernel("div")
def div(out, a, b):
    if out is None:
        out = _tape_out(a, b)
    return np.divide(a, b, out=out) if out is not None else a / b


@_kernel("neg")
def neg(out, a):
    if out is None:
        out = _tape_out(a)
    return np.negative(a, out=out) if out is not None else -a


# The exponents ndarray.__pow__ hands to a dedicated ufunc instead of
# np.power (whose libm pow need not round a square, a root or a reciprocal
# the way those do); writing through ``out=`` has to take the same turn.
_POW_UFUNCS = {2.0: np.square, 0.5: np.sqrt, -1.0: np.reciprocal}


@_kernel("pow")
def powk(out, a, e):
    if out is None:
        out = _tape_out(a)
        if out is None:
            return a**e
    ufunc = _POW_UFUNCS.get(e)
    return np.power(a, e, out=out) if ufunc is None else ufunc(a, out=out)


@_kernel("astype")
def astype(out, a, dtype):
    if out is None and (scope := _tape_scope()) is not None:
        out = scope.take(a.shape, dtype)
    if out is None:
        return a.astype(dtype)
    np.copyto(out, a, casting="unsafe")
    return out


# -- reductions ---------------------------------------------------------------
@_kernel("sum")
def sumk(out, a, axis, keepdims):
    return a.sum(axis=axis, keepdims=keepdims, out=out)


# -- shape ops (alias kernels) ------------------------------------------------
# With ``out=None`` the result is a view wherever numpy can make one.  The
# engine passes a buffer only when it cannot (a reshape that has to copy, an
# all-integer index yielding a scalar).
@_kernel("reshape")
def reshape(out, a, shape):
    return _fill(out, a.reshape(shape))


@_kernel("transpose")
def transpose(out, a, axes):
    return _fill(out, a.transpose(axes))


@_kernel("broadcast_to")
def broadcast_to(out, a, shape):
    return _fill(out, np.broadcast_to(a, shape))


@_kernel("expand_dims")
def expand_dims(out, a, axis):
    return _fill(out, np.expand_dims(a, axis))


@_kernel("squeeze")
def squeeze(out, a, axis):
    return _fill(out, np.squeeze(a, axis=axis))


@_kernel("slice")
def slice_(out, a, idx):
    # Basic indexing only (no integer arrays).
    return _fill(out, a[idx])


@_kernel("getitem")
def getitem(out, a, idx):
    # Advanced indexing: result is a copy.
    return _fill(out, a[idx])


def is_basic_index(idx) -> bool:
    """True when ``idx`` uses only basic (view-producing) indexing."""
    items = idx if isinstance(idx, tuple) else (idx,)
    for it in items:
        if isinstance(it, (int, np.integer, slice)) or it is Ellipsis or it is None:
            continue
        return False
    return True


@_kernel("put_at")
def put_at(out, g, idx, shape, dtype):
    if out is None and (scope := _tape_scope()) is not None:
        out = scope.take(shape, dtype)
    if out is None:
        out = np.zeros(shape, dtype=dtype)
    else:
        out.fill(0)
    if is_basic_index(idx):
        # A basic index selects every element at most once, so adding into
        # the strided view equals the unbuffered np.add.at bit for bit.
        out[idx] += g
    else:
        np.add.at(out, idx, g)
    return out


# -- elementwise functions ----------------------------------------------------
@_kernel("exp")
def expk(out, a):
    if out is None:
        out = _tape_out(a)
    return np.exp(a, out=out) if out is not None else np.exp(a)


@_kernel("log")
def logk(out, a):
    if out is None:
        out = _tape_out(a)
    return np.log(a, out=out) if out is not None else np.log(a)


@_kernel("sin")
def sink(out, a):
    if out is None:
        out = _tape_out(a)
    return np.sin(a, out=out) if out is not None else np.sin(a)


@_kernel("cos")
def cosk(out, a):
    if out is None:
        out = _tape_out(a)
    return np.cos(a, out=out) if out is not None else np.cos(a)


@_kernel("sqrt")
def sqrtk(out, a):
    if out is None:
        out = _tape_out(a)
    return np.sqrt(a, out=out) if out is not None else np.sqrt(a)


@_kernel("tanh")
def tanhk(out, a):
    if out is None:
        out = _tape_out(a)
    return np.tanh(a, out=out) if out is not None else np.tanh(a)


def sigmoid_np(v: np.ndarray, out=None) -> np.ndarray:
    """Numerically stable logistic function, branch-free.

    With ``e = exp(-|v|)`` (never overflows) the value is ``1/(1+e)`` for
    ``v >= 0`` and ``e/(1+e)`` otherwise — the two quotients share their
    denominator, so only the numerator is selected.
    """
    e = np.abs(v, out=np.empty_like(v))
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(v >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=out)


@_kernel("sigmoid")
def sigmoidk(out, a):
    if out is None:
        out = _tape_out(a)
    return sigmoid_np(a, out)


@_kernel("softplus")
def softplusk(out, a):
    return _fill(out, np.log1p(np.exp(-np.abs(a))) + np.maximum(a, 0.0))


@_kernel("relu")
def reluk(out, a):
    mask = (a > 0).astype(a.dtype)
    return np.multiply(a, mask, out=out) if out is not None else a * mask


@_kernel("abs")
def absk(out, a):
    if out is None:
        out = _tape_out(a)
    return np.abs(a, out=out) if out is not None else np.abs(a)


@_kernel("clip")
def clipk(out, a, lo, hi):
    return np.clip(a, lo, hi, out=out) if out is not None else np.clip(a, lo, hi)


@_kernel("maximum")
def maximumk(out, a, b):
    if out is None:
        out = _tape_out(a, b)
    return np.maximum(a, b, out=out) if out is not None else np.maximum(a, b)


@_kernel("minimum")
def minimumk(out, a, b):
    if out is None:
        out = _tape_out(a, b)
    return np.minimum(a, b, out=out) if out is not None else np.minimum(a, b)


@_kernel("where")
def wherek(out, a, b, cond):
    # Static boolean condition (fixed at capture time).
    return _fill(out, np.where(cond, a, b))


@_kernel("select")
def selectk(out, cond, a, b):
    # Condition is a recorded (non-differentiable) mask tensor, recomputed
    # at replay — this is what keeps cutoff masks correct on rebound inputs.
    if out is None and (scope := _tape_scope()) is not None:
        out = scope.take(
            np.broadcast_shapes(cond.shape, a.shape, b.shape), np.result_type(a, b)
        )
    return _fill(out, np.where(cond != 0, a, b))


@_kernel("erfc")
def erfck(out, a):
    from scipy.special import erfc as _erfc

    return _fill(out, _erfc(a))


# -- recorded non-differentiable masks ----------------------------------------
@_kernel("less")
def lessk(out, a, c):
    return _fill(out, (a < c).astype(a.dtype))


@_kernel("step_mask")
def step_maskk(out, a):
    return _fill(out, (a > 0).astype(a.dtype))


@_kernel("sign")
def signk(out, a):
    if out is None:
        out = _tape_out(a)
    return np.sign(a, out=out) if out is not None else np.sign(a)


@_kernel("range_mask")
def range_maskk(out, a, lo, hi):
    return _fill(out, ((a >= lo) & (a <= hi)).astype(a.dtype))


@_kernel("ge_mask")
def ge_maskk(out, a, b):
    return _fill(out, (a >= b).astype(np.float64))


@_kernel("le_mask")
def le_maskk(out, a, b):
    return _fill(out, (a <= b).astype(np.float64))


# -- linear algebra -----------------------------------------------------------
def _cast_in(arr: np.ndarray) -> np.ndarray:
    cast = _tensor.config.matmul_input_cast
    return cast(arr) if cast else arr


def _cast_out(arr: np.ndarray) -> np.ndarray:
    cast = _tensor.config.matmul_precision
    return cast(arr) if cast else arr


# Fixed row-block size for 2-D matmul.  BLAS row results are not invariant
# to the total row count M (threading/dispatch change with size), which
# would make padded compiled evaluation drift from unpadded eager by ULPs.
# Processing M in fixed chunks — the tail zero-padded to a full chunk in a
# per-call scratch — means every BLAS call sees the same shapes for the same
# absolute row range, so row k of the result depends only on row k of ``a``
# and on ``b``, never on M.
_MM_BLOCK = 128


def _blocked_matmul(a, b, out):
    M, K = a.shape
    N = b.shape[1]
    res = out if out is not None else _tape_empty((M, N), np.result_type(a, b))
    full = (M // _MM_BLOCK) * _MM_BLOCK
    for s in range(0, full, _MM_BLOCK):
        np.matmul(a[s : s + _MM_BLOCK], b, out=res[s : s + _MM_BLOCK])
    rem = M - full
    if rem:
        # Private to this call: plans with equal layer widths replay
        # concurrently (serve workers, the lock-free _EvalState pool).
        tail_a = np.empty((_MM_BLOCK, K), res.dtype)
        tail_a[:rem] = a[full:]
        tail_a[rem:] = 0.0
        res[full:] = np.matmul(tail_a, b)[:rem]
    return res


@_kernel("matmul")
def matmulk(out, a, b):
    cfg = _tensor.config
    if cfg.matmul_input_cast is not None or cfg.matmul_precision is not None:
        return _fill(out, _cast_out(_cast_in(a) @ _cast_in(b)))
    if a.ndim == 2 and b.ndim == 2 and a.dtype.kind == "f" and a.dtype == b.dtype:
        return _blocked_matmul(a, b, out)
    return np.matmul(a, b, out=out) if out is not None else a @ b


@_kernel("contract_rows")
def contract_rowsk(out, a, g):
    """``aᵀ @ g`` for 2-D ``a [M, K]``, ``g [M, N]``: one GEMM over all rows.

    The sum runs over the batch, so no row of the result belongs to a batch
    entry and :func:`_blocked_matmul`'s fixed-shape chunks (whose tail would
    pad the ``K`` result rows to a full block of ``M``-long vectors) buy
    nothing.
    """
    cfg = _tensor.config
    if cfg.matmul_input_cast is not None or cfg.matmul_precision is not None:
        return _fill(out, _cast_out(_cast_in(a).T @ _cast_in(g)))
    return np.matmul(a.T, g, out=out)


def _parse_einsum_spec(spec):
    if "->" not in spec or "." in spec:
        return None
    lhs, rhs = spec.split("->")
    subs = lhs.split(",")
    for s in subs + [rhs]:
        if len(set(s)) != len(s):
            return None
    return subs, rhs


def _batched_contract(spec, operands, out):
    """BLAS routes for the contractions a tensor-product model is made of.

    Recognizes the tensor-product shapes that dominate the force call —
    ``P+a, P+b, W -> P+c`` (the Clebsch-Gordan contraction against a static
    3-index tensor and its two input gradients) and ``P+K, W -> P+M``
    (batched matrix multiply, the feature mixing) — and routes them through
    :func:`_blocked_matmul` on the flattened batch.  Rows of the flattened
    matmul correspond to trailing batch entries, so the result is invariant
    to trailing padding, exactly like the 2-D matmul kernel.

    Also recognizes the gradient of the 3-index tensor itself,
    ``P+a, P+b, P+c -> abc`` in any operand and output order: a reduction
    over the whole batch, done as one outer product and one GEMM (not
    pad-invariant, and not reachable with frozen parameters).

    The result is written into ``out`` when given.  Returns None when the
    spec does not match.
    """
    parsed = _parse_einsum_spec(spec)
    if parsed is None:
        return None
    subs, so = parsed
    if any(o.dtype.kind != "f" for o in operands):
        return None
    dtype = operands[0].dtype
    if any(o.dtype != dtype for o in operands[1:]):
        return None

    if len(operands) == 3 and len(so) >= 2:
        x, y, w = operands
        sx, sy, sw = subs
        p, c = so[:-1], so[-1]
        if (
            len(sx) == len(p) + 1
            and len(sy) == len(p) + 1
            and sx[:-1] == p
            and sy[:-1] == p
            and len(sw) == 3
            and sorted(sw) == sorted(sx[-1] + sy[-1] + c)
        ):
            a, b = sx[-1], sy[-1]
            perm = tuple(sw.index(s) for s in (a, b, c))
            w_mat = np.ascontiguousarray(w.transpose(perm))
            na, nb, nc = w_mat.shape
            # t[z,b,c] = sum_a x[z,a] W[a,b,c] on the flattened batch, then
            # one (1 x b)@(b x c) product per row with y: no outer product,
            # and both stages are per-row, so pad rows never reach real ones.
            # t dies with this call: its buffer is malloc's, never the arena's.
            t = np.empty((x.size // na, nb * nc), dtype)
            _blocked_matmul(x.reshape(-1, na), w_mat.reshape(na, nb * nc), t)
            if out is None:
                out = _tape_empty(x.shape[:-1] + (nc,), dtype)
            np.matmul(
                y.reshape(-1, 1, nb), t.reshape(-1, nb, nc), out=out.reshape(-1, 1, nc)
            )
            return out
        if (
            len(so) == 3
            and len(sx) >= 2
            and sx[:-1] == sy[:-1] == sw[:-1]
            and sorted(so) == sorted(sx[-1] + sy[-1] + sw[-1])
            and x.shape[:-1] == y.shape[:-1] == w.shape[:-1]
        ):
            # out[p,q,r] = sum_z f[z,p] (s[z,q] t[z,r]): the outer product of
            # the two operands carrying the last two output letters, then
            # one (p x Z)@(Z x qr) GEMM lands in the output's own layout.
            by_letter = dict(zip(sx[-1] + sy[-1] + sw[-1], operands))
            f, s, t = (by_letter[c] for c in so)
            rows = math.prod(x.shape[:-1])
            n_p, n_q, n_r = f.shape[-1], s.shape[-1], t.shape[-1]
            outer = s.reshape(rows, n_q, 1) * t.reshape(rows, 1, n_r)
            if out is None:
                out = _tape_empty((n_p, n_q, n_r), dtype)
            np.matmul(
                f.reshape(rows, n_p).T, outer.reshape(rows, n_q * n_r),
                out=out.reshape(n_p, n_q * n_r),
            )
            return out

    if len(operands) == 2:
        x, w = operands
        sx, sw = subs
        for n_k in range(1, len(sx)):
            p, k = sx[: len(sx) - n_k], sx[len(sx) - n_k :]
            m = so[len(p) :]
            if (
                len(p) >= 1
                and len(m) >= 1
                and so[: len(p)] == p
                and sorted(sw) == sorted(k + m)
                and not (set(k) & set(m))
            ):
                perm = tuple(sw.index(s) for s in k + m)
                w_mat = np.ascontiguousarray(w.transpose(perm))
                k_dim = int(np.prod(w_mat.shape[: n_k], dtype=int))
                m_shape = w_mat.shape[n_k:]
                m_dim = int(np.prod(m_shape, dtype=int))
                if out is None:
                    out = _tape_empty(x.shape[: len(p)] + m_shape, dtype)
                _blocked_matmul(
                    x.reshape(-1, k_dim), w_mat.reshape(k_dim, m_dim),
                    out.reshape(-1, m_dim),
                )
                return out
        return None

    return None


@_kernel("einsum")
def einsumk(out, *operands, spec):
    # Bitwise-identity requirements.  (1) Never pass ``out=`` to np.einsum:
    # an output array changes the contraction dispatch, shifting summation
    # order.  (2) Canonicalize operands to C order: c_einsum's iteration
    # (and hence accumulation) order follows operand memory layout, and
    # replay hands contiguous arena copies where eager may hold transposed
    # views of a previous einsum's result.  (3) No ``optimize=True``: the
    # optimized path dispatches to BLAS tensordot, whose row results depend
    # on the (padded vs unpadded) leading dimension; c_einsum iterates rows
    # sequentially, so results are invariant to trailing padding.
    # (asarray with order="C", not ascontiguousarray: the latter promotes
    # 0-d operands to 1-d, which c_einsum rejects for scalar subscripts.)
    operands = [np.asarray(o, order="C") for o in operands]
    cfg = _tensor.config
    if cfg.matmul_input_cast is None and cfg.matmul_precision is None:
        res = _batched_contract(spec, operands, out)
        if res is not None:
            return res
        return _fill(out, np.einsum(spec, *operands))
    res = _cast_out(np.einsum(spec, *[_cast_in(o) for o in operands]))
    return _fill(out, res)


# -- indexing / assembly ------------------------------------------------------
@_kernel("gather")
def gatherk(out, a, idx):
    # take, not a[idx]: same rows bit for bit, several times faster.
    if out is None and (scope := _tape_scope()) is not None:
        out = scope.take(idx.shape + a.shape[1:], a.dtype)
    return np.take(a, idx, axis=0, out=out)


@_kernel("scatter_add")
def scatter_addk(out, src, idx, dim_size):
    if out is None:
        out = _tape_empty((dim_size,) + src.shape[1:], src.dtype)
    if src.ndim > 1 and src.dtype == np.float64 and idx.dtype.kind == "i":
        # One np.bincount per column: each bin is a double-precision running
        # sum taken in edge order from +0.0 — the sequence np.add.at
        # performs, bit for bit, several times faster.  (np.add.at has its
        # own fast path for 1-D sources.)
        n_cols = math.prod(src.shape[1:])
        cols = src.reshape(src.shape[0], n_cols)
        out_cols = out.reshape(dim_size, n_cols)
        for c in range(n_cols):
            sums = np.bincount(idx, cols[:, c], dim_size)
            if sums.shape[0] != dim_size:
                raise IndexError(
                    f"scatter index {sums.shape[0] - 1} out of bounds for "
                    f"{dim_size} bins"
                )
            out_cols[:, c] = sums
        return out
    out.fill(0)
    np.add.at(out, idx, src)
    return out


@_kernel("concat")
def concatk(out, *arrays, axis):
    if out is None and (scope := _tape_scope()) is not None:
        shape = list(arrays[0].shape)
        shape[axis] = sum(a.shape[axis] for a in arrays)
        out = scope.take(shape, np.result_type(*arrays))
    return np.concatenate(arrays, axis=axis, out=out)


@_kernel("stack")
def stackk(out, *arrays, axis):
    return _fill(out, np.stack(arrays, axis=axis))


@_kernel("pad_rows")
def pad_rowsk(out, a, n_rows, fill):
    n = a.shape[0]
    if out is None:
        pad_block = np.full((n_rows - n,) + a.shape[1:], fill, dtype=a.dtype)
        return np.concatenate([a, pad_block], axis=0)
    out[:n] = a
    out[n:] = fill
    return out
