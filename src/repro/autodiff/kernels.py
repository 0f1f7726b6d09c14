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
``P+a, P+b, W -> P+c`` (``W`` in any slot), ``P+K, W -> P+M``,
``P, P+m -> P+m`` and ``P+m, P+m -> P`` — carry the **pad-invariance
guarantee**: row *k* of the result depends on row *k* of the batch operand
only, never on how many rows follow it, which is what lets a plan captured
at a padded capacity reproduce the unpadded tape bit for bit.  Each spec
pattern has exactly one route, chosen from the spec and the operands, and
each route is one C-level call (or one per short-axis element), never a
Python loop over the batch: DESIGN §22 has the table.  Contractions
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
# Most terms ``sumk`` reduces with whole-slice adds: beyond 8 the dispatch of
# ``u - 1`` ufuncs stops beating one ``add.reduce``, and from 8 on a reduced
# inner-loop axis is summed pairwise (see ``_slice_sum_axis``).
_SUM_MAX_TERMS = 8


def _slice_sum_axis(a, axis):
    """``axis`` as a non-negative int when ``add.reduce`` sums along it in
    the order of one whole-slice add per term, ``((0 + a0) + a1) + ...``.

    On a C-contiguous float array that holds for a short axis past the first:
    - with more than one element behind it, ``add.reduce`` walks the axis as
      an outer loop, one slice at a time (up to ``_SUM_MAX_TERMS`` terms);
    - as the last axis (or followed only by length-1 axes) it is the inner
      loop of numpy's pairwise sum, which below 8 terms is that same running
      sum from 0; from 8 terms it unrolls into partial sums, a different
      association, so those stay with ``add.reduce``.
    """
    if a.ndim < 2:
        return None
    if isinstance(axis, tuple):
        if len(axis) != 1:
            return None
        (axis,) = axis
    if axis is None or a.dtype.kind != "f" or not a.flags.c_contiguous:
        return None
    ax = axis % a.ndim
    inner = math.prod(a.shape[ax + 1 :]) < 2
    if ax == 0 or not 2 <= a.shape[ax] <= _SUM_MAX_TERMS - inner:
        return None
    return ax


@_kernel("sum")
def sumk(out, a, axis, keepdims):
    ax = _slice_sum_axis(a, axis)
    if ax is None:
        return a.sum(axis=axis, keepdims=keepdims, out=out)
    # [Z, u, d] -> [Z, 1, d], [E, 3] -> [E, 1]: the additions ``add.reduce``
    # performs, in its order (((0 + a0) + a1) + a2 ...), as whole-slice adds
    # — bitwise the same sums, several times faster than its strided
    # iterator.  (The leading ``0 +`` is what makes a sum of -0.0 terms come
    # out +0.0.)
    lead = (slice(None),) * ax
    if out is None:
        shape = a.shape[:ax] + ((1,) if keepdims else ()) + a.shape[ax + 1 :]
        out = np.empty(shape, a.dtype)
    acc = out[lead + (0,)] if keepdims else out
    np.add(a[lead + (0,)], a.dtype.type(0), out=acc)
    for k in range(1, a.shape[ax]):
        np.add(acc, a[lead + (k,)], out=acc)
    return out


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
        # A basic index selects every element at most once, so the one
        # addition np.add.at performs per element, 0 + g, can be written
        # straight into the strided view (bit for bit: -0.0 still lands as
        # +0.0) without reading the zeros back.
        view = out[idx]
        if isinstance(view, np.ndarray):
            np.add(g, out.dtype.type(0), out=view)
        else:  # an all-integer index names one element
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
    denominator, so only the numerator is selected: ``max(e, [v >= 0])``,
    since ``0 <= e <= 1``.  One scratch array (``e``); ``out`` may be ``v``
    itself — ``v`` is last read by the step that first writes ``out``.
    """
    e = np.abs(v, out=np.empty_like(v))
    np.negative(e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(v)
    np.greater_equal(v, 0.0, out=out)  # 1.0 / 0.0 in v's dtype
    np.maximum(e, out, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


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


# -- fused pair terms -----------------------------------------------------------
# One kernel per analytic pair term and one per its r-derivative, in place of
# the ~dozen tape ops per term whose intermediates an eager force call held
# until its backward ran.  Elementwise (pad-invariant); the output and every
# temporary come from ``_tape_empty``.  Not in INPLACE_OPS: they read ``r``
# after writing ``out``.
def _ipow(x, n, out):
    """``x**n`` (integer n >= 2) into ``out`` (not ``x``) by repeated
    multiplication: left to right over n's bits, square, then times ``x``."""
    np.multiply(x, x, out=out)
    for k, bit in enumerate(bin(n)[3:]):
        if k:
            np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, x, out=out)
    return out


def envelope(s, p, out=None, scratch=None, ds=False):
    """The polynomial cutoff u(s) = 1 − c0·sᵖ + c1·sᵖ⁺¹ − c2·sᵖ⁺² in Horner
    form, 1 + sᵖ·(−c0 + s·(c1 − c2·s)) — with ``ds``, its derivative
    sᵖ⁻¹·(−p·c0 + s·((p+1)·c1 − (p+2)·c2·s)) — at ``s`` clamped to at most 1.

    The coefficients are small integers, so u(1) = 1 + (−1) and u′(1) are
    exactly 0: a caller clamps s = r/r_c with ``minimum(s, 1)`` and every
    pair at or past the cutoff — a pad edge sits exactly on it — contributes
    an exact zero.
    """
    c0, c1, c2 = (p + 1) * (p + 2) / 2.0, p * (p + 2.0), p * (p + 1) / 2.0
    if ds:
        p, c0, c1, c2 = p - 1, p * c0, (p + 1) * c1, (p + 2) * c2
    if out is None:
        out = _tape_empty(s.shape, s.dtype)
    if scratch is None:
        scratch = _tape_empty(s.shape, s.dtype)
    np.multiply(s, -c2, out=out)
    out += c1
    out *= s
    out -= c0
    out *= s if p == 1 else _ipow(s, p, scratch)
    if not ds:
        out += 1.0
    return out


def _clamped_s(r, cutoff):
    """min(r / r_c, 1): exactly 1 on a pad edge (r = r_c) and past it."""
    s = np.divide(r, cutoff, out=_tape_empty(r.shape, r.dtype))
    return np.minimum(s, 1.0, out=s)


@_kernel("lj_pair")
def lj_pairk(out, r, eps, sig, cutoff, p):
    """½·4ε[(σ/r)¹² − (σ/r)⁶]·u(r/r_c) = 2ε·x⁶(x⁶ − 1)·u, x = σ/r."""
    if out is None:
        out = _tape_empty(r.shape, r.dtype)
    a = _clamped_s(r, cutoff)
    b = _tape_empty(r.shape, r.dtype)
    envelope(a, p, out, b)
    np.divide(sig, r, out=a)
    _ipow(a, 6, b)  # x⁶
    np.subtract(b, 1.0, out=a)
    a *= b
    a *= eps
    a *= 2.0
    out *= a
    return out


@_kernel("lj_pair_grad")
def lj_pair_gradk(out, g, r, eps, sig, cutoff, p):
    """g·d/dr[½φu] = g·(½φ·u′/r_c + ½φ′·u), with ½φ = 2ε·x⁶(x⁶ − 1) and
    ½φ′ = −12ε·x⁶(2x⁶ − 1)/r."""
    if out is None:
        out = _tape_empty(r.shape, r.dtype)
    a = _clamped_s(r, cutoff)
    b = _tape_empty(r.shape, r.dtype)
    u = envelope(a, p, None, b)
    envelope(a, p, out, b, ds=True)
    np.divide(sig, r, out=a)
    _ipow(a, 6, b)  # x⁶
    np.subtract(b, 1.0, out=a)
    a *= b
    a *= eps
    a *= 2.0 / cutoff
    out *= a
    np.multiply(b, 2.0, out=a)
    a -= 1.0
    a *= b
    a *= eps
    a *= -12.0
    a /= r
    a *= u
    out += a
    out *= g
    return out


@_kernel("morse_pair")
def morse_pairk(out, r, D, a, r0, cutoff, p):
    """½·D[(1 − e)² − 1]·u(r/r_c) = ½·D·e(e − 2)·u, e = exp(a(r0 − r))."""
    if out is None:
        out = _tape_empty(r.shape, r.dtype)
    t = _clamped_s(r, cutoff)
    e = _tape_empty(r.shape, r.dtype)
    envelope(t, p, out, e)
    np.subtract(r0, r, out=e)
    e *= a
    np.exp(e, out=e)
    np.subtract(e, 2.0, out=t)
    t *= e
    t *= D
    t *= 0.5
    out *= t
    return out


@_kernel("morse_pair_grad")
def morse_pair_gradk(out, g, r, D, a, r0, cutoff, p):
    """g·d/dr[½φu] = g·D·e·[a(1 − e)·u + ½(e − 2)·u′/r_c]."""
    if out is None:
        out = _tape_empty(r.shape, r.dtype)
    t = _clamped_s(r, cutoff)
    e = _tape_empty(r.shape, r.dtype)
    u = envelope(t, p, None, e)
    envelope(t, p, out, e, ds=True)
    np.subtract(r0, r, out=e)
    e *= a
    np.exp(e, out=e)
    np.subtract(e, 2.0, out=t)
    t *= 0.5 / cutoff
    out *= t
    np.subtract(1.0, e, out=t)
    t *= a
    t *= u
    out += t
    out *= e
    out *= D
    out *= g
    return out


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
# and on ``b``, never on M.  The chunks are a stacking axis of one
# ``np.matmul``, not a Python loop: at [8696, 3] x [3, 9] the loop's 68
# dispatches cost four times the arithmetic.
_MM_BLOCK = 128


def _blocked_matmul(a, b, out):
    M, K = a.shape
    N = b.shape[1]
    res = out if out is not None else _tape_empty((M, N), np.result_type(a, b))
    full = (M // _MM_BLOCK) * _MM_BLOCK
    if full and a.flags.c_contiguous and res.flags.c_contiguous:
        # All full blocks in one stacked call: numpy runs the same dgemm on
        # each [128, K] item, so every absolute row range sees the shapes the
        # loop below gives it and the result is the loop's, bit for bit.
        # (Reshaping a non-contiguous ``res`` would write into a copy.)
        np.matmul(
            a[:full].reshape(-1, _MM_BLOCK, K), b,
            out=res[:full].reshape(-1, _MM_BLOCK, N),
        )
    else:
        for s in range(0, full, _MM_BLOCK):
            np.matmul(a[s : s + _MM_BLOCK], b, out=res[s : s + _MM_BLOCK])
    rem = M - full
    if rem:
        # Private to this call: plans with equal layer widths replay
        # concurrently (serve workers on distinct plan-cache buckets).
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


# Rows of the flattened batch one pass of the three-operand route handles:
# eight matmul blocks.  Its intermediate ([rows, b*c], 81 columns at lmax=2)
# then stays in the L2 cache between the GEMM that writes it and the per-row
# products that read it, instead of streaming megabytes through memory.
_TP_CHUNK = 8 * _MM_BLOCK


def _contract_static3(x, y, w_mat, out):
    """``out[z, c] = sum_ab x[z, a] y[z, b] w_mat[a, b, c]``, per row ``z``.

    ``t[z, b, c] = sum_a x[z, a] W[a, b, c]`` as a blocked matmul on the
    flattened batch, then one (1 x b)@(b x c) product per row with ``y``: no
    outer product, and both stages are per-row, so pad rows never reach real
    ones.  Chunk boundaries fall on matmul block boundaries, so chunking does
    not change which dgemm a row goes through.  ``t`` dies with this call:
    its buffer is malloc's, never the arena's.
    """
    na, nb, nc = w_mat.shape
    x2, y2, out2 = x.reshape(-1, na), y.reshape(-1, 1, nb), out.reshape(-1, 1, nc)
    w2 = w_mat.reshape(na, nb * nc)
    rows = x2.shape[0]
    t = np.empty((min(rows, _TP_CHUNK), nb * nc), x.dtype)
    for s in range(0, rows, _TP_CHUNK):
        n = min(_TP_CHUNK, rows - s)
        _blocked_matmul(x2[s : s + n], w2, t[:n])
        np.matmul(y2[s : s + n], t[:n].reshape(n, nb, nc), out=out2[s : s + n])
    return out


def _contract_elementwise(subs, so, operands, out):
    x, w = operands
    sx, sw = subs
    if sx == sw and len(sx) >= 2 and so == sx[:-1] and x.shape == w.shape and x.shape[-1]:
        # ``zum,zum->zu``.  c_einsum sums in another order: agreement with
        # it is to rounding, not bitwise.
        if out is None:
            out = _tape_empty(x.shape[:-1], x.dtype)
        np.multiply(x[..., 0], w[..., 0], out=out)
        term = np.empty(out.shape, x.dtype)  # private to this call
        for m in range(1, x.shape[-1]):
            np.multiply(x[..., m], w[..., m], out=term)
            np.add(out, term, out=out)
        return out
    if len(sx) > len(sw):  # the scaling operand first: both orders match
        x, w, sx, sw = w, x, sw, sx
    if len(sx) >= 1 and sw[:-1] == sx and so == sw and x.shape == w.shape[:-1]:
        # ``zu,zum->zum``: one product per output element and no sum, so
        # these are c_einsum's values — and its bits, except that c_einsum
        # adds each product to a zeroed output and so turns a -0.0 into +0.0.
        if out is None:
            out = _tape_empty(w.shape, x.dtype)
        for m in range(w.shape[-1]):
            np.multiply(x, w[..., m], out=out[..., m])
        return out
    return None


def _contract_matmul(subs, so, operands, out):
    x, w = operands
    sx, sw = subs
    for n_k in range(1, len(sx)):
        p, k = sx[: len(sx) - n_k], sx[len(sx) - n_k :]
        m = so[len(p) :]
        if (
            len(m) >= 1
            and so[: len(p)] == p
            and sorted(sw) == sorted(k + m)
            and not (set(k) & set(m))
        ):
            perm = tuple(sw.index(s) for s in k + m)
            w_mat = np.ascontiguousarray(w.transpose(perm))
            k_dim = math.prod(w_mat.shape[:n_k])
            m_shape = w_mat.shape[n_k:]
            m_dim = math.prod(m_shape)
            if out is None:
                out = _tape_empty(x.shape[: len(p)] + m_shape, x.dtype)
            _blocked_matmul(
                x.reshape(-1, k_dim), w_mat.reshape(k_dim, m_dim),
                out.reshape(-1, m_dim),
            )
            return out
    return None


def _contract_three(subs, so, operands, out):
    dtype = operands[0].dtype
    p, c = so[:-1], so[-1]
    # The two batch operands carry the output's prefix; the static tensor is
    # whichever operand is left (``abc,za,zb->zc`` names it first, the
    # gradient ``zc,abc,za->zb`` second).
    batch = [k for k, s in enumerate(subs) if len(s) == len(p) + 1 and s[:-1] == p]
    if len(batch) == 2:
        i, j = batch
        w_slot = 3 - i - j
        a, b, sw = subs[i][-1], subs[j][-1], subs[w_slot]
        if len(sw) == 3 and sorted(sw) == sorted(a + b + c):
            x, y = operands[i], operands[j]
            perm = tuple(sw.index(s) for s in (a, b, c))
            w_mat = np.ascontiguousarray(operands[w_slot].transpose(perm))
            if out is None:
                out = _tape_empty(x.shape[:-1] + w_mat.shape[2:], dtype)
            return _contract_static3(x, y, w_mat, out)
    x, y, w = operands
    sx, sy, sw = subs
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
    return None


def _batched_contract(spec, operands, out):
    """The one-C-call routes for the contractions a tensor-product model is
    made of (DESIGN §22 has the table).  Returns None when ``spec`` matches
    none of them; otherwise the result, written into ``out`` when given.

    Batch-leading and pad-invariant (row *k* of the result depends on row
    *k* of the batch operands only):

    * ``P+a, P+b, W -> P+c`` with the static 3-index tensor ``W`` in any
      operand slot — the Clebsch-Gordan contraction, the spherical-harmonic
      product ``abc,za,zb->zc`` and the input gradients of both — through
      :func:`_contract_static3`;
    * ``P+K, W -> P+M`` (batched matrix multiply, the feature mixing) as one
      :func:`_blocked_matmul` on the flattened batch;
    * ``P, P+m -> P+m`` (per-channel scaling) as one strided multiply per
      ``m``, and ``P+m, P+m -> P`` (dot product over a short last axis) as
      multiply-accumulate over ``m``.  Elementwise on whatever layout the
      operands have, so these two take them as they come.

    Over the batch (not pad-invariant, not reachable with frozen
    parameters): ``P+a, P+b, P+c -> abc`` in any operand and output order,
    the gradient of the 3-index tensor itself, as one outer product and one
    GEMM.
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

    if len(operands) == 2:
        res = _contract_elementwise(subs, so, operands, out)
        if res is not None:
            return res
    # The GEMM routes flatten the batch: C order, which a reshape of a
    # transposed view would otherwise reach through a hidden copy.
    operands = [np.asarray(o, order="C") for o in operands]
    if len(operands) == 2:
        return _contract_matmul(subs, so, operands, out)
    if len(operands) == 3 and len(so) >= 2:
        return _contract_three(subs, so, operands, out)
    return None


@_kernel("einsum")
def einsumk(out, *operands, spec):
    # Bitwise-identity requirements of the c_einsum fallback.  (1) Never
    # pass ``out=`` to np.einsum: an output array changes the contraction
    # dispatch, shifting summation order.  (2) Canonicalize operands to C
    # order: c_einsum's iteration (and hence accumulation) order follows
    # operand memory layout, and replay hands contiguous arena copies where
    # eager may hold transposed views of a previous einsum's result.  (3) No
    # ``optimize=True``: the optimized path dispatches to BLAS tensordot,
    # whose row results depend on the (padded vs unpadded) leading
    # dimension; c_einsum iterates rows sequentially, so results are
    # invariant to trailing padding.
    # (asarray with order="C", not ascontiguousarray: the latter promotes
    # 0-d operands to 1-d, which c_einsum rejects for scalar subscripts.)
    cfg = _tensor.config
    if cfg.matmul_input_cast is None and cfg.matmul_precision is None:
        res = _batched_contract(spec, operands, out)
        if res is not None:
            return res
        return _fill(out, np.einsum(spec, *[np.asarray(o, order="C") for o in operands]))
    operands = [_cast_in(np.asarray(o, order="C")) for o in operands]
    return _fill(out, _cast_out(np.einsum(spec, *operands)))


# -- indexing / assembly ------------------------------------------------------
# Result elements from which ``gatherk`` checks the index itself: the two
# reductions over ``idx`` cost ~2 us each, the staging copy they avoid costs
# that at ~16 k elements (a [2174, 8] gather) and 3x the gather at [53 k, 3].
_GATHER_CHECKED_MIN = 1 << 14


@_kernel("gather")
def gatherk(out, a, idx):
    # take, not a[idx]: same rows bit for bit, several times faster.
    if out is None and (scope := _tape_scope()) is not None:
        out = scope.take(idx.shape + a.shape[1:], a.dtype)
    if (
        out is not None
        and out.size >= _GATHER_CHECKED_MIN
        and idx.min() >= 0
        and idx.max() < a.shape[0]
    ):
        # In bounds, checked once: ``clip`` never clips, and skips the
        # staging buffer ``raise`` copies every row through when given
        # ``out``.  Negative or out-of-range indices keep numpy's handling.
        return np.take(a, idx, axis=0, out=out, mode="clip")
    return np.take(a, idx, axis=0, out=out)


# Columns from which ``scatter_addk`` runs one bincount over (row, column)
# bins instead of one per column: at 36 columns the single pass wins by a
# quarter; at 3 (forces on [pairs, 3]) building the flat index costs more
# than the two extra passes it saves.
_SCATTER_FLAT_COLS = 8


@_kernel("scatter_add")
def scatter_addk(out, src, idx, dim_size):
    if out is None:
        out = _tape_empty((dim_size,) + src.shape[1:], src.dtype)
    if src.ndim > 1 and src.dtype == np.float64 and idx.dtype.kind == "i":
        # np.bincount: each bin is a double-precision running sum taken in
        # edge order from +0.0 — the sequence np.add.at performs, bit for
        # bit, several times faster.  (np.add.at has its own fast path for
        # 1-D sources.)
        n_cols = math.prod(src.shape[1:])
        out_cols = out.reshape(dim_size, n_cols)
        if n_cols >= _SCATTER_FLAT_COLS and idx.size:
            # Wide rows: one pass over (row, column) bins.  Bounds first — a
            # flat index would alias an out-of-range row into its neighbor.
            if idx.min() < 0 or idx.max() >= dim_size:
                raise IndexError(
                    f"scatter index out of bounds for {dim_size} bins "
                    f"(min {idx.min()}, max {idx.max()})"
                )
            bins = np.add.outer(idx * n_cols, np.arange(n_cols))
            sums = np.bincount(bins.ravel(), src.ravel(), dim_size * n_cols)
            out_cols[...] = sums.reshape(dim_size, n_cols)
            return out
        cols = src.reshape(src.shape[0], n_cols)
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
