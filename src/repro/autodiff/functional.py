"""Differentiable elementwise functions and nonlinearities.

Backward closures are expressed with Tensor operations so that **second
derivatives are exact** — force-matching training differentiates the force
(itself a gradient), which pulls in f'' of every nonlinearity.  SiLU is the
nonlinearity used throughout Allegro's latent MLPs (paper §VI-D).

Every forward value is computed by a kernel from :mod:`repro.autodiff.kernels`
and the op is recorded on the active capture recorder, so the whole module is
replayable by :mod:`repro.engine`.  Gradient masks (relu/clip/where/...) are
therefore *recorded ops* — :func:`step_mask` and friends — rather than arrays
baked at trace time: a replayed plan recomputes them from the rebound inputs.
"""

from __future__ import annotations

import numpy as np

from . import kernels as K
from .tensor import Tensor, _unbroadcast, astensor


def exp(x) -> Tensor:
    """Elementwise e^x."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            # d(exp)/dx = exp(x); rebuild as a Tensor op for higher orders.
            x._accumulate(g * exp(x))

    return Tensor._make(K.expk(None, x.data), (x,), backward, "exp")


def log(x) -> Tensor:
    """Elementwise natural logarithm."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g / x)

    return Tensor._make(K.logk(None, x.data), (x,), backward, "log")


def sin(x) -> Tensor:
    """Elementwise sine."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g * cos(x))

    return Tensor._make(K.sink(None, x.data), (x,), backward, "sin")


def cos(x) -> Tensor:
    """Elementwise cosine."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(-(g * sin(x)))

    return Tensor._make(K.cosk(None, x.data), (x,), backward, "cos")


def sqrt(x) -> Tensor:
    """Elementwise square root."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g * (x ** (-0.5)) * 0.5)

    return Tensor._make(K.sqrtk(None, x.data), (x,), backward, "sqrt")


def sigmoid(x) -> Tensor:
    """Numerically stable logistic function (compositional backward)."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            s = sigmoid(x)
            x._accumulate(g * s * (1.0 - s))

    return Tensor._make(K.sigmoidk(None, x.data), (x,), backward, "sigmoid")


def tanh(x) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            t = tanh(x)
            x._accumulate(g * (1.0 - t * t))

    return Tensor._make(K.tanhk(None, x.data), (x,), backward, "tanh")


def silu(x) -> Tensor:
    """SiLU / swish: x·sigmoid(x); derivative s(x)·(1 + x·(1 − s(x))).

    Recorded as ``sigmoid`` then ``mul``; the backward closes over the
    forward's ``s`` instead of evaluating the logistic a second time.
    """
    x = astensor(x)
    s = sigmoid(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g * s * (x * (1.0 - s) + 1.0))

    return Tensor._make(K.mul(None, x.data, s.data), (x, s), backward, "mul")


def softplus(x) -> Tensor:
    """Numerically stable log(1 + e^x)."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g * sigmoid(x))

    return Tensor._make(K.softplusk(None, x.data), (x,), backward, "softplus")


def relu(x) -> Tensor:
    """Elementwise max(x, 0)."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g * step_mask(x))

    return Tensor._make(K.reluk(None, x.data), (x,), backward, "relu")


def absolute(x) -> Tensor:
    """Elementwise |x| (subgradient sign(x) at 0)."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g * sign_of(x))

    return Tensor._make(K.absk(None, x.data), (x,), backward, "abs")


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient is masked outside."""
    x = astensor(x)

    def backward(g: Tensor) -> None:
        if x._track():
            x._accumulate(g * range_mask(x, lo, hi))

    return Tensor._make(
        K.clipk(None, x.data, lo, hi), (x,), backward, "clip", {"lo": lo, "hi": hi}
    )


def pow(x, exponent: float) -> Tensor:
    """Elementwise power with float exponent (alias for Tensor.__pow__)."""
    return astensor(x) ** exponent


def maximum(a, b) -> Tensor:
    """Elementwise max with subgradient to the winning operand."""
    a, b = astensor(a), astensor(b)

    def backward(g: Tensor) -> None:
        amask = ge_mask(a, b)
        if a._track():
            a._accumulate(_unbroadcast(g * amask, a.shape))
        if b._track():
            b._accumulate(_unbroadcast(g * (1.0 - amask), b.shape))

    return Tensor._make(K.maximumk(None, a.data, b.data), (a, b), backward, "maximum")


def minimum(a, b) -> Tensor:
    """Elementwise min with subgradient to the winning operand."""
    a, b = astensor(a), astensor(b)

    def backward(g: Tensor) -> None:
        amask = le_mask(a, b)
        if a._track():
            a._accumulate(_unbroadcast(g * amask, a.shape))
        if b._track():
            b._accumulate(_unbroadcast(g * (1.0 - amask), b.shape))

    return Tensor._make(K.minimumk(None, a.data, b.data), (a, b), backward, "minimum")


def where(cond, a, b) -> Tensor:
    """Select a where cond else b; cond is a non-differentiable mask.

    When ``cond`` is a :class:`Tensor` (e.g. from :func:`less`) it becomes a
    recorded parent, so a compiled replay re-evaluates the condition on
    current inputs.  Plain arrays/bools are captured as static data.
    """
    a, b = astensor(a), astensor(b)
    if isinstance(cond, Tensor):
        m = cond if cond.dtype.kind == "f" else cond.astype(np.float64)

        def backward(g: Tensor) -> None:
            if a._track():
                a._accumulate(_unbroadcast(g * m, a.shape))
            if b._track():
                b._accumulate(_unbroadcast(g * (1.0 - m), b.shape))

        return Tensor._make(
            K.selectk(None, m.data, a.data, b.data), (m, a, b), backward, "select"
        )

    cond = np.asarray(cond, dtype=bool)
    fmask = cond.astype(np.float64)

    def backward(g: Tensor) -> None:
        if a._track():
            a._accumulate(_unbroadcast(g * Tensor(fmask), a.shape))
        if b._track():
            b._accumulate(_unbroadcast(g * Tensor(1.0 - fmask), b.shape))

    return Tensor._make(
        K.wherek(None, a.data, b.data, cond), (a, b), backward, "where",
        {"cond": cond},
    )


def safe_norm(x, axis: int = -1, keepdims: bool = False, eps: float = 1e-30) -> Tensor:
    """Euclidean norm along ``axis`` with a gradient finite at 0.

    Implemented compositionally (√(Σx² + ε)) so all derivative orders exist;
    padded "fake" pairs (paper §V-C) produce zero vectors whose gradient
    must stay NaN-free.
    """
    x = astensor(x)
    sq = (x * x).sum(axis=axis, keepdims=True) + eps
    out = sqrt(sq)
    if not keepdims:
        out = out.squeeze(axis)
    return out


def lj_pair(r, eps, sig, cutoff: float, p: int) -> Tensor:
    """Per-edge Lennard-Jones term ½·4ε[(σ/r)¹² − (σ/r)⁶]·u(r/r_c), one kernel.

    ``eps`` and ``sig`` are per-edge constants; ``u`` is the degree-``p``
    polynomial cutoff.  Differentiable once, with respect to ``r`` only.
    """
    return _pair_term("lj_pair", "LennardJones", r, (eps, sig), cutoff, p)


def morse_pair(r, D, a, r0, cutoff: float, p: int) -> Tensor:
    """Per-edge Morse term ½·D[(1 − e^{−a(r−r0)})² − 1]·u(r/r_c), one kernel.

    ``D``, ``a`` and ``r0`` are per-edge constants.  Differentiable once,
    with respect to ``r`` only.
    """
    return _pair_term("morse_pair", "MorsePotential", r, (D, a, r0), cutoff, p)


def _pair_term(op: str, name: str, r, params, cutoff: float, p: int) -> Tensor:
    """The fused pair-term op ``op`` and, as its backward, ``op + "_grad"``:
    g·d/dr of the term, recorded as one more kernel whose own backward
    raises — nothing differentiates a parameter-free pair term twice."""
    r = astensor(r)
    params = tuple(astensor(t) for t in params)
    if any(t.requires_grad for t in params):
        raise NotImplementedError(f"{name}: pair parameters are constants")
    arrays = tuple(t.data for t in params)
    static = {"cutoff": float(cutoff), "p": int(p)}
    grad_op = op + "_grad"

    def no_second_derivative(gg: Tensor) -> None:
        raise NotImplementedError(f"{name}: no second derivative")

    def backward(g: Tensor) -> None:
        if r._track():
            r._accumulate(
                Tensor._make(
                    K.KERNELS[grad_op](None, g.data, r.data, *arrays, **static),
                    (g, r) + params, no_second_derivative, grad_op, static,
                )
            )

    return Tensor._make(
        K.KERNELS[op](None, r.data, *arrays, **static), (r,) + params, backward,
        op, static,
    )


# -- recorded, non-differentiable mask ops ------------------------------------
def less(x, c: float) -> Tensor:
    """Float mask (x < c); recorded so replay recomputes it from live data."""
    x = astensor(x)
    c = float(c)
    return Tensor._make_const(K.lessk(None, x.data, c), (x,), "less", {"c": c})


def step_mask(x) -> Tensor:
    """Float mask (x > 0)."""
    x = astensor(x)
    return Tensor._make_const(K.step_maskk(None, x.data), (x,), "step_mask")


def sign_of(x) -> Tensor:
    """Elementwise sign as a recorded non-differentiable op."""
    x = astensor(x)
    return Tensor._make_const(K.signk(None, x.data), (x,), "sign")


def range_mask(x, lo: float, hi: float) -> Tensor:
    """Float mask (lo <= x <= hi)."""
    x = astensor(x)
    return Tensor._make_const(
        K.range_maskk(None, x.data, lo, hi), (x,), "range_mask", {"lo": lo, "hi": hi}
    )


def ge_mask(a, b) -> Tensor:
    """Float mask (a >= b)."""
    a, b = astensor(a), astensor(b)
    return Tensor._make_const(K.ge_maskk(None, a.data, b.data), (a, b), "ge_mask")


def le_mask(a, b) -> Tensor:
    """Float mask (a <= b)."""
    a, b = astensor(a), astensor(b)
    return Tensor._make_const(K.le_maskk(None, a.data, b.data), (a, b), "le_mask")
