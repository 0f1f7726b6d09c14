"""Tests for gradients-of-gradients — the force-matching training requirement.

The force loss L = Σ(F_pred − F_ref)² with F = −∂E/∂r needs ∂L/∂w through
the gradient graph; every primitive used by the models must support it.
"""

import numpy as np
import pytest

import repro.autodiff as ad


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def _numeric_weight_grad(energy_fn, w0, x0, eps=1e-6):
    """Finite-difference d/dw of Σ(dE/dx)² used as the ground truth."""
    num = np.zeros_like(w0)
    it = np.nditer(w0, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        vals = []
        for s in (eps, -eps):
            w = w0.copy()
            w[ix] += s
            x = ad.Tensor(x0, requires_grad=True)
            (gx,) = ad.grad(energy_fn(ad.Tensor(w), x), [x])
            vals.append(float((gx.data**2).sum()))
        num[ix] = (vals[0] - vals[1]) / (2 * eps)
        it.iternext()
    return num


def _analytic_weight_grad(energy_fn, w0, x0):
    w = ad.Tensor(w0, requires_grad=True)
    x = ad.Tensor(x0, requires_grad=True)
    (gx,) = ad.grad(energy_fn(w, x), [x], create_graph=True)
    loss = (gx * gx).sum()
    loss.backward()
    return w.grad.data


@pytest.mark.parametrize(
    "name,energy_fn,wshape,xshape",
    [
        (
            "mlp",
            lambda w, x: (ad.silu(x @ w) ** 2).sum(),
            (3, 3),
            (4, 3),
        ),
        (
            "einsum",
            lambda w, x: ad.einsum("ij,kj,kj->", w, x, x),
            (4, 3),
            (4, 3),
        ),
        (
            "trig",
            lambda w, x: (ad.sin(x) @ w).sum() + (ad.cos(x * 2) @ w).sum(),
            (3,),
            (5, 3),
        ),
        (
            "norm",
            lambda w, x: (ad.safe_norm(x, axis=-1) ** 3 * w).sum(),
            (5,),
            (5, 3),
        ),
    ],
)
def test_double_backprop_matches_fd(name, energy_fn, wshape, xshape, rng):
    w0 = rng.normal(size=wshape)
    x0 = rng.normal(size=xshape)
    ana = _analytic_weight_grad(energy_fn, w0, x0)
    num = _numeric_weight_grad(energy_fn, w0, x0)
    assert np.allclose(ana, num, atol=1e-4, rtol=1e-4), np.abs(ana - num).max()


def test_double_backprop_through_gather_scatter(rng):
    idx_i = np.array([0, 1, 2, 0, 2])
    idx_j = np.array([1, 2, 0, 2, 1])

    def energy(w, pos):
        disp = ad.gather(pos, idx_j) - ad.gather(pos, idx_i)
        r = ad.safe_norm(disp, axis=-1)
        feat = ad.sin(r.expand_dims(-1) * ad.Tensor(np.arange(1.0, 4.0)))
        e_edge = (ad.silu(feat @ w) ** 2).sum(axis=-1)
        return ad.scatter_add(e_edge, idx_i, 3).sum()

    w0 = rng.normal(size=(3, 4))
    x0 = rng.normal(size=(3, 3)) * 2
    ana = _analytic_weight_grad(energy, w0, x0)
    num = _numeric_weight_grad(energy, w0, x0)
    assert np.allclose(ana, num, atol=1e-4, rtol=1e-4)


def test_hessian_diagonal_of_quadratic(rng):
    """For E = ½xᵀAx the Hessian is A; check grad-of-grad recovers a row."""
    A = rng.normal(size=(4, 4))
    A = A + A.T
    x = ad.Tensor(rng.normal(size=4), requires_grad=True)
    E = 0.5 * ad.einsum("i,ij,j->", x, ad.Tensor(A), x)
    (g,) = ad.grad(E, [x], create_graph=True)
    g[0].backward()
    assert np.allclose(x.grad.data, A[0], atol=1e-10)


def test_force_loss_gradient_drives_descent(rng):
    """A few SGD steps on a force-matching loss must reduce it."""
    idx_i = np.array([0, 1, 2, 3])
    idx_j = np.array([1, 2, 3, 0])
    pos0 = rng.normal(size=(4, 3)) * 2
    f_ref = rng.normal(size=(4, 3)) * 0.1

    w = ad.Tensor(0.1 * rng.normal(size=(3, 3)), requires_grad=True)

    def loss_fn():
        pos = ad.Tensor(pos0, requires_grad=True)
        disp = ad.gather(pos, idx_j) - ad.gather(pos, idx_i)
        r = ad.safe_norm(disp, axis=-1)
        feat = ad.exp(-r.expand_dims(-1) * ad.Tensor(np.array([0.5, 1.0, 2.0])))
        e = (ad.tanh(feat @ w) ** 2).sum()
        (gp,) = ad.grad(e, [pos], create_graph=True)
        diff = -gp - ad.Tensor(f_ref)
        return (diff * diff).mean()

    losses = []
    for _ in range(25):
        loss = loss_fn()
        losses.append(float(loss.data))
        w.zero_grad()
        loss.backward()
        w.data -= 0.5 * w.grad.data
    assert losses[-1] < losses[0] * 0.9, losses


def _force_norm_param_grads(params, energy, x0):
    """Analytic and finite-difference ∂/∂θ ‖∂E/∂x‖² for every θ in ``params``.

    The inner gradient is taken with ``ad.grad(..., create_graph=True)``,
    which differentiates with respect to ``x`` only; the second-order terms
    into the parameters must survive that pruning exactly.
    """

    def force_norm(create_graph):
        x = ad.Tensor(x0, requires_grad=True)
        (gx,) = ad.grad(energy(x), [x], create_graph=create_graph)
        return (gx * gx).sum()

    for p in params:
        p.zero_grad()
    force_norm(True).backward()
    pairs = []
    for p in params:
        num = np.zeros_like(p.data)
        for ix in np.ndindex(p.data.shape):
            orig = p.data[ix]
            vals = []
            for s in (1e-6, -1e-6):
                p.data[ix] = orig + s
                vals.append(float(force_norm(False).data))
            p.data[ix] = orig
            num[ix] = (vals[0] - vals[1]) / 2e-6
        ana = p.grad_data()
        pairs.append((np.zeros_like(num) if ana is None else ana, num))
    return pairs


def test_double_backprop_through_fused_tensor_product_path_weights(rng):
    """Trainable path weights: W = Σ_p w_p·B_p is rebuilt on the tape."""
    from repro.equivariant import FusedTensorProduct, StridedLayout

    tp = FusedTensorProduct(StridedLayout.spherical(1, mul=2), StridedLayout.spherical(1, mul=2))
    tp.weights.tensor.data = rng.normal(size=tp.num_paths)
    y0 = ad.Tensor(rng.normal(size=(5, 2, tp.layout2.dim)))
    x0 = rng.normal(size=(5, 2, tp.layout1.dim))

    def energy(x):
        out = tp(x, y0 * x.sum(axis=-1, keepdims=True))
        return (out * out).sum()

    ((ana, num),) = _force_norm_param_grads(tp.parameters(), energy, x0)
    assert np.abs(num).max() > 1e-3
    assert np.allclose(ana, num, atol=1e-4, rtol=1e-4), np.abs(ana - num).max()


def test_double_backprop_through_mlp(rng):
    from repro.nn import MLP

    mlp = MLP([3, 5, 4, 1], bias=True, rng=rng)
    x0 = rng.normal(size=(6, 3))
    pairs = _force_norm_param_grads(mlp.parameters(), lambda x: mlp(x).sum(), x0)
    assert len(pairs) == 6
    # the output bias does not reach ∂E/∂x: its gradient is zero both ways
    assert [bool(np.abs(num).max() > 1e-6) for _, num in pairs] == [True] * 5 + [False]
    for ana, num in pairs:
        assert np.allclose(ana, num, atol=1e-4, rtol=1e-4), np.abs(ana - num).max()
