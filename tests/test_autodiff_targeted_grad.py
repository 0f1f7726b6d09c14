"""``ad.grad`` differentiates only what lies between its inputs and its output.

The gradients it returns must be the ones ``.backward()`` leaves on the
same tensors, bit for bit (the pruned branches never fed them); nothing
else's ``.grad`` may move; and the target set is per thread and per call.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.autodiff as ad
from repro.md import Cell, System, neighbor_list
from repro.models import (
    AllegroConfig,
    AllegroModel,
    ClassicalConfig,
    ClassicalForceField,
    DeepMDConfig,
    DeepMDModel,
    LennardJones,
    NequIPConfig,
    NequIPModel,
)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# -- random small graphs ------------------------------------------------------
UNARY = [ad.sin, ad.tanh, ad.silu, lambda t: t * t, lambda t: t.sum(axis=0, keepdims=True) + t]
BINARY = [lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b,
          lambda a, b: a @ b.T @ b, lambda a, b: ad.einsum("ij,kj->ik", a, b) @ b]


def random_graph(seed, n_inputs, n_weights, n_ops):
    """A DAG over [4, 3] tensors; returns (output, inputs, weights, all nodes)."""
    rng = np.random.default_rng(seed)
    leaves = [ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
              for _ in range(n_inputs + n_weights)]
    nodes = list(leaves) + [ad.Tensor(rng.normal(size=(4, 3)))]  # one constant
    for _ in range(n_ops):
        if rng.random() < 0.4:
            nodes.append(UNARY[rng.integers(len(UNARY))](nodes[rng.integers(len(nodes))]))
        else:
            a, b = (nodes[k] for k in rng.integers(len(nodes), size=2))
            nodes.append(BINARY[rng.integers(len(BINARY))](a, b))
    # every node feeds the output, so no leaf is trivially out of the graph
    out = nodes[-1].sum()
    for nd in nodes[:-1]:
        out = out + (nd * 0.5).sum()
    return out, leaves[:n_inputs], leaves[n_inputs:], nodes


class TestRandomGraphs:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3),
           st.integers(1, 12), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_input_gradients_bitwise_equal_backward(
        self, seed, n_inputs, n_weights, n_ops, create_graph
    ):
        out, inputs, weights, nodes = random_graph(seed, n_inputs, n_weights, n_ops)
        marks = {id(t): ad.Tensor(np.full(t.shape, 7.0)) for t in nodes[::2]}
        for t in nodes[::2]:
            t.grad = marks[id(t)]
        before = {id(t): t.grad for t in nodes}
        grads = ad.grad(out, inputs, create_graph=create_graph)
        # no .grad anywhere moved: marked ones kept, the rest still None
        for t in nodes:
            assert t.grad is before[id(t)]

        ref_out, ref_inputs, ref_weights, _ = random_graph(seed, n_inputs, n_weights, n_ops)
        ref_out.backward()
        for g, ref in zip(grads, ref_inputs):
            assert g.shape == ref.shape
            np.testing.assert_array_equal(bits(g.data), bits(ref.grad.data))
        # and asking for the weights as well returns theirs, bit for bit
        if n_weights:
            both = ad.grad(out, inputs + weights)
            for g, ref in zip(both, ref_inputs + ref_weights):
                np.testing.assert_array_equal(bits(g.data), bits(ref.grad.data))

    def test_pruned_branches_run_no_kernel(self):
        """A weight-only subgraph behind the output costs nothing."""
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = (ad.sin(x) @ w).sum() + ad.einsum("ij,jk->", w, ad.tanh(w))
        rec = ad.Recorder()
        with ad.recording(rec):
            ad.grad(out, [x])
        ops = [op for _, op, _, _ in rec.entries]
        assert "contract_rows" not in ops and "einsum" not in ops and "tanh" not in ops
        assert ops.count("matmul") == 1  # g @ wᵀ only

    def test_input_outside_the_graph_yields_zeros(self):
        x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        stranger = ad.Tensor(np.ones((4,)), requires_grad=True)
        plain = ad.Tensor(np.ones((2, 3)))  # in the graph, but not tracked
        gx, gs, gp = ad.grad((x * plain).sum(), [x, stranger, plain])
        np.testing.assert_array_equal(gx.data, np.ones((2, 3)))
        assert gs.shape == (4,) and not gs.data.any()
        assert gp.shape == (2, 3) and not gp.data.any()
        assert stranger.grad is None and x.grad is None

    def test_backward_with_inputs_accumulates_into_them_only(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        h = ad.tanh(x @ w)
        out = (h * h).sum()
        x.grad = ad.Tensor(np.ones((4, 3)))
        w.grad = w_mark = ad.Tensor(np.full((3, 2), 5.0))
        h.grad = h_mark = ad.Tensor(np.zeros((4, 2)))
        out.backward(inputs=[x])
        assert w.grad is w_mark and h.grad is h_mark and out.grad is None
        (gx,) = ad.grad(out, [x])
        np.testing.assert_array_equal(bits(x.grad.data), bits(1.0 + gx.data))
        # a plain backward inside/after it tracks by requires_grad again
        w.zero_grad()
        out.backward()
        assert w.grad is not None

    def test_same_tensor_asked_twice(self):
        x = ad.Tensor(np.arange(3.0), requires_grad=True)
        x.grad = marker = ad.Tensor(np.ones(3))
        g1, g2 = ad.grad((x * x).sum(), [x, x])
        np.testing.assert_array_equal(g1.data, 2 * x.data)
        np.testing.assert_array_equal(g2.data, 2 * x.data)
        assert x.grad is marker

    def test_output_as_its_own_input_and_seed(self):
        x = ad.Tensor(np.arange(3.0), requires_grad=True)
        y = x * 2.0
        (gy,) = ad.grad(y, [y], seed=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(gy.data, [1.0, 2.0, 3.0])
        (gx,) = ad.grad(y, [x], seed=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(gx.data, [2.0, 4.0, 6.0])

    def test_inputs_may_be_any_iterable_and_the_seed_broadcasts(self):
        x = ad.Tensor(np.arange(3.0), requires_grad=True)
        w = ad.Tensor(np.full(3, 2.0), requires_grad=True)
        y = x * w
        gx, gw = ad.grad(y, (t for t in (x, w)), seed=2.0)
        np.testing.assert_array_equal(gx.data, 2.0 * w.data)
        np.testing.assert_array_equal(gw.data, 2.0 * x.data)
        y.backward(inputs=iter([x]))
        np.testing.assert_array_equal(x.grad.data, w.data)
        assert w.grad is None

    def test_requires_grad_is_not_flipped_so_create_graph_reaches_the_weights(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        e = (ad.silu(x @ w) ** 2).sum()
        (gx,) = ad.grad(e, [x], create_graph=True)
        assert w.requires_grad and x.requires_grad and gx.requires_grad
        assert w.grad is None
        (gx * gx).sum().backward()
        assert w.grad is not None and np.abs(w.grad.data).max() > 0
        # without create_graph the result is a constant
        (gx_plain,) = ad.grad(e, [x])
        assert not gx_plain.requires_grad
        np.testing.assert_array_equal(bits(gx_plain.data), bits(gx.data))

    def test_target_set_is_restored_after_an_exception(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        w = ad.Tensor(np.ones(3), requires_grad=True)

        def boom(g):
            raise RuntimeError("closure failed")

        bad = ad.Tensor._make(x.data * 2, (x,), boom)
        x.grad = marker = ad.Tensor(np.zeros(3))
        with pytest.raises(RuntimeError):
            ad.grad(bad.sum(), [x])
        assert x.grad is marker
        (x * w).sum().backward()  # w is tracked again: nothing left behind
        assert w.grad is not None

    def test_nested_call_inside_a_backward_closure(self):
        """An inner ad.grad has its own targets; the outer ones come back."""
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=3), requires_grad=True)
        w = ad.Tensor(rng.normal(size=3), requires_grad=True)
        inner_x = ad.Tensor(rng.normal(size=3), requires_grad=True)
        inner_w = ad.Tensor(rng.normal(size=3), requires_grad=True)
        inner_out = (inner_x * inner_w).sum()
        seen = {}

        def backward(g):
            (gi,) = ad.grad(inner_out, [inner_w])
            seen["inner"] = gi.data.copy()
            seen["x_tracked"], seen["w_tracked"] = x._track(), w._track()
            if x._track():
                x._accumulate(g * w)
            if w._track():
                w._accumulate(g * x)

        prod = ad.Tensor._make(x.data * w.data, (x, w), backward)
        (gx,) = ad.grad(prod.sum(), [x])
        np.testing.assert_array_equal(seen["inner"], inner_x.data)
        assert seen["x_tracked"] is True and seen["w_tracked"] is False
        np.testing.assert_array_equal(gx.data, w.data)
        assert w.grad is None and inner_x.grad is None and inner_w.grad is None


# -- model families -----------------------------------------------------------
def make_model(name):
    if name == "allegro":
        return AllegroModel(AllegroConfig(
            n_species=2, lmax=2, n_tensor=4, latent_dim=16, two_body_hidden=(16,),
            latent_hidden=(16,), edge_energy_hidden=(8,), r_cut=3.5,
            avg_num_neighbors=10.0))
    if name == "nequip":
        return NequIPModel(NequIPConfig(n_species=2, n_features=4, n_layers=2))
    if name == "deepmd":
        return DeepMDModel(DeepMDConfig(n_species=2))
    if name == "classical":
        return ClassicalForceField(ClassicalConfig(n_species=2))
    return LennardJones(epsilon=0.8, sigma=1.1, cutoff=3.0, n_species=2)


def make_system(seed, n=14, box=9.0):
    rng = np.random.default_rng(seed)
    return System(rng.uniform(0, box, size=(n, 3)), rng.integers(0, 2, size=n),
                  Cell.cubic(box))


def backward_forces(model, system, nl, n_active=None):
    """What every force call did before: a full ``.backward()``."""
    pos = ad.Tensor(system.positions, requires_grad=True)
    e_atoms = model.atomic_energies(pos, system.species, nl)
    (e_atoms if n_active is None else e_atoms[:n_active]).sum().backward()
    return e_atoms.data, -pos.grad.data


MODELS = ["allegro", "nequip", "deepmd", "classical", "lj"]


class TestModelForces:
    @pytest.mark.parametrize("name", MODELS)
    def test_evaluate_bitwise_equals_backward_and_touches_no_parameter(self, name):
        model, system = make_model(name), make_system(3)
        nl = neighbor_list(system, model.cutoff)
        model.zero_grad()
        e_ref, f_ref = backward_forces(model, system, nl)
        if name != "lj":
            assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        e_atoms, forces = model.evaluate(system.positions, system.species, nl)
        np.testing.assert_array_equal(bits(forces), bits(f_ref))
        np.testing.assert_array_equal(bits(e_atoms), bits(e_ref))
        assert all(p.grad is None for p in model.parameters())
        e, f = model.energy_and_forces(system, nl)
        assert e == float(e_ref.sum())
        np.testing.assert_array_equal(bits(f), bits(f_ref))
        # the owned-rows seed of the parallel driver
        _, f_owned = model.evaluate(system.positions, system.species, nl, n_active=9)
        np.testing.assert_array_equal(
            bits(f_owned), bits(backward_forces(model, system, nl, n_active=9)[1]))

    @pytest.mark.parametrize("name", ["allegro", "classical"])
    def test_training_gradient_unchanged_by_pruning(self, name):
        """∂/∂w of a force loss: the pruned first pass leaves it exact."""
        model, system = make_model(name), make_system(4)
        nl = neighbor_list(system, model.cutoff)

        def weight_grads(first_pass):
            model.zero_grad()
            pos = ad.Tensor(system.positions, requires_grad=True)
            e = model.atomic_energies(pos, system.species, nl).sum()
            gpos = first_pass(e, pos)
            (gpos * gpos).sum().backward()
            return [p.grad.data.copy() for p in model.parameters() if p.grad is not None]

        def unpruned(e, pos):  # every tracked leaf is a target: nothing pruned
            return ad.grad(e, [pos] + model.parameters(), create_graph=True)[0]

        pruned = weight_grads(lambda e, pos: ad.grad(e, [pos], create_graph=True)[0])
        full = weight_grads(unpruned)
        assert len(pruned) == len(full) > 0
        for a, b in zip(pruned, full):
            np.testing.assert_array_equal(bits(a), bits(b))


class TestConcurrentCalls:
    def test_eight_threads_do_not_see_each_others_targets(self):
        """Forces-only and full-backward passes interleaved on one model."""
        model = make_model("allegro")
        systems = [make_system(10 + k) for k in range(8)]
        nls = [neighbor_list(s, model.cutoff) for s in systems]
        expected = [model.evaluate(s.positions, s.species, nl)[1]
                    for s, nl in zip(systems, nls)]
        w = ad.Tensor(np.arange(1.0, 4.0), requires_grad=True)
        barrier = threading.Barrier(8)
        errors = []

        def work(k):
            try:
                barrier.wait()
                for _ in range(4):
                    s, nl = systems[k], nls[k]
                    if k % 2:
                        _, f = model.evaluate(s.positions, s.species, nl)
                        assert np.array_equal(bits(f), bits(expected[k]))
                    else:
                        # a thread outside ad.grad tracks by requires_grad,
                        # whatever target sets the other threads hold
                        x = ad.Tensor(np.ones(3), requires_grad=True)
                        local_w = ad.Tensor(w.data, requires_grad=True)
                        (x * local_w).sum().backward()
                        assert local_w.grad is not None and x.grad is not None
                        (gx,) = ad.grad((x * local_w).sum(), [x])
                        assert np.array_equal(gx.data, w.data)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append((k, exc))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert all(p.grad is None for p in model.parameters())

    def test_serve_eager_path_with_eight_workers(self):
        from repro.serve import Client, ForceServer

        lj = make_model("lj")
        systems = [make_system(30 + k, n=10 + k) for k in range(16)]
        with ForceServer(lj, engine="eager", n_workers=8, max_batch=2) as server:
            client = Client(server)
            futures = [client.submit(s) for s in systems]
            results = [f.result(timeout=60) for f in futures]
        for s, res in zip(systems, results):
            e, f = lj.energy_and_forces(s)
            assert res.energy == pytest.approx(e, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(res.forces, f, rtol=0, atol=1e-12)
