"""Kernel-equivalence properties for the fast paths in ``autodiff.kernels``.

Eager evaluation and compiled replay run the same kernels, so eager ≡ replay
holds by construction; what has to be pinned separately is that each fast
path computes what the plain numpy formulation it replaced computed —
bitwise where the arithmetic is unchanged (scatter, put, logistic), within a
tolerance fixed beforehand from the dtype where the summation order changed
(the three-operand tensor-product contraction) — and that the contraction
stays invariant to trailing pad rows, which is what lets a padded plan equal
the unpadded tape.  The contractions *over* the batch (the gradient of the
Clebsch-Gordan tensor, the weight gradient of a matmul) have no pad rows to
ignore; they are pinned to ``np.einsum`` / ``a.T @ g`` within a dtype
tolerance, and a sentinel at the end checks that a training step reaches
neither a large fallback ``einsum`` nor a padded small matmul.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.autodiff as ad
from repro.autodiff import kernels as K

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
           750.0, -750.0]

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
values = st.one_of(finite, st.sampled_from(SPECIAL))


def bits(a):
    """The raw bit pattern: distinguishes -0.0 from 0.0, unlike ``==``."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(bits(a), bits(b))


def masked_sigmoid(v):
    """The two-branch masked formulation ``sigmoid_np`` replaced."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


@st.composite
def scatter_cases(draw):
    n = draw(st.integers(0, 40))
    dim = draw(st.integers(1, 12))
    trailing = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    idx = np.array(draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n)),
                   dtype=draw(st.sampled_from([np.int64, np.int32])))
    if draw(st.booleans()):
        idx = np.sort(idx)
    size = n * int(np.prod(trailing, dtype=int))
    flat = draw(st.lists(values, min_size=size, max_size=size))
    src = np.array(flat, dtype=np.float64).reshape((n,) + trailing)
    return src, idx, dim


class TestScatterAdd:
    @given(scatter_cases(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equals_add_at(self, case, with_out):
        src, idx, dim = case
        ref = np.zeros((dim,) + src.shape[1:])
        np.add.at(ref, idx, src)
        # A dirty buffer: the kernel must not depend on what out held.
        out = np.full(ref.shape, np.nan) if with_out else None
        res = K.scatter_addk(out, src, idx, dim)
        if with_out:
            assert res is out
        assert_bitwise(res, ref)

    def test_non_float64_sources_keep_their_dtype(self):
        idx = np.array([2, 0, 2, 1])
        for dtype in (np.float32, np.int64):
            src = np.arange(8, dtype=dtype).reshape(4, 2)
            ref = np.zeros((3, 2), dtype)
            np.add.at(ref, idx, src)
            res = K.scatter_addk(None, src, idx, 3)
            assert res.dtype == dtype
            np.testing.assert_array_equal(res, ref)

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError):
            K.scatter_addk(None, np.ones((2, 3)), np.array([0, 5]), 4)


basic_indices = st.sampled_from([
    (Ellipsis, slice(1, 4)),
    (slice(None), slice(0, 1)),
    (slice(None, None, 2),),
    (slice(4, 1, -1), Ellipsis),
    Ellipsis,
    2,
    (1, 3),
    (Ellipsis, 0),
    (slice(1, 3), 2),
    (None, slice(0, 2)),
    slice(0, 0),
])


class TestPutAt:
    @given(basic_indices, st.data())
    @settings(max_examples=150, deadline=None)
    def test_basic_index_bitwise_equals_add_at(self, idx, data):
        shape = (5, 6)
        g_shape = np.empty(shape)[idx].shape
        size = int(np.prod(g_shape, dtype=int))
        flat = data.draw(st.lists(values, min_size=size, max_size=size))
        g = np.array(flat, dtype=np.float64).reshape(g_shape)
        assert K.is_basic_index(idx)
        ref = np.zeros(shape)
        np.add.at(ref, idx, g)
        assert_bitwise(K.put_at(None, g, idx, shape, np.float64), ref)
        out = np.full(shape, np.nan)
        assert K.put_at(out, g, idx, shape, np.float64) is out
        assert_bitwise(out, ref)

    def test_integer_array_index_accumulates_duplicates(self):
        idx = (slice(None), np.array([1, 1, 0]))
        g = np.arange(6.0).reshape(2, 3)
        assert not K.is_basic_index(idx)
        ref = np.zeros((2, 3))
        np.add.at(ref, idx, g)
        res = K.put_at(None, g, idx, (2, 3), np.float64)
        assert_bitwise(res, ref)
        assert res[0, 1] == g[0, 0] + g[0, 1]  # duplicates summed, not lost


class TestSigmoid:
    def test_bitwise_equals_masked_formulation_on_special_values(self):
        v = np.array(SPECIAL + [np.inf, -np.inf])
        assert_bitwise(K.sigmoid_np(v), masked_sigmoid(v))

    @given(st.lists(values, min_size=0, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equals_masked_formulation(self, xs):
        v = np.array(xs, dtype=np.float64)
        assert_bitwise(K.sigmoid_np(v), masked_sigmoid(v))
        out = np.full(v.shape, np.nan)
        assert K.sigmoidk(out, v) is out
        assert_bitwise(out, masked_sigmoid(v))

    def test_zero_dim_and_float32(self):
        assert float(K.sigmoid_np(np.array(0.0))) == 0.5
        v32 = np.array([-3.0, 0.0, 2.5], dtype=np.float32)
        res = K.sigmoid_np(v32)
        assert res.dtype == np.float32
        np.testing.assert_array_equal(res, masked_sigmoid(v32))


class TestSilu:
    def test_value_is_x_times_sigmoid(self):
        x = np.array(SPECIAL)
        assert_bitwise(ad.silu(ad.Tensor(x)).data, x * masked_sigmoid(x))

    def test_first_derivative_gradcheck(self):
        rng = np.random.default_rng(5)
        ad.gradcheck(ad.silu, [rng.normal(size=(4, 5)) * 3.0])

    def test_second_derivative_gradcheck(self):
        """d/dx of silu' — the backward closes over the forward's sigmoid,
        and the second derivative has to flow through that shared tensor."""
        rng = np.random.default_rng(6)

        def dsilu(x):
            xt = x if x.requires_grad else ad.Tensor(x.data, requires_grad=True)
            (g,) = ad.grad(ad.silu(xt).sum(), [xt], create_graph=True)
            return g

        ad.gradcheck(dsilu, [rng.normal(size=7) * 2.0])

    def test_recorded_as_sigmoid_then_mul(self):
        rec = ad.Recorder()
        with ad.recording(rec):
            ad.silu(ad.Tensor(np.linspace(-2, 2, 5)))
        assert [entry[1] for entry in rec.entries] == ["sigmoid", "mul"]
        assert "silu" not in K.KERNELS


TP_SPECS = ["zua,zub,abc->zuc", "zuc,zub,abc->zua", "zuc,zua,abc->zub",
            "za,zb,bac->zc"]


class TestBatchedContract:
    @given(
        st.sampled_from(TP_SPECS),
        st.integers(1, 300),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_operand_matches_einsum_and_ignores_pad_rows(
        self, spec, n_rows, n_pad, seed
    ):
        rng = np.random.default_rng(seed)
        lhs = spec.split("->")[0].split(",")
        dims = {"z": n_rows, "u": 4, "a": 9, "b": 5, "c": 7}
        x, y, w = (rng.normal(size=[dims[s] for s in sub]) for sub in lhs)
        res = K._batched_contract(spec, [x, y, w], None)
        assert res is not None
        # float64, contraction length <= 81, |terms| ~ 10: far inside 1e-12.
        np.testing.assert_allclose(res, np.einsum(spec, x, y, w), rtol=0, atol=1e-12)

        def padded(arr):
            pad = rng.normal(size=(n_pad,) + arr.shape[1:])
            return np.concatenate([arr, pad], axis=0)

        out = np.full((n_rows + n_pad,) + res.shape[1:], np.nan)
        res_pad = K._batched_contract(spec, [padded(x), padded(y), w], out)
        assert res_pad is out
        assert_bitwise(res_pad[:n_rows], res)

    def test_two_operand_writes_into_out(self):
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=(150, 4, 3)), rng.normal(size=(3, 9))
        out = np.full((150, 4, 9), np.nan)
        res = K.einsumk(out, x, w, spec="znl,ld->znd")
        assert res is out
        np.testing.assert_allclose(out, np.einsum("znl,ld->znd", x, w), atol=1e-12)
        assert_bitwise(out, K.einsumk(None, x, w, spec="znl,ld->znd"))


def assert_close_relative(res, ref, dtype):
    """Norm-wise relative error within 1e-12 (float64) / 1e-5 (float32)."""
    tol = 1e-12 if np.dtype(dtype) == np.float64 else 1e-5
    scale = max(float(np.abs(ref).max(initial=0.0)), np.finfo(np.float64).tiny)
    assert res.shape == ref.shape and res.dtype == np.dtype(dtype)
    assert float(np.abs(res - ref).max(initial=0.0)) <= tol * scale


class TestFullReduction:
    """``P+a, P+b, P+c -> abc``: the gradient of the Clebsch-Gordan tensor."""

    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=2),
        st.tuples(*[st.integers(1, 16)] * 3),
        st.permutations("abc"),
        st.permutations("abc"),
        st.sampled_from([np.float32, np.float64]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_einsum(self, prefix, sizes, in_order, out_order, dtype,
                            with_out, seed):
        rng = np.random.default_rng(seed)
        p = "zu"[: len(prefix)]
        dims = dict(zip("abc", sizes))
        spec = ",".join(p + c for c in in_order) + "->" + "".join(out_order)
        ops = [rng.normal(size=prefix + [dims[c]]).astype(dtype) for c in in_order]
        out = None
        if with_out:
            out = np.full([dims[c] for c in out_order], np.nan, dtype)
        res = K._batched_contract(spec, ops, out)
        assert res is not None and (out is None or res is out)
        ref = np.einsum(spec, *[o.astype(np.float64) for o in ops])
        assert_close_relative(res, ref.astype(dtype), dtype)
        assert_bitwise(res, K.einsumk(None, *ops, spec=spec))

    def test_the_three_specs_training_emits(self):
        rng = np.random.default_rng(0)
        x, y, g = (rng.normal(size=(50, 4, 9)) for _ in range(3))
        for spec in ("zuc,zua,zub->abc", "zua,zuc,zub->abc", "zub,zuc,zua->abc"):
            res = K._batched_contract(spec, [g, x, y], None)
            assert_close_relative(res, np.einsum(spec, g, x, y), np.float64)

    @pytest.mark.parametrize(
        "spec, shapes",
        [
            # a prefix letter survives into the output: not a full reduction
            ("zua,zub,zuc->uab", [(6, 4, 3)] * 3),
            # repeated trailing letter
            ("zua,zua,zub->ab", [(6, 4, 3)] * 3),
            # two operands only
            ("zua,zub->ab", [(6, 4, 3)] * 2),
            # prefixes differ
            ("zua,zub,zc->abc", [(6, 4, 3), (6, 4, 3), (6, 3)]),
            # np.einsum would broadcast the size-1 axis; reshape would not
            ("zua,zub,zuc->abc", [(6, 4, 3), (6, 1, 3), (6, 4, 3)]),
            # mixed dtypes
            ("za,zb,zc->abc", [(6, 3)] * 3),
        ],
    )
    def test_specs_that_must_not_match_fall_through(self, spec, shapes):
        rng = np.random.default_rng(1)
        ops = [rng.normal(size=s) for s in shapes]
        if spec == "za,zb,zc->abc":
            ops[0] = ops[0].astype(np.float32)
        assert K._batched_contract(spec, ops, None) is None
        assert_bitwise(K.einsumk(None, *ops, spec=spec), np.einsum(spec, *ops))

    def test_older_routes_still_taken(self, monkeypatch):
        """The batch-leading specs keep going through the blocked matmul."""
        calls = []
        real = K._blocked_matmul
        monkeypatch.setattr(
            K, "_blocked_matmul", lambda a, b, out: calls.append(a.shape) or real(a, b, out)
        )
        rng = np.random.default_rng(2)
        x, y, w = rng.normal(size=(7, 4, 9)), rng.normal(size=(7, 4, 5)), rng.normal(size=(9, 5, 7))
        K.einsumk(None, x, y, w, spec="zua,zub,abc->zuc")
        K.einsumk(None, x, rng.normal(size=(9, 3)), spec="zud,dl->zul")
        assert calls == [(28, 9), (28, 9)]
        K.einsumk(None, x, x, x, spec="zua,zub,zuc->abc")
        assert len(calls) == 2

    def test_gradient_of_cg_tensor_uses_it(self):
        """ad.einsum's backward for W builds exactly this spec."""
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(30, 4, 9)))
        y = ad.Tensor(rng.normal(size=(30, 4, 9)))
        w = ad.Tensor(rng.normal(size=(9, 9, 9)), requires_grad=True)
        rec = ad.Recorder()
        with ad.recording(rec):
            ad.einsum("zua,zub,abc->zuc", x, y, w).sum().backward()
        specs = [static["spec"] for _, op, _, static in rec.entries if op == "einsum"]
        assert specs == ["zua,zub,abc->zuc", "zuc,zua,zub->abc"]
        ref = np.einsum("zua,zub->ab", x.data, y.data)[:, :, None] * np.ones(9)
        assert_close_relative(w.grad.data, ref, np.float64)


class TestContractRows:
    """``aᵀ @ g``: the weight gradient of a 2-D matmul, as its own op."""

    @given(
        st.integers(0, 400),
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([np.float32, np.float64]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_transposed_product(self, m, k, n, dtype, with_out, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k)).astype(dtype)
        g = rng.normal(size=(m, n)).astype(dtype)
        out = np.full((k, n), np.nan, dtype) if with_out else None
        res = K.contract_rowsk(out, a, g)
        assert out is None or res is out
        ref = a.astype(np.float64).T @ g.astype(np.float64)
        assert_close_relative(res, ref.astype(dtype), dtype)

    def test_precision_hooks_apply_as_for_matmul(self):
        rng = np.random.default_rng(4)
        a, g = rng.normal(size=(20, 3)), rng.normal(size=(20, 2))
        ad.config.matmul_precision = lambda r: r.astype(np.float32).astype(np.float64)
        try:
            res = K.contract_rowsk(None, a, g)
        finally:
            ad.config.matmul_precision = None
        np.testing.assert_array_equal(res, (a.T @ g).astype(np.float32).astype(np.float64))

    def test_matmul_backward_emits_it_and_skips_the_tail_pad(self, monkeypatch):
        tails = []
        real = K._blocked_matmul

        def counting(a, b, out):
            if a.shape[0] % K._MM_BLOCK:
                tails.append(a.shape)
            return real(a, b, out)

        monkeypatch.setattr(K, "_blocked_matmul", counting)
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(256, 24)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(24, 12)), requires_grad=True)
        seed = rng.normal(size=(256, 12))
        rec = ad.Recorder()
        with ad.recording(rec):
            (x @ w).backward(seed)
        assert [op for _, op, _, _ in rec.entries] == [
            "matmul", "transpose", "matmul", "contract_rows"]
        assert tails == []  # 256 rows: two full blocks, and no [24, 256] pad
        assert_close_relative(w.grad.data, x.data.T @ seed, np.float64)
        assert_close_relative(x.grad.data, seed @ w.data.T, np.float64)

    def test_batched_operands_keep_the_matmul_route(self):
        rng = np.random.default_rng(6)
        a = ad.Tensor(rng.normal(size=(5, 7, 3)))
        w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        rec = ad.Recorder()
        with ad.recording(rec):
            (a @ w).sum().backward()
        assert "contract_rows" not in [op for _, op, _, _ in rec.entries]
        ref = np.einsum("bmk,bmn->kn", a.data, np.ones((5, 7, 2)))
        assert_close_relative(w.grad.data, ref, np.float64)

    def test_first_and_second_derivatives_gradcheck(self):
        from repro.autodiff.linalg import _contract_rows

        rng = np.random.default_rng(7)
        ad.gradcheck(_contract_rows, [rng.normal(size=(6, 3)), rng.normal(size=(6, 4))])
        v = ad.Tensor(rng.normal(size=(4, 1)))

        def tracked(t):  # the numerical pass hands in plain tensors
            return t if t.requires_grad else ad.Tensor(t.data, requires_grad=True)

        def weight_grad_norm(x, w):
            """‖∂E/∂w‖² for E = Σ silu(x w) v: differentiates contract_rows."""
            x, w = tracked(x), tracked(w)
            (gw,) = ad.grad((ad.silu(x @ w) @ v).sum(), [w], create_graph=True)
            return (gw * gw).sum()

        ad.gradcheck(weight_grad_norm, [rng.normal(size=(6, 3)), rng.normal(size=(3, 4))])


class TestGather:
    """One gather for eager and replay: ``np.take`` on both sides."""

    @given(
        st.integers(1, 30),
        st.sampled_from([(), (3,), (2, 3)]),
        st.sampled_from([(0,), (17,), (4, 5), (2, 1, 3)]),
        st.sampled_from([np.int64, np.int32]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equals_fancy_index(self, n_rows, trailing, idx_shape, idx_dtype,
                                        with_out, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_rows,) + trailing)
        a.flat[:: 3] = rng.choice(SPECIAL, size=a.flat[:: 3].shape)
        # negative entries count from the end, as in a[idx]
        idx = rng.integers(-n_rows, n_rows, size=idx_shape).astype(idx_dtype)
        out = np.full(idx_shape + trailing, np.nan) if with_out else None
        res = K.gatherk(out, a, idx)
        assert out is None or res is out
        assert_bitwise(res, a[idx])
        if not with_out:
            assert not np.shares_memory(res, a)

    def test_out_of_range_raises_on_both_sides(self):
        a = np.zeros((3, 2))
        for out in (None, np.zeros((1, 2))):
            with pytest.raises(IndexError):
                K.gatherk(out, a, np.array([3]))

    def test_op_forward_with_negative_and_2d_index(self):
        x = np.arange(12.0).reshape(4, 3)
        idx = np.array([[0, -1], [2, -4]])
        np.testing.assert_array_equal(ad.gather(x, idx).data, x[idx])


class TestOutBufferEqualsAllocation:
    """``kernel(out, ...)`` leaves in ``out`` exactly what ``kernel(None, ...)``
    returns — the eager tape takes the first form whenever its arena serves
    the buffer, so the two must agree bit for bit, dirty buffer or not."""

    # what the models raise to, and what differentiating those once gives
    EXPONENTS = [2.0, 0.5, -1.0, 3.0, 5.0, 6.0, 7.0, 1.0, 0.0, -0.5, -2.0, 4.0, -7.0]

    @staticmethod
    def same_bits(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("e", EXPONENTS)
    def test_pow_mirrors_ndarray_pow(self, e, dtype):
        rng = np.random.default_rng(7)
        with np.errstate(all="ignore"):
            a = np.concatenate([
                rng.normal(scale=3.0, size=4000), rng.uniform(0.0, 3.0, size=4000),
                [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, 1e300, -1e300],
            ]).astype(dtype)
            ref = a**e
            alloc = K.powk(None, a, e)
            out = np.full(a.shape, np.nan, dtype)
            assert K.powk(out, a, e) is out
        self.same_bits(alloc, ref)
        self.same_bits(out, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_select(self, dtype):
        rng = np.random.default_rng(8)
        cond = (rng.random((50, 1)) < 0.5).astype(np.float64)
        a = rng.normal(size=(50, 4)).astype(dtype)
        b = np.asarray(-0.0, dtype=dtype)  # a scalar branch, as safe masks use
        ref = np.where(cond != 0, a, b)
        out = np.full(ref.shape, np.nan, ref.dtype)
        assert K.selectk(out, cond, a, b) is out
        self.same_bits(out, ref)
        self.same_bits(K.selectk(None, cond, a, b), ref)

    @pytest.mark.parametrize("src,dst", [
        (np.float64, np.float32), (np.float32, np.float64), (np.int64, np.float64),
    ])
    def test_astype(self, src, dst):
        a = (np.random.default_rng(9).normal(size=(30, 3)) * 1e3).astype(src)
        out = np.full(a.shape, 7, dst)
        assert K.astype(out, a, dst) is out
        self.same_bits(out, a.astype(dst))
        self.same_bits(K.astype(None, a, dst), a.astype(dst))

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_concat(self, axis):
        rng = np.random.default_rng(10)
        parts = [rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 3, 2)).astype(np.float32)]
        ref = np.concatenate(parts, axis=axis)
        out = np.full(ref.shape, np.nan, ref.dtype)
        assert K.concatk(out, *parts, axis=axis) is out
        self.same_bits(out, ref)
        self.same_bits(K.concatk(None, *parts, axis=axis), ref)

    def test_every_kernel_the_arena_serves_is_unchanged_by_it(self):
        """Above the size floor, inside a scope, each routed kernel writes
        into an arena block what it returns outside one."""
        from repro.autodiff import arena

        rng = np.random.default_rng(11)
        n = 20_000  # 160 kB per float64 column: above the floor
        x, y = rng.normal(size=n), rng.normal(size=(n, 1)) + 3.0
        pos, m = np.abs(x) + 0.1, rng.normal(size=(n, 8))
        idx = rng.integers(0, 500, size=n)
        w2, w3 = rng.normal(size=(8, 5)), rng.normal(size=(3, 4, 5))
        calls = {
            "add": lambda: K.add(None, x, y[:, 0]),
            "sub": lambda: K.sub(None, m, y),  # broadcast
            "mul": lambda: K.mul(None, m, np.float64(2.5)),
            "div": lambda: K.div(None, x, y[:, 0]),
            "neg": lambda: K.neg(None, m),
            "pow": lambda: K.powk(None, pos, 6.0),
            "astype": lambda: K.astype(None, m, np.float32),
            "exp": lambda: K.expk(None, x),
            "log": lambda: K.logk(None, pos),
            "sin": lambda: K.sink(None, x),
            "cos": lambda: K.cosk(None, x),
            "sqrt": lambda: K.sqrtk(None, pos),
            "tanh": lambda: K.tanhk(None, x),
            "sigmoid": lambda: K.sigmoidk(None, x * 30),
            "abs": lambda: K.absk(None, x),
            "sign": lambda: K.signk(None, x),
            "maximum": lambda: K.maximumk(None, x, y[:, 0]),
            "minimum": lambda: K.minimumk(None, x, y[:, 0]),
            "select": lambda: K.selectk(None, (x > 0).astype(np.float64), x, pos),
            "gather": lambda: K.gatherk(None, m[:500], idx),
            "scatter_add": lambda: K.scatter_addk(None, m, idx * 40, 20_000),
            "put_at": lambda: K.put_at(None, m[:, :4], (slice(None), slice(2, 6)), m.shape, np.float64),
            "concat": lambda: K.concatk(None, m, m[:, :3], axis=-1),
            "matmul": lambda: K.matmulk(None, m, w2),
            "einsum_tp": lambda: K.einsumk(None, m[:, :3], m[:, 3:7], w3, spec="za,zb,abc->zc"),
            "einsum_mix": lambda: K.einsumk(None, m.reshape(n, 2, 4), w3[0], spec="zuk,km->zum"),
        }
        for name, call in calls.items():
            plain = call()
            assert plain.base is None or plain.base.dtype != np.uint8, name
            with arena.scope():
                served = call()
                assert served.base is not None and served.base.dtype == np.uint8, name
                with ad.no_grad():  # recording off: malloc, as outside a scope
                    assert call().base is None, name
                self.same_bits(served, plain)
                del served


class TestAliasKernelsHonorOut:
    """Given a buffer, even a view op must leave its result in the buffer."""

    def test_copying_reshape_and_scalar_slice(self):
        a = np.arange(12.0).reshape(3, 4)
        out = np.full((12,), np.nan)
        assert K.reshape(out, a.T, (12,)) is out
        np.testing.assert_array_equal(out, a.T.reshape(12))
        cell = np.full((), np.nan)
        assert K.slice_(cell, a, (1, 2)) is cell
        assert float(cell) == a[1, 2]


class TestTrainingStepStaysOffTheSlowRoutes:
    """Sentinel: one Allegro ℓmax=2 training step, slow routes counted.

    ``np.einsum`` is reached only as the fallback of ``einsumk``; what is
    left there must be small (the ℓ ≤ 2 spherical-harmonic recursion and
    the per-channel scalings, < 10⁵ multiply-adds on one 81-atom frame).
    ``_blocked_matmul`` pads its last row block to 128 rows; a call whose
    operand has fewer than 64 rows altogether is a weight gradient (layer
    width × edges) that should have been a ``contract_rows``.
    """

    def test_no_large_fallback_einsum_and_no_small_padded_matmul(self, monkeypatch):
        from repro.data import label_frames, perturbed_water_frames
        from repro.models import AllegroConfig, AllegroModel
        from repro.nn import TrainConfig, Trainer

        frames = label_frames(perturbed_water_frames(1, seed=5, sigma=0.05, n_grid=3))
        model = AllegroModel(
            AllegroConfig(
                n_species=4, lmax=2, n_tensor=4, n_layers=2, latent_dim=24,
                two_body_hidden=(24,), latent_hidden=(32,), edge_energy_hidden=(16,),
                r_cut=3.5, avg_num_neighbors=14.0, seed=0,
            )
        )
        trainer = Trainer(model, frames, config=TrainConfig(lr=5e-3, batch_size=1, seed=0))

        fallbacks, small_tails, routed = [], [], []
        real_einsum, real_blocked, real_contract = (
            np.einsum, K._blocked_matmul, K._batched_contract)

        def einsum(spec, *ops, **kw):
            sizes = {}
            for sub, op in zip(spec.split("->")[0].split(","), ops):
                sizes.update(zip(sub, np.shape(op)))
            fallbacks.append((spec, math.prod(sizes.values())))
            return real_einsum(spec, *ops, **kw)

        def blocked(a, b, out):
            if a.shape[0] < K._MM_BLOCK // 2:
                small_tails.append((a.shape, b.shape))
            return real_blocked(a, b, out)

        def contract(spec, operands, out):
            res = real_contract(spec, operands, out)
            if res is not None:
                routed.append(spec)
            return res

        monkeypatch.setattr(np, "einsum", einsum)
        monkeypatch.setattr(K, "_blocked_matmul", blocked)
        monkeypatch.setattr(K, "_batched_contract", contract)
        trainer.fit(epochs=1)
        monkeypatch.undo()

        assert fallbacks, "the wrapper saw no einsum: the sentinel is not wired in"
        assert max(n for _, n in fallbacks) <= 10**5, sorted(set(fallbacks))
        assert small_tails == []
        # ... because the work went where it was meant to go
        for spec in ("zuc,zua,zub->abc", "zua,zuc,zub->abc", "zub,zuc,zua->abc"):
            assert spec in routed
        assert np.isfinite(trainer.history[-1].train_loss)
