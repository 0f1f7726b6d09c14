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
tolerance.  The routes of DESIGN §22 — the stacked block matmul, the static
tensor in any einsum slot, the channel-wise specs, the middle- and short
last-axis sums — each
get (i) equality with what they replaced, (ii) pad-invariance, (iii) the
non-contiguous case; two threads replay two plans of one model; the precision
hooks bypass every route; and a sentinel at the end checks that neither a
training step nor a compiled force call hands ``np.einsum`` an edge-length
operand.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # A 247-term float32 sum that cancels to ~1 % of its terms' magnitude.
    @example(m=247, k=1, n=1, dtype=np.float32, with_out=False, seed=247)
    def test_kernel_matches_transposed_product(self, m, k, n, dtype, with_out, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k)).astype(dtype)
        g = rng.normal(size=(m, n)).astype(dtype)
        out = np.full((k, n), np.nan, dtype) if with_out else None
        res = K.contract_rowsk(out, a, g)
        assert out is None or res is out
        a64, g64 = a.astype(np.float64), g.astype(np.float64)
        # Each element is a sum over rows: its rounding error scales with
        # the sum of its terms' magnitudes, not with the largest result.
        tol = 1e-12 if np.dtype(dtype) == np.float64 else 1e-5
        assert res.shape == (k, n) and res.dtype == np.dtype(dtype)
        assert (np.abs(res - a64.T @ g64) <= tol * (np.abs(a64).T @ np.abs(g64))).all()

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


def blocked_loop(a, b):
    """``_blocked_matmul`` as it was: one ``np.matmul`` per 128-row block in
    a Python loop, the tail zero-padded to a full block."""
    M, blk = a.shape[0], K._MM_BLOCK
    res = np.empty((M, b.shape[1]), np.result_type(a, b))
    full = (M // blk) * blk
    for s in range(0, full, blk):
        np.matmul(a[s : s + blk], b, out=res[s : s + blk])
    if M - full:
        tail = np.zeros((blk, a.shape[1]), res.dtype)
        tail[: M - full] = a[full:]
        res[full:] = np.matmul(tail, b)[: M - full]
    return res


# M around multiples of the block size, M < 128 included
row_counts = st.builds(
    lambda blocks, off: max(1, blocks * 128 + off), st.integers(0, 5), st.integers(-3, 3)
)
PLAN_KN = [(3, 9), (9, 3), (9, 81), (32, 28), (24, 32), (3, 15), (8, 24), (16, 1), (1, 16)]


class TestBlockedMatmul:
    """One stacked ``np.matmul`` over the full blocks ≡ the block loop."""

    @given(row_counts, st.sampled_from(PLAN_KN), st.booleans(), st.booleans(),
           st.sampled_from([np.float64, np.float32]), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equals_the_block_loop(self, m, kn, b_transposed, with_out, dtype, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, kn[0])).astype(dtype)
        b = rng.normal(size=kn).astype(dtype)
        if b_transposed:  # the backward pass multiplies by a transposed view
            b = np.ascontiguousarray(b.T).T
        out = np.full((m, kn[1]), np.nan, dtype) if with_out else None
        res = K._blocked_matmul(a, b, out)
        assert out is None or res is out
        assert res.tobytes() == blocked_loop(a, b).tobytes()

    @given(row_counts, st.integers(1, 200), st.sampled_from(PLAN_KN), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_pad_rows_never_reach_real_rows(self, m, n_pad, kn, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, kn[0])), rng.normal(size=kn)
        padded = np.concatenate([a, rng.normal(size=(n_pad, kn[0]))])
        assert_bitwise(K._blocked_matmul(padded, b, None)[:m], K._blocked_matmul(a, b, None))

    def test_non_contiguous_operand_or_out_keeps_the_loop(self, monkeypatch):
        """A reshape of a non-contiguous ``out`` is a copy: the stacked call
        would write there and lose the result."""
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(300, 6)), rng.normal(size=(6, 4))
        ref = blocked_loop(a, b)
        stacked = []
        real = np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda x, y, **kw: stacked.append(x.ndim) or real(x, y, **kw))
        wide = np.full((300, 8), np.nan)
        out = wide[:, ::2]  # every other column: not contiguous
        assert K._blocked_matmul(a, b, out) is out
        assert_bitwise(out, ref)
        assert np.isnan(wide[:, 1::2]).all()
        a_strided = np.asfortranarray(a)
        assert not a_strided.flags.c_contiguous
        np.testing.assert_allclose(K._blocked_matmul(a_strided, b, None), ref, rtol=0, atol=1e-13)
        assert 3 not in stacked  # neither call took the stacked route ...
        K._blocked_matmul(a, b, None)
        assert stacked[-2:] == [3, 2]  # ... which contiguous operands do: blocks, tail

    def test_matmul_kernel_routes_2d_float_operands_through_it(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(700, 5)), rng.normal(size=(5, 7))
        assert_bitwise(K.matmulk(None, a, b), blocked_loop(a, b))


SH_SPECS = ["abc,za,zb->zc", "zc,abc,za->zb", "zc,abc,zb->za", "za,abc,zb->zc"]


class TestStaticTensorInAnySlot:
    """``P+a, P+b, W -> P+c`` with ``W`` first or second: the spherical-
    harmonic product and its gradients take the GEMM route too."""

    @given(st.sampled_from(SH_SPECS), st.integers(1, 300), st.integers(1, 200),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_einsum_and_ignores_pad_rows(self, spec, n_rows, n_pad, with_out, seed):
        rng = np.random.default_rng(seed)
        lhs, rhs = spec.split("->")
        dims = {"z": n_rows, "a": 3, "b": 3, "c": 5}
        ops = [rng.normal(size=[dims[s] for s in sub]) for sub in lhs.split(",")]
        out = np.full([dims[s] for s in rhs], np.nan) if with_out else None
        res = K._batched_contract(spec, ops, out)
        assert res is not None and (out is None or res is out)
        # float64, nine terms of size ~1 per element: far inside 1e-12
        np.testing.assert_allclose(res, np.einsum(spec, *ops), rtol=0, atol=1e-12)

        padded = [
            np.concatenate([o, rng.normal(size=(n_pad,) + o.shape[1:])])
            if sub[0] == "z" else o
            for sub, o in zip(lhs.split(","), ops)
        ]
        assert_bitwise(K._batched_contract(spec, padded, None)[:n_rows], res)

    def test_operand_order_decides_which_side_meets_the_tensor_first(self):
        """The first batch operand goes through the GEMM, whatever the slot
        of the tensor: the specs the plan had before keep their bits."""
        rng = np.random.default_rng(14)
        x, y, w = rng.normal(size=(40, 3)), rng.normal(size=(40, 4)), rng.normal(size=(3, 4, 5))
        last = K.einsumk(None, x, y, w, spec="za,zb,abc->zc")
        assert_bitwise(K.einsumk(None, w, x, y, spec="abc,za,zb->zc"), last)
        assert_bitwise(K.einsumk(None, x, w, y, spec="za,abc,zb->zc"), last)

    @given(st.sampled_from(TP_SPECS + SH_SPECS), st.integers(1, 2500), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_chunks_do_not_change_a_bit(self, spec, n_rows, seed):
        """Chunk boundaries sit on matmul block boundaries."""
        rng = np.random.default_rng(seed)
        dims = {"z": n_rows, "u": 2, "a": 4, "b": 3, "c": 5}
        ops = [rng.normal(size=[dims[s] for s in sub]) for sub in spec.split("->")[0].split(",")]
        chunked = K._batched_contract(spec, ops, None)
        real = K._TP_CHUNK
        K._TP_CHUNK = 10**9
        try:
            whole = K._batched_contract(spec, ops, None)
        finally:
            K._TP_CHUNK = real
        assert_bitwise(chunked, whole)

    def test_spherical_harmonics_reach_it(self, monkeypatch):
        from repro.equivariant import spherical_harmonics

        fallbacks = []
        real = np.einsum
        monkeypatch.setattr(
            np, "einsum", lambda spec, *ops, **kw: fallbacks.append(spec) or real(spec, *ops, **kw))
        r = ad.Tensor(np.random.default_rng(15).normal(size=(50, 3)), requires_grad=True)
        spherical_harmonics(2, r).sum().backward()
        assert [s for s in fallbacks if "z" in s] == []  # setup constants aside


@st.composite
def channel_cases(draw):
    """``x [Z, u]`` and ``y, y2 [Z, u, m]``, the latter as the strided
    slices of a wider block the model hands in, or contiguous."""
    z, u, m = draw(st.integers(1, 40)), draw(st.integers(1, 5)), draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(z, u))
    wide, wide2 = rng.normal(size=(2, z, u, m + 3))
    specials = rng.choice(SPECIAL, size=(z, u))
    x = np.where(rng.random((z, u)) < 0.2, specials, x)
    if draw(st.booleans()):
        return x, wide[..., 2 : 2 + m], wide2[..., 1 : 1 + m]
    return x, wide[..., :m].copy(), wide2[..., :m].copy()


class TestChannelwiseRoutes:
    """``zu,zum->zum`` and ``zum,zum->zu`` leave c_einsum."""

    @given(channel_cases(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_scaling_is_bitwise_einsum_in_either_operand_order(self, case, swapped, with_out):
        """... up to the sign of a zero product: c_einsum adds every product
        to a zeroed output, so its -0.0 comes out +0.0; the multiply keeps
        IEEE's sign.  Adding +0.0 to the result is exactly that step."""
        x, y, _ = case
        spec, ops = ("zum,zu->zum", [y, x]) if swapped else ("zu,zum->zum", [x, y])
        with np.errstate(all="ignore"):
            ref = np.einsum(spec, *[np.ascontiguousarray(o) for o in ops])
            out = np.full(y.shape, np.nan) if with_out else None
            res = K._batched_contract(spec, ops, out)
        assert res is not None and (out is None or res is out)
        np.testing.assert_array_equal(res, ref)
        assert_bitwise(res + 0.0, ref)

    @given(channel_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_dot_over_m_matches_einsum_to_rounding(self, case, with_out):
        _, y, y2 = case
        out = np.full(y.shape[:-1], np.nan) if with_out else None
        res = K._batched_contract("zum,zum->zu", [y, y2], out)
        assert res is not None and (out is None or res is out)
        # <= 7 products of size ~1, float64: a few ulp of the largest term
        ref = np.einsum("zum,zum->zu", y, y2)
        scale = np.abs(y * y2).sum(axis=-1).max(initial=1.0)
        assert float(np.abs(res - ref).max(initial=0.0)) <= 1e-14 * scale

    @given(channel_cases(), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_pad_rows_never_reach_real_rows(self, case, n_pad):
        x, y, y2 = case
        rng = np.random.default_rng(n_pad)

        def padded(arr):
            return np.concatenate([arr, rng.normal(size=(n_pad,) + arr.shape[1:])])

        z = x.shape[0]
        for spec, ops in (("zu,zum->zum", [x, y]), ("zum,zum->zu", [y, y2])):
            with np.errstate(all="ignore"):
                res = K._batched_contract(spec, ops, None)
                res_pad = K._batched_contract(spec, [padded(o) for o in ops], None)
            assert_bitwise(res_pad[:z], res)

    def test_layout_of_the_operands_does_not_change_the_bits(self):
        """Eager holds slices of a wider block, a plan may hold copies."""
        rng = np.random.default_rng(16)
        wide, wide2 = rng.normal(size=(2, 30, 4, 9))
        x = rng.normal(size=(30, 4))
        for spec, ops in (
            ("zu,zum->zum", [x, wide[..., 4:9]]),
            ("zum,zum->zu", [wide[..., 1:4], wide2[..., 1:4]]),
        ):
            assert not ops[1].flags.c_contiguous
            assert_bitwise(
                K.einsumk(None, *ops, spec=spec),
                K.einsumk(None, *[np.ascontiguousarray(o) for o in ops], spec=spec),
            )

    def test_shapes_einsum_would_broadcast_fall_through(self):
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=(6, 1)), rng.normal(size=(6, 4, 3))
        assert K._batched_contract("zu,zum->zum", [x, y], None) is None
        assert K._batched_contract("zum,zum->zu", [y, y[:, :1]], None) is None
        assert_bitwise(K.einsumk(None, x, y, spec="zu,zum->zum"), np.einsum("zu,zum->zum", x, y))

    def test_scalar_output_tensor_product_uses_both(self, monkeypatch):
        from repro.equivariant import ScalarOutputTensorProduct, StridedLayout

        fallbacks = []
        real = np.einsum
        monkeypatch.setattr(
            np, "einsum", lambda spec, *ops, **kw: fallbacks.append(spec) or real(spec, *ops, **kw))
        layout = StridedLayout.spherical(2, mul=4)
        tp = ScalarOutputTensorProduct(layout, layout)
        rng = np.random.default_rng(18)
        x = ad.Tensor(rng.normal(size=(20, 4, layout.dim)), requires_grad=True)
        y = ad.Tensor(rng.normal(size=(20, 4, layout.dim)), requires_grad=True)
        tp(x, y).sum().backward()
        assert [s for s in fallbacks if "z" in s] == []


class TestMiddleAxisSum:
    """``[Z, u, d] -> [Z, 1, d]`` as ``u - 1`` whole-slice adds."""

    @given(st.integers(0, 40), st.integers(1, 10), st.integers(1, 12), st.booleans(),
           st.booleans(), st.sampled_from([1, -2, (1,)]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equals_add_reduce(self, z, u, d, keepdims, with_out, axis, data):
        flat = data.draw(st.lists(values, min_size=z * u * d, max_size=z * u * d))
        a = np.array(flat, dtype=np.float64).reshape(z, u, d)
        ref = a.sum(axis=axis, keepdims=keepdims)
        out = np.full(ref.shape, np.nan) if with_out else None
        res = K.sumk(out, a, axis, keepdims)
        assert out is None or res is out
        assert_bitwise(res, ref)

    def test_the_strided_route_is_the_one_taken(self):
        a = np.random.default_rng(19).normal(size=(50, 4, 9))
        assert K._slice_sum_axis(a, (1,)) == 1
        assert K._slice_sum_axis(a, -2) == 1
        four_d = a.reshape(10, 5, 4, 9)
        assert K._slice_sum_axis(four_d, 2) == 2
        assert_bitwise(K.sumk(None, four_d, 2, True), four_d.sum(axis=2, keepdims=True))
        # ... and where add.reduce sums in another order, it is left alone
        for arr, axis in (
            (a, -1), (a, 0), (a, (0, 1)), (a, None),  # 9-term last, first, two axes, all
            (np.zeros((5, 8, 1)), 1),  # 8 terms, one element behind: a pairwise sum
            (a.transpose(0, 2, 1), 1),  # not C-contiguous
            (np.zeros((5, 9, 3)), 1),  # longer than _SUM_MAX_TERMS
            (np.zeros((5, 1, 3)), 1),  # nothing to add
            (np.zeros((5, 4, 3), np.int64), 1),
        ):
            assert K._slice_sum_axis(arr, axis) is None
            assert_bitwise(
                np.asarray(K.sumk(None, arr, axis, True), dtype=np.float64),
                np.asarray(arr.sum(axis=axis, keepdims=True), dtype=np.float64),
            )

    @given(st.integers(1, 30), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_pad_rows_never_reach_real_rows(self, z, n_pad):
        rng = np.random.default_rng(z * 31 + n_pad)
        a = rng.normal(size=(z, 4, 9))
        padded = np.concatenate([a, rng.normal(size=(n_pad, 4, 9))])
        assert_bitwise(K.sumk(None, padded, (1,), True)[:z], K.sumk(None, a, (1,), True))


class TestLastAxisSum:
    """``[E, k] -> [E, 1]`` for k = 2…7 as ``k - 1`` whole-column adds: below 8
    terms numpy's pairwise sum of an inner-loop axis is the same running sum
    from 0; from 8 terms it is not, and those stay with ``add.reduce``."""

    inf_nan = st.one_of(values, st.sampled_from([np.inf, -np.inf, np.nan]))

    @given(st.integers(0, 40), st.integers(2, 7), st.booleans(), st.booleans(),
           st.sampled_from([1, -1, (1,)]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equals_add_reduce(self, e, k, keepdims, with_out, axis, data):
        flat = data.draw(st.lists(self.inf_nan, min_size=e * k, max_size=e * k))
        a = np.array(flat, dtype=np.float64).reshape(e, k)
        assert K._slice_sum_axis(a, axis) == 1
        with np.errstate(invalid="ignore"):
            ref = np.add.reduce(a, axis=axis, keepdims=keepdims)
            out = np.full(ref.shape, np.nan) if with_out else None
            res = K.sumk(out, a, axis, keepdims)
        assert out is None or res is out
        assert_bitwise(res, ref)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_signed_zeros_and_infinities(self, k):
        a = np.array([[-0.0] * k, [0.0] + [-0.0] * (k - 1), [np.inf] + [-np.inf] * (k - 1),
                      [np.nan] + [1.0] * (k - 1), [1e308] * k])
        with np.errstate(invalid="ignore", over="ignore"):
            assert_bitwise(K.sumk(None, a, -1, True), np.add.reduce(a, axis=-1, keepdims=True))
            assert_bitwise(K.sumk(None, a, -1, False), np.add.reduce(a, axis=-1))

    def test_a_trailing_length_one_axis_is_still_the_inner_loop(self):
        a = np.random.default_rng(20).normal(size=(30, 5, 1, 1))
        assert K._slice_sum_axis(a, 1) == 1
        assert_bitwise(K.sumk(None, a, 1, True), a.sum(axis=1, keepdims=True))

    def test_eight_terms_and_strided_inputs_fall_through(self):
        rng = np.random.default_rng(21)
        wide = rng.normal(size=(40, 9))
        for arr in (
            rng.normal(size=(40, 8)),  # the pairwise unroll starts
            wide[:, :3],  # a column slice of a wider block
            rng.normal(size=(3, 40)).T,  # a transpose
            rng.normal(size=(40, 1)),  # nothing to add
            rng.normal(size=4),  # one axis
        ):
            assert K._slice_sum_axis(arr, -1) is None
            assert_bitwise(K.sumk(None, arr, -1, True), arr.sum(axis=-1, keepdims=True))
        assert K._slice_sum_axis(np.zeros((40, 8, 2)), 1) == 1  # a middle axis may take 8

    @given(st.integers(1, 30), st.integers(1, 20), st.integers(2, 7))
    @settings(max_examples=30, deadline=None)
    def test_pad_rows_never_reach_real_rows(self, e, n_pad, k):
        rng = np.random.default_rng(e * 31 + n_pad * 7 + k)
        a = rng.normal(size=(e, k))
        padded = np.concatenate([a, rng.normal(size=(n_pad, k))])
        assert_bitwise(K.sumk(None, padded, -1, True)[:e], K.sumk(None, a, -1, True))


class TestGatherIntoABuffer:
    """In bounds, ``np.take(..., out=, mode="clip")``: no staging copy."""

    def test_clip_mode_is_taken_only_for_checked_indices(self, monkeypatch):
        modes = []
        real = np.take
        monkeypatch.setattr(
            np, "take", lambda a, idx, **kw: modes.append(kw.get("mode", "raise")) or real(a, idx, **kw))
        monkeypatch.setattr(K, "_GATHER_CHECKED_MIN", 9)
        a = np.arange(12.0).reshape(4, 3)
        out = np.full((3, 3), np.nan)
        K.gatherk(out, a, np.array([3, 0, 3]))
        np.testing.assert_array_equal(out, a[[3, 0, 3]])
        K.gatherk(out, a, np.array([3, -1, 0]))  # a negative index counts from the end
        np.testing.assert_array_equal(out, a[[3, -1, 0]])
        K.gatherk(None, a, np.array([1, 2]))
        small = np.full((2, 3), np.nan)  # below the size where checking pays
        K.gatherk(small, a, np.array([1, 2]))
        np.testing.assert_array_equal(small, a[[1, 2]])
        with pytest.raises(IndexError):
            K.gatherk(out, a, np.array([0, 4, 1]))
        assert modes == ["clip", "raise", "raise", "raise", "raise"]

    @given(st.integers(1, 30), st.sampled_from([(3,), (2, 3)]), st.sampled_from([(17,), (4, 5)]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equals_fancy_index(self, n_rows, trailing, idx_shape, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_rows,) + trailing)
        a.flat[::3] = rng.choice(SPECIAL, size=a.flat[::3].shape)
        idx = rng.integers(0, n_rows, size=idx_shape)
        real = K._GATHER_CHECKED_MIN
        K._GATHER_CHECKED_MIN = 0
        try:
            out = K.gatherk(np.full(idx_shape + trailing, np.nan), a, idx)
        finally:
            K._GATHER_CHECKED_MIN = real
        assert_bitwise(out, a[idx])


class TestSigmoidScratch:
    def test_out_may_be_the_operand(self):
        """sigmoid is not an INPLACE_OPS member today, but a caller that
        passes ``out=v`` must get the same bits."""
        v = np.array(SPECIAL + [np.inf, -np.inf, 3.0, -3.0])
        ref = masked_sigmoid(v)
        w = v.copy()
        assert K.sigmoid_np(w, out=w) is w
        assert_bitwise(w, ref)
        w32 = v.astype(np.float32)
        ref32 = K.sigmoid_np(w32.copy())
        K.sigmoid_np(w32, out=w32)
        assert w32.dtype == np.float32 and w32.tobytes() == ref32.tobytes()

    def test_one_scratch_array(self, monkeypatch):
        made = []
        real = np.empty_like
        monkeypatch.setattr(np, "empty_like", lambda a, **kw: made.append(1) or real(a, **kw))
        v = np.linspace(-5, 5, 64).reshape(8, 8)
        K.sigmoid_np(v, out=np.empty_like(v))
        assert len(made) == 2  # this test's own buffer and the kernel's scratch


class TestWideScatter:
    """Eight columns or more: one bincount over (row, column) bins."""

    @given(st.integers(0, 40), st.integers(1, 12), st.sampled_from([(8,), (4, 9), (2, 2, 3)]),
           st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equals_add_at(self, n, dim, trailing, with_out, data):
        width = math.prod(trailing)
        assert width >= K._SCATTER_FLAT_COLS
        idx = np.array(data.draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n)),
                       dtype=data.draw(st.sampled_from([np.int64, np.int32])))
        flat = data.draw(st.lists(values, min_size=n * width, max_size=n * width))
        src = np.array(flat, dtype=np.float64).reshape((n,) + trailing)
        ref = np.zeros((dim,) + trailing)
        np.add.at(ref, idx, src)
        out = np.full(ref.shape, np.nan) if with_out else None
        res = K.scatter_addk(out, src, idx, dim)
        assert out is None or res is out
        assert_bitwise(res, ref)

    def test_out_of_range_index_raises_instead_of_landing_next_door(self):
        src = np.ones((3, 8))
        for bad in ([0, 4, 1], [0, -1, 1]):
            with pytest.raises(IndexError):
                K.scatter_addk(None, src, np.array(bad), 4)


class TestPrecisionHooksBypassEveryRoute:
    """With a ``matmul_input_cast`` / ``matmul_precision`` hook set, einsum
    and matmul compute what they computed before any route existed."""

    @pytest.mark.parametrize("hook", ["matmul_input_cast", "matmul_precision"])
    def test_einsum_and_matmul(self, hook, monkeypatch):
        def to_f32(arr):
            return arr.astype(np.float32).astype(np.float64)

        def forbidden(*args, **kw):
            raise AssertionError("a fast route ran under a precision hook")

        rng = np.random.default_rng(20)
        x, y = rng.normal(size=(140, 4, 3)), rng.normal(size=(140, 4, 3))
        w3, w2 = rng.normal(size=(3, 3, 5)), rng.normal(size=(3, 9))
        cases = [
            ("zua,zub,abc->zuc", [x, y, w3]),
            ("abc,za,zb->zc", [w3, x[:, 0], y[:, 0]]),
            ("znl,ld->znd", [x, w2]),
            ("zu,zum->zum", [x[..., 0], y]),
            ("zum,zum->zu", [x, y]),
        ]
        monkeypatch.setattr(K, "_batched_contract", forbidden)
        monkeypatch.setattr(K, "_blocked_matmul", forbidden)
        setattr(ad.config, hook, to_f32)
        try:
            got = [K.einsumk(None, *ops, spec=spec) for spec, ops in cases]
            mm = K.matmulk(None, x[:, 0], w2)
        finally:
            setattr(ad.config, hook, None)
        for (spec, ops), res in zip(cases, got):
            if hook == "matmul_input_cast":
                ref = np.einsum(spec, *[to_f32(o) for o in ops])
            else:
                ref = to_f32(np.einsum(spec, *ops))
            assert_bitwise(res, ref)
        a, b = x[:, 0], w2
        ref = to_f32(a) @ to_f32(b) if hook == "matmul_input_cast" else to_f32(a @ b)
        assert_bitwise(mm, ref)


class TestTwoPlansOnTwoThreads:
    """No route keeps scratch between calls: the plans of two separately
    compiled potentials of one model — two serve workers on two buckets —
    replayed at the same time on two threads agree bitwise with a serial
    replay (a matmul tail scratch shared between calls would break this)."""

    def test_concurrent_replays_agree_bitwise(self):
        import threading

        from repro.data import perturbed_water_frames

        model = small_allegro()
        system = perturbed_water_frames(1, seed=3, sigma=0.05, n_grid=3)[0]
        nl = model.prepare_neighbors(system)
        compiled = [model.compile(), model.compile()]
        for cm in compiled:
            cm.energy_and_forces(system, nl)
        plans = [cm.plan for cm in compiled]
        used = {row["spec"] or row["op"] for row in plans[0].profile_steps(1)}
        for needed in ("zua,zub,abc->zuc", "abc,za,zb->zc", "zu,zum->zum", "zum,zum->zu",
                       "matmul", "sum", "scatter_add", "gather", "sigmoid"):
            assert needed in used, needed
        serial = [o.copy() for o in plans[0].execute()]
        results, errors = {}, []
        barrier = threading.Barrier(2)

        def work(k):
            try:
                barrier.wait()
                for _ in range(6):
                    outs = [o.copy() for o in plans[k].execute()]
                    results.setdefault(k, []).append(outs)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for k in range(2):
            for outs in results[k]:
                for got, ref in zip(outs, serial):
                    assert got.tobytes() == ref.tobytes()


def small_allegro():
    from repro.models import AllegroConfig, AllegroModel

    return AllegroModel(
        AllegroConfig(
            n_species=4, lmax=2, n_tensor=4, n_layers=2, latent_dim=24,
            two_body_hidden=(24,), latent_hidden=(32,), edge_energy_hidden=(16,),
            r_cut=3.5, avg_num_neighbors=14.0, seed=0,
        )
    )


class SlowRouteWatch:
    """Wraps the three places slow work would show up, for one model run.

    ``np.einsum`` is reached only as the fallback of ``einsumk``; what is
    left there must be small — judged by rows, not multiply-adds: no operand
    may have an edge-length leading axis (2.7 ms of c_einsum once hid under a
    10⁵ multiply-add limit).  ``_blocked_matmul`` with an edge-length
    *contraction* axis is a weight gradient (layer width × edges) that should
    have been a ``contract_rows``.
    """

    def __init__(self, monkeypatch, n_edges):
        self.fallbacks, self.long_contractions, self.routed = [], [], []
        real_einsum, real_blocked, real_contract = (
            np.einsum, K._blocked_matmul, K._batched_contract)

        def einsum(spec, *ops, **kw):
            rows = max((np.shape(o)[0] for o in ops if np.ndim(o)), default=0)
            self.fallbacks.append((spec, rows))
            return real_einsum(spec, *ops, **kw)

        def blocked(a, b, out):
            if a.shape[1] >= n_edges:
                self.long_contractions.append((a.shape, b.shape))
            return real_blocked(a, b, out)

        def contract(spec, operands, out):
            res = real_contract(spec, operands, out)
            if res is not None:
                self.routed.append(spec)
            return res

        self.n_edges = n_edges
        monkeypatch.setattr(np, "einsum", einsum)
        monkeypatch.setattr(K, "_blocked_matmul", blocked)
        monkeypatch.setattr(K, "_batched_contract", contract)

    def check(self):
        edge_length = sorted({f for f in self.fallbacks if f[1] >= self.n_edges})
        assert edge_length == [], edge_length
        assert self.long_contractions == []


class TestTrainingStepStaysOffTheSlowRoutes:
    """Sentinel: one Allegro ℓmax=2 training step and one compiled force
    call (capture + one replay), slow routes counted — see SlowRouteWatch."""

    def test_no_large_fallback_einsum_and_no_small_padded_matmul(self, monkeypatch):
        from repro.data import label_frames, perturbed_water_frames
        from repro.nn import TrainConfig, Trainer

        frames = label_frames(perturbed_water_frames(1, seed=5, sigma=0.05, n_grid=3))
        model = small_allegro()
        trainer = Trainer(model, frames, config=TrainConfig(lr=5e-3, batch_size=1, seed=0))
        n_edges = model.prepare_neighbors(frames[0].system).n_edges
        assert n_edges > 1000

        watch = SlowRouteWatch(monkeypatch, n_edges)
        trainer.fit(epochs=1)
        monkeypatch.undo()

        assert watch.fallbacks, "the wrapper saw no einsum: the sentinel is not wired in"
        watch.check()
        # ... because the work went where it was meant to go
        for spec in ("zuc,zua,zub->abc", "zua,zuc,zub->abc", "zub,zuc,zua->abc",
                     "abc,za,zb->zc", "zu,zum->zum", "zum,zum->zu"):
            assert spec in watch.routed
        assert np.isfinite(trainer.history[-1].train_loss)

    def test_compiled_water_force_call(self, monkeypatch):
        from repro.data import perturbed_water_frames

        model = small_allegro()
        system = perturbed_water_frames(1, seed=13, sigma=0.05, n_grid=3)[0]
        nl = model.prepare_neighbors(system)
        cm = model.compile(padding=0.10)

        watch = SlowRouteWatch(monkeypatch, nl.n_edges)
        cm.energy_and_forces(system, nl)  # capture
        n_capture = len(watch.routed)
        e, f = cm.energy_and_forces(system, nl)  # one replay
        monkeypatch.undo()

        assert cm.n_captures == 1 and cm.n_replays >= 1
        watch.check()
        replayed = watch.routed[n_capture:]
        for spec in ("zua,zub,abc->zuc", "zuc,zub,abc->zua", "zuc,zua,abc->zub",
                     "abc,za,zb->zc", "zc,abc,za->zb", "zc,abc,zb->za",
                     "znl,ld->znd", "zu,zum->zum", "zum,zum->zu"):
            assert spec in replayed, spec
        # what a replay leaves to c_einsum has no edge-length operand at all
        assert [s for s, rows in watch.fallbacks[-len(replayed):] if rows >= nl.n_edges] == []
        e_ref, f_ref = model.energy_and_forces(system, nl)
        assert e == e_ref and np.array_equal(f, f_ref)
