"""Kernel-equivalence properties for the fast paths in ``autodiff.kernels``.

Eager evaluation and compiled replay run the same kernels, so eager ≡ replay
holds by construction; what has to be pinned separately is that each fast
path computes what the plain numpy formulation it replaced computed —
bitwise where the arithmetic is unchanged (scatter, put, logistic), within a
tolerance fixed beforehand from the dtype where the summation order changed
(the three-operand tensor-product contraction) — and that the contraction
stays invariant to trailing pad rows, which is what lets a padded plan equal
the unpadded tape.
"""

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
