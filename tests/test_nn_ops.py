"""Layer forward examples, backward gradient checks, and algebraic properties.

Everything runs on the channels-last ([N, H, W, C]) layer objects and the
kernels in ``nn.ops`` that they call.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from latent_guard.nn import (
    Conv3x3,
    Conv3x3ReLUPool,
    Dense,
    Flatten,
    MaxPool2x2,
    ReLU,
    ReLUUpsampleConv3x3,
    Sigmoid,
    Upsample2x2,
)
from latent_guard.nn import ops

from helpers import numeric_grad, assert_grad_close


def conv(x, w, b):
    return ops.conv3x3_fwd_nhwc(x, w, b)[0]


def with_params(layer, w, b):
    layer.params["weight"][...] = w
    layer.params["bias"][...] = b
    return layer


def conv_layer(w, b):
    return with_params(Conv3x3(w.shape[1], w.shape[0], np.random.default_rng(0)), w, b)


def dense_layer(w, b):
    return with_params(Dense(w.shape[1], w.shape[0], np.random.default_rng(0)), w, b)


def dense(x, w, b):
    return dense_layer(w, b).forward(x)[0]


def grads_of(layer, x, upstream):
    """(dx, grads) of ``sum(layer(x) * upstream)`` via the layer's backward."""
    _, cache = layer.forward(x, train=True)
    return layer.backward(upstream, cache)


class TestConvForward:
    def test_identity_kernel(self):
        x = np.array([[[[5.0]]]])
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv(x, w, np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_zero_kernel_gives_bias(self):
        x = np.random.default_rng(0).uniform(-1, 1, (1, 4, 6, 2))
        w = np.zeros((3, 2, 3, 3))
        b = np.array([1.5, -2.0, 0.25])
        out = conv(x, w, b)
        assert out.shape == (1, 4, 6, 3)
        for c, bias in enumerate(b):
            np.testing.assert_array_equal(out[0, :, :, c], np.full((4, 6), bias))

    def test_ones_kernel_sliding_window_sum(self):
        # hand-summed sliding window over all 9 positions of a 3x3 ramp
        x = np.arange(1.0, 10.0).reshape(1, 3, 3, 1)
        w = np.ones((1, 1, 3, 3))
        out = conv(x, w, np.zeros(1))
        padded = np.pad(x[0, :, :, 0], 1)
        expected = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = padded[i:i + 3, j:j + 3].sum()
        np.testing.assert_allclose(out[0, :, :, 0], expected)
        assert out[0, 1, 1, 0] == 45.0

    def test_preserves_spatial_dims(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 9, 2))
        w = rng.standard_normal((3, 2, 3, 3))
        out = conv(x, w, np.zeros(3))
        assert out.shape == (4, 5, 9, 3)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal((1, 4, 4, 2))
        x2 = rng.standard_normal((1, 4, 4, 2))
        w = rng.standard_normal((3, 2, 3, 3))
        b = np.zeros(3)
        a, c = 1.7, -0.4
        lhs = conv(a * x1 + c * x2, w, b)
        rhs = a * conv(x1, w, b) + c * conv(x2, w, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_strided_path_matches_direct_sum(self):
        # above _IM2COL_MAX_CIN input channels the kernel skips im2col;
        # check it against the convolution sum written out term by term
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 4, 5, 6))
        w = rng.standard_normal((3, 6, 3, 3))
        b = rng.standard_normal(3)
        assert x.shape[3] > ops._IM2COL_MAX_CIN
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        expected = np.empty((2, 4, 5, 3))
        for i in range(4):
            for j in range(5):
                window = padded[:, i:i + 3, j:j + 3, :]  # [N, 3, 3, C_in]
                expected[:, i, j, :] = np.einsum("nuvc,ocuv->no", window, w) + b
        np.testing.assert_allclose(conv(x, w, b), expected, atol=1e-12)

    @pytest.mark.parametrize("n, h, w, c_in, c_out", [
        (64, 14, 14, 32, 2),  # the encoder's 32->2 conv and dec5's input gradient
        (3, 5, 7, 6, 5),
        (1, 1, 1, 9, 1),
    ])
    def test_strided_path_adds_taps_in_row_offset_order(self, n, h, w, c_in, c_out):
        # the nine tap products are added to zeros in (u, v) order, so the
        # bits equal the same per-offset GEMMs summed straight into NHWC
        rng = np.random.default_rng(n + c_in)
        x = rng.standard_normal((n, h, w, c_in))
        weights = rng.standard_normal((c_out, c_in, 3, 3))
        b = rng.standard_normal(c_out)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        expected = np.zeros((n, h, w, c_out))
        for u in range(3):
            wu = weights[:, :, u, :].transpose(1, 2, 0).reshape(c_in, 3 * c_out)
            yu = (xp[:, u:u + h].reshape(n, h * (w + 2), c_in) @ wu).reshape(n, h, w + 2, 3, c_out)
            for v in range(3):
                expected += yu[:, :, v:v + w, v, :]
        expected += b
        out = conv(x, weights, b)
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 4, 2))
        w = rng.standard_normal((3, 2, 3, 3))
        dx, grads = grads_of(conv_layer(w, np.zeros(3)), x, np.zeros((1, 4, 4, 3)))
        assert not dx.any() and not grads["weight"].any() and not grads["bias"].any()

    def test_identity_kernel_passes_grad_through(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        g = np.random.default_rng(4).standard_normal((1, 5, 5, 1))
        dx, _ = grads_of(conv_layer(w, np.zeros(1)), np.zeros((1, 5, 5, 1)), g)
        np.testing.assert_allclose(dx, g)

    @staticmethod
    def check_finite_differences(c_in):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 4, c_in))
        w = rng.standard_normal((3, c_in, 3, 3))
        b = rng.standard_normal(3)
        # project the output onto a fixed random direction to get a scalar
        proj = rng.standard_normal((2, 4, 4, 3))

        dx, grads = grads_of(conv_layer(w, b), x, proj)
        num_dx = numeric_grad(lambda xv: float((conv(xv, w, b) * proj).sum()), x.copy())
        num_dw = numeric_grad(lambda wv: float((conv(x, wv, b) * proj).sum()), w.copy())
        num_db = numeric_grad(lambda bv: float((conv(x, w, bv) * proj).sum()), b.copy())
        assert_grad_close(dx, num_dx, rtol=1e-5)
        assert_grad_close(grads["weight"], num_dw, rtol=1e-5)
        assert_grad_close(grads["bias"], num_db, rtol=1e-5)

    def test_matches_finite_differences(self):
        self.check_finite_differences(c_in=2)

    def test_strided_path_matches_finite_differences(self):
        self.check_finite_differences(c_in=ops._IM2COL_MAX_CIN + 1)


class TestMaxPool:
    def test_single_window(self):
        out, idx = ops.maxpool2x2_fwd_nhwc(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
        np.testing.assert_array_equal(out, [[[[4.0]]]])
        assert idx[0, 0, 0, 0] == 3

    def test_constant_tensor(self):
        x = np.full((1, 4, 6, 3), 2.5)
        out, _ = MaxPool2x2().forward(x)
        np.testing.assert_array_equal(out, np.full((1, 2, 3, 3), 2.5))

    def test_ramp_windows_by_hand(self):
        x = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
        out, _ = MaxPool2x2().forward(x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[6.0, 8.0], [14.0, 16.0]])

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even spatial"):
            MaxPool2x2().forward(np.zeros((1, 7, 7, 1)))

    def test_backward_routes_to_argmax(self):
        x = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
        g = np.array([[10.0, 20.0], [30.0, 40.0]]).reshape(1, 2, 2, 1)
        dx, _ = grads_of(MaxPool2x2(), x, g)
        expected = np.zeros((1, 4, 4, 1))
        expected[0, 1, 1, 0] = 10.0
        expected[0, 1, 3, 0] = 20.0
        expected[0, 3, 1, 0] = 30.0
        expected[0, 3, 3, 0] = 40.0
        np.testing.assert_array_equal(dx, expected)

    def test_constant_window_routes_to_first_position(self):
        _, idx = ops.maxpool2x2_fwd_nhwc(np.full((1, 2, 2, 1), 0.5))
        assert idx[0, 0, 0, 0] == 0

    def test_tie_across_rows_routes_to_first_max(self):
        # window [[1, 3], [3, 0]]: the 3 at position 1 precedes the one at 2
        _, idx = ops.maxpool2x2_fwd_nhwc(np.array([1.0, 3.0, 3.0, 0.0]).reshape(1, 2, 2, 1))
        assert idx[0, 0, 0, 0] == 1

    def test_indices_are_uint8(self):
        _, idx = ops.maxpool2x2_fwd_nhwc(np.zeros((2, 4, 4, 3)))
        assert idx.dtype == np.uint8 and idx.shape == (2, 2, 2, 3)

    def test_inference_caches_no_index(self):
        x = np.random.default_rng(5).standard_normal((2, 4, 4, 3))
        layer = MaxPool2x2()
        assert layer.forward(x, train=True)[1] is not None
        assert layer.forward(x)[1] is None
        assert ops.maxpool2x2_fwd_nhwc(x, indices=False)[1] is None

    def test_backward_matches_finite_differences(self):
        # away from ties maxpool is locally linear, so fd applies
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 4, 4, 2))
        proj = rng.standard_normal((1, 2, 2, 2))
        dx, _ = grads_of(MaxPool2x2(), x, proj)
        num = numeric_grad(lambda xv: float((MaxPool2x2().forward(xv)[0] * proj).sum()), x.copy())
        assert_grad_close(dx, num, rtol=1e-5)


class TestUpsample:
    def test_block_replication(self):
        out, _ = Upsample2x2().forward(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], float)
        np.testing.assert_array_equal(out[0, :, :, 0], expected)

    def test_constant(self):
        out, _ = Upsample2x2().forward(np.full((1, 3, 5, 2), 7.0))
        np.testing.assert_array_equal(out, np.full((1, 6, 10, 2), 7.0))

    def test_backward_block_sum(self):
        dx, _ = Upsample2x2().backward(np.ones((1, 4, 4, 1)), None)
        np.testing.assert_array_equal(dx, np.full((1, 2, 2, 1), 4.0))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 3, 2))
        proj = rng.standard_normal((1, 6, 6, 2))
        dx, _ = grads_of(Upsample2x2(), x, proj)
        num = numeric_grad(lambda xv: float((Upsample2x2().forward(xv)[0] * proj).sum()), x.copy())
        assert_grad_close(dx, num, rtol=1e-5)

    def test_maxpool_of_upsample_is_identity_on_constants(self):
        x = np.full((1, 4, 4, 2), 3.25)
        out, _ = MaxPool2x2().forward(Upsample2x2().forward(x)[0])
        np.testing.assert_array_equal(out, x)


# Reference kernels: the 5-D transpose + argmax/take_along_axis/put_along_axis
# pooling and the reshape-sum upsample gradient that the strided-view kernels
# in nn.ops replaced.  The new kernels must agree with them exactly.

def ref_maxpool_fwd(x):
    n, h, w, c = x.shape
    windows = (
        x.reshape(n, h // 2, 2, w // 2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, h // 2, w // 2, c, 4)
    )
    idx = windows.argmax(axis=4)
    return np.take_along_axis(windows, idx[..., None], axis=4)[..., 0], idx


def ref_maxpool_bwd(dout, idx):
    n, ho, wo, c = dout.shape
    dwin = np.zeros((n, ho, wo, c, 4))
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=4)
    return dwin.reshape(n, ho, wo, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(n, 2 * ho, 2 * wo, c)


def ref_upsample_bwd(dout):
    n, h2, w2, c = dout.shape
    return dout.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


# small shapes; odd channel counts included
SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 40))
# a four-value alphabet makes ties within a window common
TIES = st.sampled_from([-1.0, 0.0, 1.0, 2.0])
# upstream gradients, with signed zeros and infinities that a 0/1 multiply would mangle
GRADS = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0, np.inf, -np.inf])
FLOATS = st.floats(-1e6, 1e6, width=64)
EQUIV = settings(max_examples=100, deadline=None, database=None)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStridedKernelsMatchReference:
    """The one allowed difference in pooling is a window that mixes -0.0 and
    +0.0, which may pool to either sign of zero (np.maximum's choice).  The
    indices stay identical, and no nonzero value can change.  Pooled outputs
    are compared with array_equal and routed gradients byte for byte; the
    upsample gradient's exceptions are noted in place."""

    @EQUIV
    @given(data=st.data(), shape=SHAPES)
    def test_maxpool_forward_and_backward(self, data, shape):
        n, ho, wo, c = shape
        x = data.draw(arrays(np.float64, (n, 2 * ho, 2 * wo, c), elements=TIES))
        dout = data.draw(arrays(np.float64, shape, elements=GRADS))
        out, idx = ops.maxpool2x2_fwd_nhwc(x)
        ref_out, ref_idx = ref_maxpool_fwd(x)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(idx, ref_idx)
        assert same_bytes(ops.maxpool2x2_bwd_nhwc(dout, idx), ref_maxpool_bwd(dout, ref_idx))

    @EQUIV
    @given(data=st.data(), shape=SHAPES)
    def test_upsample_backward(self, data, shape):
        n, h, w, c = shape
        dout = data.draw(arrays(np.float64, (n, 2 * h, 2 * w, c), elements=FLOATS))
        dx, ref_dx = ops.upsample2x2_bwd_nhwc(dout), ref_upsample_bwd(dout)
        if c > 1:
            # numpy's sum starts from +0.0, so a block of four -0.0 sums to
            # +0.0 there and to -0.0 here; every other value is bit-equal
            np.testing.assert_array_equal(dx, ref_dx)
        else:
            # With one channel the block axes are innermost and numpy's sum
            # pairs them as (a + b) + (c + d); the kernel keeps the
            # ((a + b) + c) + d order of every C > 1.  No layer of the model
            # upsamples a single channel.  The two orders round within 3u and
            # 2u (u = eps/2) of the exact sum, relative to the sum of the
            # magnitudes, so they differ by at most 3 eps times that sum.
            bound = 3 * np.finfo(np.float64).eps * ref_upsample_bwd(np.abs(dout))
            assert np.all(np.abs(dx - ref_dx) <= bound)

    def test_activation_sized_batch(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 28, 28, 32))
        out, idx = ops.maxpool2x2_fwd_nhwc(x)
        ref_out, ref_idx = ref_maxpool_fwd(x)
        assert same_bytes(out, ref_out)
        np.testing.assert_array_equal(idx, ref_idx)
        g = rng.standard_normal(out.shape)
        assert same_bytes(ops.maxpool2x2_bwd_nhwc(g, idx), ref_maxpool_bwd(g, ref_idx))
        assert same_bytes(ops.upsample2x2_bwd_nhwc(x), ref_upsample_bwd(x))


# The fused stem and tail must give the unfused chains' outputs exactly.

WEIGHTS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])  # few values: many pooling ties
FINITE_GRADS = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0])


def fused_and_chain(fused_cls, chain_kinds, data, c_in, c_out, weights=WEIGHTS):
    """A fused layer and the equivalent chain of unfused layers, both holding
    the same drawn parameters."""
    w = data.draw(arrays(np.float64, (c_out, c_in, 3, 3), elements=weights))
    b = data.draw(arrays(np.float64, c_out, elements=weights))
    fused = with_params(fused_cls(c_in, c_out, np.random.default_rng(0)), w, b)
    chain = [conv_layer(w, b) if kind is Conv3x3 else kind() for kind in chain_kinds]
    return fused, chain


def run_chain(chain, x, caches=None):
    """The chain's output; a training pass that appends each layer's cache
    to ``caches`` when it is given."""
    for layer in chain:
        x, cache = layer.forward(x, train=caches is not None)
        if caches is not None:
            caches.append(cache)
    return x


def backprop_chain(chain, dout, caches):
    """The first layer's parameter gradients, popping ``caches``."""
    for layer in reversed(chain):
        dout, grads = layer.backward(dout, caches.pop())
    return grads


class TestFusedLayersMatchChains:
    """``Conv3x3ReLUPool`` against Conv3x3 -> ReLU -> MaxPool2x2 and
    ``ReLUUpsampleConv3x3`` against ReLU -> Upsample2x2 -> Conv3x3.  Outputs
    compare with array_equal, so a window that mixes -0.0 and +0.0 may pool
    to either sign of zero, as in the pooling kernels above."""

    @EQUIV
    @given(data=st.data(), shape=SHAPES, c_in=st.integers(1, ops._IM2COL_MAX_CIN))
    def test_stem_forward_routing_and_param_grads(self, data, shape, c_in):
        self.check_stem(data, shape, c_in)

    @EQUIV
    @given(data=st.data(), n=st.integers(1, 2 * ops._STEM_ROWS // 196 + 1),
           c_in=st.integers(1, 3), c_out=st.integers(1, 40))
    def test_stem_across_row_blocks(self, data, n, c_in, c_out):
        # 196 pooled pixels (patch rows) per 28x28 image: up to two full
        # _STEM_ROWS blocks and a partial last one
        self.check_stem(data, (n, 14, 14, c_out), c_in)

    @staticmethod
    def check_stem(data, shape, c_in):
        n, ho, wo, c_out = shape
        stem, chain = fused_and_chain(Conv3x3ReLUPool, (Conv3x3, ReLU, MaxPool2x2), data, c_in, c_out)
        x = data.draw(arrays(np.float64, (n, 2 * ho, 2 * wo, c_in), elements=TIES))
        ref = run_chain(chain, x)
        out, cache = stem.forward(x)
        np.testing.assert_array_equal(out, ref)
        assert cache is None

        out, cache = stem.forward(x, train=True)
        np.testing.assert_array_equal(out, ref)
        chain_caches = []
        np.testing.assert_array_equal(run_chain(chain, x, chain_caches), ref)
        # the ReLU zeroes every gradient routed from a window whose pooled
        # pre-activation is <= 0, so routing only has to agree elsewhere
        idx, positive = cache[1], ref > 0
        np.testing.assert_array_equal(idx[positive], chain_caches[2][positive])

        dout = data.draw(arrays(np.float64, ref.shape, elements=FINITE_GRADS))
        dx, grads = stem.backward(dout, cache)
        assert dx is None
        chain_grads = backprop_chain(chain, dout, chain_caches)
        for key in ("weight", "bias"):
            np.testing.assert_array_equal(grads[key], chain_grads[key])

    @EQUIV
    @given(data=st.data(), shape=SHAPES, c_in=st.integers(1, 40))
    def test_tail_forward(self, data, shape, c_in):
        n, h, w, c_out = shape
        tail, chain = fused_and_chain(
            ReLUUpsampleConv3x3, (ReLU, Upsample2x2, Conv3x3), data, c_in, c_out, weights=FLOATS
        )
        x = data.draw(arrays(np.float64, (n, h, w, c_in), elements=FLOATS))
        ref = run_chain(chain, x)
        for train in (False, True):
            out, cache = tail.forward(x, train=train)
            if c_in > ops._IM2COL_MAX_CIN:
                # the unfused conv runs the same per-offset GEMMs
                np.testing.assert_array_equal(out, ref)
            else:
                # the unfused conv sums all nine taps in one im2col GEMM
                np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert cache is not None
        assert tail.forward(x)[1] is None

    def test_model_sized_chunk_is_bit_identical(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(0.0, 1.0, (5, 28, 28, 1))
        w1, b1 = rng.uniform(-0.3, 0.3, (32, 1, 3, 3)), rng.uniform(-0.1, 0.1, 32)
        stem = with_params(Conv3x3ReLUPool(1, 32, rng), w1, b1)
        h, _ = stem.forward(x)
        assert same_bytes(h, run_chain([conv_layer(w1, b1), ReLU(), MaxPool2x2()], x))
        w2, b2 = rng.uniform(-0.3, 0.3, (1, 32, 3, 3)), rng.uniform(-0.1, 0.1, 1)
        tail = with_params(ReLUUpsampleConv3x3(32, 1, rng), w2, b2)
        assert same_bytes(tail.forward(h)[0], run_chain([Upsample2x2(), conv_layer(w2, b2)], h))
        # the model feeds the tail dec5's signed conv output, pre-ReLU
        signed = rng.normal(0.0, 0.2, h.shape)
        chain = [ReLU(), Upsample2x2(), conv_layer(w2, b2)]
        assert same_bytes(tail.forward(signed)[0], run_chain(chain, signed))

        # a training backward on the values of TIES, WEIGHTS and FINITE_GRADS:
        # every sum is exact, so the stem's per-corner dW and db must equal the
        # unfused chain's, through tied windows and the zero-padded borders
        x = rng.choice([-1.0, 0.0, 1.0, 2.0], (5, 28, 28, 1))
        weights = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        w1, b1 = rng.choice(weights, (32, 1, 3, 3)), rng.choice(weights, 32)
        stem = with_params(Conv3x3ReLUPool(1, 32, rng), w1, b1)
        chain = [conv_layer(w1, b1), ReLU(), MaxPool2x2()]
        out, cache = stem.forward(x, train=True)
        chain_caches = []
        np.testing.assert_array_equal(out, run_chain(chain, x, chain_caches))
        dout = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], out.shape)
        dx, grads = stem.backward(dout, cache)
        assert dx is None
        chain_grads = backprop_chain(chain, dout, chain_caches)
        for key in ("weight", "bias"):
            np.testing.assert_array_equal(grads[key], chain_grads[key])


# The stem's training pass pinned to the bits of its earlier formulas: the
# uint8 indices of np.where over the tournament's comparisons, and dW/db from
# a separate ReLU-mask multiply followed by per-corner routing through an
# int64 mask, the column copy and one conv weight-gradient call per corner,
# corners summed in order.

def ref_max4_indices(a, b, c, d):
    top, bot = np.maximum(a, b), np.maximum(c, d)
    return np.where(bot > top, (d > c).view(np.uint8) + np.uint8(2), (b > a).view(np.uint8))


def ref_stem_param_grads(dout, cache, weight_shape):
    p, idx, mask = cache
    dout = dout * mask  # a negative gradient under a masked window becomes -0.0
    taps = p.reshape(-1, 4, 4, weight_shape[1])
    per_corner = []
    for k in range(4):
        a, b = divmod(k, 2)
        cols = taps[:, a:a + 3, b:b + 3].reshape(len(taps), -1)
        routed = np.bitwise_and(dout.view(np.int64), -(idx == k).astype(np.int64)).view(np.float64)
        per_corner.append(ops.im2col_param_grads(routed, cols, weight_shape))
    return tuple(g0 + g1 + g2 + g3 for g0, g1, g2, g3 in zip(*per_corner))


class TestStemTrainingBits:
    def test_max4_indices_match_where_formula(self):
        # every ordered 4-tuple over NaN, signed zeros and tie-prone values
        values = [np.nan, -0.0, 0.0, -1.0, 1.0, 2.0]
        a, b, c, d = np.array(list(itertools.product(values, repeat=4))).T
        out, idx = ops._max4(a, b, c, d, True)
        assert same_bytes(idx, ref_max4_indices(a, b, c, d))
        assert same_bytes(out, np.maximum(np.maximum(a, b), np.maximum(c, d)))

    # n up to three _STEM_ROWS blocks of 196-row images
    @pytest.mark.parametrize("n", [1, 4, 5, 3 * ops._STEM_ROWS // 196])
    @pytest.mark.parametrize("c_in", [1, 2, 3])
    @pytest.mark.parametrize("c_out", [1, 7, 32, 40])
    def test_param_grads_match_masked_routing_reference(self, n, c_in, c_out):
        rng = np.random.default_rng([n, c_in, c_out])
        x = rng.uniform(0.0, 1.0, (n, 28, 28, c_in))
        x[:, :6] = 0.0  # an all-zero band: its windows pool to the negative bias
        w = rng.normal(0.0, 0.3, (c_out, c_in, 3, 3))
        b = rng.uniform(-0.3, -0.01, c_out)
        out, cache = ops.conv3x3_relu_pool_fwd_nhwc(x, w, b, train=True)
        mask = cache[2]
        dout = rng.standard_normal(out.shape)
        assert np.any(~mask & (dout < 0)) and np.any(mask)
        got = ops.conv3x3_relu_pool_param_grads_nhwc(dout, cache, w.shape)
        ref = ref_stem_param_grads(dout, cache, w.shape)
        for g, r in zip(got, ref, strict=True):
            assert same_bytes(g.view(np.int64), r.view(np.int64))


def ref_tail_bwd(dout, xq, weights):
    """The tail's backward as a new padded-size input gradient, then the
    unfused ReLU backward's multiply: the formulas the in-buffer kernel
    replaced."""
    n, hp, wp, c_in = xq.shape
    h, w = hp - 2, wp - 2
    c_out = weights.shape[0]
    d_phase = np.ascontiguousarray(dout.reshape(n, h, 2, w, 2, c_out).transpose(2, 4, 0, 1, 3, 5))
    g = np.zeros((3, 3, n, hp, wp, c_out))
    for u in range(3):
        for v, a, b, r, s in ops._phase_taps(u):
            g[u, v, :, r:r + h, s:s + w] += d_phase[a, b]
    g = g.reshape(9, -1, c_out).transpose(1, 0, 2).reshape(-1, 9 * c_out)
    dw = (xq.reshape(-1, c_in).T @ g).reshape(c_in, 3, 3, c_out).transpose(3, 0, 1, 2).copy()
    dxp = (g @ weights.transpose(2, 3, 0, 1).reshape(9 * c_out, c_in)).reshape(n, hp, wp, c_in)
    db = dout.reshape(-1, c_out).sum(axis=0)
    return dxp[:, 1:-1, 1:-1] * (xq[:, 1:-1, 1:-1] > 0), dw, db


class TestTailAndBandedGradBits:
    """The tail's input gradient, built in its spent cache's buffer, and the
    banded many-channel input gradient, pinned to the bits of the
    whole-array computations."""

    @pytest.mark.parametrize("n, h, w, c_in, c_out", [
        (64, 14, 14, 32, 1),  # the model's tail on one chunk
        (37, 14, 14, 32, 1),  # a ragged sub-batch
        (3, 5, 7, 6, 5),
        (1, 1, 1, 9, 2),
        (2, 3, 4, 2, 3),
    ])
    def test_tail_backward_is_padded_gemm_interior_masked(self, n, h, w, c_in, c_out):
        rng = np.random.default_rng([n, c_in, c_out])
        x = rng.standard_normal((n, h, w, c_in))
        x[:, :, 0] = 0.0  # ReLU's edge: the mask must be false at exact zeros
        weights = rng.standard_normal((c_out, c_in, 3, 3))
        tail = with_params(ReLUUpsampleConv3x3(c_in, c_out, rng), weights, np.zeros(c_out))
        _, xq = tail.forward(x, train=True)
        dout = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], (n, 2 * h, 2 * w, c_out))
        ref_dx, ref_dw, ref_db = ref_tail_bwd(dout, xq, weights)
        assert np.any((x <= 0) & (ref_dx.view(np.int64) < 0))  # a masked -0.0
        dx, grads = tail.backward(dout, xq)
        assert dx.flags.c_contiguous and np.shares_memory(dx, xq)
        assert same_bytes(dx, ref_dx)
        assert same_bytes(grads["weight"], ref_dw) and same_bytes(grads["bias"], ref_db)

    @pytest.mark.parametrize("n", [1, ops._GRAD_BAND, ops._GRAD_BAND + 1, 2 * ops._GRAD_BAND + 5])
    def test_banded_input_grad_equals_one_call(self, n):
        # dec5's input gradient: 32 upstream channels, 2 input channels
        rng = np.random.default_rng(n)
        dout = rng.standard_normal((n, 14, 14, 32))
        weights = rng.standard_normal((32, 2, 3, 3))
        w_swap = np.ascontiguousarray(weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        ref = ops.conv3x3_fwd_nhwc(dout, w_swap)[0]
        assert same_bytes(ops.conv3x3_input_grad_nhwc(dout, weights), ref)


def fused_fd_check(layer, x, proj, input_grad):
    """The layer's backward against central differences of sum(out * proj)."""
    _, cache = layer.forward(x, train=True)
    dx, grads = layer.backward(proj, cache)

    def loss(which, value):
        if which == "x":
            return float((layer.forward(value)[0] * proj).sum())
        saved = layer.params[which].copy()
        layer.params[which][...] = value
        out = float((layer.forward(x)[0] * proj).sum())
        layer.params[which][...] = saved
        return out

    if input_grad:
        assert_grad_close(dx, numeric_grad(lambda v: loss("x", v), x.copy()), rtol=1e-5)
    else:
        assert dx is None
    for key in ("weight", "bias"):
        num = numeric_grad(lambda v: loss(key, v), layer.params[key].copy())
        assert_grad_close(grads[key], num, rtol=1e-5)


class TestFusedLayersFiniteDifferences:
    def test_stem_param_grads(self):
        # continuous random data keeps the pooled pre-activations away from
        # ties and from ReLU's kink, where the loss is differentiable
        rng = np.random.default_rng(16)
        stem = Conv3x3ReLUPool(2, 3, rng)
        stem.params["bias"][...] = rng.uniform(-0.2, 0.2, 3)
        x = rng.standard_normal((2, 4, 6, 2))
        fused_fd_check(stem, x, rng.standard_normal((2, 2, 3, 3)), input_grad=False)

    @pytest.mark.parametrize("c_in", [2, ops._IM2COL_MAX_CIN + 3])
    def test_tail_input_and_param_grads(self, c_in):
        rng = np.random.default_rng(17)
        tail = ReLUUpsampleConv3x3(c_in, 3, rng)
        tail.params["bias"][...] = rng.uniform(-0.2, 0.2, 3)
        x = rng.standard_normal((2, 3, 2, c_in))
        fused_fd_check(tail, x, rng.standard_normal((2, 6, 4, 3)), input_grad=True)

    def test_stem_rejects_odd_dims(self):
        with pytest.raises(ValueError, match="even spatial"):
            Conv3x3ReLUPool(1, 2, np.random.default_rng(0)).forward(np.zeros((1, 5, 4, 1)))


class TestFlatten:
    def test_inference_caches_no_shape(self):
        x = np.zeros((2, 3, 3, 2))
        layer = Flatten()
        assert layer.forward(x, train=True)[1] == x.shape
        out, cache = layer.forward(x)
        assert out.shape == (2, 18)
        assert cache is None


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        out = dense(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_give_bias(self):
        out = dense(np.array([[4.0, 5.0]]), np.zeros((1, 2)), np.array([7.0]))
        np.testing.assert_array_equal(out, [[7.0]])

    def test_hand_matvec(self):
        out = dense(np.array([[1.0, 1.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
        np.testing.assert_array_equal(out, [[3.0, 7.0]])

    def test_linearity(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 6))
        x1, x2 = rng.standard_normal((2, 1, 6))
        a, c = 0.3, -2.1
        lhs = dense(a * x1 + c * x2, w, np.zeros(4))
        rhs = a * dense(x1, w, np.zeros(4)) + c * dense(x2, w, np.zeros(4))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(4)
        proj = rng.standard_normal((3, 4))
        dx, grads = grads_of(dense_layer(w, b), x, proj)
        num_dx = numeric_grad(lambda v: float((dense(v, w, b) * proj).sum()), x.copy())
        num_dw = numeric_grad(lambda v: float((dense(x, v, b) * proj).sum()), w.copy())
        num_db = numeric_grad(lambda v: float((dense(x, w, v) * proj).sum()), b.copy())
        assert_grad_close(dx, num_dx, rtol=1e-5)
        assert_grad_close(grads["weight"], num_dw, rtol=1e-5)
        assert_grad_close(grads["bias"], num_db, rtol=1e-5)


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(ReLU().forward(np.array([-3.0, 3.0]))[0], [0.0, 3.0])

    def test_sigmoid_values(self):
        assert ops.sigmoid(np.array(0.0)) == 0.5
        np.testing.assert_allclose(ops.sigmoid(np.array(np.log(3.0))), 0.75, rtol=1e-15)

    def test_sigmoid_range(self):
        # float64 saturates to exactly 0/1 beyond |x| ~ 36.7; test inside it
        x = np.linspace(-36, 36, 101)
        y, _ = Sigmoid().forward(x)
        assert np.all(y > 0) and np.all(y < 1)

    def test_relu_backward_matches_fd(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(20) + 0.05  # keep away from the kink at 0
        proj = rng.standard_normal(20)
        dx, _ = grads_of(ReLU(), x, proj)
        num = numeric_grad(lambda v: float((ReLU().forward(v)[0] * proj).sum()), x.copy())
        assert_grad_close(dx, num, rtol=1e-5)

    def test_sigmoid_backward_matches_fd(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(20)
        proj = rng.standard_normal(20)
        dx, _ = grads_of(Sigmoid(), x, proj)
        num = numeric_grad(lambda v: float((ops.sigmoid(v) * proj).sum()), x.copy())
        assert_grad_close(dx, num, rtol=1e-5)


class TestDeterminism:
    def test_conv_bit_identical(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 6, 6, 2))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        a = conv(x, w, b)
        c = conv(x.copy(), w.copy(), b.copy())
        assert np.array_equal(a, c)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6, 6, 2))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        batched = conv(x, w, b)
        for i in range(4):
            np.testing.assert_allclose(batched[i], conv(x[i:i + 1], w, b)[0], atol=1e-12)
