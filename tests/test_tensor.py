
import numpy as np
import pytest

from camloc import (
    Tensor,
    add,
    backward,
    bilinear_upsample,
    broadcast_mul_channels,
    conv2d,
    global_avg_pool,
    maxpool2d,
    mul,
    no_grad,
    relu,
    sgd_step,
    softmax_cross_entropy,
    tensor_sum,
)
from camloc.tensor import (
    _im2col,
    _im2col_same,
    _input_grad_same,
    _graph_order,
    _record,
    conv_pool_relu,
    maxpool2x2,
    upsample_bilinear,
)

import oracles


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float32), grad_enabled=grad)


class TestConv2d:
    def test_shape_with_pad_one(self):
        x = t(np.zeros((3, 64, 64)))
        k = t(np.zeros((16, 3, 3, 3)))
        out = conv2d(x, k, t(np.zeros(16)), stride=1, pad=1)
        assert out.shape == (16, 64, 64)

    def test_sum_of_four_ones(self):
        x = t(np.ones((1, 2, 2)))
        k = t(np.ones((1, 1, 2, 2)))
        out = conv2d(x, k, t([0.0]), stride=1, pad=0)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0

    def test_hand_cross_correlation(self):
        x = t(np.arange(1, 10).reshape(1, 3, 3))
        k = t(np.array([[[[1, 0], [0, 0]]]]))
        out = conv2d(x, k, t([0.0]), stride=1, pad=0)
        assert out.shape == (1, 2, 2)
        np.testing.assert_array_equal(out.data[0], [[1, 2], [4, 5]])

    def test_channel_mismatch_names_both_shapes(self):
        x = t(np.zeros((3, 4, 4)))
        k = t(np.zeros((2, 5, 3, 3)))
        with pytest.raises(ValueError, match=r"(?s)3.*5|5.*3"):
            conv2d(x, k, t(np.zeros(2)), pad=1)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("hw", [(4, 4), (6, 8), (5, 7)])
    def test_shape_formula_exhaustive(self, k, stride, pad, hw):
        h, w = hw
        x = t(np.zeros((2, h, w)))
        kern = t(np.zeros((3, 2, k, k)))
        out = conv2d(x, kern, t(np.zeros(3)), stride=stride, pad=pad)
        expect_h = (h + 2 * pad - k) // stride + 1
        expect_w = (w + 2 * pad - k) // stride + 1
        assert out.shape == (3, expect_h, expect_w)

    def test_matches_reference_forward(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 6, 7)).astype(np.float32)
        k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out = conv2d(t(x), t(k), t(b), stride=2, pad=1)
        ref = oracles.conv2d_ref(x, k, b, stride=2, pad=1)
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_batch_matches_reference_per_sample(self, stride):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 6, 7)).astype(np.float32)  # (Cin,N,H,W)
        k = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out = conv2d(t(x), t(k), t(b), stride=stride, pad=1)
        ref = np.stack([oracles.conv2d_ref(x[:, i], k, b, stride=stride, pad=1) for i in range(3)], axis=1)
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("n", [1, 3, 4, 8])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_channel_major_equals_batch_major_bit_for_bit(self, n, k, stride, pad):
        # the (Cin,N,H,W) conv against the (N,Cin,H,W) im2col conv it replaced:
        # forward and all three gradients, with a different weight on every
        # output element
        rng = np.random.default_rng(100 * n + 10 * k + 2 * stride + pad)
        x = rng.normal(size=(n, 5, 9, 8)).astype(np.float32)
        kernel = rng.normal(size=(6, 5, k, k)).astype(np.float32)
        bias = rng.normal(size=6).astype(np.float32)
        ref_out, ref_backward = oracles.conv2d_nchw(x, kernel, bias, stride, pad)
        g = rng.normal(size=ref_out.shape).astype(np.float32)
        ref_gx, ref_gk, ref_gb = ref_backward(g)

        xt, kt, bt = t(x.transpose(1, 0, 2, 3), grad=True), t(kernel, grad=True), t(bias, grad=True)
        out = conv2d(xt, kt, bt, stride=stride, pad=pad)
        backward(tensor_sum(mul(out, t(g.transpose(1, 0, 2, 3)))))
        np.testing.assert_array_equal(out.data.transpose(1, 0, 2, 3), ref_out)
        np.testing.assert_array_equal(xt.grad.transpose(1, 0, 2, 3), ref_gx)
        np.testing.assert_array_equal(kt.grad, ref_gk)
        np.testing.assert_array_equal(bt.grad, ref_gb)

    @staticmethod
    def assert_input_gradient_bits(seed, k, n, h, w, stride, pad):
        # NaN, +0 and -0 among the output gradients, and whole -0.0 gradient
        # columns: every bit of the input gradient must match the padded
        # buffer col2im of the oracle
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 4, h, w)).astype(np.float32)
        kernel = rng.normal(size=(5, 4, k, k)).astype(np.float32)
        bias = np.zeros(5, dtype=np.float32)
        ref_out, ref_backward = oracles.conv2d_nchw(x, kernel, bias, stride, pad)
        g = rng.normal(size=ref_out.shape).astype(np.float32)
        g[rng.uniform(size=(n, 1, *ref_out.shape[2:])).repeat(5, axis=1) < 0.3] = -0.0
        g[rng.uniform(size=g.shape) < 0.2] = 0.0
        g[rng.uniform(size=g.shape) < 0.02] = np.nan
        ref_gx = ref_backward(g)[0]
        xt = t(x.transpose(1, 0, 2, 3), grad=True)
        out = conv2d(xt, t(kernel, grad=True), t(bias, grad=True), stride=stride, pad=pad)
        backward(tensor_sum(mul(out, t(g.transpose(1, 0, 2, 3)))))
        np.testing.assert_array_equal(xt.grad.transpose(1, 0, 2, 3).view(np.uint32), ref_gx.view(np.uint32))

    @pytest.mark.parametrize("k, n, h, w", [(1, 3, 7, 6), (3, 3, 7, 6), (7, 3, 2, 3), (7, 1, 2, 3)])
    def test_same_size_input_gradient_keeps_nan_and_zero_bits(self, k, n, h, w):
        # the stride-1 same-size col2im adds -0.0 where a tap lands outside
        # the input (for a 7x7 kernel on 2x3 maps, some taps land nowhere)
        self.assert_input_gradient_bits(k, k, n, h, w, 1, k // 2)

    @pytest.mark.parametrize("k, stride, pad", [(3, 2, 1), (3, 1, 0), (1, 1, 1), (5, 2, 3)])
    def test_general_input_gradient_keeps_nan_and_zero_bits(self, k, stride, pad):
        # other strides and paddings go through the padded-buffer col2im
        self.assert_input_gradient_bits(100 * k + 10 * stride + pad, k, 3, 7, 6, stride, pad)

    @staticmethod
    def special_input(rng, shape):
        # NaN, infinities and -0.0 among the values: a copy keeps every bit
        x = rng.normal(size=shape).astype(np.float32)
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype=np.float32)
        picks = rng.uniform(size=shape) < 0.3
        x[picks] = rng.choice(specials, size=int(picks.sum()))
        return x

    @pytest.mark.parametrize("k, h, w", [(1, 5, 4), (3, 5, 4), (5, 6, 7), (7, 6, 7), (7, 2, 3)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_same_size_columns_equal_padded_window_columns(self, k, h, w, n):
        # stride 1 with an output grid equal to the input grid; a 7x7 kernel
        # on 2x3 maps has taps that land nowhere and shift past N*H*W
        x = self.special_input(np.random.default_rng(10 * k + n), (4, n, h, w))
        got = _im2col_same(x, k, k, k // 2)
        expected = oracles.im2col_padded(x, k, k, k // 2, 1)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.uint32), expected.view(np.uint32))

    @pytest.mark.parametrize("k, stride, pad", [(3, 2, 1), (3, 1, 0), (1, 2, 0), (5, 2, 3)])
    def test_general_columns_equal_padded_window_columns(self, k, stride, pad):
        x = self.special_input(np.random.default_rng(k + stride + pad), (3, 2, 7, 6))
        got = _im2col(x, k, k, pad, stride)
        expected = oracles.im2col_padded(x, k, k, pad, stride)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.uint32), expected.view(np.uint32))

    def test_tap_plans_follow_every_shape(self):
        # one process, shapes alternating in every key of the cached tap plan
        # (k, n, h, w): a plan made for one shape must never serve another
        rng = np.random.default_rng(17)
        shapes = [(3, 2, 5, 4), (5, 2, 5, 4), (3, 3, 5, 4), (3, 2, 4, 5), (7, 1, 2, 3), (1, 2, 5, 4)]
        for k, n, h, w in shapes + shapes[::-1] + shapes:
            x = self.special_input(rng, (2, n, h, w))
            got = _im2col_same(x, k, k, k // 2)
            expected = oracles.im2col_padded(x, k, k, k // 2, 1)
            np.testing.assert_array_equal(got.view(np.uint32), expected.view(np.uint32), err_msg=str((k, n, h, w)))
            kernel = rng.normal(size=(3, 2, k, k)).astype(np.float32)
            g = rng.normal(size=(n, 3, h, w)).astype(np.float32)
            g[rng.uniform(size=g.shape) < 0.2] = -0.0
            with np.errstate(all="ignore"):  # NaN and infinities among the inputs
                bias = np.zeros(3, dtype=np.float32)
                _, ref_backward = oracles.conv2d_nchw(x.transpose(1, 0, 2, 3), kernel, bias, 1, k // 2)
                ref_gx = ref_backward(g)[0]
            g_x = _input_grad_same(kernel, g.transpose(1, 0, 2, 3).reshape(3, -1), k // 2, n, h, w)
            np.testing.assert_array_equal(
                g_x.transpose(1, 0, 2, 3).view(np.uint32), ref_gx.view(np.uint32), err_msg=str((k, n, h, w))
            )

    def test_no_input_gradient_without_grad(self):
        x = t(np.ones((1, 2, 4, 4)))
        k = t(np.ones((1, 1, 3, 3)), grad=True)
        backward(tensor_sum(conv2d(x, k, t([0.0]), pad=1)))
        assert x.grad is None
        assert k.grad is not None

    def test_no_backward_recorded_under_no_grad(self):
        # the backward closure holds the conv's input: inference keeps nothing
        x = t(np.ones((2, 3, 5, 5)), grad=True)
        with no_grad():
            out = conv2d(x, t(np.ones((4, 2, 3, 3)), grad=True), t(np.zeros(4), grad=True), pad=1)
        assert out._backward_fn is None and out._parents == ()

    def test_purity_and_no_input_mutation(self):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(2, 4, 4)).astype(np.float32))
        k = t(rng.normal(size=(2, 2, 3, 3)).astype(np.float32))
        b = t(rng.normal(size=2).astype(np.float32))
        x_before = x.data.copy()
        first = conv2d(x, k, b, pad=1).data
        second = conv2d(x, k, b, pad=1).data
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(x.data, x_before)


class TestWorkspace:
    """No buffer workspace pools im2col columns: each call allocates its own."""

    def test_columns_come_from_the_active_workspace_only(self):
        x = np.random.default_rng(3).normal(size=(2, 3, 4, 5)).astype(np.float32)
        first, held = _im2col_same(x, 3, 3, 1), _im2col_same(x, 3, 3, 1)
        assert not np.shares_memory(first, held)
        assert not np.shares_memory(first, x)
        del first
        again = _im2col_same(x, 3, 3, 1)
        assert not np.shares_memory(again, held)
        np.testing.assert_array_equal(again, held)
        again[...] = np.nan
        assert not np.isnan(held).any()


class TestRelu:
    def test_elementwise(self):
        np.testing.assert_array_equal(relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_zero_tensor_fixed_point(self):
        out = relu(t(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_subgradient_at_zero_is_zero(self):
        x = t([-1.0, 2.0], grad=True)
        backward(tensor_sum(relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])
        y = t([0.0], grad=True)
        backward(tensor_sum(relu(y)))
        np.testing.assert_array_equal(y.grad, [0.0])


class TestMaxpool2d:
    def test_single_window(self):
        out = maxpool2d(t([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0

    def test_constant_map_quarter_size(self):
        out = maxpool2d(t(np.full((2, 4, 6), 3.5)))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data, np.full((2, 2, 3), 3.5))

    def test_tie_gradient_goes_to_first_row_major(self):
        x = t(np.ones((1, 2, 2)), grad=True)
        backward(tensor_sum(maxpool2d(x)))
        np.testing.assert_array_equal(x.grad[0], [[1.0, 0.0], [0.0, 0.0]])

    def test_tie_gradient_goes_to_first_row_major_batched(self):
        # (C,N,H,W) with one channel and two samples
        # sample 0: all four tie; the three lower-right entries tie
        # sample 1: the bottom row ties; all four tie at zero
        x = t([[[[1, 1, 0, 2], [1, 1, 2, 2]], [[1, 0, 0, 0], [3, 3, 0, 0]]]], grad=True)
        out = maxpool2d(x)
        np.testing.assert_array_equal(out.data, [[[[1, 2]], [[3, 0]]]])
        backward(tensor_sum(out))
        np.testing.assert_array_equal(
            x.grad, [[[[1, 0, 0, 1], [0, 0, 0, 0]], [[0, 0, 1, 0], [1, 0, 0, 0]]]]
        )

    @pytest.mark.parametrize("shape", [(3, 2, 8, 6), (4, 6, 10), (2, 1, 4, 12)])
    def test_row_pair_kernel_equals_four_slice_max(self, shape):
        # small integers give ties in most windows; NaN must propagate
        rng = np.random.default_rng(sum(shape))
        x = rng.integers(0, 3, size=shape).astype(np.float32)
        x.reshape(-1)[rng.choice(x.size, size=x.size // 10, replace=False)] = np.nan
        got, want = maxpool2x2(x), oracles.maxpool2x2_four_slices(x)
        assert np.isnan(want).any() and not np.isnan(want).all()
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_odd_dims_error(self):
        with pytest.raises(ValueError, match="even"):
            maxpool2d(t(np.zeros((1, 3, 4))))
        with pytest.raises(ValueError, match="even"):
            maxpool2d(t(np.zeros((1, 4, 5))))


class TestConvPoolRelu:
    """The fused backbone block against the three ops it replaces."""

    @staticmethod
    def block_inputs(kind, n, rng):
        x = rng.normal(size=(4, n, 8, 6)).astype(np.float32)
        kernel = rng.normal(size=(5, 4, 3, 3)).astype(np.float32)
        bias = rng.normal(size=5).astype(np.float32)
        g = rng.normal(size=(5, n, 4, 3)).astype(np.float32)
        if kind == "ties":
            # small integers tie often and land on 0; channel 0 is constant
            x, kernel, bias = (np.round(a).astype(np.float32) for a in (x, kernel, bias))
            kernel[0] = 0.0
        elif kind == "special":
            specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype=np.float32)
            for a, frac in ((x, 0.02), (g, 0.3)):
                picks = rng.uniform(size=a.shape) < frac
                a[picks] = rng.choice(specials, size=int(picks.sum()))
        return x, kernel, bias, g

    @staticmethod
    def run(op, x, kernel, bias, g):
        xt, kt, bt = t(x, grad=True), t(kernel, grad=True), t(bias, grad=True)
        with np.errstate(all="ignore"):  # NaN and infinities among the values
            out = op(xt, kt, bt)
            backward(tensor_sum(mul(out, t(g))))
        return [a.view(np.uint32) for a in (out.data, xt.grad, kt.grad, bt.grad)]

    @pytest.mark.parametrize("kind", ["random", "ties", "special"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_equals_relu_pool_conv_bit_for_bit(self, kind, n):
        inputs = self.block_inputs(kind, n, np.random.default_rng(n))
        fused = self.run(lambda x, k, b: conv_pool_relu(x, k, b, 1), *inputs)
        chain = self.run(lambda x, k, b: relu(maxpool2d(conv2d(x, k, b, pad=1))), *inputs)
        for name, got, expected in zip(("out", "g_x", "g_kernel", "g_bias"), fused, chain):
            np.testing.assert_array_equal(got, expected, err_msg=name)

    def test_repeated_backward_adds_one_gradient_per_call(self):
        x, kernel, bias, g = self.block_inputs("random", 3, np.random.default_rng(7))
        xt, kt, bt = t(x, grad=True), t(kernel, grad=True), t(bias, grad=True)
        loss = tensor_sum(mul(conv_pool_relu(xt, kt, bt, 1), t(g)))
        backward(loss)
        once = [a.grad.copy() for a in (xt, kt, bt)]
        backward(loss)
        for tensor, first in zip((xt, kt, bt), once):
            np.testing.assert_array_equal(tensor.grad, 2 * first)

    def test_no_grad_records_nothing_and_keeps_the_output(self):
        x, kernel, bias, _ = self.block_inputs("ties", 3, np.random.default_rng(8))
        with no_grad():
            out = conv_pool_relu(t(x, grad=True), t(kernel, grad=True), t(bias, grad=True), 1)
        assert out._backward_fn is None and out._parents == ()
        expected = relu(maxpool2d(conv2d(t(x), t(kernel), t(bias), pad=1))).data
        np.testing.assert_array_equal(out.data.view(np.uint32), expected.view(np.uint32))

    def test_backward_closure_holds_no_tensor(self):
        # a closure that held its output Tensor would make a reference cycle
        # and keep every chunk's graph alive until the cycle collector ran
        x, kernel, bias, _ = self.block_inputs("random", 1, np.random.default_rng(9))
        out = conv_pool_relu(t(x, grad=True), t(kernel, grad=True), t(bias, grad=True), 1)
        cells = [cell.cell_contents for cell in out._backward_fn.__closure__]
        assert not any(isinstance(c, Tensor) for c in cells)


class TestGlobalAvgPool:
    def test_constant_channel(self):
        out = global_avg_pool(t(np.full((3, 4, 4), 2.5)))
        np.testing.assert_allclose(out.data, [2.5, 2.5, 2.5])

    def test_mean(self):
        out = global_avg_pool(t([[[0.0, 0.0], [2.0, 2.0]]]))
        np.testing.assert_allclose(out.data, [1.0])

    def test_gradient_uniform(self):
        x = t(np.zeros((1, 2, 2)), grad=True)
        backward(tensor_sum(global_avg_pool(x)))
        np.testing.assert_allclose(x.grad, np.full((1, 2, 2), 0.25))


class TestBroadcastMulChannels:
    def test_ones_identity(self):
        f = t(np.arange(12).reshape(3, 2, 2))
        out = broadcast_mul_channels(f, t(np.ones((2, 2))))
        np.testing.assert_array_equal(out.data, f.data)

    def test_zeros(self):
        f = t(np.arange(12).reshape(3, 2, 2))
        out = broadcast_mul_channels(f, t(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2, 2)))

    def test_constants(self):
        out = broadcast_mul_channels(t(np.full((2, 2, 2), 2.0)), t(np.full((2, 2), 0.5)))
        np.testing.assert_array_equal(out.data, np.ones((2, 2, 2)))

    def test_spatial_mismatch_error(self):
        with pytest.raises(ValueError, match="mismatch"):
            broadcast_mul_channels(t(np.zeros((2, 3, 3))), t(np.zeros((2, 2))))

    def test_mask_gets_no_gradient(self):
        f = t(np.ones((2, 2, 2)), grad=True)
        m = t(np.full((2, 2), 0.5), grad=True)
        backward(tensor_sum(broadcast_mul_channels(f, m)))
        np.testing.assert_allclose(f.grad, np.full((2, 2, 2), 0.5))
        assert m.grad is None


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(t(np.zeros(4)), 2)
        assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-6)

    def test_large_logit_stability(self):
        loss = softmax_cross_entropy(t([1000.0, 0.0]), 0)
        assert np.isfinite(float(loss.data))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_two_way_loss_and_gradient(self):
        x = t([0.0, 0.0], grad=True)
        loss = softmax_cross_entropy(x, 1)
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-6)
        backward(loss)
        np.testing.assert_allclose(x.grad, [0.5, -0.5], atol=1e-7)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            softmax_cross_entropy(t(np.zeros(3)), 3)
        with pytest.raises(IndexError, match="out of range"):
            softmax_cross_entropy(t(np.zeros(3)), -1)


class TestBilinearUpsample:
    def test_constant_map(self):
        out = bilinear_upsample(t(np.full((2, 3), 0.7)), 5, 9)
        np.testing.assert_allclose(out.data, np.full((5, 9), 0.7), atol=1e-7)

    def test_same_size_identity(self):
        m = t([[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(bilinear_upsample(m, 2, 2).data, m.data)

    def test_align_corners_midpoint(self):
        out = bilinear_upsample(t([[0.0, 1.0]]), 1, 3)
        np.testing.assert_allclose(out.data, [[0.0, 0.5, 1.0]], atol=1e-7)

    def test_values_stay_in_input_range(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(size=(5, 4)).astype(np.float32)
        out = bilinear_upsample(t(m), 17, 23).data
        assert out.min() >= m.min() - 1e-6
        assert out.max() <= m.max() + 1e-6

    def test_matches_reference(self):
        rng = np.random.default_rng(10)
        m = rng.uniform(size=(4, 6)).astype(np.float32)
        out = bilinear_upsample(t(m), 9, 13).data
        np.testing.assert_allclose(out, oracles.bilinear_upsample_ref(m, 9, 13), atol=1e-5)

    def test_shrink_error(self):
        with pytest.raises(ValueError, match="shrink"):
            bilinear_upsample(t(np.zeros((4, 4))), 3, 8)

    @pytest.mark.parametrize(
        "shape, out_hw",
        [((6, 8, 8), (64, 64)), ((2, 3, 4, 6), (9, 13)), ((5, 1, 7), (4, 19)), ((5, 7, 1), (11, 3)),
         ((3, 1, 1), (6, 5)), ((1, 8), (1, 30)), ((8, 1), (30, 1)), ((4, 8), (12, 8))],
    )
    def test_kernel_equals_four_term_formula_bit_for_bit(self, shape, out_hw):
        maps = np.random.default_rng(sum(shape)).normal(size=shape).astype(np.float32)
        out = upsample_bilinear(maps, *out_hw)
        assert out.shape == shape[:-2] + out_hw
        np.testing.assert_array_equal(out, oracles.upsample_bilinear_4term_ref(maps, *out_hw))

    @pytest.mark.parametrize("hw, out_hw", [((4, 4), (9, 13)), ((1, 5), (3, 7)), ((6, 1), (6, 4)), ((3, 3), (3, 3))])
    def test_gradient_equals_dense_jacobian(self, hw, out_hw):
        # the separable adjoint against the dense Jacobian built from the
        # h*w basis maps, summed in float64
        rng = np.random.default_rng(sum(hw + out_hw))
        m = t(rng.normal(size=hw), grad=True)
        g = rng.normal(size=out_hw).astype(np.float32)
        backward(tensor_sum(mul(bilinear_upsample(m, *out_hw), t(g))))
        basis = np.eye(hw[0] * hw[1], dtype=np.float32).reshape(-1, *hw)
        jacobian = upsample_bilinear(basis, *out_hw).reshape(len(basis), -1).astype(np.float64)
        np.testing.assert_allclose(m.grad, (jacobian @ g.reshape(-1)).reshape(hw), rtol=1e-5, atol=1e-6)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t([1.0, 2.0, 3.0], grad=True)
        backward(tensor_sum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = t([1.0, 2.0], grad=True)
        backward(tensor_sum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_errors(self):
        x = t([1.0, 2.0], grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(add(x, x))

    def test_gradients_accumulate_across_calls(self):
        x = t([1.0, 1.0], grad=True)
        backward(tensor_sum(x))
        backward(tensor_sum(x))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_repeated_backward_on_one_graph_adds_one_gradient_per_call(self):
        x = t([1.0, -1.0], grad=True)
        loss = tensor_sum(relu(x))
        backward(loss)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 0.0])
        # through a conv, the second call reads the columns the forward built
        rng = np.random.default_rng(8)
        x = t(rng.normal(size=(2, 3, 6, 6)), grad=True)
        kernel = t(rng.normal(size=(4, 2, 3, 3)), grad=True)
        out = conv2d(x, kernel, t(np.zeros(4), grad=True), pad=1)
        loss = tensor_sum(mul(out, t(rng.normal(size=out.shape))))
        backward(loss)
        once_x, once_kernel = x.grad.copy(), kernel.grad.copy()
        backward(loss)
        np.testing.assert_array_equal(kernel.grad, 2 * once_kernel)
        np.testing.assert_array_equal(x.grad, 2 * once_x)

    def test_handoff_never_aliases(self):
        # add gives one array to both parents: each parent gets its own copy
        x = t([1.0, 2.0], grad=True)
        backward(tensor_sum(add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        a, b = t([1.0, 2.0], grad=True), t([3.0, 4.0], grad=True)
        backward(tensor_sum(add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        # global_avg_pool's gradient is a read-only broadcast view: copied
        x = t(np.ones((2, 3, 4)), grad=True)
        backward(tensor_sum(global_avg_pool(x)))
        assert x.grad.flags.writeable and x.grad.flags.c_contiguous
        x.grad += 1.0
        np.testing.assert_array_equal(x.grad, np.full((2, 3, 4), np.float32(1 / 12) + 1))

    def test_returned_gradient_is_copied(self):
        returned = np.full(2, 3.0, dtype=np.float32)
        x = t([1.0, 2.0], grad=True)
        out = _record(Tensor(np.float32(x.data.sum())), (x,), lambda g: (returned,))
        backward(out)
        assert not np.shares_memory(x.grad, returned)
        returned[:] = 7.0
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_no_grad_disables_recording(self):
        x = t([1.0, 2.0], grad=True)
        with no_grad():
            out = tensor_sum(x)
        assert out._backward_fn is None
        backward(out)
        assert x.grad is None

    def test_record_is_topologically_ordered(self):
        x = t([1.0, 2.0], grad=True)
        y = mul(x, x)
        z = add(y, x)
        loss = tensor_sum(z)
        order = _graph_order(loss)
        position = {id(node): i for i, node in enumerate(order)}
        for node in order:
            for parent in node._parents:
                if id(parent) in position:
                    assert position[id(parent)] < position[id(node)]


class TestSgdStep:
    def test_basic_step(self):
        p = t([1.0], grad=True)
        p.grad = np.array([0.5], dtype=np.float32)
        sgd_step([p], 0.1)
        np.testing.assert_allclose(p.data, [0.95])
        assert p.grad is None

    def test_zero_learning_rate_identity(self):
        p = t([1.25, -3.5], grad=True)
        before = p.data.copy()
        p.grad = np.array([10.0, -4.0], dtype=np.float32)
        sgd_step([p], 0.0)
        assert np.array_equal(p.data, before)

    def test_two_steps_with_constant_grad(self):
        p = t([1.0], grad=True)
        for _ in range(2):
            p.grad = np.array([0.5], dtype=np.float32)
            sgd_step([p], 0.1)
        np.testing.assert_allclose(p.data, [0.9])

    def test_missing_grad_errors(self):
        p = t([1.0], grad=True)
        with pytest.raises(ValueError, match="no gradient"):
            sgd_step([p], 0.1)

    def test_negative_lr_errors(self):
        p = t([1.0], grad=True)
        p.grad = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError, match="non-negative"):
            sgd_step([p], -0.1)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_lr_errors(self, lr):
        p = t([1.0], grad=True)
        p.grad = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError, match="finite"):
            sgd_step([p], lr)
        assert p.data[0] == 1.0


def zeros(*shape):
    return t(np.zeros(shape))


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: add(zeros(2), zeros(3)), "add shape mismatch", id="add"),
        pytest.param(lambda: mul(zeros(2), zeros(2, 1)), "mul shape mismatch", id="mul"),
        pytest.param(lambda: conv2d(zeros(4, 4), zeros(2, 1, 3, 3), zeros(2)), "conv2d expects", id="conv-input-rank"),
        pytest.param(lambda: conv2d(zeros(1, 4, 4), zeros(2, 1, 3), zeros(2)), "conv2d expects", id="conv-kernel-rank"),
        pytest.param(
            lambda: conv2d(zeros(1, 4, 4), zeros(2, 1, 3, 3), zeros(2, 1)), "conv2d expects", id="conv-bias-rank"
        ),
        pytest.param(
            lambda: conv2d(zeros(1, 4, 4), zeros(2, 1, 3, 3), zeros(3)), "bias shape .3,. does not match 2",
            id="conv-bias-shape",
        ),
        pytest.param(
            lambda: conv2d(zeros(1, 4, 4), zeros(2, 1, 3, 3), zeros(2), stride=0), "invalid stride/pad: 0, 0",
            id="conv-stride-0",
        ),
        pytest.param(
            lambda: conv2d(zeros(1, 4, 4), zeros(2, 1, 3, 3), zeros(2), pad=-1), "invalid stride/pad: 1, -1",
            id="conv-pad-negative",
        ),
        pytest.param(
            lambda: conv2d(zeros(1, 2, 2), zeros(2, 1, 3, 3), zeros(2)), "kernel 3x3 larger than padded input 2x2",
            id="conv-kernel-too-large",
        ),
        pytest.param(lambda: maxpool2d(zeros(4, 4)), "maxpool2d expects", id="maxpool-rank"),
        pytest.param(lambda: global_avg_pool(zeros(4, 4)), "global_avg_pool expects", id="avg-pool-rank"),
        pytest.param(lambda: broadcast_mul_channels(zeros(4, 4), zeros(4)), "expected .K,H,W.", id="mul-channels-rank"),
        pytest.param(
            lambda: broadcast_mul_channels(zeros(2, 4, 4), zeros(2, 4, 4)), "expected .K,H,W.",
            id="mul-channels-map-rank",
        ),
        pytest.param(lambda: softmax_cross_entropy(zeros(1, 2, 3), 0), "softmax_cross_entropy expects", id="xent-rank"),
        pytest.param(lambda: softmax_cross_entropy(zeros(2, 3), [0, 1, 2]), "expected 2 labels", id="xent-label-count"),
        pytest.param(lambda: bilinear_upsample(zeros(1, 2, 2), 4, 4), "expects a 2-d map", id="upsample-rank"),
    ],
)
def test_misshaped_input_is_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()
