import numpy as np
import pytest

from camloc import (
    ComputationRecord,
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
    softmax,
    softmax_cross_entropy,
    tensor_sum,
)
from camloc.tensor import maxpool2x2, upsample_bilinear

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

    def test_no_input_gradient_without_grad(self):
        x = t(np.ones((1, 2, 4, 4)))
        k = t(np.ones((1, 1, 3, 3)), grad=True)
        backward(tensor_sum(conv2d(x, k, t([0.0]), pad=1)))
        assert x.grad is None
        assert k.grad is not None

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

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e4])
    def test_softmax_sums_to_one(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(5):
            logits = (rng.normal(size=6) * scale).astype(np.float32)
            assert abs(float(softmax(logits).sum()) - 1.0) < 1e-6


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
        record = ComputationRecord(loss)
        position = {id(node): i for i, node in enumerate(record.steps)}
        for node in record.steps:
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
