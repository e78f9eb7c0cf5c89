"""Finite-difference gradient checks for every differentiable operator.

Analytic float32 gradients are compared against central differences of
independent float64 reference forwards (step 1e-3, max relative error
1e-3, near-zero pairs exempt). Inputs are sampled away from relu/maxpool
kinks so the differences are well defined.
"""

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
    relu,
    softmax_cross_entropy,
    tensor_sum,
)

import oracles

STEP = 1e-3
TOL = 1e-3


def kink_free(rng, shape, margin=0.05):
    """Values bounded away from zero, so relu is locally linear."""
    magnitude = rng.uniform(0.2, 1.5, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return (magnitude * sign).astype(np.float32)


def separated_windows(rng, shape):
    """Random values whose 2x2 pool windows have clearly separated entries."""
    c, h, w = shape
    base = rng.uniform(0.0, 1.0, size=shape)
    jitter = rng.permuted(np.arange(h * w).reshape(1, h, w) * 0.37 % 1.9, axis=None)
    return (base + jitter.reshape(1, h, w) + 0.2).astype(np.float32)


def check(analytic, ref_loss, arrays, wrt):
    numeric = oracles.fd_gradient(ref_loss, arrays, wrt, step=STEP)
    err = oracles.max_rel_err(analytic, numeric)
    assert err < TOL, f"gradient mismatch for {wrt}: max rel err {err:.2e}"


CONV_CASES = [
    # (seed, input shape, kernel shape, stride, pad)
    (0, (2, 5, 5), (3, 2, 3, 3), 1, 1),
    (1, (3, 6, 4), (2, 3, 3, 3), 2, 1),
    (2, (1, 4, 7), (4, 1, 1, 1), 1, 0),
    (3, (4, 8, 8), (2, 4, 3, 3), 1, 0),
    (4, (2, 6, 6), (3, 2, 3, 3), 2, 0),
]


@pytest.mark.parametrize("seed,xs,ks,stride,pad", CONV_CASES)
def test_conv2d_gradients(seed, xs, ks, stride, pad):
    rng = np.random.default_rng(seed)
    x = Tensor(kink_free(rng, xs), grad_enabled=True)
    k = Tensor(kink_free(rng, ks), grad_enabled=True)
    b = Tensor(kink_free(rng, (ks[0],)), grad_enabled=True)
    backward(tensor_sum(conv2d(x, k, b, stride=stride, pad=pad)))

    def ref_loss(x, k, b):
        return float(oracles.conv2d_ref(x, k, b, stride=stride, pad=pad).sum())

    arrays = {"x": x.data, "k": k.data, "b": b.data}
    check(x.grad, ref_loss, arrays, "x")
    check(k.grad, ref_loss, arrays, "k")
    check(b.grad, ref_loss, arrays, "b")


@pytest.mark.parametrize("seed", range(5))
def test_relu_gradients(seed):
    rng = np.random.default_rng(10 + seed)
    x = Tensor(kink_free(rng, (3, 6, 4)), grad_enabled=True)
    backward(tensor_sum(relu(x)))
    check(x.grad, lambda x: float(oracles.relu_ref(x).sum()), {"x": x.data}, "x")


@pytest.mark.parametrize("seed", range(5))
def test_maxpool2d_gradients(seed):
    rng = np.random.default_rng(20 + seed)
    x = Tensor(separated_windows(rng, (1, 6, 8)), grad_enabled=True)
    backward(tensor_sum(maxpool2d(x)))
    check(x.grad, lambda x: float(oracles.maxpool2d_ref(x).sum()), {"x": x.data}, "x")


@pytest.mark.parametrize("seed", range(5))
def test_global_avg_pool_gradients(seed):
    rng = np.random.default_rng(30 + seed)
    x = Tensor(kink_free(rng, (4, 5, 7)), grad_enabled=True)
    backward(tensor_sum(global_avg_pool(x)))
    check(x.grad, lambda x: float(oracles.global_avg_pool_ref(x).sum()), {"x": x.data}, "x")


@pytest.mark.parametrize("seed", range(5))
def test_broadcast_mul_gradients(seed):
    rng = np.random.default_rng(40 + seed)
    f = Tensor(kink_free(rng, (3, 4, 5)), grad_enabled=True)
    m = Tensor(rng.uniform(0.0, 1.0, size=(4, 5)).astype(np.float32), grad_enabled=True)
    backward(tensor_sum(broadcast_mul_channels(f, m)))
    check(f.grad, lambda f: float(oracles.broadcast_mul_ref(f, m.data).sum()), {"f": f.data}, "f")
    assert m.grad is None  # the mask is a constant by design


@pytest.mark.parametrize("seed", range(5))
def test_softmax_cross_entropy_gradients(seed):
    rng = np.random.default_rng(50 + seed)
    n = int(rng.integers(2, 9))
    label = int(rng.integers(0, n))
    x = Tensor((rng.normal(size=n) * 3).astype(np.float32), grad_enabled=True)
    backward(softmax_cross_entropy(x, label))
    check(
        x.grad,
        lambda x: oracles.softmax_cross_entropy_ref(x, label),
        {"x": x.data},
        "x",
    )


# ---------------------------------------------------------------------------
# the same ops on a leading batch axis (N=3). The loss weights every output
# element differently, so a gradient sent to the wrong sample or channel
# shows; the references run the per-sample oracles sample by sample.

N = 3


def weighted_sum(out, rng):
    weights = rng.uniform(0.5, 1.5, size=out.shape).astype(np.float32)
    return tensor_sum(mul(out, Tensor(weights))), weights.astype(np.float64)


@pytest.mark.parametrize("stride", [1, 2])
def test_batched_conv2d_gradients(stride):
    rng = np.random.default_rng(80 + stride)
    x = Tensor(kink_free(rng, (N, 2, 6, 5)), grad_enabled=True)
    k = Tensor(kink_free(rng, (3, 2, 3, 3)), grad_enabled=True)
    b = Tensor(kink_free(rng, (3,)), grad_enabled=True)
    loss, weights = weighted_sum(conv2d(x, k, b, stride=stride, pad=1), rng)
    backward(loss)

    def ref_loss(x, k, b):
        return float(sum((oracles.conv2d_ref(x[i], k, b, stride=stride, pad=1) * weights[i]).sum() for i in range(N)))

    arrays = {"x": x.data, "k": k.data, "b": b.data}
    check(x.grad, ref_loss, arrays, "x")
    check(k.grad, ref_loss, arrays, "k")
    check(b.grad, ref_loss, arrays, "b")


def test_batched_maxpool2d_gradients():
    rng = np.random.default_rng(90)
    x = Tensor(np.stack([separated_windows(rng, (2, 4, 6)) for _ in range(N)]), grad_enabled=True)
    loss, weights = weighted_sum(maxpool2d(x), rng)
    backward(loss)

    def ref_loss(x):
        return float(sum((oracles.maxpool2d_ref(x[i]) * weights[i]).sum() for i in range(N)))

    check(x.grad, ref_loss, {"x": x.data}, "x")


def test_batched_global_avg_pool_gradients():
    rng = np.random.default_rng(91)
    x = Tensor(kink_free(rng, (N, 4, 5, 7)), grad_enabled=True)
    loss, weights = weighted_sum(global_avg_pool(x), rng)
    backward(loss)

    def ref_loss(x):
        return float(sum((oracles.global_avg_pool_ref(x[i]) * weights[i]).sum() for i in range(N)))

    check(x.grad, ref_loss, {"x": x.data}, "x")


def test_batched_broadcast_mul_gradients():
    rng = np.random.default_rng(92)
    f = Tensor(kink_free(rng, (N, 3, 4, 5)), grad_enabled=True)
    m = Tensor(rng.uniform(0.0, 1.0, size=(N, 4, 5)).astype(np.float32), grad_enabled=True)
    loss, weights = weighted_sum(broadcast_mul_channels(f, m), rng)
    backward(loss)

    def ref_loss(f):
        return float(sum((oracles.broadcast_mul_ref(f[i], m.data[i]) * weights[i]).sum() for i in range(N)))

    check(f.grad, ref_loss, {"f": f.data}, "f")
    assert m.grad is None


def test_batched_softmax_cross_entropy_gradients():
    rng = np.random.default_rng(93)
    labels = np.array([0, 4, 2])
    x = Tensor((rng.normal(size=(N, 5)) * 3).astype(np.float32), grad_enabled=True)
    loss = softmax_cross_entropy(x, labels)
    backward(loss)

    def ref_loss(x):
        return sum(oracles.softmax_cross_entropy_ref(x[i], labels[i]) for i in range(N))

    assert float(loss.data) == pytest.approx(ref_loss(x.data), rel=1e-5)
    check(x.grad, ref_loss, {"x": x.data}, "x")


@pytest.mark.parametrize("seed,out_hw", [(0, (5, 7)), (1, (9, 9)), (2, (4, 11)), (3, (13, 5)), (4, (8, 8))])
def test_bilinear_upsample_gradients(seed, out_hw):
    rng = np.random.default_rng(60 + seed)
    x = Tensor(rng.uniform(size=(4, 4)).astype(np.float32), grad_enabled=True)
    backward(tensor_sum(bilinear_upsample(x, *out_hw)))
    check(
        x.grad,
        lambda x: float(oracles.bilinear_upsample_ref(x, *out_hw).sum()),
        {"x": x.data},
        "x",
    )


@pytest.mark.parametrize("seed", range(5))
def test_add_mul_sum_gradients(seed):
    rng = np.random.default_rng(70 + seed)
    a = Tensor(kink_free(rng, (3, 4)), grad_enabled=True)
    b = Tensor(kink_free(rng, (3, 4)), grad_enabled=True)
    backward(tensor_sum(mul(add(a, b), a)))

    def ref_loss(a, b):
        return float(((a + b) * a).sum())

    arrays = {"a": a.data, "b": b.data}
    check(a.grad, ref_loss, arrays, "a")
    check(b.grad, ref_loss, arrays, "b")


def test_composite_model_graph_gradients():
    """End-to-end graph: conv -> relu -> pool -> masked conv -> GAP -> CE."""
    rng = np.random.default_rng(99)
    x = Tensor(rng.uniform(0.1, 1.0, size=(2, 8, 8)).astype(np.float32), grad_enabled=False)
    k1 = Tensor(kink_free(rng, (3, 2, 3, 3)), grad_enabled=True)
    b1 = Tensor(kink_free(rng, (3,)), grad_enabled=True)
    mask = rng.uniform(0.2, 1.0, size=(4, 4)).astype(np.float32)
    k2 = Tensor(kink_free(rng, (4, 3, 1, 1)), grad_enabled=True)
    b2 = Tensor(kink_free(rng, (4,)), grad_enabled=True)

    def forward_loss():
        h = maxpool2d(relu(conv2d(x, k1, b1, stride=1, pad=1)))
        h = broadcast_mul_channels(h, Tensor(mask))
        s = conv2d(h, k2, b2, stride=1, pad=0)
        return softmax_cross_entropy(global_avg_pool(s), 2)

    backward(forward_loss())

    def ref_loss(k1, b1, k2, b2):
        h = oracles.relu_ref(oracles.conv2d_ref(x.data, k1, b1, stride=1, pad=1))
        h = oracles.maxpool2d_ref(h)
        h = oracles.broadcast_mul_ref(h, mask)
        s = oracles.conv2d_ref(h, k2, b2, stride=1, pad=0)
        return oracles.softmax_cross_entropy_ref(oracles.global_avg_pool_ref(s), 2)

    arrays = {"k1": k1.data, "b1": b1.data, "k2": k2.data, "b2": b2.data}
    check(k1.grad, ref_loss, arrays, "k1")
    check(b1.grad, ref_loss, arrays, "b1")
    check(k2.grad, ref_loss, arrays, "k2")
    check(b2.grad, ref_loss, arrays, "b2")
