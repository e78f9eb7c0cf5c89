"""Independent reference implementations and finite-difference helpers.

Everything here is written against the mathematical definitions, in
float64, with naive loops or offset sums, deliberately avoiding the
im2col/matmul shapes of the library code so gradient and forward checks
stay independent of the paths they verify.
"""

import numpy as np


def conv2d_ref(x, kernel, bias, stride=1, pad=0):
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((cout, oh, ow))
    for oc in range(cout):
        for i in range(kh):
            for j in range(kw):
                patch = xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
                out[oc] += (kernel[oc, :, i, j][:, None, None] * patch).sum(axis=0)
        out[oc] += bias[oc]
    return out


def relu_ref(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def maxpool2d_ref(x):
    x = np.asarray(x, dtype=np.float64)
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for k in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                out[k, i, j] = x[k, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
    return out


def global_avg_pool_ref(x):
    return np.asarray(x, dtype=np.float64).mean(axis=(1, 2))


def broadcast_mul_ref(features, mask):
    return np.asarray(features, dtype=np.float64) * np.asarray(mask, dtype=np.float64)[None]


def softmax_cross_entropy_ref(logits, label):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def bilinear_upsample_ref(m, out_h, out_w):
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape
    out = np.zeros((out_h, out_w))
    for y in range(out_h):
        sy = 0.0 if out_h == 1 or h == 1 else y * (h - 1) / (out_h - 1)
        y0 = min(int(np.floor(sy)), max(h - 2, 0))
        fy = sy - y0
        y1 = min(y0 + 1, h - 1)
        for x in range(out_w):
            sx = 0.0 if out_w == 1 or w == 1 else x * (w - 1) / (out_w - 1)
            x0 = min(int(np.floor(sx)), max(w - 2, 0))
            fx = sx - x0
            x1 = min(x0 + 1, w - 1)
            out[y, x] = (
                m[y0, x0] * (1 - fy) * (1 - fx)
                + m[y0, x1] * (1 - fy) * fx
                + m[y1, x0] * fy * (1 - fx)
                + m[y1, x1] * fy * fx
            )
    return out


def block_average_ref(values, radius):
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    side = 2 * radius + 1
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            total = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        total += values[yy, xx]
            out[y, x] = total / side**2
    return out


def l1norm_fusion_ref(score_maps_a, score_maps_b, class_index, radius):
    sa = np.asarray(score_maps_a, dtype=np.float64)
    sb = np.asarray(score_maps_b, dtype=np.float64)
    ma = block_average_ref(np.abs(sa).sum(axis=0), radius)
    mb = block_average_ref(np.abs(sb).sum(axis=0), radius)
    h, w = ma.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            denom = ma[y, x] + mb[y, x]
            if denom > 0:
                wa, wb = ma[y, x] / denom, mb[y, x] / denom
            else:
                wa = wb = 0.5
            out[y, x] = wa * sa[class_index, y, x] + wb * sb[class_index, y, x]
    return out


def iou_pixel_count_ref(box_a, box_b, height, width):
    """IoU via literal membership counting on the integer pixel grid."""
    grid_a = np.zeros((height, width), dtype=bool)
    grid_b = np.zeros((height, width), dtype=bool)
    grid_a[box_a.y_min : box_a.y_max, box_a.x_min : box_a.x_max] = True
    grid_b[box_b.y_min : box_b.y_max, box_b.x_min : box_b.x_max] = True
    inter = int((grid_a & grid_b).sum())
    union = int((grid_a | grid_b).sum())
    return inter / union


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(ref_loss, arrays, wrt, step=1e-3):
    """Central finite differences of ``ref_loss(**arrays)`` w.r.t. one array."""
    base = {k: np.asarray(v, dtype=np.float64).copy() for k, v in arrays.items()}
    x = base[wrt]
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        f_plus = ref_loss(**base)
        x[idx] = orig - step
        f_minus = ref_loss(**base)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * step)
    return grad


def max_rel_err(analytic, numeric, exempt=1e-6):
    """Largest relative disagreement, skipping near-zero element pairs."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    scale = np.abs(a) + np.abs(n)
    keep = scale >= exempt
    if not keep.any():
        return 0.0
    denom = np.maximum(np.abs(a[keep]), np.abs(n[keep]))
    return float((np.abs(a[keep] - n[keep]) / denom).max())


# ---------------------------------------------------------------------------
# training, one sample at a time


def per_sample_sgd_step(params, samples, config):
    """One SGD step over ``samples`` as a single batch, the way training ran
    before chunking: one graph and one backward per (3,H,W) sample, the
    gradients summed, then scaled by 1/len(samples)."""
    from camloc import backward, dual_branch_loss, forward, sgd_step

    trainable = params.trainable()
    for sample in samples:
        art = forward(
            params, sample.image, guide_class=sample.label,
            mode=config.guidance_mode, erase_threshold=config.erase_threshold,
        )
        backward(dual_branch_loss(art.logits_a, art.logits_b, sample.label))
    for p in trainable:
        p.grad *= np.float32(1.0 / len(samples))
    sgd_step(trainable, config.learning_rate)


# ---------------------------------------------------------------------------
# hand-built model whose score maps respond to object brightness


def objectness_params(num_classes=4, channels=(4, 4, 4), head_width=4):
    """Weights that pass object brightness through channel 0 everywhere.

    The first conv averages the input and subtracts the noise floor, so
    after relu only object pixels stay positive; later layers pass channel
    0 through their center tap (no blur) and the 1x1 score conv copies it
    into every class channel. Classification is chance, but every class
    map highlights the object tightly.
    """
    from camloc import ModelParams, Tensor

    tensors = {}
    in_ch = 3
    for i, out_ch in enumerate(channels):
        weight = np.zeros((out_ch, in_ch, 3, 3), dtype=np.float32)
        bias = np.zeros(out_ch, dtype=np.float32)
        if i == 0:
            weight[0] = 1.0 / (in_ch * 9)
            bias[0] = -0.15
        else:
            weight[0, 0, 1, 1] = 1.0
        tensors[f"backbone.{i}.weight"] = Tensor(weight, grad_enabled=True)
        tensors[f"backbone.{i}.bias"] = Tensor(bias, grad_enabled=True)
        in_ch = out_ch
    for branch in ("branch_a", "branch_b"):
        conv1 = np.zeros((head_width, channels[-1], 3, 3), dtype=np.float32)
        conv1[0, 0, 1, 1] = 1.0
        conv2 = np.zeros((head_width, head_width, 3, 3), dtype=np.float32)
        conv2[0, 0, 1, 1] = 1.0
        score = np.zeros((num_classes, head_width, 1, 1), dtype=np.float32)
        score[:, 0, 0, 0] = 1.0
        tensors[f"{branch}.conv1.weight"] = Tensor(conv1, grad_enabled=True)
        tensors[f"{branch}.conv1.bias"] = Tensor(np.zeros(head_width, dtype=np.float32), grad_enabled=True)
        tensors[f"{branch}.conv2.weight"] = Tensor(conv2, grad_enabled=True)
        tensors[f"{branch}.conv2.bias"] = Tensor(np.zeros(head_width, dtype=np.float32), grad_enabled=True)
        tensors[f"{branch}.score.weight"] = Tensor(score, grad_enabled=True)
        tensors[f"{branch}.score.bias"] = Tensor(np.zeros(num_classes, dtype=np.float32), grad_enabled=True)
    return ModelParams(tensors)
