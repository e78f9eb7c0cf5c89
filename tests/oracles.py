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


def im2col_padded(x, kh, kw, pad, stride):
    """The (Cin*kh*kw, N*oh*ow) columns of a (Cin,N,H,W) input as the conv
    built them before the shifted-copy columns: a zero-padded buffer, then
    a transposed copy of its sliding windows."""
    from numpy.lib.stride_tricks import sliding_window_view

    cin, n, h, w = x.shape
    xp = np.zeros((cin, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out_h, out_w = windows.shape[2:4]
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(cin * kh * kw, n * out_h * out_w)


def conv2d_nchw(x, kernel, bias, stride=1, pad=0):
    """The float32 im2col conv as it ran on batch-major (N,Cin,H,W) inputs,
    before batches went channel-major: forward output (N,Cout,oh,ow) and a
    function from the output gradient to (g_x, g_kernel, g_bias)."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    out_h, out_w = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1

    columns = im2col_padded(x.transpose(1, 0, 2, 3), kh, kw, pad, stride)
    gemm = (kernel.reshape(cout, -1) @ columns).reshape(cout, n, out_h, out_w)
    out = np.empty((n, cout, out_h, out_w), dtype=np.float32)
    np.add(gemm.transpose(1, 0, 2, 3), bias[:, None, None], out=out)

    def backward(g):
        gmat = g.reshape(n, cout, out_h * out_w).transpose(1, 0, 2).reshape(cout, n * out_h * out_w)
        g_kernel = (gmat @ columns.T).reshape(kernel.shape)
        g_bias = gmat.sum(axis=1)
        g_cols = (kernel.reshape(cout, -1).T @ gmat).reshape(cin, kh, kw, n, out_h, out_w)
        g_xp = np.zeros((cin, n, h + 2 * pad, w + 2 * pad), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                g_xp[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += g_cols[:, i, j]
        return g_xp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3), g_kernel, g_bias

    return out, backward


def maxpool2x2_four_slices(x):
    """2x2 max pooling as the max of the four stride-2 slices, pairing the
    two top positions and the two bottom ones first."""
    return np.maximum(
        np.maximum(x[..., ::2, ::2], x[..., ::2, 1::2]),
        np.maximum(x[..., 1::2, ::2], x[..., 1::2, 1::2]),
    )


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


def upsample_bilinear_4term_ref(maps, out_h, out_w):
    """The float32 kernel as it was before the row weights moved in ahead of
    the column gather: four gathered corners, each times both weights."""
    h, w = maps.shape[-2:]

    def axis_coords(n_in, n_out):
        if n_in == 1 or n_out == 1:
            return np.zeros(n_out, dtype=np.intp), np.zeros(n_out, dtype=np.float32)
        src = np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)
        i0 = np.minimum(np.floor(src).astype(np.intp), n_in - 2)
        return i0, (src - i0).astype(np.float32)

    y0, fy = axis_coords(h, out_h)
    x0, fx = axis_coords(w, out_w)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = fy[:, None]
    wx = fx[None, :]
    row0, row1 = maps[..., y0, :], maps[..., np.minimum(y0 + 1, h - 1), :]
    return (
        row0[..., x0] * (1 - wy) * (1 - wx)
        + row0[..., x1] * (1 - wy) * wx
        + row1[..., x0] * wy * (1 - wx)
        + row1[..., x1] * wy * wx
    )


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


def block_average_every_offset(values, radius):
    """``fusion.block_average`` as it was before its offsets were bounded by
    the map size: pad by r, then one float64 slice add for each of the
    (2r+1)^2 offsets, in row-major order."""
    arr = np.asarray(values, dtype=np.float32)
    h, w = arr.shape[-2:]
    padded = np.pad(arr.astype(np.float64), [(0, 0)] * (arr.ndim - 2) + [(radius, radius)] * 2)
    acc = np.zeros(arr.shape, dtype=np.float64)
    side = 2 * radius + 1
    for dy in range(side):
        for dx in range(side):
            acc += padded[..., dy : dy + h, dx : dx + w]
    return (acc / side**2).astype(np.float32)


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


def extract_bbox_ref(heatmap, tau):
    """Box extraction one 2-d map at a time: label the 4-connected mask,
    count component sizes, take the first largest and its bounding slices."""
    from scipy import ndimage

    from camloc import BBox

    arr = np.asarray(heatmap, dtype=np.float32)
    mask = arr >= tau * arr.max()
    labels, _ = ndimage.label(mask, structure=ndimage.generate_binary_structure(2, 1))
    sizes = np.bincount(labels.ravel())[1:]
    largest = int(np.argmax(sizes)) + 1
    rows, cols = ndimage.find_objects(labels, max_label=largest)[-1]
    return BBox(cols.start, rows.start, cols.stop, rows.stop)


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
    gradients averaged, then the mean gradient ḡ scaled by
    min(1, c / ‖ḡ‖) with c = ``model.CLIP_NORM``, read at call time.

    Returns ‖ḡ‖, the float64 norm before the cap, so a caller can tell
    whether the cap bound."""
    from camloc import backward, dual_branch_loss, forward, model, sgd_step

    trainable = params.trainable()
    for sample in samples:
        art = forward(params, sample.image, guide_class=sample.label, mode=config.guidance_mode)
        backward(dual_branch_loss(art.logits_a, art.logits_b, sample.label))
    mean = [p.grad.astype(np.float64) / len(samples) for p in trainable]
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in mean)))
    factor = min(1.0, model.CLIP_NORM / norm)
    for p, g in zip(trainable, mean):
        p.grad = (g * factor).astype(np.float32)
    sgd_step(trainable, config.learning_rate)
    return norm


# ---------------------------------------------------------------------------
# hand-built model whose score maps respond to object brightness


def objectness_params(num_classes=4):
    """Weights of the model's architecture that pass object brightness
    through channel 0 everywhere.

    The first conv averages the input and subtracts the noise floor, so
    after relu only object pixels stay positive; later layers pass channel
    0 through their center tap (no blur) and the 1x1 score conv copies it
    into every class channel. Classification is chance, but every class
    map highlights the object tightly.
    """
    from camloc import ModelParams, Tensor
    from camloc.model import BACKBONE_CHANNELS, HEAD_WIDTH

    tensors = {}
    in_ch = 3
    for i, out_ch in enumerate(BACKBONE_CHANNELS):
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
        conv1 = np.zeros((HEAD_WIDTH, BACKBONE_CHANNELS[-1], 3, 3), dtype=np.float32)
        conv1[0, 0, 1, 1] = 1.0
        conv2 = np.zeros((HEAD_WIDTH, HEAD_WIDTH, 3, 3), dtype=np.float32)
        conv2[0, 0, 1, 1] = 1.0
        score = np.zeros((num_classes, HEAD_WIDTH, 1, 1), dtype=np.float32)
        score[:, 0, 0, 0] = 1.0
        tensors[f"{branch}.conv1.weight"] = Tensor(conv1, grad_enabled=True)
        tensors[f"{branch}.conv1.bias"] = Tensor(np.zeros(HEAD_WIDTH, dtype=np.float32), grad_enabled=True)
        tensors[f"{branch}.conv2.weight"] = Tensor(conv2, grad_enabled=True)
        tensors[f"{branch}.conv2.bias"] = Tensor(np.zeros(HEAD_WIDTH, dtype=np.float32), grad_enabled=True)
        tensors[f"{branch}.score.weight"] = Tensor(score, grad_enabled=True)
        tensors[f"{branch}.score.bias"] = Tensor(np.zeros(num_classes, dtype=np.float32), grad_enabled=True)
    return ModelParams(tensors)
