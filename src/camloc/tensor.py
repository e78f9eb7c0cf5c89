"""Minimal dense-tensor core with reverse-mode automatic differentiation.

Float32 throughout, numpy-backed, covering exactly the operators the
two-branch localization model needs. Ops never write to their inputs and
always allocate fresh outputs.
Gradients accumulate into ``.grad`` across backward calls until an
optimizer step clears them.

Batches are channel-major: a batch of N feature maps is one (C,N,H,W)
array, the layout the im2col GEMM of :func:`conv2d` reads and writes, so
no op transposes between layers. A (C,H,W) input is the N=1 case. Pooling
to logits turns (C,N,H,W) into (N,C).

A conv whose output grid is its input grid (every conv of the model)
builds its im2col columns as one shifted copy per kernel tap of each
channel's flattened N*H*W block, with no padded buffer, and its input
gradient from one GEMM's column gradients as the same shifts added back;
the slices of that walk are computed once per shape (:func:`_tap_plan`).
Other convs copy one strided window per tap out of a zero-padded input
and add the gradients back into a padded buffer.

A recorded op's backward closure keeps only what its gradient reads, for
as long as the graph lives. A conv keeps its input, which the graph holds
anyway, not its im2col columns (9x the input for a 3x3 kernel): backward
builds them again. A backbone block keeps bool window masks, not its conv
output (:func:`conv_pool_relu`).
Under :func:`no_grad` no closure is recorded, so inference keeps nothing.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager

import numpy as np

# per thread: whether graphs are recorded
_state = threading.local()


def grad_tracking_enabled() -> bool:
    return getattr(_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording, e.g. for evaluation forward passes."""
    previous = grad_tracking_enabled()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = previous


class Tensor:
    """Dense float32 array with optional gradient tracking.

    ``grad`` appears after :func:`backward` and keeps accumulating across
    calls (supporting accumulation over the chunks of a batch) until cleared
    by :func:`sgd_step`.
    """

    __slots__ = ("data", "grad", "grad_enabled", "_parents", "_backward_fn")

    def __init__(self, data, grad_enabled: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keep 0-d scalars 0-d
        self.data = arr
        self.grad: np.ndarray | None = None
        self.grad_enabled = bool(grad_enabled)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __repr__(self) -> str:
        flag = ", grad" if self.grad_enabled else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


def _graph_order(root: Tensor) -> list[Tensor]:
    """The grad-enabled tensors reachable from ``root``, in topological
    order: every node after the producers of its inputs, so :func:`backward`
    replays the list in reverse to apply the chain rule."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.grad_enabled:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if grad_tracking_enabled() and any(p.grad_enabled for p in parents):
        out.grad_enabled = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float32, order="C")  # a copy: backward fns may share g
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every grad-enabled leaf ancestor of a scalar loss.

    An intermediate result drops its gradient as soon as its backward
    function has used it, so the gradients of a whole graph are never held
    at once.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {list(loss.shape)}")
    if not loss.grad_enabled:
        return
    order = _graph_order(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        grads = node._backward_fn(node.grad)
        node.grad = None
        for parent, grad in zip(node._parents, grads):
            if parent.grad_enabled and grad is not None:
                _accumulate(parent, grad)


def sgd_step(params, lr: float) -> None:
    """Vanilla gradient step ``p <- p - lr * grad``; clears grads after."""
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"learning rate must be finite and non-negative, got {lr}")
    params = list(params)
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter {p!r} has no gradient; run backward first")
    for p in params:
        p.data = (p.data - np.float32(lr) * p.grad).astype(np.float32, copy=False)
        p.grad = None


# ---------------------------------------------------------------------------
# operators


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (g * b.data, g * a.data)

    return _record(out, (a, b), bwd)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, accumulated in float64, returned as a scalar."""
    out = Tensor(np.float32(x.data.sum(dtype=np.float64)))

    def bwd(g):
        return (np.full(x.shape, np.float32(g), dtype=np.float32),)

    return _record(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is taken as 0."""
    out = Tensor(np.maximum(x.data, 0.0))
    return _record(out, (x,), lambda g: (g * (x.data > 0),))


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation of a (Cin,N,H,W) input with a (Cout,Cin,kh,kw)
    kernel, giving (Cout,N,oh,ow).

    A (Cin,H,W) input is the N=1 case and gives a (Cout,oh,ow) output. Zero
    padding; output spatial size (H + 2*pad - kh)//stride + 1.

    One im2col GEMM covers the batch. The forward's columns are dropped on
    return: the backward pass builds them again from the input, which the
    graph holds as a parent, computes the kernel gradient and drops them
    before it forms the input gradient. So a recorded conv keeps no columns,
    and at most one column-sized buffer is in use at a time. No input
    gradient is computed for an input that takes none.
    """
    if x.ndim not in (3, 4) or kernel.ndim != 4 or bias.ndim != 1:
        raise ValueError(
            f"conv2d expects input (Cin,N,H,W) or (Cin,H,W), kernel (Cout,Cin,kh,kw), bias (Cout); "
            f"got {x.shape}, {kernel.shape}, {bias.shape}"
        )
    cin, (h, w) = x.shape[0], x.shape[-2:]
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise ValueError(
            f"channel mismatch: input has {cin} channels (shape {x.shape}) but "
            f"kernel expects {kcin} (shape {kernel.shape})"
        )
    if bias.shape != (cout,):
        raise ValueError(f"bias shape {bias.shape} does not match {cout} output channels")
    if stride < 1 or pad < 0:
        raise ValueError(f"invalid stride/pad: {stride}, {pad}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ValueError(f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")

    batch = x.data.reshape(cin, -1, h, w)
    n = batch.shape[1]
    out_h, out_w = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    # the model's convs: sent through the padded _im2col/_col2im, train measured 15-18% slower
    same_size = stride == 1 and (out_h, out_w) == (h, w)

    def im2col():
        return _im2col_same(batch, kh, kw, pad) if same_size else _im2col(batch, kh, kw, pad, stride)

    # the GEMM output is already the contiguous (Cout,N,oh,ow) result
    out_data = (kernel.data.reshape(cout, -1) @ im2col()).reshape(cout, n, out_h, out_w)
    out_data += bias.data[:, None, None, None]
    out = Tensor(out_data.reshape(cout, *x.shape[1:-2], out_h, out_w))
    input_grad = x.grad_enabled

    def bwd(g):
        gmat = g.reshape(cout, -1)
        # columns built again from the input, which the graph holds anyway;
        # they are dropped before the column gradients are formed
        g_kernel = (im2col() @ gmat.T).T.reshape(kernel.shape)
        g_bias = gmat.sum(axis=1)
        if not input_grad:
            return (None, g_kernel, g_bias)
        if same_size:
            g_x = _input_grad_same(kernel.data, gmat, pad, n, h, w)
        else:
            g_cols = (kernel.data.reshape(cout, -1).T @ gmat).reshape(cin, kh, kw, n, out_h, out_w)
            g_x = _col2im(g_cols, pad, stride, (h, w))
        return (g_x.reshape(x.shape), g_kernel, g_bias)

    return _record(out, (x, kernel, bias), bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over the last two axes of a (C,H,W) or
    (C,N,H,W) input; gradient routes to the first max in row-major window
    order on ties."""
    if x.ndim not in (3, 4):
        raise ValueError(f"maxpool2d expects (C,H,W) or (C,N,H,W), got {x.shape}")
    out_data = maxpool2x2(x.data)
    out = Tensor(out_data)

    def bwd(g):
        return (_unpool(g, _first_max_masks(x.data, out_data, np.ones(out_data.shape, dtype=bool)), x.shape),)

    return _record(out, (x,), bwd)


def conv_pool_relu(x: Tensor, kernel: Tensor, bias: Tensor, pad: int) -> Tensor:
    """relu(maxpool2d(conv2d(x, kernel, bias, pad=pad))), bit for bit, as one
    op that keeps only what its backward reads: the conv's backward closure
    and the window masks (none under :func:`no_grad`)."""
    conv = conv2d(x, kernel, bias, stride=1, pad=pad)
    pooled = maxpool2x2(conv.data)
    out = Tensor(np.maximum(pooled, 0.0))
    if not conv.grad_enabled:
        return out
    # relu passes gradient where pooled > 0, so only those windows get a mask
    # bit: g * mask is then (g * relu') * mask, bit for bit, signed zeros and NaN included
    masks, conv_bwd, conv_shape = _first_max_masks(conv.data, pooled, pooled > 0), conv._backward_fn, conv.shape

    def bwd(g):
        return conv_bwd(_unpool(g, masks, conv_shape))

    return _record(out, (x, kernel, bias), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: (C,H,W) -> (C,), or (C,N,H,W) -> (N,C) logits."""
    if x.ndim not in (3, 4):
        raise ValueError(f"global_avg_pool expects (C,H,W) or (C,N,H,W), got {x.shape}")
    h, w = x.shape[-2:]
    out = Tensor(x.data.mean(axis=(-2, -1)).T)

    def bwd(g):
        scale = np.float32(1.0 / (h * w))
        return (np.broadcast_to((g.T * scale)[..., None, None], x.shape),)

    return _record(out, (x,), bwd)


def broadcast_mul_channels(features: Tensor, mask: Tensor) -> Tensor:
    """Scale every channel of (K,H,W) features by a (H,W) map, or of
    (K,N,H,W) features by each sample's map in (N,H,W).

    The map is treated as a constant during backprop: complement and
    threshold guidance masks are not differentiated through.
    """
    if features.ndim not in (3, 4) or mask.ndim != features.ndim - 1:
        raise ValueError(
            f"expected (K,H,W) features with a (H,W) map or (K,N,H,W) with (N,H,W), "
            f"got {features.shape}, {mask.shape}"
        )
    if mask.shape != features.shape[1:]:
        raise ValueError(f"spatial shape mismatch: features {features.shape} vs map {mask.shape}")
    mask_data = mask.data[None]
    out = Tensor(features.data * mask_data)

    def bwd(g):
        return (g * mask_data,)

    return _record(out, (features,), bwd)


def softmax_cross_entropy(logits: Tensor, label) -> Tensor:
    """Negative log-likelihood of ``label`` under softmax(logits), a scalar.

    1-d logits take one int label; (N,C) logits take N labels and give the
    sum of the N samples' losses.
    """
    if logits.ndim not in (1, 2):
        raise ValueError(f"softmax_cross_entropy expects (C,) or (N,C) logits, got {logits.shape}")
    z = logits.data.reshape(-1, logits.shape[-1])
    labels = np.asarray(label).reshape(-1)
    if labels.shape != (len(z),):
        raise ValueError(f"expected {len(z)} labels for logits {logits.shape}, got {labels.shape}")
    n = z.shape[1]
    if labels.min() < 0 or labels.max() >= n:
        raise IndexError(f"label {label} out of range for {n} classes")
    rows = np.arange(len(z))
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    out = Tensor(np.float32((np.log(total) - z[rows, labels]).sum()))
    probs = e / total[:, None]

    def bwd(g):
        grad = probs.copy()
        grad[rows, labels] -= 1.0
        return ((grad * np.float32(g)).reshape(logits.shape),)

    return _record(out, (logits,), bwd)


def bilinear_upsample(m: Tensor, out_h: int, out_w: int) -> Tensor:
    """Align-corners bilinear interpolation of a (h,w) map to (out_h,out_w).

    Upsampling only: out_h >= h and out_w >= w. Outputs are convex
    combinations of inputs, so values stay within [min(m), max(m)].
    """
    if m.ndim != 2:
        raise ValueError(f"bilinear_upsample expects a 2-d map, got {m.shape}")
    h, w = m.shape
    out = Tensor(upsample_bilinear(m.data, out_h, out_w))

    def bwd(g):
        # the map is separable, out = Ry @ m @ Rx.T, so its adjoint is
        # Ry.T @ g @ Rx; each interpolation matrix is the kernel applied to
        # the basis vectors of one axis
        ry_t = upsample_bilinear(np.eye(h, dtype=np.float32)[:, :, None], out_h, 1)[:, :, 0]
        rx_t = upsample_bilinear(np.eye(w, dtype=np.float32)[:, None, :], 1, out_w)[:, 0, :]
        return (ry_t @ g @ rx_t.T,)

    return _record(out, (m,), bwd)


# ---------------------------------------------------------------------------
# numpy kernels on a leading batch axis, behind the ops above and usable graph-free


def upsample_bilinear(maps: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Align-corners bilinear upsampling of the last two axes of ``maps``;
    any leading axes are carried along."""
    h, w = maps.shape[-2:]
    if out_h < h or out_w < w:
        raise ValueError(f"cannot shrink {h}x{w} to {out_h}x{out_w}")

    def axis_coords(n_in: int, n_out: int):
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
    # rows first, then columns: two 1-d gathers beat one 2-d fancy index.
    # The row weights go in before the column gather, on out_h x w instead of
    # out_h x out_w; each term is still (value * row weight) * column weight.
    top = maps[..., y0, :] * (1 - wy)
    bottom = maps[..., np.minimum(y0 + 1, h - 1), :] * wy
    return top[..., x0] * (1 - wx) + top[..., x1] * wx + bottom[..., x0] * (1 - wx) + bottom[..., x1] * wx


@functools.lru_cache(maxsize=64)
def _tap_plan(k: int, pad: int, n: int, h: int, w: int) -> tuple:
    """Per kernel row i of a stride-1 same-size k x k conv over (Cin,N,H,W)
    input, a pair (taps, outside). ``taps`` are the row's taps that land in
    the input, as shifts along the flattened N*H*W block: (j, out, inp)
    slices, tap position o reading input o + shift. Where that wraps into
    another row or plane, ``outside`` covers it: index tuples into the row's
    (Cin,k,N,H,W) cells that read outside the input (rows above or below,
    then per tap columns left or right; none if empty). A same-size conv
    has k = 2*pad + 1, so (k, pad, n, h, w) keys the whole walk."""
    size = n * h * w
    plan = []
    for i in range(k):
        top, bottom = max(0, pad - i), min(h, h + pad - i)
        taps, outside = [], []
        if top:
            outside.append((..., slice(None, top), slice(None)))
        if bottom < h:
            outside.append((..., slice(max(bottom, top), None), slice(None)))
        for j in range(k):
            left, right = max(0, pad - j), min(w, w + pad - j)
            if left:
                outside.append((slice(None), j, ..., slice(None, left)))
            if right < w:
                outside.append((slice(None), j, ..., slice(max(right, left), None)))
            if top < bottom and left < right:
                shift = (i - pad) * w + j - pad
                out, inp = slice(max(-shift, 0), size - max(shift, 0)), slice(max(shift, 0), size + min(shift, 0))
                taps.append((j, out, inp))
        plan.append((tuple(taps), tuple(outside)))
    return tuple(plan)


def _im2col_same(x: np.ndarray, kh: int, kw: int, pad: int) -> np.ndarray:
    """The (Cin*kh*kw, N*H*W) column matrix of a stride-1 conv whose output
    grid is its (Cin,N,H,W) input's grid: one shifted copy per tap of each
    channel's N*H*W block, then zeros where a tap reads outside the input;
    no padded buffer and no transpose. A 1x1 kernel's is the input itself."""
    cin, n, h, w = x.shape
    flat = x.reshape(cin, n * h * w)
    if kh == kw == 1:
        return flat
    columns = np.empty((cin, kh, kw, n * h * w), dtype=np.float32)
    for i, (taps, outside) in enumerate(_tap_plan(kh, pad, n, h, w)):
        for j, out, inp in taps:
            columns[:, i, j, out] = flat[:, inp]
        cells = columns[:, i].reshape(cin, kw, n, h, w)
        for index in outside:
            cells[index] = 0.0
    return columns.reshape(cin * kh * kw, n * h * w)


def _input_grad_same(kernel: np.ndarray, gmat: np.ndarray, pad: int, n: int, h: int, w: int) -> np.ndarray:
    """The (Cin,N,H,W) input gradient of a stride-1 same-size conv from its
    (Cout,N*H*W) output gradient: the column gradients W^T @ gmat as one
    GEMM, in the columns' shape; then per kernel row i, -0.0 where a tap
    reads outside the input and one shifted add per tap. x + (-0.0) has the
    bits of x, so each element sums the same terms in the same order as the
    padded buffer of :func:`_col2im`."""
    cout, cin, kh, kw = kernel.shape
    g_x = np.zeros((cin, n * h * w), dtype=np.float32)
    g_cols = (kernel.reshape(cout, -1).T @ gmat).reshape(cin, kh, kw, n * h * w)
    for i, (taps, outside) in enumerate(_tap_plan(kh, pad, n, h, w)):
        cells = g_cols[:, i].reshape(cin, kw, n, h, w)
        for index in outside:
            cells[index] = -0.0
        for j, out, inp in taps:
            g_x[:, inp] += g_cols[:, i, j, out]
    return g_x.reshape(cin, n, h, w)


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int, stride: int) -> np.ndarray:
    """The (Cin*kh*kw, N*oh*ow) column matrix of a (Cin,N,H,W) input at any
    stride and zero padding: the input is zero-padded once, then each tap
    copies one strided window of the padded buffer."""
    cin, n, h, w = x.shape
    out_h, out_w = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    padded = np.zeros((cin, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, :, pad : pad + h, pad : pad + w] = x
    columns = np.empty((cin, kh, kw, n, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            columns[:, i, j] = padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
    return columns.reshape(cin * kh * kw, n * out_h * out_w)


def _col2im(g_cols: np.ndarray, pad: int, stride: int, in_hw) -> np.ndarray:
    """col2im at any stride and padding: each tap adds its (Cin,N,oh,ow)
    column gradients into one strided window of a zero-padded buffer, which
    is then cropped to the (Cin,N,H,W) input gradient."""
    (cin, kh, kw, n, out_h, out_w), (h, w) = g_cols.shape, in_hw
    g_padded = np.zeros((cin, n, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            g_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += g_cols[:, i, j]
    return g_padded[:, :, pad : pad + h, pad : pad + w]


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 over the last two (even) axes: the max
    of each row pair first, which reads whole rows, then of column pairs."""
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"2x2 max pooling requires even spatial dims, got {h}x{w}")
    rows = np.maximum(x[..., ::2, :], x[..., 1::2, :])
    return np.maximum(rows[..., ::2], rows[..., 1::2])


def _first_max_masks(x: np.ndarray, pooled: np.ndarray, free: np.ndarray) -> dict:
    """Per 2x2 window position (dy, dx), in row-major order, a bool mask of
    the pooled grid: where ``x`` equals its window's max and no earlier
    position did, among the windows that ``free`` marks (it is used up). On
    ties the pool's gradient goes to the first max."""
    masks = {}
    for dy, dx in np.ndindex(2, 2):
        masks[dy, dx] = first = x[..., dy::2, dx::2] == pooled
        first &= free
        free ^= first
    return masks


def _unpool(g: np.ndarray, masks: dict, shape) -> np.ndarray:
    """A 2x2 pool's input gradient: ``g`` routed through its window masks."""
    g_x = np.empty(shape, dtype=np.float32)
    for (dy, dx), first in masks.items():
        np.multiply(g, first, out=g_x[..., dy::2, dx::2])
    return g_x
