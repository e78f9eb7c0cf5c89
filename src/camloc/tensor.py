"""Minimal dense-tensor core with reverse-mode automatic differentiation.

Float32 throughout, numpy-backed, covering exactly the operators the
two-branch localization model needs. Ops allocate fresh outputs and never
write to their inputs; gradients accumulate into ``.grad`` across backward
calls until an optimizer step clears them.

Batches are channel-major: a batch of N feature maps is one (C,N,H,W)
array, the layout the im2col GEMM of :func:`conv2d` reads and writes, so
no op transposes between layers. A (C,H,W) input is the N=1 case. Pooling
to logits turns (C,N,H,W) into (N,C).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_grad_state = threading.local()


def grad_tracking_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording, e.g. for evaluation forward passes."""
    previous = grad_tracking_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


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

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __repr__(self) -> str:
        flag = ", grad" if self.grad_enabled else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


class ComputationRecord:
    """Operations reachable from a root tensor, in topological order.

    Every node appears after the producers of its inputs, so replaying the
    list in reverse applies the chain rule.
    """

    def __init__(self, root: Tensor):
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
        self.steps = order


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
    record = ComputationRecord(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(record.steps):
        if node._backward_fn is None or node.grad is None:
            continue
        grads = node._backward_fn(node.grad)
        node.grad = None
        for parent, grad in zip(node._parents, grads):
            if parent.grad_enabled and grad is not None:
                _accumulate(parent, grad)


def sgd_step(params, lr: float) -> None:
    """Vanilla gradient step ``p <- p - lr * grad``; clears grads after."""
    if lr < 0:
        raise ValueError(f"learning rate must be non-negative, got {lr}")
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
    padding; output spatial size (H + 2*pad - kh)//stride + 1. The backward
    pass recomputes the im2col columns from the input instead of keeping
    them, and computes no input gradient for an input that takes none.
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
    out_data = conv2d_batch(batch, kernel.data, bias.data, pad, stride)
    _, n, out_h, out_w = out_data.shape
    out = Tensor(out_data.reshape(cout, *x.shape[1:-2], out_h, out_w))
    input_grad = x.grad_enabled

    def bwd(g):
        gmat = g.reshape(cout, -1)
        g_kernel = (_im2col(batch, kh, kw, pad, stride) @ gmat.T).T.reshape(kernel.shape)
        g_bias = gmat.sum(axis=1)
        if not input_grad:
            return (None, g_kernel, g_bias)
        g_cols = (kernel.data.reshape(cout, -1).T @ gmat).reshape(cin, kh, kw, n, out_h, out_w)
        # col2im straight into the unpadded gradient: each tap adds only the
        # output positions that land inside the input, in the same order as
        # through a zero-padded buffer
        g_x = np.zeros((cin, n, h, w), dtype=np.float32)
        for i in range(kh):
            rows, tap_rows = _tap(i - pad, stride, out_h, h)
            for j in range(kw):
                cols, tap_cols = _tap(j - pad, stride, out_w, w)
                g_x[:, :, rows, cols] += g_cols[:, i, j, :, tap_rows, tap_cols]
        return (g_x.reshape(x.shape), g_kernel, g_bias)

    return _record(out, (x, kernel, bias), bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over the last two axes of a (C,H,W) or
    (C,N,H,W) input; gradient routes to the first max in row-major window
    order on ties."""
    if x.ndim not in (3, 4):
        raise ValueError(f"maxpool2d expects (C,H,W) or (C,N,H,W), got {x.shape}")
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2d requires even spatial dims, got {h}x{w}")
    out_data = maxpool2x2(x.data)
    out = Tensor(out_data)

    def bwd(g):
        # one window position at a time, in row-major order: each takes the
        # gradient where it equals the max and no earlier position did; the
        # four positions together write every element of g_x
        g_x = np.empty_like(x.data)
        taken = np.zeros(out_data.shape, dtype=bool)
        for dy in (0, 1):
            for dx in (0, 1):
                first = (x.data[..., dy::2, dx::2] == out_data) & ~taken
                g_x[..., dy::2, dx::2] = g * first
                taken |= first
        return (g_x,)

    return _record(out, (x,), bwd)


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 1-d array (max subtraction)."""
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


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
        # the map is linear: its Jacobian is the kernel applied to the basis maps
        basis = np.eye(h * w, dtype=np.float32).reshape(h * w, h, w)
        jacobian = upsample_bilinear(basis, out_h, out_w).reshape(h * w, out_h * out_w)
        return ((jacobian @ g.reshape(-1)).reshape(h, w),)

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


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int, stride: int) -> np.ndarray:
    """The (Cin*kh*kw, N*oh*ow) column matrix of zero-padded (Cin,N,H,W) inputs;
    for a 1x1 kernel at stride 1 it is the input itself, reshaped."""
    cin, n, h, w = x.shape
    if kh == kw == stride == 1 and pad == 0:
        return x.reshape(cin, n * h * w)
    if pad:
        xp = np.zeros((cin, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
        x = xp
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    _, _, out_h, out_w = windows.shape[:4]
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(cin * kh * kw, n * out_h * out_w)


def _tap(offset: int, stride: int, n_out: int, n_in: int) -> tuple[slice, slice]:
    """Where one kernel tap lands along an axis: the input slice and the
    output slice of the positions o with 0 <= o*stride + offset < n_in."""
    lo = max(0, -(offset // stride))
    hi = min(n_out, (n_in - 1 - offset) // stride + 1)
    if hi <= lo:
        return slice(0, 0), slice(0, 0)
    return slice(lo * stride + offset, (hi - 1) * stride + offset + 1, stride), slice(lo, hi)


def conv2d_batch(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, pad: int, stride: int = 1) -> np.ndarray:
    """Zero-padded cross-correlation of (Cin,N,H,W) inputs with a
    (Cout,Cin,kh,kw) kernel: one im2col GEMM for the batch, whose output is
    already the contiguous (Cout,N,oh,ow) result."""
    _, n, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    out_h, out_w = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    out = (kernel.reshape(cout, -1) @ _im2col(x, kh, kw, pad, stride)).reshape(cout, n, out_h, out_w)
    out += bias[:, None, None, None]
    return out


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 over the last two (even) axes: the max
    of each row pair first, which reads whole rows, then of column pairs."""
    rows = np.maximum(x[..., ::2, :], x[..., 1::2, :])
    return np.maximum(rows[..., ::2], rows[..., 1::2])
