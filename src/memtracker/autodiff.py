"""Dense-tensor numeric core with reverse-mode differentiation.

Every operation records itself on the implicit computation graph (parent
links plus a backward closure); ``backward(loss)`` replays the recorded
operations in reverse topological order, visiting each node exactly once.
float32 is the training/inference dtype, float64 the gradient-check dtype.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (fast inference)."""

    def __enter__(self):
        global _grad_enabled
        self.prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self.prev
        return False


class Tensor:
    """N-dimensional array plus an optional gradient accumulator.

    ``requires_grad`` marks trainable leaves; derived tensors require grad
    whenever any parent does and recording is enabled.  ``grad`` is lazily
    allocated by the backward pass and accumulates across calls until
    ``zero_grad`` resets it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else None)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # light operator sugar; the module functions do the work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _as_pair(a, b):
    """Coerce the non-Tensor operand to the other operand's dtype."""
    if isinstance(a, Tensor):
        return a, _as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return _as_tensor(a, like=b), b
    return _as_tensor(a), _as_tensor(b)


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    a, b = _as_pair(a, b)
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def neg(a):
    def bw(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _make(-a.data, (a,), bw)


def sub(a, b):
    a, b = _as_pair(a, b)
    return add(a, neg(b))


def mul(a, b):
    a, b = _as_pair(a, b)
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def div(a, b):
    a, b = _as_pair(a, b)
    out_data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), bw)


def matmul(a, b):
    """2-D x 2-D, 2-D x 1-D or 1-D x 2-D product."""
    a, b = _as_pair(a, b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {a.data.ndim}-D @ {b.data.ndim}-D")
    out_data = a.data @ b.data

    def bw(g):
        ad, bd = a.data, b.data
        if a.requires_grad:
            if bd.ndim == 2:
                a._accumulate(g @ bd.T)
            elif ad.ndim == 2:  # 2-D @ 1-D
                a._accumulate(np.outer(g, bd))
            else:  # 1-D @ 1-D
                a._accumulate(g * bd)
        if b.requires_grad:
            if ad.ndim == 2:
                b._accumulate(ad.T @ g)
            elif bd.ndim == 2:  # 1-D @ 2-D
                b._accumulate(np.outer(ad, g))
            else:
                b._accumulate(g * ad)

    return _make(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def texp(a):
    out_data = np.exp(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return _make(out_data, (a,), bw)


def tlog(a):
    def bw(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), bw)


def tsqrt(a):
    out_data = np.sqrt(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), bw)


def tanh(a):
    out_data = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bw)


def _sigmoid_raw(x):
    # piecewise form avoids overflow for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    out_data = _sigmoid_raw(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bw)


def relu(a):
    out_data = np.maximum(a.data, 0.0)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(out_data, (a,), bw)


def softplus(a):
    """log(1 + exp(x)), computed stably."""
    out_data = np.logaddexp(0.0, a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * _sigmoid_raw(a.data))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions / shape ops

def tsum(a, axis=None, keepdims=False):
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy() if np.ndim(g) else np.full_like(a.data, g))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _make(out_data, (a,), bw)


def tmean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    old_shape = a.data.shape

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), bw)


def transpose(a):
    """2-D matrix transpose."""
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _make(a.data.T.copy(), (a,), bw)


def getitem(a, idx):
    parts = idx if isinstance(idx, tuple) else (idx,)
    basic = all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if basic:  # no duplicate writes possible
                full[idx] += g
            else:
                np.add.at(full, idx, g)
            a._accumulate(full)

    return _make(a.data[idx].copy(), (a,), bw)


# ---------------------------------------------------------------------------
# spec'd numeric primitives

def softmax(v):
    """Stable softmax of a non-empty vector (positive entries, sum 1)."""
    if not isinstance(v, Tensor):
        v = Tensor(v)
    if v.data.ndim != 1 or v.data.size == 0:
        raise ValueError("softmax expects a non-empty 1-D vector")
    shifted = add(v, Tensor(np.full(v.data.shape, -float(v.data.max()), dtype=v.data.dtype)))
    e = texp(shifted)
    return div(e, tsum(e))


def cosine_rows(keys, k, eps=1e-12):
    """Cosine similarity of each row of `keys` against vector `k`.

    Rows whose norm falls below `eps` (or a near-zero `k`) score exactly 0
    and pass no gradient, so an empty memory reads with uniform weights.
    """
    keys, k = _as_tensor(keys), _as_tensor(k)
    K, kv = keys.data, k.data
    if K.ndim != 2 or kv.ndim != 1 or K.shape[1] != kv.shape[0]:
        raise ValueError(f"cosine_rows shape mismatch: {K.shape} vs {kv.shape}")
    knorm = np.linalg.norm(kv)
    rnorm = np.linalg.norm(K, axis=1)
    live = (rnorm >= eps) & (knorm >= eps)
    denom = np.where(live, rnorm * max(knorm, eps), 1.0)
    dots = K @ kv
    out_data = np.where(live, dots / denom, 0.0).astype(K.dtype)

    def bw(g):
        gl = g * live
        if keys.requires_grad:
            # d cos_j / d K_j = k/(r_j kn) - dot_j K_j / (r_j^3 kn)
            coef1 = (gl / denom)[:, None]
            coef2 = (gl * dots / (np.where(live, rnorm, 1.0) ** 2 * denom))[:, None]
            keys._accumulate(coef1 * kv[None, :] - coef2 * K)
        if k.requires_grad:
            coef1 = gl / denom
            coef2 = gl * dots / (denom * max(knorm, eps) ** 2)
            k._accumulate(coef1 @ K - coef2.sum() * kv)

    return _make(out_data, (keys, k), bw)


def cosine_similarity(x, y):
    """x.y / (|x||y|), 0 when either vector is (near) zero."""
    x, y = _as_tensor(x), _as_tensor(y)
    if x.data.shape != y.data.shape or x.data.ndim != 1:
        raise ValueError(f"cosine_similarity needs equal-length vectors, got {x.data.shape} and {y.data.shape}")
    return reshape(cosine_rows(reshape(x, (1, x.data.size)), y), ())


def dense_affine(x, W, b):
    """W x + b."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if W.data.ndim != 2 or W.data.shape[1] != x.data.shape[0] or W.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"dense_affine shapes disagree: W{W.data.shape} x{x.data.shape} b{b.data.shape}")
    return add(matmul(W, x), b)


def layer_norm(v, gain, bias, eps=1e-5):
    """gain * (v - mean) / sqrt(var + eps) + bias."""
    v, gain, bias = _as_tensor(v), _as_tensor(gain), _as_tensor(bias)
    if not (v.data.shape == gain.data.shape == bias.data.shape):
        raise ValueError("layer_norm operands must share one shape")
    mu = tmean(v)
    centered = sub(v, mu)
    var = tmean(mul(centered, centered))
    inv = div(1.0, tsqrt(add(var, float(eps))))
    return add(mul(gain, mul(centered, inv)), bias)


def _im2col(x, kh, kw, stride):
    """(H,W,C) -> (oh*ow, kh*kw*C) patch matrix (row-major over output cells)."""
    H, W, C = x.shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    s0, s1, s2 = x.strides
    windows = as_strided(x, (oh, ow, kh, kw, C), (s0 * stride, s1 * stride, s0, s1, s2))
    return windows.reshape(oh * ow, kh * kw * C), oh, ow


def conv2d(x, kernels, stride=1):
    """Valid (unpadded) strided 2-D convolution.

    x: (H,W,Cin) feature map; kernels: (kh,kw,Cin,Cout). Output channels are
    the kernel count. Implemented as an im2col matmul; the patch matrix is
    cached for the weight gradient.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if x.data.ndim != 3 or kernels.data.ndim != 4:
        raise ValueError("conv2d expects (H,W,C) input and (kh,kw,Cin,Cout) kernels")
    H, W, Cin = x.data.shape
    kh, kw, kc, cout = kernels.data.shape
    if kc != Cin:
        raise ValueError(f"conv2d channel mismatch: input has {Cin}, kernels expect {kc}")
    if kh > H or kw > W:
        raise ValueError(f"conv2d kernel {kh}x{kw} larger than input {H}x{W}")
    col, oh, ow = _im2col(x.data, kh, kw, stride)
    wflat = kernels.data.reshape(kh * kw * Cin, cout)
    out_data = (col @ wflat).reshape(oh, ow, cout)

    def bw(g):
        gflat = g.reshape(oh * ow, cout)
        if kernels.requires_grad:
            kernels._accumulate((col.T @ gflat).reshape(kernels.data.shape))
        if x.requires_grad:
            # full correlation of the (dilated, padded) output grad with the
            # spatially flipped kernels recovers the input gradient
            if stride > 1:
                gd = np.zeros(((oh - 1) * stride + 1, (ow - 1) * stride + 1, cout), dtype=g.dtype)
                gd[::stride, ::stride] = g
            else:
                gd = g
            gp = np.pad(gd, ((kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
            wrot = kernels.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * cout, Cin)
            gcol, gh, gw = _im2col(gp, kh, kw, 1)
            dx = (gcol @ wrot).reshape(gh, gw, Cin)
            if (gh, gw) != (H, W):  # stride did not tile the input exactly
                full = np.zeros_like(x.data)
                full[:gh, :gw] = dx
                dx = full
            x._accumulate(dx)

    return _make(out_data, (x, kernels), bw)


def cross_correlate(search, template):
    """Slide `template` over `search`, full dot product per alignment.

    search: (H,W,C); template: (n,n,C); output: (H-n+1, W-n+1).
    """
    search, template = _as_tensor(search), _as_tensor(template)
    H, W, C = search.data.shape
    n, n2, tc = template.data.shape
    if tc != C:
        raise ValueError(f"cross_correlate channel mismatch: {C} vs {tc}")
    if n > H or n2 > W:
        raise ValueError("template larger than search map")
    col, oh, ow = _im2col(search.data, n, n2, 1)
    out_data = (col @ template.data.reshape(-1)).reshape(oh, ow)

    def bw(g):
        gflat = g.reshape(-1)
        if template.requires_grad:
            template._accumulate((col.T @ gflat).reshape(template.data.shape))
        if search.requires_grad:
            gp = np.pad(g, ((n - 1, n - 1), (n2 - 1, n2 - 1)))
            gcol, gh, gw = _im2col(gp[:, :, None], n, n2, 1)
            tflip = template.data[::-1, ::-1].reshape(n * n2, C)
            search._accumulate((gcol @ tflip).reshape(gh, gw, C))

    return _make(out_data, (search, template), bw)


def avg_pool(x, n, stride):
    """Mean over each n-by-n window per channel; valid placement only."""
    x = _as_tensor(x)
    H, W, C = x.data.shape
    if n > H or n > W:
        raise ValueError(f"avg_pool window {n} exceeds input extent {H}x{W}")
    if stride < 1:
        raise ValueError("stride must be positive")
    s0, s1, s2 = x.data.strides
    oh = (H - n) // stride + 1
    ow = (W - n) // stride + 1
    windows = as_strided(x.data, (oh, ow, n, n, C), (s0 * stride, s1 * stride, s0, s1, s2))
    out_data = windows.mean(axis=(2, 3))

    def bw(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        gs = g / (n * n)
        for u in range(n):
            for v in range(n):
                dx[u:u + oh * stride:stride, v:v + ow * stride:stride] += gs
        x._accumulate(dx)

    return _make(out_data, (x,), bw)


def max_pool(x, n, stride):
    """Max over each n-by-n window per channel."""
    x = _as_tensor(x)
    H, W, C = x.data.shape
    if n > H or n > W:
        raise ValueError(f"max_pool window {n} exceeds input extent {H}x{W}")
    s0, s1, s2 = x.data.strides
    oh = (H - n) // stride + 1
    ow = (W - n) // stride + 1
    windows = as_strided(x.data, (oh, ow, n, n, C), (s0 * stride, s1 * stride, s0, s1, s2))
    flat = windows.reshape(oh, ow, n * n, C)
    arg = flat.argmax(axis=2)
    out_data = np.take_along_axis(flat, arg[:, :, None, :], axis=2)[:, :, 0, :]

    def bw(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        ii, jj, cc = np.meshgrid(np.arange(oh), np.arange(ow), np.arange(C), indexing="ij")
        u, v = arg // n, arg % n
        np.add.at(dx, (ii * stride + u, jj * stride + v, cc), g)
        x._accumulate(dx)

    return _make(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss):
    """Propagate d loss / d leaf into every reachable differentiable leaf.

    `loss` must be a scalar produced by recorded operations. Traversal is an
    iterative topological sort, so deep unrolled graphs are safe.
    """
    if not isinstance(loss, Tensor):
        raise ValueError("backward expects a Tensor loss")
    if loss.data.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
