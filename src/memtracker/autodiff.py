"""Dense-tensor numeric core with reverse-mode differentiation.

Every operation states its output and one vector-Jacobian product (VJP) per
input: the map from the output's gradient to that input's. The graph keeps
the inputs that require grad with their VJPs; ``backward(loss)`` replays it
in reverse topological order, visiting each node exactly once.
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

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:  # + 0.0 maps -0 to +0; a fresh array never aliases g
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __getitem__(self, idx):
        return getitem(self, idx)

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


def _make(data, *inputs):
    """Record `data` as the output of an op on `inputs`, (parent, vjp) pairs.

    Only the parents that require grad are recorded, in input order; the
    backward pass hands each of them `vjp(g)`, g being the output's gradient.
    """
    out = Tensor(data)
    live = [pair for pair in inputs if pair[0].requires_grad] if _grad_enabled else None
    if live:
        out.requires_grad = True
        out._parents, vjps = zip(*live)

        # bound as defaults, not closed over, to spare two cells per node:
        # every object a graph keeps alive is walked by each full collection
        def backward(g, parents=out._parents, vjps=vjps):
            for p, vjp in zip(parents, vjps):
                p._accumulate(vjp(g))

        out._backward = backward
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
    return _make(a.data + b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def neg(a):
    return _make(-a.data, (a, lambda g: -g))


def sub(a, b):
    a, b = _as_pair(a, b)
    return add(a, neg(b))


def mul(a, b):
    a, b = _as_pair(a, b)
    return _make(a.data * b.data,
                 (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b):
    a, b = _as_pair(a, b)
    return _make(a.data / b.data,
                 (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def matmul(a, b):
    """Product of 1-D and 2-D operands in any combination."""
    a, b = _as_pair(a, b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {a.data.ndim}-D @ {b.data.ndim}-D")

    # with a 1-D operand the other's gradient is an outer product (a scaling for 1-D @ 1-D)
    return _make(a.data @ b.data,
                 (a, lambda g: g @ b.data.T if b.data.ndim == 2 else np.multiply.outer(g, b.data)),
                 (b, lambda g: a.data.T @ g if a.data.ndim == 2 else np.multiply.outer(a.data, g)))


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def texp(a):
    out_data = np.exp(a.data)
    return _make(out_data, (a, lambda g: g * out_data))


def tlog(a):
    return _make(np.log(a.data), (a, lambda g: g / a.data))


def tsqrt(a):
    out_data = np.sqrt(a.data)
    return _make(out_data, (a, lambda g: g * 0.5 / out_data))


def tanh(a):
    out_data = np.tanh(a.data)
    return _make(out_data, (a, lambda g: g * (1.0 - out_data * out_data)))


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
    return _make(out_data, (a, lambda g: g * out_data * (1.0 - out_data)))


def relu(a):
    return _make(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0)))


def softplus(a):
    """log(1 + exp(x)), computed stably."""
    return _make(np.logaddexp(0.0, a.data), (a, lambda g: g * _sigmoid_raw(a.data)))


# ---------------------------------------------------------------------------
# reductions / shape ops

def tsum(a, axis=None):
    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).copy() if np.ndim(g) else np.full_like(a.data, g)
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy()

    return _make(a.data.sum(axis=axis), (a, vjp))


def tmean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def reshape(a, shape):
    old_shape = a.data.shape
    return _make(a.data.reshape(shape), (a, lambda g: g.reshape(old_shape)))


def transpose(a):
    """2-D matrix transpose."""
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return _make(a.data.T.copy(), (a, lambda g: g.T))


def getitem(a, idx):
    parts = idx if isinstance(idx, tuple) else (idx,)
    basic = all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)

    def vjp(g):
        full = np.zeros_like(a.data)
        if basic:  # no duplicate writes possible
            full[idx] += g
        else:
            np.add.at(full, idx, g)
        return full

    return _make(a.data[idx].copy(), (a, vjp))


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

    def keys_vjp(g):
        # d cos_j / d K_j = k/(r_j kn) - dot_j K_j / (r_j^3 kn)
        gl = g * live
        coef1 = (gl / denom)[:, None]
        coef2 = (gl * dots / (np.where(live, rnorm, 1.0) ** 2 * denom))[:, None]
        return coef1 * kv[None, :] - coef2 * K

    def k_vjp(g):
        gl = g * live
        coef1 = gl / denom
        coef2 = gl * dots / (denom * max(knorm, eps) ** 2)
        return coef1 @ K - coef2.sum() * kv

    return _make(out_data, (keys, keys_vjp), (k, k_vjp))


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


def _windows(x, n, m, stride, op):
    """Read-only (..., oh, ow, n, m, C) view of every n-by-m window of the
    (..., H,W,C) maps `x` at `stride`, valid placement only; `op` names the
    caller in errors."""
    *lead, H, W, C = x.shape
    if stride < 1:
        raise ValueError(f"{op} stride must be positive, got {stride}")
    if not (1 <= n <= H and 1 <= m <= W):
        raise ValueError(f"{op} window {n}x{m} does not fit input extent {H}x{W}")
    *sl, s0, s1, s2 = x.strides
    shape = (*lead, (H - n) // stride + 1, (W - m) // stride + 1, n, m, C)
    return as_strided(x, shape, (*sl, s0 * stride, s1 * stride, s0, s1, s2), writeable=False)


def _col2im(cols, shape, stride):
    """Adjoint of `_windows`: add (n, m, ..., oh, ow, C) per-window values back
    onto zero (..., H,W,C) maps, one strided add per window offset."""
    n, m, *_, oh, ow, _ = cols.shape
    out = np.zeros(shape, dtype=cols.dtype)
    for u in range(n):
        for v in range(m):
            out[..., u:u + (oh - 1) * stride + 1:stride, v:v + (ow - 1) * stride + 1:stride, :] += cols[u, v]
    return out


def conv2d(x, kernels, stride=1):
    """Valid (unpadded) strided 2-D convolution in G channel groups.

    x: (H,W,Cin) feature map; kernels: (kh,kw,Cin/G,Cout), so G is Cin over
    the kernel depth, and output group g (channels g*Cout/G onwards) sees
    only input group g. Implemented as one im2col matmul batched over the
    groups, on a group-major copy of x (no copy when G = 1 and x is
    contiguous); the patch matrix is cached for the weight gradient.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if x.data.ndim != 3 or kernels.data.ndim != 4:
        raise ValueError("conv2d expects (H,W,C) input and (kh,kw,Cin/G,Cout) kernels")
    H, W, cin = x.data.shape
    kh, kw, cg, cout = kernels.data.shape
    G = cin // max(cg, 1)
    if G < 1 or G * cg != cin or cout % G:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernels expect {cg} per group "
                         f"and give {cout} outputs")
    co = cout // G
    windows = _windows(np.ascontiguousarray(x.data.reshape(H, W, G, cg).transpose(2, 0, 1, 3)),
                       kh, kw, stride, "conv2d")
    oh, ow = windows.shape[1:3]
    col = windows.reshape(G, oh * ow, kh * kw * cg)
    w = kernels.data.reshape(kh * kw * cg, G, co).transpose(1, 0, 2)
    out_data = np.matmul(col, w).transpose(1, 0, 2).reshape(oh, ow, cout)

    def groups(g):  # (oh,ow,Cout) -> (G, oh*ow, Cout/G)
        return g.reshape(oh * ow, G, co).transpose(1, 0, 2)

    def x_vjp(g):
        cols = np.matmul(groups(g), kernels.data.reshape(kh * kw, cg, G, co).transpose(0, 2, 3, 1))
        gx = _col2im(cols.reshape(kh, kw, G, oh, ow, cg), (G, H, W, cg), stride)
        return gx.transpose(1, 2, 0, 3).reshape(H, W, cin)

    return _make(out_data, (x, x_vjp),
                 (kernels, lambda g: np.matmul(col.transpose(0, 2, 1), groups(g))
                  .transpose(1, 0, 2).reshape(kernels.data.shape)))


def cross_correlate(search, template):
    """Slide `template` over `search`, full dot product per alignment: the
    one-filter `conv2d` with the template as its kernel.

    search: (H,W,C); template: (n,n,C); output: (H-n+1, W-n+1).
    """
    search, template = _as_tensor(search), _as_tensor(template)
    n, n2, c = template.data.shape
    if c != search.data.shape[2]:
        raise ValueError(f"cross_correlate channel mismatch: {search.data.shape[2]} vs {c}")
    out = conv2d(search, reshape(template, (n, n2, c, 1)))
    return reshape(out, out.data.shape[:2])


def avg_pool(x, n, stride):
    """Mean over each n-by-n window per channel; valid placement only.

    The forward is a running sum over the n*n strided views in row-major
    window order, divided by n*n, as `max_pool` runs its maximum.
    """
    x = _as_tensor(x)
    windows = _windows(x.data, n, n, stride, "avg_pool")
    total = windows[:, :, 0, 0].copy()
    for k in range(1, n * n):
        total += windows[:, :, k // n, k % n]
    return _make(total / (n * n),
                 (x, lambda g: _col2im(np.broadcast_to(g / (n * n), (n, n) + g.shape),
                                       x.data.shape, stride)))


def max_pool(x, n, stride):
    """Max over each n-by-n window per channel.

    The forward is a running maximum over the n*n strided views in row-major
    window order. numpy's `maximum` propagates NaN and, between equal values
    (+0 and -0 included), returns its second operand, so with the running
    maximum second each window keeps its first maximum: the element the
    backward's argmax routes the gradient to.
    """
    x = _as_tensor(x)
    windows = _windows(x.data, n, n, stride, "max_pool")
    out_data = windows[:, :, 0, 0].copy()
    for k in range(1, n * n):
        np.maximum(windows[:, :, k // n, k % n], out_data, out=out_data)

    def vjp(g):
        oh, ow, _, _, c = windows.shape
        first = windows.reshape(oh, ow, n * n, c).argmax(axis=2)
        hot = np.arange(n * n)[:, None, None, None] == first
        cols = np.where(hot, g, 0.0).reshape(n, n, oh, ow, c)
        return _col2im(cols, x.data.shape, stride)

    return _make(out_data, (x, vjp))


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
