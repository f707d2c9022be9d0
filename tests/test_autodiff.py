import numpy as np
import pytest

from memtracker import autodiff as ad
from memtracker import gradcheck
from memtracker.autodiff import Tensor
from oracles import oracle_max_pool


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# --- cosine similarity -------------------------------------------------------

def test_cosine_identical_direction():
    assert ad.cosine_similarity(t64([1, 0]), t64([1, 0])).item() == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert ad.cosine_similarity(t64([1, 0]), t64([0, 1])).item() == pytest.approx(0.0)


def test_cosine_hand_value():
    # 32 / sqrt(14 * 77)
    got = ad.cosine_similarity(t64([1, 2, 3]), t64([4, 5, 6])).item()
    assert got == pytest.approx(0.974631846, abs=1e-9)


def test_cosine_zero_vector_convention():
    assert ad.cosine_similarity(t64([0, 0, 0]), t64([1, 2, 3])).item() == 0.0


def test_cosine_shape_mismatch():
    with pytest.raises(ValueError):
        ad.cosine_similarity(t64([1, 2]), t64([1, 2, 3]))


def test_cosine_scale_invariance_and_bound(rng):
    for _ in range(50):
        x = rng.standard_normal(6)
        alpha = float(rng.uniform(0.1, 10.0))
        c1 = ad.cosine_similarity(t64(x), t64(alpha * x)).item()
        assert c1 == pytest.approx(1.0, abs=1e-9)
        y = rng.standard_normal(6)
        c = ad.cosine_similarity(t64(x), t64(y)).item()
        assert abs(c) <= 1.0 + 1e-9


# --- softmax -----------------------------------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(ad.softmax(t64([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_closed_form():
    np.testing.assert_allclose(ad.softmax(t64([np.log(2.0), 0.0])).data, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_shift_invariance(rng):
    v = rng.standard_normal(7)
    a = ad.softmax(t64(v)).data
    b = ad.softmax(t64(v + 13.7)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_simplex(rng):
    for _ in range(30):
        p = ad.softmax(t64(rng.standard_normal(9) * 5)).data
        assert (p > 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-6)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        ad.softmax(t64([]))


# --- avg_pool ----------------------------------------------------------------

def test_avg_pool_constant_map():
    m = t64(np.full((5, 5, 2), 3.25))
    out = ad.avg_pool(m, 3, 1)
    np.testing.assert_allclose(out.data, 3.25)


def test_avg_pool_hand_mean():
    m = t64(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    out = ad.avg_pool(m, 2, 1)
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(2.5)


def test_avg_pool_identity():
    m = t64(np.arange(18.0).reshape(3, 3, 2))
    np.testing.assert_allclose(ad.avg_pool(m, 1, 1).data, m.data)


def test_avg_pool_window_too_large():
    with pytest.raises(ValueError):
        ad.avg_pool(t64(np.zeros((3, 3, 1))), 4, 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,stride", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("shape", [(8, 8, 32), (9, 7, 5), (12, 13, 2)])
def test_avg_pool_matches_window_mean(rng, dtype, n, stride, shape):
    x = rng.standard_normal(shape).astype(dtype)
    mean = ad._windows(x, n, n, stride, "oracle").mean(axis=(2, 3))
    got = ad.avg_pool(Tensor(x), n, stride).data
    assert got.dtype == mean.dtype and got.tobytes() == mean.tobytes()
    # NaN, +-inf and -0 pixels: the same values as the mean, NaN wherever a
    # window holds a NaN or both infinities, and -0 for a window of only -0
    # (the IEEE sum; numpy's mean starts some windows from +0)
    pick = rng.random(shape)
    for value, lo, hi in ((np.nan, 0.0, 0.03), (np.inf, 0.03, 0.08), (-np.inf, 0.08, 0.13), (-0.0, 0.13, 0.5)):
        x[(pick >= lo) & (pick < hi)] = value
    x[:n, :n] = -0.0
    with np.errstate(invalid="ignore"):
        mean = ad._windows(x, n, n, stride, "oracle").mean(axis=(2, 3))
        got = ad.avg_pool(Tensor(x), n, stride).data
    assert np.isnan(got).any() and np.isinf(got).any()
    np.testing.assert_array_equal(got, mean)  # exact, NaN matching NaN and -0 matching +0
    minus_zero = np.signbit(x) & (x == 0)
    windows = ad._windows(minus_zero, n, n, stride, "oracle").all(axis=(2, 3))
    assert windows.any() and np.signbit(got[windows]).all()


def test_avg_pool_output_extent(rng):
    m = t64(rng.standard_normal((9, 9, 2)))
    out = ad.avg_pool(m, 3, 2)
    assert out.data.shape == ((9 - 3) // 2 + 1, (9 - 3) // 2 + 1, 2)


# --- max_pool ----------------------------------------------------------------

@pytest.mark.parametrize("n,stride", [(3, 2), (2, 2), (3, 3)])
@pytest.mark.parametrize("shape", [(9, 9, 4), (10, 8, 3), (12, 13, 2)])
def test_max_pool_matches_loop_reference(rng, n, stride, shape):
    x = rng.standard_normal(shape).astype(np.float32)
    out = ad.max_pool(Tensor(x), n, stride).data
    assert out.dtype == np.float32
    assert out.tobytes() == oracle_max_pool(x, n, stride).tobytes()


def test_max_pool_keeps_sign_of_first_zero(rng):
    x = np.where(rng.random((9, 9, 3)) < 0.5, -0.0, 0.0).astype(np.float32)
    out = ad.max_pool(Tensor(x), 3, 2).data
    assert out.tobytes() == oracle_max_pool(x, 3, 2).tobytes()
    assert np.array_equal(np.signbit(out), np.signbit(x[:7:2, :7:2]))


def test_max_pool_no_grad_bit_identical(rng):
    x = rng.standard_normal((11, 11, 5)).astype(np.float32)
    recorded = ad.max_pool(Tensor(x, requires_grad=True), 3, 2)
    with ad.no_grad():
        bare = ad.max_pool(Tensor(x, requires_grad=True), 3, 2)
    assert recorded.requires_grad and not bare.requires_grad
    assert recorded.data.tobytes() == bare.data.tobytes()


def test_max_pool_nan_window():
    x = np.arange(25.0).reshape(5, 5, 1)
    x[1, 1, 0] = np.nan
    out = ad.max_pool(t64(x), 3, 2).data[..., 0]
    assert np.isnan(out[0, 0])
    assert out[0, 1] == 14.0 and out[1, 0] == 22.0 and out[1, 1] == 24.0


def test_max_pool_window_too_large():
    with pytest.raises(ValueError):
        ad.max_pool(t64(np.zeros((3, 4, 1))), 4, 1)


def test_max_pool_overlapping_gradcheck(rng):
    # distinct values 0.01 apart: no +/-h nudge reorders a window
    x = t64((rng.permutation(7 * 9 * 2) * 0.01).reshape(7, 9, 2), requires_grad=True)
    w = rng.standard_normal((3, 4, 2))
    err = gradcheck.check_gradients(lambda: ad.tsum(ad.mul(ad.max_pool(x, 3, 2), w)), [x])
    assert err < 1e-6


def test_max_pool_tie_gradient_goes_to_first_maximum():
    x = t64(np.zeros((3, 3, 1)), requires_grad=True)
    x.data[1, 0, 0] = x.data[0, 2, 0] = x.data[2, 2, 0] = 1.0
    ad.backward(ad.tsum(ad.max_pool(x, 3, 2)))
    expect = np.zeros((3, 3, 1))
    expect[0, 2, 0] = 1.0
    assert np.array_equal(x.grad, expect)


# --- cross_correlate ---------------------------------------------------------

def _sliding_dot(search, template):
    H, W, _ = search.shape
    n = template.shape[0]
    out = np.zeros((H - n + 1, W - n + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = float((search[i:i + n, j:j + n, :] * template).sum())
    return out


def test_cross_correlate_zero_template(rng):
    s = t64(rng.standard_normal((6, 6, 3)))
    out = ad.cross_correlate(s, t64(np.zeros((2, 2, 3))))
    np.testing.assert_allclose(out.data, 0.0)


def test_cross_correlate_embedded_argmax(rng):
    template = rng.standard_normal((3, 3, 2))
    search = np.zeros((9, 9, 2))
    search[4:7, 2:5, :] = template
    out = ad.cross_correlate(t64(search), t64(template)).data
    assert np.unravel_index(np.argmax(out), out.shape) == (4, 2)


def test_cross_correlate_translation_equivariance(rng):
    template = rng.standard_normal((3, 3, 2))
    search = np.zeros((10, 10, 2))
    search[2:5, 3:6, :] = template
    r1 = ad.cross_correlate(t64(search), t64(template)).data
    r2 = ad.cross_correlate(t64(np.roll(search, 1, axis=0)), t64(template)).data
    p1 = np.unravel_index(np.argmax(r1), r1.shape)
    p2 = np.unravel_index(np.argmax(r2), r2.shape)
    assert (p1[0] + 1, p1[1]) == p2


def test_cross_correlate_matches_bruteforce(rng):
    for _ in range(5):
        s = rng.standard_normal((16, 16, 8))
        t = rng.standard_normal((5, 5, 8))
        got = ad.cross_correlate(t64(s), t64(t)).data
        np.testing.assert_allclose(got, _sliding_dot(s, t), atol=1e-12)


def test_cross_correlate_channel_mismatch():
    with pytest.raises(ValueError):
        ad.cross_correlate(t64(np.zeros((5, 5, 2))), t64(np.zeros((2, 2, 3))))


# --- layer_norm --------------------------------------------------------------

def test_layer_norm_constant_input():
    v = t64(np.full(6, 2.0))
    out = ad.layer_norm(v, t64(np.ones(6)), t64(np.zeros(6)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_standardizes(rng):
    v = t64(rng.standard_normal(64) * 3 + 1)
    out = ad.layer_norm(v, t64(np.ones(64)), t64(np.zeros(64)), eps=1e-10).data
    assert out.mean() == pytest.approx(0.0, abs=1e-9)
    assert out.var() == pytest.approx(1.0, abs=1e-6)


def test_layer_norm_hand_case():
    out = ad.layer_norm(t64([1.0, 3.0]), t64([1.0, 1.0]), t64([0.0, 0.0]), eps=1e-14)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)


# --- dense_affine ------------------------------------------------------------

def test_dense_affine_zero_matrix(rng):
    x = t64(rng.standard_normal(4))
    b = t64(rng.standard_normal(3))
    out = ad.dense_affine(x, t64(np.zeros((3, 4))), b)
    np.testing.assert_allclose(out.data, b.data)


def test_dense_affine_identity():
    x = t64([1.5, -2.0, 0.25])
    out = ad.dense_affine(x, t64(np.eye(3)), t64(np.zeros(3)))
    np.testing.assert_allclose(out.data, x.data)


def test_dense_affine_hand_value():
    out = ad.dense_affine(t64([1.0, 1.0]), t64([[1.0, 2.0], [3.0, 4.0]]), t64([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [3.0, 7.0])


def test_dense_affine_shape_mismatch():
    with pytest.raises(ValueError):
        ad.dense_affine(t64([1.0, 2.0, 3.0]), t64(np.zeros((2, 2))), t64(np.zeros(2)))


# --- conv2d ------------------------------------------------------------------

def _conv_reference(x, k, stride):
    H, W, Cin = x.shape
    kh, kw, _, Cout = k.shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    out = np.zeros((oh, ow, Cout))
    for p in range(oh):
        for q in range(ow):
            for co in range(Cout):
                acc = 0.0
                for u in range(kh):
                    for v in range(kw):
                        for ci in range(Cin):
                            acc += x[p * stride + u, q * stride + v, ci] * k[u, v, ci, co]
                out[p, q, co] = acc
    return out


def test_conv2d_identity_kernel(rng):
    x = rng.standard_normal((5, 5, 3))
    k = np.zeros((1, 1, 3, 3))
    for c in range(3):
        k[0, 0, c, c] = 1.0
    out = ad.conv2d(t64(x), t64(k), 1).data
    np.testing.assert_allclose(out, x)


def test_conv2d_delta_kernel_shifts(rng):
    x = rng.standard_normal((6, 6, 1))
    k = np.zeros((2, 2, 1, 1))
    k[1, 0, 0, 0] = 1.0  # picks the pixel one row down
    out = ad.conv2d(t64(x), t64(k), 1).data
    np.testing.assert_allclose(out[:, :, 0], x[1:6, 0:5, 0])


def test_conv2d_matches_loop_reference(rng):
    x = rng.standard_normal((5, 5, 2))
    k = rng.standard_normal((3, 3, 2, 4))
    for stride in (1, 2):
        got = ad.conv2d(t64(x), t64(k), stride).data
        np.testing.assert_allclose(got, _conv_reference(x, k, stride), atol=1e-12)


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError):
        ad.conv2d(t64(np.zeros((5, 5, 2))), t64(np.zeros((3, 3, 3, 4))), 1)


def test_conv2d_zero_stride_rejected():
    with pytest.raises(ValueError, match="conv2d stride"):
        ad.conv2d(t64(np.zeros((5, 5, 1))), t64(np.zeros((3, 3, 1, 1))), 0)


@pytest.mark.parametrize("shape,kernel,stride", [((9, 10, 4), (3, 3, 2, 6), 1), ((12, 11, 6), (3, 2, 2, 9), 2),
                                                 ((8, 8, 6), (2, 2, 3, 4), 1), ((7, 7, 4), (3, 3, 1, 8), 2)])
def test_grouped_conv2d_equals_dense_convs_on_channel_slices(rng, shape, kernel, stride):
    x, k = t64(rng.standard_normal(shape), True), t64(rng.standard_normal(kernel), True)
    cg, groups = kernel[2], shape[2] // kernel[2]
    co = kernel[3] // groups
    out = ad.conv2d(x, k, stride)
    w = rng.standard_normal(out.data.shape)
    ad.backward(ad.tsum(ad.mul(out, t64(w))))
    outs, gxs, gks = [], [], []
    for g in range(groups):
        xs = t64(x.data[:, :, g * cg:(g + 1) * cg], True)
        ks = t64(k.data[..., g * co:(g + 1) * co], True)
        o = ad.conv2d(xs, ks, stride)
        ad.backward(ad.tsum(ad.mul(o, t64(w[..., g * co:(g + 1) * co]))))
        outs.append(o.data)
        gxs.append(xs.grad)
        gks.append(ks.grad)
    for got, want in [(out.data, outs), (x.grad, gxs), (k.grad, gks)]:
        np.testing.assert_allclose(got, np.concatenate(want, axis=-1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("depth,kernel", [(5, (3, 3, 2, 4)), (4, (3, 3, 2, 5)), (2, (3, 3, 3, 4)),
                                          (6, (3, 3, 4, 4)), (3, (3, 3, 0, 4))],
                         ids=["depth-not-a-multiple", "outputs-not-divisible", "kernel-deeper",
                              "depth-not-a-multiple-2", "zero-depth-kernel"])
def test_conv2d_rejects_groups_that_do_not_divide(depth, kernel):
    with pytest.raises(ValueError, match="conv2d channel mismatch"):
        ad.conv2d(t64(np.zeros((5, 5, depth))), t64(np.zeros(kernel)), 1)


# --- window view and its col2im adjoint ---------------------------------------

@pytest.mark.parametrize("n,m,stride", [(1, 1, 1), (3, 3, 1), (3, 3, 2), (3, 2, 2), (2, 3, 3), (5, 4, 2)])
@pytest.mark.parametrize("shape", [(9, 9, 2), (8, 11, 3)])
def test_col2im_is_adjoint_of_windows(rng, n, m, stride, shape):
    # <windows(x), c> == <x, col2im(c)>, on extents the stride tiles and does not
    x = rng.standard_normal(shape)
    view = ad._windows(x, n, m, stride, "test")
    c = rng.standard_normal((n, m) + view.shape[:2] + shape[2:])
    lhs = np.sum(view.transpose(2, 3, 0, 1, 4) * c)
    rhs = np.sum(x * ad._col2im(c, shape, stride))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("n,m,stride", [(3, 3, 1), (3, 2, 2)])
def test_col2im_is_adjoint_of_windows_with_leading_axes(rng, n, m, stride):
    shape = (2, 3, 9, 8, 2)
    x = rng.standard_normal(shape)
    view = ad._windows(x, n, m, stride, "test")
    assert view.shape[:4] == shape[:2] + ad._windows(x[0, 0], n, m, stride, "test").shape[:2]
    c = rng.standard_normal((n, m) + view.shape[:4] + shape[4:])
    lhs = np.sum(np.moveaxis(view, (4, 5), (0, 1)) * c)
    rhs = np.sum(x * ad._col2im(c, shape, stride))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_windows_rejects_bad_geometry_naming_the_op():
    x = np.zeros((4, 5, 1))
    view = ad._windows(x, 4, 5, 1, "op")
    assert view.shape == (1, 1, 4, 5, 1) and not view.flags.writeable
    for n, m, stride in [(5, 1, 1), (1, 6, 1), (0, 1, 1), (2, 2, 0)]:
        with pytest.raises(ValueError, match="myop"):
            ad._windows(x, n, m, stride, "myop")


# --- backward ----------------------------------------------------------------

def test_backward_sum_of_squares(rng):
    x = Tensor(rng.standard_normal(7), requires_grad=True, dtype=np.float64)
    loss = ad.tsum(ad.mul(x, x))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_backward_constants_get_no_gradient(rng):
    x = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
    const = Tensor(rng.standard_normal(4))
    loss = ad.tsum(ad.mul(x, const))
    ad.backward(loss)
    assert const.grad is None
    np.testing.assert_allclose(x.grad, const.data)


# operand shapes of every two-input op; broadcasting operands exercise _unbroadcast
TWO_INPUT_OPS = {
    "add": (ad.add, (3, 4), (4,)),
    "mul": (ad.mul, (3, 4), (1, 4)),
    "div": (ad.div, (3, 4), (4,)),
    "matmul": (ad.matmul, (3, 4), (4, 5)),
    "conv2d": (ad.conv2d, (6, 6, 2), (3, 3, 2, 3)),
    "cross_correlate": (ad.cross_correlate, (7, 7, 2), (3, 3, 2)),
    "cosine_rows": (ad.cosine_rows, (5, 4), (4,)),
}


@pytest.mark.parametrize("const_pos", [0, 1])
@pytest.mark.parametrize("name", list(TWO_INPUT_OPS))
def test_constant_operand_gets_no_gradient(rng, name, const_pos):
    op, *shapes = TWO_INPUT_OPS[name]
    inputs = [t64(rng.uniform(0.5, 1.5, shape)) for shape in shapes]
    var = inputs[1 - const_pos]
    var.requires_grad = True
    w = rng.standard_normal(op(*inputs).data.shape)
    err = gradcheck.check_gradients(lambda: ad.tsum(ad.mul(op(*inputs), w)), [var])
    assert inputs[const_pos].grad is None
    assert var.grad is not None and err < 1e-6


@pytest.mark.parametrize("shape_a,shape_b", [((4,), (4, 3)), ((3, 4), (4,)), ((4,), (4,))])
def test_matmul_vector_operand_gradients(rng, shape_a, shape_b):
    a = t64(rng.standard_normal(shape_a), requires_grad=True)
    b = t64(rng.standard_normal(shape_b), requires_grad=True)
    w = rng.standard_normal(np.shape(a.data @ b.data))
    assert gradcheck.check_gradients(lambda: ad.tsum(ad.mul(ad.matmul(a, b), w)), [a, b]) < 1e-6


def test_backward_rejects_nonscalar(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, 2.0))


def test_backward_accumulates_across_paths():
    x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
    y = ad.add(ad.mul(x, x), ad.mul(x, 4.0))  # x^2 + 4x -> dy/dx = 2x + 4
    ad.backward(y)
    assert x.grad == pytest.approx(10.0)


def _zero_fill_and_add(data, g):
    grad = np.zeros_like(data)
    grad += g
    return grad


@pytest.mark.parametrize("leaf_dtype, g_dtype, g_shape", [
    (np.float64, np.float64, (4, 5)),
    (np.float32, np.float32, (4, 5)),
    (np.float32, np.float64, (4, 5)),   # cast once into the leaf's dtype
    (np.float64, np.float64, (1, 5)),   # broadcast along rows
    (np.float32, np.float64, (5,)),     # broadcast over a missing axis
    (np.float32, np.float64, ()),       # a scalar
])
def test_first_gradient_matches_zero_fill_and_add(leaf_dtype, g_dtype, g_shape):
    g = np.random.default_rng(5).standard_normal(g_shape).astype(g_dtype)
    specials = np.array([-0.0, np.nan, np.inf, -np.inf, 1e-40], dtype=g_dtype)
    g.reshape(-1)[:] = np.resize(np.concatenate([specials, g.reshape(-1)]), g.size)
    leaf = Tensor(np.ones((4, 5), dtype=leaf_dtype), requires_grad=True)
    leaf._accumulate(g)
    want = _zero_fill_and_add(leaf.data, g)
    assert leaf.grad.dtype == want.dtype and leaf.grad.shape == want.shape
    assert leaf.grad.tobytes() == want.tobytes()
    assert not np.shares_memory(leaf.grad, g)  # a VJP may return its upstream gradient itself
    leaf._accumulate(g)
    want += g
    assert leaf.grad.tobytes() == want.tobytes()


def test_backward_visits_shared_subgraph_once():
    x = Tensor(np.array(2.0), requires_grad=True, dtype=np.float64)
    shared = ad.mul(x, x)
    total = ad.add(shared, shared)  # 2x^2 -> d/dx = 4x
    ad.backward(total)
    assert x.grad == pytest.approx(8.0)


def test_no_grad_blocks_recording():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._backward is None and not y.requires_grad


def test_deep_graph_iterative_backward():
    x = Tensor(np.array(1.0), requires_grad=True, dtype=np.float64)
    y = x
    for _ in range(5000):
        y = ad.add(y, 0.0)
    ad.backward(y)
    assert x.grad == pytest.approx(1.0)


def test_getitem_slice_gradient(rng):
    x = Tensor(rng.standard_normal((4, 4, 2)), requires_grad=True, dtype=np.float64)
    loss = ad.tsum(x[1:3, 2:4, :])
    ad.backward(loss)
    expect = np.zeros_like(x.data)
    expect[1:3, 2:4, :] = 1.0
    np.testing.assert_allclose(x.grad, expect)
