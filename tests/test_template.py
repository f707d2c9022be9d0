import numpy as np
import pytest

from memtracker import autodiff as ad
from memtracker import template as tmpl
from memtracker.autodiff import Tensor

n, C = 4, 6


@pytest.fixture()
def cancel_params(module_params):
    return module_params(tmpl.param_table(C), C)


def rand_t(rng):
    return Tensor(rng.standard_normal((n, n, C)))


def test_residual_zero_gate_keeps_initial(rng):
    t0, tr = rand_t(rng), rand_t(rng)
    out = tmpl.residual_combine(t0, tr, Tensor(np.zeros(C)))
    np.testing.assert_allclose(out.data, t0.data)


def test_residual_full_gate_adds(rng):
    t0, tr = rand_t(rng), rand_t(rng)
    out = tmpl.residual_combine(t0, tr, Tensor(np.ones(C)))
    np.testing.assert_allclose(out.data, t0.data + tr.data, atol=1e-12)


def test_residual_single_channel_gate(rng):
    t0, tr = rand_t(rng), rand_t(rng)
    gate = np.zeros(C)
    gate[0] = 1.0
    out = tmpl.residual_combine(t0, tr, Tensor(gate)).data
    np.testing.assert_allclose(out[:, :, 0], t0.data[:, :, 0] + tr.data[:, :, 0])
    np.testing.assert_allclose(out[:, :, 1:], t0.data[:, :, 1:])


def test_cancel_zero_negative_is_identity(cancel_params, rng):
    pos = rand_t(rng)
    neg = Tensor(np.zeros((n, n, C)))
    final, gate = tmpl.cancel_distractor(pos, neg, cancel_params)
    np.testing.assert_allclose(final.data, pos.data)
    assert ((gate.data > 0) & (gate.data < 1)).all()


def test_cancel_forced_full_gate(rng, module_params):
    # saturate the gate's output affine so the gate is ~1 everywhere
    params = module_params(tmpl.param_table(C), C, seed=1)
    params["cancel/w_out"] = Tensor(np.full((C, C), 50.0))
    params["cancel/w_pos"] = Tensor(np.eye(C) * 50.0)
    params["cancel/w_neg"] = Tensor(np.zeros((C, C)))
    params["cancel/b"] = Tensor(np.full(C, 50.0))
    pos, neg = rand_t(rng), rand_t(rng)
    final, gate = tmpl.cancel_distractor(pos, neg, params)
    np.testing.assert_allclose(gate.data, 1.0, atol=1e-6)
    np.testing.assert_allclose(final.data, pos.data - neg.data, atol=1e-4)


def test_cancel_gate_range(cancel_params, rng):
    for _ in range(50):
        _, gate = tmpl.cancel_distractor(rand_t(rng), rand_t(rng), cancel_params)
        assert ((gate.data > 0) & (gate.data < 1)).all()


def test_response_delegates_to_cross_correlate(rng):
    search = Tensor(rng.standard_normal((9, 9, C)))
    t = rand_t(rng)
    got = tmpl.response(search, t).data
    expect = ad.cross_correlate(search, t).data
    np.testing.assert_allclose(got, expect)


def test_response_embedded_argmax(rng):
    t = rng.standard_normal((n, n, C))
    search = np.zeros((10, 10, C))
    search[3:3 + n, 5:5 + n, :] = t
    out = tmpl.response(Tensor(search), Tensor(t)).data
    assert np.unravel_index(np.argmax(out), out.shape) == (3, 5)


def test_response_zero_template(rng):
    out = tmpl.response(Tensor(rng.standard_normal((8, 8, C))), Tensor(np.zeros((n, n, C))))
    np.testing.assert_allclose(out.data, 0.0)


def test_response_linearity(rng):
    search = Tensor(rng.standard_normal((8, 8, C)))
    t = rand_t(rng)
    r1 = tmpl.response(search, t).data
    r2 = tmpl.response(search, ad.mul(t, 2.5)).data
    np.testing.assert_allclose(r2, 2.5 * r1, atol=1e-9)


def test_positive_only_pipeline_matches_disabled_negative(cancel_params, rng):
    # the full pipeline collapses to the positive-only one when the negative
    # memory holds nothing
    t0, tr = rand_t(rng), rand_t(rng)
    gate = Tensor(np.random.default_rng(0).uniform(0.2, 0.8, C))
    pos = tmpl.residual_combine(t0, tr, gate)
    final, _ = tmpl.cancel_distractor(pos, Tensor(np.zeros((n, n, C))), cancel_params)
    search = Tensor(rng.standard_normal((9, 9, C)))
    np.testing.assert_array_equal(tmpl.response(search, final).data,
                                  tmpl.response(search, pos).data)


def test_residual_cancel_response_gradients(cancel_params, rng):
    from memtracker import gradcheck
    t0 = Tensor(rng.standard_normal((n, n, C)), requires_grad=True, dtype=np.float64)
    tr = Tensor(rng.standard_normal((n, n, C)), requires_grad=True, dtype=np.float64)
    tn = Tensor(rng.standard_normal((n, n, C)), requires_grad=True, dtype=np.float64)
    gate = Tensor(rng.uniform(0.2, 0.8, C), requires_grad=True, dtype=np.float64)
    search = Tensor(rng.standard_normal((7, 7, C)), requires_grad=True, dtype=np.float64)
    w = Tensor(np.random.default_rng(8).standard_normal((7 - n + 1, 7 - n + 1)))

    def fn():
        pos = tmpl.residual_combine(t0, tr, gate)
        final, _ = tmpl.cancel_distractor(pos, tn, cancel_params)
        return ad.tsum(ad.mul(tmpl.response(search, final), w))

    tensors = [t0, tr, tn, gate, search] + list(cancel_params.values())
    err = gradcheck.check_gradients(fn, tensors, max_coords=4, rng=np.random.default_rng(4))
    assert err < 1e-4
