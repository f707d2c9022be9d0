import numpy as np
import pytest

from memtracker import controller as ctrl
from memtracker.autodiff import Tensor

HID, CH = 8, 5


@pytest.fixture()
def params(module_params):
    return module_params(ctrl.param_table(HID, CH), CH, hidden=HID)


def zeroed(params):
    out = {}
    for k, p in params.items():
        out[k] = Tensor(np.zeros_like(p.data))
    return out


def test_init_state_zero_weights_give_zero_state(params, rng):
    p = zeroed(params)
    template = Tensor(rng.standard_normal((3, 3, CH)))
    h0, c0 = ctrl.init_state(template, p)
    np.testing.assert_allclose(h0.data, 0.0)
    np.testing.assert_allclose(c0.data, 0.0)


def test_init_state_deterministic(params, rng):
    template = rng.standard_normal((3, 3, CH))
    a = ctrl.init_state(Tensor(template.copy()), params)
    b = ctrl.init_state(Tensor(template.copy()), params)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1].data, b[1].data)


def test_full_scale_hidden_size_is_512():
    from memtracker.model import full_config
    assert full_config().hidden == 512


def test_lstm_all_zero_params_zero_state(params, rng):
    p = zeroed(params)
    x = Tensor(rng.standard_normal(CH))
    h, c = ctrl.lstm_step(x, Tensor(np.zeros(HID)), Tensor(np.zeros(HID)), p)
    np.testing.assert_allclose(h.data, 0.0)
    np.testing.assert_allclose(c.data, 0.0)


def test_lstm_eval_deterministic(params, rng):
    x = Tensor(rng.standard_normal(CH))
    h_prev, c_prev = Tensor(rng.standard_normal(HID)), Tensor(rng.standard_normal(HID))
    h1, c1 = ctrl.lstm_step(x, h_prev, c_prev, params, mode="eval")
    h2, c2 = ctrl.lstm_step(x, h_prev, c_prev, params, mode="eval")
    assert np.array_equal(h1.data, h2.data) and np.array_equal(c1.data, c2.data)


def test_lstm_train_mode_needs_rng(params, rng):
    x = Tensor(rng.standard_normal(CH))
    with pytest.raises(ValueError):
        ctrl.lstm_step(x, Tensor(np.zeros(HID)), Tensor(np.zeros(HID)), params, mode="train")


def test_lstm_dropout_scales_by_keep(params):
    x = Tensor(np.ones(CH))
    h_prev, c_prev = Tensor(np.full(HID, 0.2)), Tensor(np.full(HID, -0.1))
    h_eval, _ = ctrl.lstm_step(x, h_prev, c_prev, params, mode="eval")
    h_tr, _ = ctrl.lstm_step(x, h_prev, c_prev, params, mode="train", keep_prob=0.8,
                             rng=np.random.default_rng(0))
    kept = h_tr.data != 0
    np.testing.assert_allclose(h_tr.data[kept], h_eval.data[kept] / 0.8, rtol=1e-6)


def test_control_signals_zero_param_closed_forms(params):
    p = zeroed(params)
    sig = ctrl.control_signals(Tensor(np.zeros(HID)), p)
    assert sig.read_strength.data[0] == pytest.approx(1.0 + np.log(2.0), abs=1e-9)
    np.testing.assert_allclose(sig.write_gates.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)
    np.testing.assert_allclose(sig.residual_gate.data, 0.5, atol=1e-9)
    assert sig.decay_rate.data[0] == pytest.approx(0.5)


def test_control_signal_ranges_many_draws(params):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        h = Tensor(rng.standard_normal(HID) * 3.0)
        sig = ctrl.control_signals(h, params)
        assert sig.read_strength.data[0] >= 1.0
        assert sig.write_gates.data.sum() == pytest.approx(1.0, abs=1e-6)
        assert (sig.write_gates.data > 0).all()
        assert ((sig.residual_gate.data > 0) & (sig.residual_gate.data < 1)).all()
        assert 0.0 < sig.decay_rate.data[0] < 1.0
        assert sig.read_key.data.shape == (CH,)


def test_gate_activations_bounded(params, rng):
    # sigmoid gates stay strictly inside (0,1) for healthy inputs
    x = Tensor(rng.standard_normal(CH) * 2)
    h, c = ctrl.lstm_step(x, Tensor(rng.standard_normal(HID)), Tensor(rng.standard_normal(HID)), params)
    assert np.all(np.abs(h.data) < 1.0)  # |o * tanh(c)| < 1


def test_controller_gradients_flow(params, rng):
    import memtracker.autodiff as ad
    from memtracker import gradcheck
    x = Tensor(rng.standard_normal(CH), requires_grad=True, dtype=np.float64)

    def fn():
        h, c = ctrl.lstm_step(x, Tensor(np.full(HID, 0.1)), Tensor(np.full(HID, -0.2)), params)
        sig = ctrl.control_signals(h, params)
        pieces = [ad.tsum(sig.read_key), ad.tsum(sig.read_strength), ad.tsum(sig.residual_gate),
                  ad.tsum(ad.mul(sig.write_gates, Tensor(np.array([0.2, -1.0, 0.5])))),
                  ad.tsum(sig.decay_rate)]
        total = pieces[0]
        for piece in pieces[1:]:
            total = ad.add(total, piece)
        return total

    err = gradcheck.check_gradients(fn, [x] + list(params.values()), max_coords=4,
                                    rng=np.random.default_rng(3))
    assert err < 1e-4
