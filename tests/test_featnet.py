import numpy as np
import pytest

from memtracker import featnet
from memtracker.autodiff import Tensor
from memtracker.model import desk_config, full_config


def test_desk_shape_arithmetic(desk_cfg):
    assert desk_cfg.net.template_size == 6
    assert desk_cfg.net.search_out == 16
    assert desk_cfg.net.feature_stride == 4


def test_desk_forward_shapes(desk_cfg, desk_params, rng):
    obj = Tensor(rng.random((40, 40, 3), dtype=np.float32))
    out = featnet.extract_features(obj, desk_params, desk_cfg.net)
    assert out.data.shape == (6, 6, 32)
    search = Tensor(rng.random((80, 80, 3), dtype=np.float32))
    out = featnet.extract_features(search, desk_params, desk_cfg.net)
    assert out.data.shape == (16, 16, 32)


def test_full_config_object_shape(rng):
    cfg = full_config()
    assert cfg.net.template_size == 6
    assert cfg.net.channels == 256
    assert cfg.net.search_out == 22  # 289 pooled patches at stride 1
    from memtracker.model import init_params
    params = init_params(cfg, 0)
    patch = Tensor(rng.random((127, 127, 3), dtype=np.float32))
    out = featnet.extract_features(patch, params, cfg.net)
    assert out.data.shape == (6, 6, 256)


def test_branches_share_parameters(desk_cfg, desk_params, rng):
    patch = rng.random((40, 40, 3), dtype=np.float32)
    a = featnet.extract_features(Tensor(patch.copy()), desk_params, desk_cfg.net)
    b = featnet.extract_features(Tensor(patch.copy()), desk_params, desk_cfg.net)
    assert np.array_equal(a.data, b.data)


def test_wrong_patch_size_rejected(desk_cfg, desk_params, rng):
    with pytest.raises(ValueError):
        featnet.extract_features(Tensor(rng.random((50, 50, 3), dtype=np.float32)),
                                 desk_params, desk_cfg.net)


def test_init_deterministic(desk_cfg):
    from memtracker.model import init_params
    names = featnet.param_table(desk_cfg.net)
    a, b, c = (init_params(desk_cfg, seed) for seed in (5, 5, 6))
    for k in names:
        assert np.array_equal(a[k].data, b[k].data)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in names)


@pytest.mark.parametrize("shape", [(7,), (4, 9), (3, 3, 5, 2)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_glorot_rows_draw_the_whole_shape(shape, dtype):
    # row-wise drawing must give the bits of one draw cast as a whole, and
    # leave the generator where that draw would
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    w = featnet.glorot(a, shape, 6, 8, dtype)
    expected = b.uniform(-np.sqrt(6.0 / 14), np.sqrt(6.0 / 14), size=shape).astype(dtype)
    assert w.data.dtype == dtype and w.requires_grad
    assert w.data.tobytes() == expected.tobytes()
    assert a.random() == b.random()


def test_param_count_closed_form(desk_cfg, desk_params):
    # conv1 5*5*3*32+32, conv2 3*3*32*32+32, conv3 3*3*32*32+32
    expected = (5 * 5 * 3 * 32 + 32) + (3 * 3 * 32 * 32 + 32) + (3 * 3 * 32 * 32 + 32)
    table = featnet.param_table(desk_cfg.net)
    assert sum(np.prod(shape) for k, (shape, _) in table.items() if "conv" in k) == expected == 20928
    params = {k: desk_params[k] for k in table}
    conv_total = sum(p.data.size for k, p in params.items() if "conv" in k)
    assert conv_total == expected


def test_classifier_uniform_at_zero_head(desk_cfg, rng):
    cfg = full_config()  # 30 classes
    from memtracker.model import init_params
    params = init_params(desk_config(num_classes=30), 0)
    for k in ("featnet/cls_w1", "featnet/cls_b1", "featnet/cls_w2", "featnet/cls_b2"):
        params[k].data[:] = 0.0
    net = desk_config(num_classes=30).net
    template = Tensor(rng.random((6, 6, 32), dtype=np.float32))
    probs = featnet.classify_object(template, params, net)
    np.testing.assert_allclose(probs.data, 1.0 / 30, atol=1e-7)
    assert -np.log(probs.data[7]) == pytest.approx(3.4012, abs=1e-4)
    assert cfg.net.num_classes == 30


def test_classifier_saturation(desk_cfg, desk_params, rng):
    params = dict(desk_params)
    params["featnet/cls_w1"] = Tensor(np.zeros_like(params["featnet/cls_w1"].data))
    params["featnet/cls_b1"] = Tensor(np.ones_like(params["featnet/cls_b1"].data))
    params["featnet/cls_w2"] = Tensor(np.zeros_like(params["featnet/cls_w2"].data))
    b2 = np.zeros_like(params["featnet/cls_b2"].data)
    b2[2] = 50.0
    params["featnet/cls_b2"] = Tensor(b2)
    template = Tensor(rng.random((6, 6, 32), dtype=np.float32))
    probs = featnet.classify_object(template, params, desk_cfg.net)
    assert probs.data[2] > 1 - 1e-6


def test_classifier_simplex(desk_cfg, desk_params, rng):
    template = Tensor(rng.random((6, 6, 32), dtype=np.float32))
    probs = featnet.classify_object(template, desk_params, desk_cfg.net)
    assert probs.data.sum() == pytest.approx(1.0, abs=1e-6)
    assert (probs.data > 0).all()


def test_shape_pipeline_property_all_named_configs():
    from memtracker.model import desk_config, micro_config, full_config
    for cfg in (desk_config(), full_config(), micro_config()):
        assert cfg.net.search_out >= cfg.net.template_size
        assert cfg.response_size == cfg.net.search_out - cfg.net.template_size + 1


def test_degenerate_config_rejected():
    from memtracker.featnet import ConvLayer, FeatureNetConfig
    bad = FeatureNetConfig(object_size=8, search_size=16,
                           layers=(ConvLayer(kernel=9, stride=1, channels=4),))
    with pytest.raises(ValueError):
        featnet.param_table(bad)
