import gc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memtracker import autodiff as ad
from memtracker import synth, train
from memtracker import tracker
from memtracker.autodiff import Tensor
from memtracker.model import init_params, micro_config
from memtracker.model import desk_config, full_config


# --- label maps ----------------------------------------------------------------

def test_label_disk_13_cells_at_radius_2():
    lm = train.gt_response((8, 8), 17, 2.0)
    assert lm.labels.sum() == 13


def test_label_radius_zero_single_cell():
    lm = train.gt_response((3, 4), 9, 0.0)
    assert lm.labels.sum() == 1
    assert lm.labels[3, 4] == 1


def test_label_values_binary():
    lm = train.gt_response((5.3, 2.7), 11, 2.0)
    assert set(np.unique(lm.labels)) <= {0.0, 1.0}


def test_label_weights_balance_classes():
    lm = train.gt_response((8, 8), 17, 2.0)
    assert lm.weights[lm.labels == 1].sum() == pytest.approx(0.5)
    assert lm.weights[lm.labels == 0].sum() == pytest.approx(0.5)


def test_label_center_out_of_map_rejected():
    with pytest.raises(ValueError):
        train.gt_response((20, 3), 17, 2.0)


# --- losses ----------------------------------------------------------------------

def test_matching_loss_zero_logits_ln2():
    lm = train.gt_response((5, 5), 11, 2.0)
    loss = train.matching_loss(Tensor(np.zeros((11, 11))), lm)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-9)


def test_matching_loss_saturated_correct_logits():
    lm = train.gt_response((5, 5), 11, 2.0)
    logits = np.where(lm.labels == 1, 50.0, -50.0)
    loss = train.matching_loss(Tensor(logits), lm)
    assert loss.item() < 1e-3


def test_matching_loss_nonnegative(rng):
    lm = train.gt_response((5, 5), 11, 2.0)
    for _ in range(20):
        loss = train.matching_loss(Tensor(rng.standard_normal((11, 11)) * 10), lm)
        assert loss.item() >= 0.0


def test_matching_loss_shape_mismatch():
    lm = train.gt_response((5, 5), 11, 2.0)
    with pytest.raises(ValueError):
        train.matching_loss(Tensor(np.zeros((9, 9))), lm)


def test_total_loss_kappa_zero_is_matching_only(rng):
    lm = train.gt_response((5, 5), 11, 2.0)
    logits = Tensor(rng.standard_normal((11, 11)))
    probs = Tensor(np.full(30, 1.0 / 30))
    a = train.total_loss(logits, lm, probs, 3, kappa=0.0).item()
    b = train.matching_loss(logits, lm).item()
    assert a == pytest.approx(b)


def test_total_loss_reference_arithmetic():
    # ln2 + 0.05 * ln30 = 0.8632 with uniform class probabilities
    lm = train.gt_response((5, 5), 11, 2.0)
    probs = Tensor(np.full(30, 1.0 / 30))
    got = train.total_loss(Tensor(np.zeros((11, 11))), lm, probs, 0, kappa=0.05).item()
    assert got == pytest.approx(0.6931 + 0.05 * 3.4012, abs=1e-4)
    assert got == pytest.approx(0.8632, abs=1e-4)


def test_total_loss_differentiable(rng):
    from memtracker import gradcheck
    lm = train.gt_response((4, 4), 9, 1.0)
    logits = Tensor(rng.standard_normal((9, 9)), requires_grad=True, dtype=np.float64)
    raw = Tensor(rng.standard_normal(5), requires_grad=True, dtype=np.float64)

    def fn():
        probs = ad.softmax(raw)
        return train.total_loss(logits, lm, probs, 2, kappa=0.05)

    err = gradcheck.check_gradients(fn, [logits, raw], max_coords=20,
                                    rng=np.random.default_rng(0))
    assert err < 1e-4


# --- clip sampling ----------------------------------------------------------------

def test_sample_clip_identity_when_equal():
    np.testing.assert_array_equal(train.sample_clip(5, 5, seed=3), np.arange(5))


def test_sample_clip_strictly_increasing():
    for seed in range(50):
        idx = train.sample_clip(40, 8, seed)
        assert (np.diff(idx) > 0).all()
        assert idx.min() >= 0 and idx.max() < 40


def test_sample_clip_too_short_rejected():
    with pytest.raises(ValueError):
        train.sample_clip(4, 5, seed=0)


def test_sample_clip_marginal_uniform():
    # each index appears with probability T/L; check within 3 sigma
    L, T, trials = 12, 4, 10000
    counts = np.zeros(L)
    for seed in range(trials):
        counts[train.sample_clip(L, T, seed)] += 1
    p = T / L
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.abs(counts - trials * p).max() < 3 * sigma


# --- training loop -----------------------------------------------------------------

def _mini_cfg():
    return micro_config()


def _mini_videos(count, frames=6, num_classes=3, **kw):
    cfg = synth.SynthConfig(canvas=48, frames=frames, target_size=10.0,
                            num_classes=num_classes, speed=4.0, **kw)
    return [synth.generate(s, cfg) for s in range(count)]


def test_train_deterministic_checkpoints(tmp_path):
    from memtracker import checkpoint as ckpt
    cfg = _mini_cfg()
    tc = train.TrainConfig(steps=3, batch_clips=1, clip_len=4, lr=1e-3, seed=5)
    outs = []
    for run in range(2):
        src = synth.SyntheticSource(synth.SynthConfig(canvas=48, frames=6, target_size=10.0,
                                                      num_classes=3, speed=4.0), 30)
        params, hist = train.train(tc, cfg, src)
        path = tmp_path / f"run{run}.ckpt"
        ckpt.save_checkpoint(path, params)
        outs.append((path.read_bytes(), tuple(hist)))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_train_loss_finite_and_history_recorded():
    cfg = _mini_cfg()
    tc = train.TrainConfig(steps=8, batch_clips=1, clip_len=3, lr=1e-3, seed=1)
    src = synth.SyntheticSource(synth.SynthConfig(canvas=48, frames=5, target_size=10.0,
                                                  num_classes=3, speed=4.0), 7)
    params, hist = train.train(tc, cfg, src)
    assert len(hist) == 8
    assert all(np.isfinite(v) for v in hist)


def test_train_finite_source_stops_cleanly():
    cfg = _mini_cfg()
    tc = train.TrainConfig(steps=100, batch_clips=1, clip_len=3, lr=1e-3, seed=1)
    videos = _mini_videos(4, frames=5)
    params, hist = train.train(tc, cfg, iter(videos))
    assert len(hist) == 4  # one clip per step, then exhaustion


def test_non_finite_loss_raises_before_adam_touches_the_parameters():
    cfg = _mini_cfg()
    params = init_params(cfg, 3)
    params["featnet/cls_b2"].data[0] = np.nan
    before = {k: p.data.tobytes() for k, p in params.items()}
    seen = []
    tc = train.TrainConfig(steps=2, clip_len=3, seed=1)
    with pytest.raises(FloatingPointError, match="step 0"):
        train.train(tc, cfg, iter(_mini_videos(2, frames=5)), params=params,
                    on_step=lambda step, loss: seen.append(loss))
    assert len(seen) == 1 and np.isnan(seen[0])  # on_step saw the loss first
    assert [k for k, p in params.items() if p.data.tobytes() != before[k]] == []


# --- the collector pause -------------------------------------------------------------

@pytest.fixture()
def collector():
    """The collector on for the test, and as it was found afterwards."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if enabled else gc.disable)()


def _micro_run(source, steps=3, **kw):
    tc = train.TrainConfig(steps=steps, clip_len=3, lr=1e-3, seed=1)
    return train.train(tc, _mini_cfg(), source, **kw)


def test_collector_is_back_on_after_a_run(collector):
    _micro_run(iter(_mini_videos(3, frames=5)))
    assert gc.isenabled()


def test_collector_is_back_on_after_the_source_runs_out(collector):
    _, hist = _micro_run(iter(_mini_videos(2, frames=5)), steps=5)
    assert len(hist) == 2 and gc.isenabled()


def test_collector_is_back_on_after_clip_loss_raises(collector):
    videos = _mini_videos(1, frames=3)
    for frame in videos[0].frames:
        frame[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        _micro_run(iter(videos))
    assert gc.isenabled()


def test_collector_stays_off_when_the_caller_turned_it_off(collector):
    gc.disable()
    _micro_run(iter(_mini_videos(2, frames=5)), steps=2)
    assert not gc.isenabled()


def test_a_clip_graph_has_no_cycles(collector, desk_cfg, desk_params):
    # reference counting alone frees a step's graph, so pausing the
    # collector leaves nothing for it to find
    v = synth.generate(21, synth.SynthConfig(frames=10, drift=1.0, distractors=1))
    gc.collect()
    gc.disable()
    try:
        loss = train.clip_loss(desk_params, desk_cfg, v.frames, v.boxes, v.class_id,
                               train.TrainConfig(), np.random.default_rng(0))
        ad.backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        for p in desk_params.values():
            p.zero_grad()


def test_only_the_parameters_outlive_a_step(collector):
    params = init_params(_mini_cfg(), 2)
    gc.collect()
    # held, so no Tensor made later can take one of these ids
    already = [o for o in gc.get_objects() if isinstance(o, Tensor)]
    old_ids = {id(o) for o in already}
    strays = []

    def on_step(step, loss):
        strays.extend(o.data.shape for o in gc.get_objects()
                      if isinstance(o, Tensor) and id(o) not in old_ids)

    _micro_run(iter(_mini_videos(2, frames=5)), steps=2, params=params, on_step=on_step)
    assert strays == []


def test_gradient_reaches_every_parameter_family():
    # fixed-seed smoke test: after a few steps every parameter tensor has
    # received a nonzero gradient at least once
    cfg = _mini_cfg()
    params = init_params(cfg, 2)
    touched = {k: False for k in params}
    videos = _mini_videos(6, frames=6, distractors=1, drift=0.8)
    tc = train.TrainConfig(kappa=0.05, radius=1.0)
    rng = np.random.default_rng(0)
    for v in videos:
        for p in params.values():
            p.zero_grad()
        loss = train.clip_loss(params, cfg, v.frames, v.boxes, v.class_id, tc, rng)
        ad.backward(loss)
        for k, p in params.items():
            if p.grad is not None and np.abs(p.grad).max() > 0:
                touched[k] = True
    untouched = [k for k, hit in touched.items() if not hit]
    assert not untouched, f"no gradient ever reached: {untouched}"


def test_eval_mode_loss_ignores_augmentation_rng():
    cfg = _mini_cfg()
    params = init_params(cfg, 4)
    v = _mini_videos(1, frames=5)[0]
    tc = train.TrainConfig(kappa=0.05)
    with ad.no_grad():
        a = train.clip_loss(params, cfg, v.frames, v.boxes, v.class_id, tc,
                            rng=np.random.default_rng(1), mode="eval").item()
        b = train.clip_loss(params, cfg, v.frames, v.boxes, v.class_id, tc,
                            rng=np.random.default_rng(2), mode="eval").item()
    assert a == b


def test_full_scale_schedule_roundtrips_through_config(tmp_path):
    from memtracker import checkpoint as ckpt
    tc = train.TrainConfig(lr=1e-4, lr_decay=0.8, lr_interval=10000, batch_clips=8,
                           clip_len=16, kappa=0.05)
    path = tmp_path / "train.cfg"
    ckpt.save_config(path, asdict(tc))
    back = train.train_config_from_dict(ckpt.load_config(path))
    assert back == tc
    assert (back.lr, back.lr_decay, back.lr_interval) == (1e-4, 0.8, 10000)
    assert (back.batch_clips, back.clip_len, back.kappa) == (8, 16, 0.05)


def test_train_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="warp_factor"):
        train.train_config_from_dict({"lr": "1e-4", "warp_factor": "9"})


# --- frames and geometry shared with tracking -----------------------------------

def _eval_clip_loss(params, cfg, frames, boxes, class_id):
    with ad.no_grad():
        return train.clip_loss(params, cfg, frames, boxes, class_id, train.TrainConfig(),
                               rng=np.random.default_rng(0), mode="eval").item()


def test_clip_loss_prepares_each_frame_once(desk_cfg, desk_params, prepared_frames):
    v = synth.generate(5, synth.SynthConfig(frames=4, distractors=1))
    _eval_clip_loss(desk_params, desk_cfg, v.frames, v.boxes, v.class_id)
    assert [id(f) for f in prepared_frames["given"]] == [id(f) for f in v.frames]
    cropped = prepared_frames["cropped"]
    # the first frame's template, then each later frame's search and template crops
    assert len(cropped) == 1 + 2 * (len(v.frames) - 1)
    assert all(cropped[i] is cropped[i + 1] for i in range(1, len(cropped), 2))


def test_uint8_clip_loss_matches_scaled_frames(desk_cfg, desk_params):
    v = synth.generate(5, synth.SynthConfig(frames=4, distractors=1))
    as_u8 = [(np.clip(f, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8) for f in v.frames]
    as_read = [f.astype(np.float32) / 255.0 for f in as_u8]  # as ppm.read_ppm scales them
    assert (_eval_clip_loss(desk_params, desk_cfg, as_u8, v.boxes, v.class_id)
            == _eval_clip_loss(desk_params, desk_cfg, as_read, v.boxes, v.class_id))


def test_gray_clip_loss_matches_its_three_channel_repeat(desk_cfg, desk_params):
    v = synth.generate(6, synth.SynthConfig(frames=4, distractors=1))
    gray = [f.mean(axis=2) for f in v.frames]
    rgb = [np.repeat(g[:, :, None], 3, axis=2) for g in gray]
    assert (_eval_clip_loss(desk_params, desk_cfg, gray, v.boxes, v.class_id)
            == _eval_clip_loss(desk_params, desk_cfg, rgb, v.boxes, v.class_id))


GEOMETRY_CONFIGS = pytest.mark.parametrize("make_cfg", [desk_config, full_config],
                                           ids=["desk", "full"])


@GEOMETRY_CONFIGS
@settings(max_examples=200, deadline=None, database=None)
@given(frac=st.floats(0.0, 1.0), side=st.floats(8.0, 2000.0))
def test_cell_offset_and_offset_cell_are_inverse(make_cfg, frac, side):
    cfg = make_cfg()
    cell = frac * (cfg.response_size - 1)
    assert tracker.offset_cell(tracker.cell_offset(cell, side, cfg), side, cfg) == pytest.approx(cell, abs=1e-9)


class _LabelCaptured(Exception):
    pass


@pytest.fixture(scope="module")
def geometry_params():
    return {make: init_params(make(), 0) for make in (desk_config, full_config)}


@GEOMETRY_CONFIGS
@settings(max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cx=st.floats(60.0, 140.0), cy=st.floats(60.0, 140.0), w=st.floats(12.0, 40.0),
       h=st.floats(12.0, 40.0), fx=st.floats(-0.9, 0.9), fy=st.floats(-0.9, 0.9))
def test_training_label_decodes_to_true_center(geometry_params, make_cfg, cx, cy, w, h, fx, fy):
    # the label cell clip_loss builds for a true box, decoded the way
    # tracker.step decodes a peak, lands on that box's centre
    cfg = make_cfg()
    prev = tracker.BoundingBox(cx=cx, cy=cy, w=w, h=h)
    _, _, side = tracker.search_roi(prev, cfg)
    reach = tracker.cell_offset(cfg.response_size - 1, side, cfg)
    true = tracker.BoundingBox(cx=cx + fx * reach, cy=cy + fy * reach, w=w, h=h)
    frame = np.random.default_rng(0).random((200, 200, 3), dtype=np.float32)
    centers = []

    def capture(center, extent, radius):
        centers.append(center)
        raise _LabelCaptured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train, "gt_response", capture)
        with pytest.raises(_LabelCaptured):
            _eval_clip_loss(geometry_params[make_cfg], cfg, [frame, frame], [prev, true], 0)
    row, col = centers[0]
    assert cy + tracker.cell_offset(row, side, cfg) == pytest.approx(true.cy, abs=1e-9)
    assert cx + tracker.cell_offset(col, side, cfg) == pytest.approx(true.cx, abs=1e-9)
