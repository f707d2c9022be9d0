import re

import numpy as np
import pytest

from memtracker import autodiff as ad
from memtracker import synth, tracker
from memtracker.model import ABLATIONS, full_config
from memtracker.tracker import BoundingBox
from oracles import oracle_choose_peak, oracle_crop_resize


# --- crop geometry -----------------------------------------------------------

def test_object_roi_closed_form():
    cx, cy, side = tracker.object_roi(BoundingBox(100, 100, 50, 50))
    assert (cx, cy) == (100, 100)
    assert side == pytest.approx(100.0, abs=1e-9)


def test_object_roi_preserves_center(rng):
    for _ in range(20):
        box = BoundingBox(*rng.uniform(10, 90, 2), *rng.uniform(5, 40, 2))
        cx, cy, _ = tracker.object_roi(box)
        assert (cx, cy) == (box.cx, box.cy)


def test_object_roi_square_box_doubles():
    for w in (10.0, 25.0, 63.0):
        _, _, side = tracker.object_roi(BoundingBox(0, 0, w, w))
        assert side == pytest.approx(2 * w, abs=1e-9)


def test_search_ratio_full_scale():
    cfg = full_config()
    _, _, obj = tracker.object_roi(BoundingBox(10, 10, 20, 30), cfg.context_factor)
    _, _, search = tracker.search_roi(BoundingBox(10, 10, 20, 30), cfg)
    assert search / obj == pytest.approx(255 / 127, abs=1e-9)
    # an object crop of exactly 127 px maps to a 255 px search crop
    assert 127.0 * cfg.search_ratio == pytest.approx(255.0, abs=1e-9)


def test_search_ratio_desk(desk_cfg):
    _, _, obj = tracker.object_roi(BoundingBox(10, 10, 20, 30), desk_cfg.context_factor)
    _, _, search = tracker.search_roi(BoundingBox(10, 10, 20, 30), desk_cfg)
    assert search / obj == pytest.approx(2.0, abs=1e-12)


def test_box_validation():
    with pytest.raises(ValueError):
        BoundingBox(5, 5, 0.0, 4.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["cx", "cy", "w", "h"])
def test_box_rejects_non_finite_field(name, value):
    with pytest.raises(ValueError, match="finite"):
        BoundingBox(**{**dict(cx=5.0, cy=5.0, w=2.0, h=2.0), name: value})


def test_box_topleft_roundtrip():
    box = BoundingBox.from_topleft(10.0, 20.0, 30.0, 40.0)
    assert (box.cx, box.cy) == (25.0, 40.0)
    assert box.to_topleft() == (10.0, 20.0, 30.0, 40.0)


# --- crop_resize ---------------------------------------------------------------

def _bilinear_oracle(frame, cx, cy, side, out):
    H, W, _ = frame.shape
    fill = frame.reshape(-1, 3).mean(axis=0)
    res = np.zeros((out, out, 3), dtype=frame.dtype)
    for i in range(out):
        for j in range(out):
            x = (cx - side / 2.0) + (j + 0.5) * side / out - 0.5
            y = (cy - side / 2.0) + (i + 0.5) * side / out - 0.5
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            fx, fy = x - x0, y - y0
            acc = np.zeros(3)
            for dy, wy in ((0, 1 - fy), (1, fy)):
                for dx, wx in ((0, 1 - fx), (1, fx)):
                    yy, xx = y0 + dy, x0 + dx
                    v = frame[yy, xx] if (0 <= yy < H and 0 <= xx < W) else fill
                    acc += wy * wx * v
            res[i, j] = acc
    return res


def test_crop_identity(rng):
    frame = rng.random((16, 16, 3), dtype=np.float32)
    out = tracker.crop_resize(tracker.prepare_frame(frame, frame.dtype), 8.0, 8.0, 16.0, 16)
    np.testing.assert_allclose(out, frame, atol=1e-6)


def test_crop_constant_frame_with_padding():
    frame = np.full((10, 10, 3), 0.6, dtype=np.float32)
    prepared = tracker.prepare_frame(frame, frame.dtype)
    out = tracker.crop_resize(prepared, 0.0, 0.0, 12.0, 8)  # mostly out of frame
    np.testing.assert_allclose(out, 0.6, atol=1e-6)


def test_crop_matches_bilinear_oracle(rng):
    frame = rng.random((20, 20, 3), dtype=np.float64)
    # checkerboard for structure
    ii, jj = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
    frame[(ii + jj) % 2 == 0] *= 0.2
    for (cx, cy, side, out) in [(10.0, 10.0, 20.0, 10), (6.5, 8.25, 9.0, 7), (2.0, 18.0, 12.0, 6)]:
        got = tracker.crop_resize(tracker.prepare_frame(frame, frame.dtype), cx, cy, side, out)
        expect = _bilinear_oracle(frame, cx, cy, side, out)
        np.testing.assert_allclose(got, expect, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_crop_matches_masked_gather_oracle_bit_for_bit(rng, dtype):
    for k in range(300):
        H, W = rng.integers(5, 60, 2)
        frame = rng.random((H, W, 3)).astype(dtype)
        cx, cy = rng.uniform(-40.0, W + 40.0), rng.uniform(-40.0, H + 40.0)  # often off the frame
        side = rng.uniform(0.05, 1.0) if k % 5 == 0 else rng.uniform(1.0, 120.0)
        out = 1 if k % 7 == 0 else int(rng.integers(2, 50))
        got = tracker.crop_resize(tracker.prepare_frame(frame, dtype), cx, cy, side, out)
        expect = oracle_crop_resize(frame, cx, cy, side, out)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), (H, W, cx, cy, side, out)


def test_crop_reads_only_the_rows_between_its_first_and_last_tap(rng):
    frame = rng.random((40, 30, 3))
    prepared = tracker.prepare_frame(frame, np.float64)
    for cx, cy, side, out in [(15.0, 20.0, 8.0, 6), (15.0, 5.0, 10.0, 12), (3.0, 36.0, 6.5, 5),
                              (15.0, 20.0, 0.3, 1)]:
        ys = (cy - side / 2.0) + (np.arange(out) + 0.5) * (side / out) - 0.5
        first, last = int(np.floor(ys[0])) + 1, int(np.floor(ys[-1])) + 2  # padded rows
        poisoned = prepared.copy()
        poisoned[:, :first] = np.nan
        poisoned[:, last + 1:] = np.nan
        assert np.isnan(poisoned).any()
        got = tracker.crop_resize(poisoned, cx, cy, side, out)
        assert got.tobytes() == tracker.crop_resize(prepared, cx, cy, side, out).tobytes()


def test_prepare_frame_pads_a_channels_first_copy_with_the_mean_colour(rng):
    frame = rng.random((7, 5, 3), dtype=np.float32)
    prepared = tracker.prepare_frame(frame, np.float32)
    assert prepared.shape == (3, 9, 7) and prepared.dtype == np.float32
    assert np.array_equal(prepared[:, 1:-1, 1:-1], frame.transpose(2, 0, 1))
    fill = frame.reshape(-1, 3).mean(axis=0)
    border = np.ones((9, 7), dtype=bool)
    border[1:-1, 1:-1] = False
    assert np.array_equal(prepared[:, border], np.repeat(fill[:, None], border.sum(), axis=1))


def test_prepare_frame_converts_gray_and_uint8_frames(rng):
    gray = rng.random((6, 8))
    assert np.array_equal(tracker.prepare_frame(gray, np.float64),
                          tracker.prepare_frame(np.repeat(gray[:, :, None], 3, axis=2), np.float64))
    raw = rng.integers(0, 256, (6, 8, 3)).astype(np.uint8)
    assert np.array_equal(tracker.prepare_frame(raw, np.float32),
                          tracker.prepare_frame(raw.astype(np.float32) / 255.0, np.float32))


@pytest.mark.parametrize("shape", [(6, 8, 4), (6, 8, 1), (6,), (2, 6, 8, 3)])
def test_prepare_frame_rejects_other_layouts(shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        tracker.prepare_frame(np.zeros(shape), np.float32)


@pytest.mark.parametrize("bad_pixel", [np.nan, np.inf, -np.inf])
def test_prepare_frame_rejects_non_finite_pixels(rng, bad_pixel):
    frame = rng.random((6, 8, 3))
    frame[2, 3, 1] = bad_pixel
    with pytest.raises(ValueError, match="NaN or infinite"):
        tracker.prepare_frame(frame, np.float32)


def test_crop_degenerate_roi_rejected(rng):
    with pytest.raises(ValueError):
        tracker.crop_resize(tracker.prepare_frame(rng.random((8, 8, 3)), np.float64), 4.0, 4.0, 0.0, 8)


# --- scale choice --------------------------------------------------------------

def test_choose_peak_matches_scale_loop_oracle(rng, desk_cfg):
    ww = desk_cfg.window_weight
    cases = [rng.standard_normal((3, 17, 17)).astype(dt) for dt in (np.float32, np.float64)
             for _ in range(40)]
    for tied in ((0, 1), (1, 2), (0, 2)):  # two scales with the same map tie exactly
        maps = rng.standard_normal((3, 17, 17)).astype(np.float32)
        maps[tied[1]] = maps[tied[0]]
        cases.append(maps)
    symmetric = rng.standard_normal((17, 17)).astype(np.float32)
    cases.append(np.stack([symmetric + symmetric[::-1, ::-1]] * 3))  # cell ties within a map
    some_flat = rng.standard_normal((3, 17, 17)).astype(np.float32)
    some_flat[0] = 0.3
    cases.append(some_flat)
    for maps in cases:
        assert tracker.choose_peak(maps, ww) == oracle_choose_peak(maps, ww)


def test_choose_peak_finds_no_peak_on_flat_or_non_finite_maps(rng, desk_cfg):
    ww = desk_cfg.window_weight
    flat = np.full((3, 17, 17), 0.25, dtype=np.float32)
    assert oracle_choose_peak(flat, ww) == (0, 8, 8)  # the scale loop kept the shrinking scale
    assert tracker.choose_peak(flat, ww) is None
    for bad in (np.nan, np.inf, -np.inf):
        maps = rng.standard_normal((3, 17, 17)).astype(np.float32)
        maps[1, 3, 4] = bad
        assert tracker.choose_peak(maps, ww) is None


# --- init ----------------------------------------------------------------------

def _video(seed=3, frames=6, **kw):
    return synth.generate(seed, synth.SynthConfig(frames=frames, **kw))


def test_init_seeds_positive_memory(desk_cfg, desk_params):
    v = _video()
    state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
    np.testing.assert_allclose(state.pos_mem.slots.data[0], state.initial_template.data)
    assert np.abs(state.pos_mem.slots.data[1:]).max() == 0.0
    assert np.abs(state.neg_mem.slots.data).max() == 0.0


def test_init_seeds_same_positive_memory_under_every_ablation(desk_cfg, desk_params):
    v = _video()
    ref = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg).pos_mem
    assert np.array_equal(ref.access, np.eye(desk_cfg.n_pos)[0])
    for ablation in ABLATIONS:
        pos = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg, ablation=ablation).pos_mem
        for a, b in ((pos.slots.data, ref.slots.data), (pos.keys.data, ref.keys.data),
                     (pos.access, ref.access)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), ablation


def test_init_read_dominated_by_seeded_slot(desk_cfg, desk_params, rng):
    from memtracker import memory as mem
    from memtracker.autodiff import Tensor
    v = _video()
    state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
    key = Tensor(state.pos_mem.keys.data[0].copy())
    retrieved, w = mem.read(state.pos_mem, key, Tensor(np.array(5.0, dtype=np.float32)))
    assert int(np.argmax(w.data)) == 0
    assert w.data[0] > 0.6


def test_init_template_matches_feature_extraction(desk_cfg, desk_params):
    v = _video()
    state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
    prepared = tracker.prepare_frame(v.frames[0], desk_params["featnet/conv0_w"].data.dtype)
    again = tracker.extract_template(prepared, v.boxes[0], desk_params, desk_cfg)
    assert np.array_equal(state.initial_template.data, again.data)


def test_init_deterministic(desk_cfg, desk_params):
    v = _video()
    a = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
    b = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
    assert np.array_equal(a.h.data, b.h.data)
    assert np.array_equal(a.initial_template.data, b.initial_template.data)


def test_init_unknown_ablation_rejected(desk_cfg, desk_params):
    v = _video()
    with pytest.raises(ValueError):
        tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg, ablation="bogus")


@pytest.mark.parametrize("box", [BoundingBox(-60, -60, 10, 10), BoundingBox(130, 40, 10, 10),
                                 BoundingBox(40, 101, 10, 10), BoundingBox(-5, 40, 10, 10)])
def test_init_rejects_box_off_the_frame(desk_cfg, desk_params, box):
    v = _video()
    with pytest.raises(ValueError, match="does not overlap"):
        tracker.init(v.frames[0], box, desk_params, desk_cfg)


@pytest.mark.parametrize("box", [BoundingBox(-3, 40, 10, 10), BoundingBox(95, 95, 10, 10)])
def test_init_accepts_box_partly_in_the_frame(desk_cfg, desk_params, box):
    v = _video()
    assert tracker.init(v.frames[0], box, desk_params, desk_cfg).box == box


# --- step ----------------------------------------------------------------------

def test_step_requires_state(desk_cfg, desk_params):
    v = _video()
    with pytest.raises(RuntimeError):
        tracker.step("nope", v.frames[0], desk_params, desk_cfg)


def test_flat_response_stays_put(desk_cfg, desk_params):
    # a constant frame gives every scale a flat response: the box, the
    # controller state and both memories stay exactly as they were
    v = _video(seed=5, frames=3, distractors=1)
    with ad.no_grad():
        state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
        state, _ = tracker.step(state, v.frames[1], desk_params, desk_cfg)
        flat = np.full((96, 96, 3), 0.5, dtype=np.float32)
        after, box = tracker.step(state, flat, desk_params, desk_cfg)
    assert box == after.box == state.box
    for a, b in ((after.h.data, state.h.data), (after.c.data, state.c.data),
                 (after.pos_mem.slots.data, state.pos_mem.slots.data),
                 (after.pos_mem.access, state.pos_mem.access),
                 (after.neg_mem.slots.data, state.neg_mem.slots.data),
                 (after.neg_mem.access, state.neg_mem.access)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_scale_smoothing_value(desk_cfg):
    factors = desk_cfg.scale_factors
    smoothed = (1 - desk_cfg.scale_smooth) + desk_cfg.scale_smooth * factors[2]
    assert factors == pytest.approx((1 / 1.05, 1.0, 1.05))
    assert smoothed == pytest.approx(1.025)


def test_box_stays_positive_over_steps(desk_cfg, desk_params):
    v = _video(seed=11, frames=12, drift=0.9, distractors=1)
    boxes = tracker.track_sequence(v.frames, v.boxes[0], desk_params, desk_cfg)
    for b in boxes:
        assert b.w > 0 and b.h > 0


def test_one_positive_write_per_step(desk_cfg, desk_params):
    v = _video(seed=5, frames=4)
    with ad.no_grad():
        state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
        a0 = state.pos_mem.access.copy()
        state, _ = tracker.step(state, v.frames[1], desk_params, desk_cfg)
        # one blended write: access gained read weight + write weight once
        gained = state.pos_mem.access - desk_cfg.mem_decay * a0
        assert gained.sum() == pytest.approx(1.0 + state.diagnostics["write_gates"][1]
                                             + state.diagnostics["write_gates"][2], abs=1e-5)


def test_frozen_equals_pinned_gates(desk_cfg, desk_params):
    v = _video(seed=21, frames=8, drift=0.7, distractors=1)
    frozen = tracker.track_sequence(v.frames, v.boxes[0], desk_params, desk_cfg, ablation="frozen")
    pinned = tracker.track_sequence(v.frames, v.boxes[0], desk_params, desk_cfg,
                                    ablation="none", pin_gates=True)
    for a, b in zip(frozen, pinned):
        assert (a.cx, a.cy, a.w, a.h) == (b.cx, b.cy, b.w, b.h)


def test_tracking_deterministic(desk_cfg, desk_params):
    v = _video(seed=9, frames=8, drift=0.5)
    a = tracker.track_sequence(v.frames, v.boxes[0], desk_params, desk_cfg)
    b = tracker.track_sequence(v.frames, v.boxes[0], desk_params, desk_cfg)
    for x, y in zip(a, b):
        assert (x.cx, x.cy, x.w, x.h) == (y.cx, y.cy, y.w, y.h)


def test_ablations_all_run(desk_cfg, desk_params):
    v = _video(seed=13, frames=5, drift=0.5, distractors=1)
    for ablation in ("none", "noatt", "queue", "hardread", "nores", "frozen", "no-negative"):
        boxes = tracker.track_sequence(v.frames, v.boxes[0], desk_params, desk_cfg,
                                       ablation=ablation)
        assert len(boxes) == 5


def test_static_target_tracked_with_random_weights(desk_cfg, desk_params):
    from memtracker import evaluate
    v = _video(seed=7, frames=10, drift=0.0, size_drift=0.0, speed=8.0)
    boxes = tracker.track_sequence(v.frames, v.boxes[0], desk_params, desk_cfg,
                                   ablation="frozen")
    ious = [evaluate.iou(p, g) for p, g in zip(boxes, v.boxes)]
    assert np.mean(ious) > 0.5


# --- frame input ---------------------------------------------------------------

def test_init_and_step_prepare_each_frame_once(desk_cfg, desk_params, prepared_frames):
    v = _video(frames=3, distractors=1)
    with ad.no_grad():
        state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
        assert [id(f) for f in prepared_frames["given"]] == [id(v.frames[0])]
        for t in (1, 2):
            cropped = len(prepared_frames["cropped"])
            state, _ = tracker.step(state, v.frames[t], desk_params, desk_cfg)
            # three scales and the memory-write template, all from one prepared frame
            assert [id(f) for f in prepared_frames["given"]] == [id(f) for f in v.frames[:t + 1]]
            step_crops = prepared_frames["cropped"][cropped:]
            assert len(step_crops) == desk_cfg.num_scales + 1
            assert all(c is step_crops[0] for c in step_crops)


def _boxes(boxes):
    return [(b.cx, b.cy, b.w, b.h) for b in boxes]


def test_uint8_frames_track_like_read_ppm_floats(desk_cfg, desk_params):
    v = _video(seed=6, frames=5, drift=0.5, distractors=1)
    raw = [(np.clip(f, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8) for f in v.frames]
    as_read = [r.astype(np.float32) / 255.0 for r in raw]
    # the boxes alone can miss a 255x input scale; the template cannot
    a = tracker.init(raw[0], v.boxes[0], desk_params, desk_cfg)
    b = tracker.init(as_read[0], v.boxes[0], desk_params, desk_cfg)
    assert a.initial_template.data.tobytes() == b.initial_template.data.tobytes()
    assert _boxes(tracker.track_sequence(raw, v.boxes[0], desk_params, desk_cfg)) == \
        _boxes(tracker.track_sequence(as_read, v.boxes[0], desk_params, desk_cfg))


def test_gray_frames_track_like_three_channel_repeat(desk_cfg, desk_params):
    v = _video(seed=6, frames=5, drift=0.5, distractors=1)
    gray = [f.mean(axis=2) for f in v.frames]
    rgb = [np.repeat(g[:, :, None], 3, axis=2) for g in gray]
    assert _boxes(tracker.track_sequence(gray, v.boxes[0], desk_params, desk_cfg)) == \
        _boxes(tracker.track_sequence(rgb, v.boxes[0], desk_params, desk_cfg))


@pytest.mark.parametrize("bad_pixel", [np.nan, np.inf])
def test_non_finite_frame_rejected(desk_cfg, desk_params, bad_pixel):
    v = _video()
    bad = v.frames[1].copy()
    bad[40, 50, 1] = bad_pixel
    with pytest.raises(ValueError, match="NaN or infinite"):
        tracker.init(bad, v.boxes[0], desk_params, desk_cfg)
    with ad.no_grad():
        state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
        with pytest.raises(ValueError, match="NaN or infinite"):
            tracker.step(state, bad, desk_params, desk_cfg)
        # the rejected frame left the state as it was
        _, box = tracker.step(state, v.frames[1], desk_params, desk_cfg)
        fresh = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
        _, clean = tracker.step(fresh, v.frames[1], desk_params, desk_cfg)
    assert box == clean


def test_four_channel_frame_rejected(desk_cfg, desk_params):
    v = _video()
    rgba = np.concatenate([v.frames[0], np.ones_like(v.frames[0][..., :1])], axis=2)
    with pytest.raises(ValueError, match=r"\(96, 96, 4\)"):
        tracker.init(rgba, v.boxes[0], desk_params, desk_cfg)
    state = tracker.init(v.frames[0], v.boxes[0], desk_params, desk_cfg)
    with pytest.raises(ValueError, match=r"\(96, 96, 4\)"):
        tracker.step(state, rgba, desk_params, desk_cfg)
