import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtracker import synth
from oracles import oracle_generate


def test_same_seed_bit_identical():
    cfg = synth.SynthConfig(frames=6, distractors=1)
    a = synth.generate(4, cfg)
    b = synth.generate(4, cfg)
    assert a.class_id == b.class_id
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)


def test_different_seeds_differ():
    cfg = synth.SynthConfig(frames=4)
    a = synth.generate(1, cfg)
    b = synth.generate(2, cfg)
    assert any(not np.array_equal(fa, fb) for fa, fb in zip(a.frames, b.frames))


def test_boxes_inside_canvas():
    cfg = synth.SynthConfig(frames=30, distractors=1, speed=20.0)
    for seed in range(5):
        v = synth.generate(seed, cfg)
        for b in v.boxes:
            x, y, w, h = b.to_topleft()
            assert x >= -1e-6 and y >= -1e-6
            assert x + w <= cfg.canvas + 1e-6 and y + h <= cfg.canvas + 1e-6


def test_zero_drift_keeps_target_patch_constant():
    cfg = synth.SynthConfig(frames=8, drift=0.0, size_drift=0.0, distractors=0, speed=0.0)
    v = synth.generate(3, cfg)
    # static target, static background: frames are identical
    for f in v.frames[1:]:
        assert np.array_equal(f, v.frames[0])


def test_drift_changes_target_appearance():
    cfg = synth.SynthConfig(frames=20, drift=1.0, size_drift=0.0, distractors=0, speed=0.0)
    v = synth.generate(3, cfg)
    b = v.boxes[0]
    x0, y0, w, h = (int(round(t)) for t in b.to_topleft())
    first = v.frames[0][y0:y0 + h, x0:x0 + w]
    last = v.frames[-1][y0:y0 + h, x0:x0 + w]
    assert np.abs(first - last).max() > 0.3


def test_class_id_within_range():
    cfg = synth.SynthConfig(frames=2, num_classes=3)
    for seed in range(20):
        assert 0 <= synth.generate(seed, cfg).class_id < 3


def test_source_is_deterministic_stream():
    cfg = synth.SynthConfig(frames=3)
    s1 = synth.SyntheticSource(cfg, 50)
    s2 = synth.SyntheticSource(cfg, 50)
    for _ in range(3):
        a, b = next(s1), next(s2)
        assert np.array_equal(a.frames[0], b.frames[0])


# --- windowed rendering ------------------------------------------------------------

RENDER_CASES = {
    "desk": synth.SynthConfig(frames=6),
    "desk-1-distractor": synth.SynthConfig(frames=6, drift=1.0, distractors=1),
    "desk-3-distractors": synth.SynthConfig(frames=6, drift=1.0, distractors=3, size_drift=0.4),
    "full-288": synth.SynthConfig(canvas=288, frames=3, target_size=56.0, speed=24.0, distractors=1),
    # distractors orbit up to 32 px from a centred target, so they cross every edge
    "edges-40": synth.SynthConfig(canvas=40, frames=6, target_size=20.0, speed=30.0, distractors=3,
                                  size_drift=0.4),
}
RENDER_SEEDS = (0, 1, 4, 11, 21, 7)  # ring, triangle, plus, disk, square, ring


def test_render_seeds_cover_every_shape():
    class_ids = {synth.generate(s, synth.SynthConfig(frames=1)).class_id for s in RENDER_SEEDS}
    assert {synth.SHAPE_NAMES[c] for c in class_ids} == set(synth.SHAPE_NAMES)


@pytest.mark.parametrize("case", RENDER_CASES)
def test_windowed_render_matches_full_canvas_render(case):
    cfg = RENDER_CASES[case]
    for seed in RENDER_SEEDS:
        video = synth.generate(seed, cfg)
        frames, boxes, class_id = oracle_generate(seed, cfg)
        assert video.class_id == class_id
        assert [(b.cx, b.cy, b.w, b.h) for b in video.boxes] == boxes
        for got, want in zip(video.frames, frames, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (case, seed)


@settings(max_examples=300, deadline=None, database=None)
@given(shape=st.sampled_from(synth.SHAPE_NAMES), size=st.floats(0.5, 400.0),
       beyond=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8),
       across=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8), flip=st.booleans())
def test_shape_masks_vanish_beyond_the_render_reach(shape, size, beyond, across, flip):
    # the reach `synth._draw` renders within: 0.6*size + 1 px along either axis
    reach = 0.6 * size + 1.0
    far = np.array(beyond)[:, None] + reach
    far = -far if flip else far
    other = np.array(across)[None, :] * reach
    assert not synth._shape_mask(shape, far, other, size).any()
    assert not synth._shape_mask(shape, other.T, far.T, size).any()


@pytest.mark.parametrize("field,value", [("frames", 0), ("canvas", 0), ("num_classes", 0),
                                         ("target_size", 0.0), ("target_size", -3.0),
                                         ("target_size", float("nan")), ("distractors", -1)])
def test_config_rejects_impossible_values(field, value):
    with pytest.raises(ValueError, match=field):
        synth.SynthConfig(**{field: value})


@pytest.mark.parametrize("value", [1.0, 1.5, -0.1])
def test_config_rejects_size_drift_outside_unit_interval(value):
    with pytest.raises(ValueError, match=r"SynthConfig\.size_drift must be in \[0, 1\)"):
        synth.SynthConfig(size_drift=value)
