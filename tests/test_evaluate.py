import json

import numpy as np
import pytest

from memtracker import evaluate, synth
from memtracker.ppm import read_ppm
from memtracker.tracker import BoundingBox


def tl(x, y, w, h):
    return BoundingBox.from_topleft(x, y, w, h)


def test_iou_identical():
    assert evaluate.iou(tl(3, 4, 10, 12), tl(3, 4, 10, 12)) == pytest.approx(1.0)


def test_iou_disjoint():
    assert evaluate.iou(tl(0, 0, 5, 5), tl(20, 20, 5, 5)) == 0.0


def test_iou_hand_value():
    assert evaluate.iou(tl(0, 0, 10, 10), tl(5, 0, 10, 10)) == pytest.approx(1 / 3)


def test_metrics_exact_predictions():
    boxes = [tl(i, i, 10, 10) for i in range(5)]
    rep = evaluate.compute_metrics(boxes, boxes)
    assert all(v == 1.0 for v in rep.precision_curve)
    assert all(v == 1.0 for v in rep.success_curve)
    assert rep.auc == 1.0


def test_metrics_all_disjoint_strict_convention():
    preds = [tl(0, 0, 5, 5)] * 4
    gts = [tl(50, 50, 5, 5)] * 4
    rep = evaluate.compute_metrics(preds, gts)
    # success counts IoU strictly greater than the threshold, so even
    # threshold 0 scores 0 for nonoverlapping boxes
    assert all(v == 0.0 for v in rep.success_curve)
    assert rep.auc == 0.0


def test_metrics_success_at_zero_counts_positive_overlap():
    preds = [tl(0, 0, 10, 10), tl(9, 0, 10, 10), tl(50, 50, 10, 10), tl(0, 0, 10, 10)]
    gts = [tl(0, 0, 10, 10)] * 4
    rep = evaluate.compute_metrics(preds, gts)
    assert rep.success_curve[0] == pytest.approx(3 / 4)


def test_metrics_center_error_step_function():
    preds = [tl(3, 0, 10, 10)]  # center offset exactly 3 px
    gts = [tl(0, 0, 10, 10)]
    rep = evaluate.compute_metrics(preds, gts)
    assert rep.precision_curve[2] == 0.0
    assert rep.precision_curve[3] == 1.0  # <= convention at the threshold
    assert rep.center_errors[0] == pytest.approx(3.0)


def test_metric_curves_monotone(rng):
    preds = [tl(*rng.uniform(0, 50, 2), *rng.uniform(5, 20, 2)) for _ in range(30)]
    gts = [tl(*rng.uniform(0, 50, 2), *rng.uniform(5, 20, 2)) for _ in range(30)]
    rep = evaluate.compute_metrics(preds, gts)
    assert all(a <= b + 1e-12 for a, b in zip(rep.precision_curve, rep.precision_curve[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(rep.success_curve, rep.success_curve[1:]))
    assert 0.0 <= rep.auc <= 1.0


def test_metrics_pure_function(rng):
    preds = [tl(*rng.uniform(0, 50, 2), 10, 10) for _ in range(10)]
    gts = [tl(*rng.uniform(0, 50, 2), 10, 10) for _ in range(10)]
    a = evaluate.compute_metrics(preds, gts).to_json()
    b = evaluate.compute_metrics(preds, gts).to_json()
    assert a == b


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        evaluate.compute_metrics([tl(0, 0, 1, 1)], [])


def test_report_json_fields():
    rep = evaluate.compute_metrics([tl(0, 0, 10, 10)], [tl(1, 1, 10, 10)], fps=12.5)
    data = json.loads(rep.to_json())
    assert set(data) == {"per_frame", "precision_curve", "success_curve", "auc", "fps"}
    assert len(data["precision_curve"]) == 51
    assert len(data["success_curve"]) == 21
    assert data["fps"] == 12.5
    assert set(data["per_frame"][0]) == {"center_error", "iou"}


def test_curves_csv_shape():
    rep = evaluate.compute_metrics([tl(0, 0, 10, 10)], [tl(1, 1, 10, 10)])
    lines = rep.curves_csv().strip().splitlines()
    assert lines[0] == "kind,threshold,value"
    assert len(lines) == 1 + 51 + 21


def test_results_roundtrip(tmp_path):
    boxes = [tl(1.25, 2.5, 10.125, 8.0), tl(3.0, 4.0, 9.0, 9.0)]
    path = tmp_path / "results.txt"
    evaluate.save_results(path, boxes)
    loaded = evaluate.load_results(path)
    for a, b in zip(boxes, loaded):
        assert a.cx == pytest.approx(b.cx, abs=1e-3)
        assert a.w == pytest.approx(b.w, abs=1e-3)


def test_load_sequence_validates_counts(tmp_path):
    from memtracker.ppm import write_ppm
    seq = tmp_path / "seq"
    seq.mkdir()
    write_ppm(seq / "000000.ppm", np.zeros((8, 8, 3), dtype=np.float32))
    (seq / "groundtruth_rect.txt").write_text("1,1,3,3\n2,2,3,3\n")
    with pytest.raises(ValueError):
        evaluate.load_sequence(str(seq))


def test_sequence_roundtrip(tmp_path):
    video = synth.generate(0, synth.SynthConfig(frames=3, canvas=48, target_size=12.0))
    assert video.class_id != 0
    seq = tmp_path / "seq"
    evaluate.save_sequence(str(seq), video)
    record = evaluate.load_sequence(str(seq))
    assert len(record.frame_paths) == len(video.frames)
    for path, frame in zip(record.frame_paths, video.frames):
        np.testing.assert_allclose(read_ppm(path), frame, rtol=0, atol=0.5 / 255 + 1e-6)
    for got, want in zip(record.boxes, video.boxes):
        assert (got.cx, got.cy, got.w, got.h) == pytest.approx((want.cx, want.cy, want.w, want.h), abs=1e-3)
    assert record.class_id == video.class_id
    (seq / "meta.txt").unlink()
    assert evaluate.load_sequence(str(seq)).class_id == 0


@pytest.mark.parametrize("value", ["two", "1.5", ""])
def test_load_sequence_names_the_file_and_key_of_a_bad_class_id(tmp_path, value):
    seq = tmp_path / "seq"
    evaluate.save_sequence(str(seq), synth.generate(0, synth.SynthConfig(frames=2, canvas=48, target_size=12.0)))
    (seq / "meta.txt").write_text(f"class_id = {value}\n")
    with pytest.raises(ValueError, match=rf"meta\.txt: config key 'class_id' has an ill-typed value '{value}'"):
        evaluate.load_sequence(str(seq))
