"""Sequence ingestion, tracking metrics and report serialization.

Metrics follow the usual one-pass benchmark conventions: the precision curve
counts frames whose center error is at most the threshold (0..50 px, step 1)
and the success curve counts frames whose overlap strictly exceeds the
threshold (0..1, step 0.05). The reported AUC is the mean of the success
curve samples.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_config, save_config
from .model import _pop_entry
from .ppm import write_ppm
from .synth import SynthVideo
from .tracker import BoundingBox

PRECISION_THRESHOLDS = np.arange(0, 51, 1)
SUCCESS_THRESHOLDS = np.arange(0, 21, 1) * 0.05


@dataclass
class MetricReport:
    center_errors: list
    overlaps: list
    precision_curve: list
    success_curve: list
    auc: float
    fps: float

    def to_json(self):
        return json.dumps({
            "per_frame": [{"center_error": e, "iou": o}
                          for e, o in zip(self.center_errors, self.overlaps)],
            "precision_curve": self.precision_curve,
            "success_curve": self.success_curve,
            "auc": self.auc,
            "fps": self.fps,
        }, indent=2, sort_keys=True)

    def curves_csv(self):
        lines = ["kind,threshold,value"]
        for t, v in zip(PRECISION_THRESHOLDS, self.precision_curve):
            lines.append(f"precision,{t},{v}")
        for t, v in zip(SUCCESS_THRESHOLDS, self.success_curve):
            lines.append(f"success,{t:.2f},{v}")
        return "\n".join(lines) + "\n"


def iou(a: BoundingBox, b: BoundingBox):
    ax, ay, aw, ah = a.to_topleft()
    bx, by, bw, bh = b.to_topleft()
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def center_error(a: BoundingBox, b: BoundingBox):
    return float(np.hypot(a.cx - b.cx, a.cy - b.cy))


def compute_metrics(predictions, ground_truth, fps=0.0):
    """Per-frame errors plus precision/success curves and AUC."""
    if len(predictions) != len(ground_truth):
        raise ValueError(f"{len(predictions)} predictions vs {len(ground_truth)} ground-truth boxes")
    errs = [center_error(p, g) for p, g in zip(predictions, ground_truth)]
    ovs = [iou(p, g) for p, g in zip(predictions, ground_truth)]
    n = max(len(errs), 1)
    precision = [float(sum(e <= t for e in errs)) / n for t in PRECISION_THRESHOLDS]
    # strict comparison, so zero-overlap frames never count; the final bin
    # (threshold 1.0) counts perfect-overlap frames, which a strict test
    # would exclude by construction
    success = [float(sum(o > t for o in ovs)) / n for t in SUCCESS_THRESHOLDS[:-1]]
    success.append(float(sum(o >= 1.0 for o in ovs)) / n)
    return MetricReport(center_errors=errs, overlaps=ovs, precision_curve=precision,
                        success_curve=success, auc=float(np.mean(success)), fps=float(fps))


# --- sequence and result files ---------------------------------------------

def _parse_box_line(line):
    parts = line.replace(",", " ").split()
    if len(parts) != 4:
        raise ValueError(f"malformed box line: {line!r}")
    x, y, w, h = (float(p) for p in parts)
    return BoundingBox.from_topleft(x, y, w, h)


def save_sequence(directory, video):
    """Write `video` (a synth.SynthVideo) as a sequence directory: one
    %06d.ppm frame per time step, groundtruth_rect.txt and a meta.txt
    holding its class id."""
    os.makedirs(directory, exist_ok=True)
    for t, frame in enumerate(video.frames):
        write_ppm(os.path.join(directory, f"{t:06d}.ppm"), frame)
    save_results(os.path.join(directory, "groundtruth_rect.txt"), video.boxes)
    save_config(os.path.join(directory, "meta.txt"), {"class_id": video.class_id})


def load_sequence(directory):
    """Read a sequence directory as a synth.SynthVideo whose frames are the
    *.ppm paths, in name order, with the boxes of groundtruth_rect.txt and
    the class id of an optional meta.txt (0 without one). The frames are
    read only when the tracker prepares them."""
    names = sorted(f for f in os.listdir(directory) if f.endswith(".ppm"))
    if not names:
        raise ValueError(f"{directory}: no .ppm frames found")
    gt_path = os.path.join(directory, "groundtruth_rect.txt")
    with open(gt_path) as fh:
        boxes = [_parse_box_line(line) for line in fh if line.strip()]
    if len(boxes) != len(names):
        raise ValueError(f"{directory}: {len(names)} frames but {len(boxes)} ground-truth boxes")
    meta = os.path.join(directory, "meta.txt")
    entries = {"class_id": "0", **(load_config(meta) if os.path.exists(meta) else {})}
    try:
        class_id = _pop_entry(entries, "class_id", int)
    except ValueError as exc:
        raise ValueError(f"{meta}: {exc}") from None
    return SynthVideo(frames=[os.path.join(directory, n) for n in names], boxes=boxes, class_id=class_id)


def save_results(path, boxes):
    with open(path, "w") as fh:
        for b in boxes:
            x, y, w, h = b.to_topleft()
            fh.write(f"{x:.3f},{y:.3f},{w:.3f},{h:.3f}\n")


def load_results(path):
    with open(path) as fh:
        return [_parse_box_line(line) for line in fh if line.strip()]
