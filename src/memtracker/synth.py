"""Deterministic synthetic sequences: a drifting shape on a textured canvas,
optionally trailed by a same-class distractor.

The target's color drifts from a start to an end color over the sequence and
its size breathes slowly, so a frozen first-frame template degrades while an
adaptive template should not. The distractor keeps the target's *initial*
appearance, which is maximally confusing for a non-updating matcher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_fields
from .tracker import BoundingBox

SHAPE_NAMES = ("disk", "square", "triangle", "plus", "ring")


@dataclass(frozen=True)
class SynthConfig:
    canvas: int = 96
    frames: int = 40
    num_classes: int = 5
    target_size: float = 18.0
    drift: float = 0.6        # fraction of the start->end color swap reached by the last frame
    size_drift: float = 0.12  # relative breathing amplitude
    distractors: int = 0
    speed: float = 14.0       # motion amplitude in pixels

    def __post_init__(self):
        check_fields(self, at_least=(("canvas", 1), ("frames", 1), ("num_classes", 1), ("distractors", 0)),
                     ranges=(("target_size", self.target_size > 0, "positive"),
                             ("size_drift", 0.0 <= self.size_drift < 1.0, "in [0, 1)")))


@dataclass
class SynthVideo:
    frames: list
    boxes: list
    class_id: int


def _shape_mask(name, dy, dx, size):
    r = size / 2.0
    if name == "disk":
        d = np.sqrt(dx * dx + dy * dy)
        return np.clip(r - d, 0.0, 1.0)
    if name == "square":
        d = np.maximum(np.abs(dx), np.abs(dy))
        return np.clip(r - d, 0.0, 1.0)
    if name == "triangle":
        # upward triangle inscribed in the box
        inside = np.minimum(np.minimum(dy + r, r - dy - 2.0 * np.abs(dx) * 0.9), r)
        return np.clip(inside, 0.0, 1.0)
    if name == "plus":
        arm = size / 5.0
        bar = np.minimum(np.clip(arm - np.abs(dx), 0, 1), np.clip(r - np.abs(dy), 0, 1))
        bar2 = np.minimum(np.clip(arm - np.abs(dy), 0, 1), np.clip(r - np.abs(dx), 0, 1))
        return np.maximum(bar, bar2)
    if name == "ring":
        d = np.sqrt(dx * dx + dy * dy)
        return np.minimum(np.clip(r - d, 0.0, 1.0), np.clip(d - 0.45 * r, 0.0, 1.0))
    raise ValueError(f"unknown shape {name!r}")


def _draw(img, shape, cx, cy, size, color, grid):
    """Blend a shape into `img` in place, over only the window where its mask
    can be non-zero: every `_shape_mask` is 0 beyond 0.56*size (the triangle's
    half-width) along either axis, and a 0 mask leaves a pixel's bits as they are."""
    reach = 0.6 * size + 1.0
    ys = slice(max(int(cy - reach), 0), int(cy + reach) + 1)
    xs = slice(max(int(cx - reach), 0), int(cx + reach) + 1)
    m = _shape_mask(shape, grid[ys, None] - cy, grid[None, xs] - cx, size)[..., None].astype(np.float32)
    img[ys, xs] = img[ys, xs] * (1 - m) + m * color


def _background(rng, canvas):
    """Low-contrast smooth texture: an 8x8 noise grid upsampled bilinearly."""
    coarse = rng.uniform(-1.0, 1.0, size=(8, 8, 3))
    pos = np.linspace(0.0, 7.0, canvas)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, 7)
    frac = pos - i0
    rows = coarse[i0] * (1 - frac)[:, None, None] + coarse[i1] * frac[:, None, None]
    img = rows[:, i0] * (1 - frac)[None, :, None] + rows[:, i1] * frac[None, :, None]
    return (0.38 + 0.08 * img).astype(np.float32)


def _paths(rng, cfg, count):
    """Smooth in-canvas Lissajous paths, one (T,2) array per object."""
    T = cfg.frames
    margin = cfg.target_size * 0.9 + 2.0
    lo, hi = margin, max(cfg.canvas - margin, margin + 1.0)
    t = np.arange(T)
    speed = min(cfg.speed, (hi - lo) / 2.0)  # small canvases cap the travel
    paths = []
    for _ in range(count):
        base = rng.uniform(lo + speed, hi - speed, size=2)
        amp = rng.uniform(0.5, 1.0, size=2) * speed
        omega = rng.uniform(0.5, 1.4, size=2) * (2.0 * np.pi / T)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        xy = base[None, :] + amp[None, :] * np.sin(omega[None, :] * t[:, None] + phase[None, :])
        paths.append(np.clip(xy, lo, hi))
    return paths


def _orbit_paths(rng, cfg, target_path, count):
    """Paths circling the target at a breathing radius, clipped to the canvas.

    An orbiting distractor stays inside the search region most of the time,
    which makes distractor suppression actually matter.
    """
    T = cfg.frames
    t = np.arange(T)
    lo, hi = 2.0, cfg.canvas - 2.0
    paths = []
    for _ in range(count):
        base_r = rng.uniform(1.2, 1.6) * cfg.target_size
        r = base_r + 0.4 * cfg.target_size * np.sin(rng.uniform(0.8, 1.6) * 2.0 * np.pi * t / T
                                                    + rng.uniform(0, 2 * np.pi))
        ang = rng.uniform(0, 2 * np.pi) + rng.uniform(0.7, 1.5) * 2.0 * np.pi * t / T
        xy = target_path + np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        paths.append(np.clip(xy, lo, hi))
    return paths


def generate(seed, cfg: SynthConfig):
    """Render one sequence; identical (seed, cfg) gives bit-identical frames."""
    rng = np.random.default_rng(seed)
    class_id = int(rng.integers(cfg.num_classes))
    shape = SHAPE_NAMES[class_id % len(SHAPE_NAMES)]
    c_start = rng.uniform(0.55, 1.0, size=3)
    c_start[int(rng.integers(3))] *= 0.25  # keep the color saturated
    c_end = 1.0 - c_start
    bg = _background(rng, cfg.canvas)

    target_path = _paths(rng, cfg, 1)[0]
    distractor_paths = _orbit_paths(rng, cfg, target_path, cfg.distractors)
    size_phase = rng.uniform(0.0, 2.0 * np.pi)

    grid = np.arange(cfg.canvas, dtype=np.float64) + 0.5

    frames, boxes = [], []
    T = cfg.frames
    for t in range(T):
        img = bg.copy()
        u = cfg.drift * (t / max(T - 1, 1))
        color = ((1.0 - u) * c_start + u * c_end).astype(np.float32)
        # distractors keep the target's initial appearance: once the target
        # has drifted they are the best match for a non-updating template
        d_color = c_start.astype(np.float32)
        size = cfg.target_size * (1.0 + cfg.size_drift * np.sin(2.0 * np.pi * t / T + size_phase))
        for path in distractor_paths:
            _draw(img, shape, path[t, 0], path[t, 1], cfg.target_size, d_color, grid)
        tx, ty = target_path[t]
        _draw(img, shape, tx, ty, size, color, grid)
        frames.append(np.clip(img, 0.0, 1.0, out=img))
        boxes.append(BoundingBox(cx=float(tx), cy=float(ty), w=float(size), h=float(size)))
    return SynthVideo(frames=frames, boxes=boxes, class_id=class_id)


class SyntheticSource:
    """Endless deterministic stream of synthetic videos for training."""

    def __init__(self, cfg: SynthConfig, seed):
        self.cfg = cfg
        self.seed = seed
        self._i = 0

    def __iter__(self):
        return self

    def __next__(self):
        video = generate(self.seed + self._i, self.cfg)
        self._i += 1
        return video
