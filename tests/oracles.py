"""Independent brute-force references shared by the unit and acceptance tests.

These deliberately reimplement behavior with plain loops and full scans, so
they share no code path with the library implementations they check.
"""

import numpy as np


def oracle_distractors(score, tau, ratio, top_k):
    """Full-scan distractor selection: every cell is tested for local
    maximality against all in-bounds neighbours, the global peak is excluded,
    candidates are ordered by score (row-major on ties), truncated to top_k
    and filtered by distance and score ratio."""
    H, W = score.shape
    bi, bj = np.unravel_index(int(np.argmax(score)), score.shape)
    peaks = []
    for i in range(H):
        for j in range(W):
            if (i, j) == (bi, bj):
                continue
            is_peak = True
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    if du == 0 and dv == 0:
                        continue
                    ii, jj = i + du, j + dv
                    if 0 <= ii < H and 0 <= jj < W and score[i, j] < score[ii, jj]:
                        is_peak = False
            if is_peak:
                peaks.append((i, j))
    peaks.sort(key=lambda p: (-score[p], p[0] * W + p[1]))
    kept = []
    for (i, j) in peaks[:top_k]:
        if np.sqrt((i - bi) ** 2 + (j - bj) ** 2) > tau and score[i, j] > ratio * score[bi, bj]:
            kept.append((i, j))
    return kept


def distractor_coords(dset):
    return [] if dset.is_sentinel else dset.coords


def oracle_max_pool(x, n, stride):
    """Nested-loop valid max-pooling of an (H,W,C) map. Each window keeps its
    first maximum in row-major order; a NaN, once met, stays."""
    H, W, C = x.shape
    oh, ow = (H - n) // stride + 1, (W - n) // stride + 1
    out = np.empty((oh, ow, C), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            for c in range(C):
                best = x[i * stride, j * stride, c]
                for u in range(n):
                    for v in range(n):
                        val = x[i * stride + u, j * stride + v, c]
                        if not np.isnan(best) and (val > best or np.isnan(val)):
                            best = val
                out[i, j, c] = best
    return out


class OracleQueue:
    """The queue-style memory as a ring buffer: a head index that advances on
    every write, wrapping at the last slot, and a count of the slots written
    so far. The head slot takes the template; access decays and gains 1.0 at
    the head; the read is the mean of the first `occupied` slots."""

    def __init__(self, n_slots, template_shape, decay, dtype=np.float64):
        self.slots = np.zeros((n_slots,) + tuple(template_shape), dtype=dtype)
        self.access = np.zeros(n_slots)
        self.decay = decay
        self.head = 0
        self.occupied = 0

    def write(self, template):
        n_slots = self.slots.shape[0]
        self.slots[self.head] = template
        self.access = self.decay * self.access
        self.access[self.head] += 1.0
        self.head = (self.head + 1) % n_slots
        self.occupied = min(self.occupied + 1, n_slots)

    def keys(self):
        n_slots, n, _, c = self.slots.shape
        return self.slots.reshape(n_slots, n * n, c).sum(axis=1) * (1.0 / (n * n))

    def retrieve(self):
        n_slots = self.slots.shape[0]
        k = max(self.occupied, 1)
        w = np.zeros(n_slots, dtype=self.slots.dtype)
        w[:k] = 1.0 / k
        return (w @ self.slots.reshape(n_slots, -1)).reshape(self.slots.shape[1:])


def oracle_write_negative(slots, access, decay, templates, read_weight=None):
    """The negative write as one full-memory blend per distractor, in order:
    the k-th template replaces the k-th least-accessed slot (ties: lowest
    index). `slots` and `templates` are Tensors, so gradients flow as in the
    library. Returns (slots, keys, access)."""
    from memtracker import autodiff as ad
    from memtracker.autodiff import Tensor

    n_slots, n, _, c = slots.data.shape
    targets = np.lexsort((np.arange(n_slots), access))[:len(templates)]
    alloc_total = np.zeros(n_slots)
    for tmpl, j in zip(templates, targets):
        onehot = np.zeros(n_slots, dtype=slots.data.dtype)
        onehot[j] = 1.0
        alloc_total[j] += 1.0
        blend = ad.reshape(Tensor(onehot), (n_slots, 1, 1, 1))
        slots = ad.add(ad.mul(slots, ad.sub(1.0, blend)), ad.mul(blend, tmpl))
    rw = np.zeros(n_slots) if read_weight is None else read_weight.data
    keys = ad.tmean(ad.reshape(slots, (n_slots, n * n, c)), axis=1)
    return slots, keys, decay * access + rw + alloc_total


def oracle_crop_resize(frame, cx, cy, side, out_size):
    """The bilinear crop as four corner gathers, each with its own in-frame
    mask and mean-colour fill; the library crop must match it bit for bit."""
    if side <= 0 or out_size <= 0:
        raise ValueError(f"degenerate crop: side={side}, out={out_size}")
    frame = np.asarray(frame)
    H, W = frame.shape[:2]
    fill = frame.reshape(-1, frame.shape[2]).mean(axis=0)
    step = side / out_size
    xs = (cx - side / 2.0) + (np.arange(out_size) + 0.5) * step - 0.5
    ys = (cy - side / 2.0) + (np.arange(out_size) + 0.5) * step - 0.5
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = (xs - x0).astype(frame.dtype)
    fy = (ys - y0).astype(frame.dtype)

    def sample(yi, xi):
        valid = ((yi >= 0) & (yi < H))[:, None] & ((xi >= 0) & (xi < W))[None, :]
        vals = frame[np.clip(yi, 0, H - 1)[:, None], np.clip(xi, 0, W - 1)[None, :], :]
        return np.where(valid[..., None], vals, fill)

    wy = fy[:, None, None]
    wx = fx[None, :, None]
    tl = sample(y0, x0)
    tr = sample(y0, x0 + 1)
    bl = sample(y0 + 1, x0)
    br = sample(y0 + 1, x0 + 1)
    top = tl * (1 - wx) + tr * wx
    bot = bl * (1 - wx) + br * wx
    return (top * (1 - wy) + bot * wy).astype(frame.dtype)


def _minmax(arr):
    lo, hi = arr.min(), arr.max()
    if hi - lo < 1e-12:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def oracle_choose_peak(maps, window_weight):
    """The scale choice as a loop over scales: each map min-max normalised
    and blended with a cosine window, a later scale taking over only when its
    peak is strictly higher. Returns (scale, row, col); on all-flat maps that
    is scale 0, where the library reports no peak."""
    window = np.outer(np.hanning(maps.shape[1]), np.hanning(maps.shape[1]))
    ww = window_weight
    best = (-np.inf, len(maps) // 2, 0, 0)
    for si in range(len(maps)):
        damped = (1.0 - ww) * _minmax(maps[si]) + ww * window
        p, q = np.unravel_index(int(np.argmax(damped)), damped.shape)
        val = damped[p, q]
        if val > best[0]:
            best = (val, si, p, q)
    _, s_star, p_star, q_star = best
    return s_star, p_star, q_star


def oracle_generate(seed, cfg):
    """`synth.generate` with every shape's mask computed over the whole
    canvas, from the same random draws, and each frame clipped into a copy.
    Returns (frames, boxes as (cx, cy, w, h) tuples, class_id)."""
    from memtracker import synth

    rng = np.random.default_rng(seed)
    class_id = int(rng.integers(cfg.num_classes))
    shape = synth.SHAPE_NAMES[class_id % len(synth.SHAPE_NAMES)]
    c_start = rng.uniform(0.55, 1.0, size=3)
    c_start[int(rng.integers(3))] *= 0.25
    c_end = 1.0 - c_start
    bg = synth._background(rng, cfg.canvas)
    target_path = synth._paths(rng, cfg, 1)[0]
    distractor_paths = synth._orbit_paths(rng, cfg, target_path, cfg.distractors)
    size_phase = rng.uniform(0.0, 2.0 * np.pi)

    grid = np.arange(cfg.canvas, dtype=np.float64) + 0.5
    gx, gy = np.meshgrid(grid, grid)
    frames, boxes = [], []
    T = cfg.frames
    for t in range(T):
        img = bg.copy()
        u = cfg.drift * (t / max(T - 1, 1))
        color = ((1.0 - u) * c_start + u * c_end).astype(np.float32)
        d_color = c_start.astype(np.float32)
        size = cfg.target_size * (1.0 + cfg.size_drift * np.sin(2.0 * np.pi * t / T + size_phase))
        for path in distractor_paths:
            dx, dy = gx - path[t, 0], gy - path[t, 1]
            m = synth._shape_mask(shape, dy, dx, cfg.target_size)[..., None].astype(np.float32)
            img = img * (1 - m) + m * d_color
        tx, ty = target_path[t]
        dx, dy = gx - tx, gy - ty
        m = synth._shape_mask(shape, dy, dx, size)[..., None].astype(np.float32)
        img = img * (1 - m) + m * color
        frames.append(np.clip(img, 0.0, 1.0).astype(np.float32))
        boxes.append((float(tx), float(ty), float(size), float(size)))
    return frames, boxes, class_id
