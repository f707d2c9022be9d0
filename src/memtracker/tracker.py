"""Per-frame tracking: the crop-to-features call and the score-cell geometry,
multi-scale search, and the per-frame model (`init`, `frame_forward`,
`write_memories`) that training and the gradient check reuse."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import attention as attn
from . import autodiff as ad
from . import controller as ctrl
from . import featnet
from . import memory as mem
from . import ppm
from . import template as tmpl
from .autodiff import Tensor
from .model import ABLATIONS, VARIANTS, ModelConfig, check_fields


@dataclass
class BoundingBox:
    """Center-form box in continuous pixel coordinates."""
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        check_fields(self, ranges=(("w", self.w > 0, "positive"), ("h", self.h > 0, "positive")))

    @staticmethod
    def from_topleft(x, y, w, h):
        return BoundingBox(cx=x + w / 2.0, cy=y + h / 2.0, w=w, h=h)

    def to_topleft(self):
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0, self.w, self.h)


@dataclass
class TrackState:
    box: BoundingBox
    h: Tensor
    c: Tensor
    pos_mem: mem.MemoryState
    neg_mem: mem.MemoryState
    initial_template: Tensor
    ablation: str = "none"
    pin_gates: bool = False  # test hook: zero residual gate, skip writes


@dataclass
class FrameRead:
    """What `frame_forward` computed for one frame."""
    template: Tensor                 # final matching template
    h: Tensor                        # controller state after the frame
    c: Tensor
    signals: ctrl.ControlSignals | None = None  # None when the variant is frozen
    w_pos: Tensor | None = None      # positive read weights (None for the queue read)
    w_neg: Tensor | None = None      # negative read weights


def object_roi(box: BoundingBox, context_factor=0.5):
    """Square crop around the target with context margin.

    side = sqrt((c + w)(c + h)) with c = context_factor * (w + h); the
    center is preserved.
    """
    c = context_factor * (box.w + box.h)
    side = float(np.sqrt((c + box.w) * (c + box.h)))
    return box.cx, box.cy, side


def search_roi(box: BoundingBox, cfg: ModelConfig):
    """Square search crop: the object crop scaled by the input-size ratio."""
    cx, cy, side = object_roi(box, cfg.context_factor)
    return cx, cy, side * cfg.search_ratio


def prepare_frame(frame, dtype):
    """A frame as every crop of it reads it: a channels-first (3, H+2, W+2)
    array of `dtype` with a one-pixel border of the frame's mean colour, so a
    tap clipped into the border reads the fill. This is the one place a frame
    is loaded: a path (str or bytes) is read with `ppm.read_ppm`. A gray (H,W)
    frame is repeated into 3 channels and a uint8 frame is scaled to [0,1] as
    `ppm.read_ppm` scales it. Any other layout, or a NaN or infinite pixel,
    raises ValueError, so a bad frame cannot reach the memories."""
    frame = ppm.read_ppm(frame) if isinstance(frame, (str, bytes)) else np.asarray(frame)
    if frame.dtype == np.uint8:
        frame = frame.astype(np.float32) / 255.0
    if frame.ndim == 2:
        frame = np.repeat(frame[:, :, None], 3, axis=2)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError(f"expected an (H,W) or (H,W,3) frame, got shape {frame.shape}")
    frame = np.asarray(frame, dtype=dtype)
    if not np.isfinite(frame).all():
        raise ValueError("frame has NaN or infinite pixels")
    H, W, C = frame.shape
    fill = frame.reshape(-1, C).mean(axis=0)[:, None]
    prepared = np.empty((C, H + 2, W + 2), dtype=frame.dtype)
    prepared[:, 1:-1, 1:-1] = frame.transpose(2, 0, 1)
    prepared[:, 0] = prepared[:, -1] = prepared[:, :, 0] = prepared[:, :, -1] = fill
    return prepared


def crop_resize(prepared, cx, cy, side, out_size):
    """Bilinear crop of a square region of a `prepare_frame` frame, resized
    to an (out_size, out_size, 3) view; outside pixels take the frame's mean
    colour. Only the padded rows between the first and the last y tap are
    read."""
    if side <= 0 or out_size <= 0:
        raise ValueError(f"degenerate crop: side={side}, out={out_size}")
    _, Hp, Wp = prepared.shape
    # sample positions along y (row 0) and x (row 1), their two taps into the
    # padded frame and the second tap's weight
    s = (np.array([[cy - side / 2.0], [cx - side / 2.0]])
         + (np.arange(out_size) + 0.5) * (side / out_size) - 0.5)
    i = np.floor(s).astype(np.int64)
    (y0, x0), (y1, x1) = np.clip([i + 1, i + 2], 0, [[Hp - 1], [Wp - 1]])
    wy, wx = (s - i).astype(prepared.dtype)
    # the taps rise with the output row: the band of rows read starts at y0[0]
    # and ends at y1[-1]
    lo = y0[0]
    band = prepared[:, lo:y1[-1] + 1]
    rows = band[:, :, x0] * (1 - wx) + band[:, :, x1] * wx
    out = rows[:, y0 - lo] * (1 - wy[:, None]) + rows[:, y1 - lo] * wy[:, None]
    return out.transpose(1, 2, 0)


def choose_peak(maps, window_weight):
    """(scale, row, col) of the best cell of the stacked (scales, P, P)
    responses, each min-max normalised and blended with a cosine window, or
    None when every map is flat or any is non-finite. Ties go to the lowest
    scale, then to the first cell in row-major order."""
    lo = maps.min(axis=(1, 2), keepdims=True)
    span = maps.max(axis=(1, 2), keepdims=True) - lo
    flat = span < 1e-12
    if flat.all() or not np.isfinite(span).all():
        return None
    # a flat map divides by inf and normalises to zeros
    hann = np.hanning(maps.shape[-1])
    damped = ((1.0 - window_weight) * ((maps - lo) / np.where(flat, np.inf, span))
              + window_weight * np.outer(hann, hann))
    s, p, q = np.unravel_index(int(np.argmax(damped)), damped.shape)
    return int(s), p, q


def crop_features(prepared, cx, cy, side, size, params, cfg: ModelConfig):
    """Features of the square crop of `side` px centred on (cx, cy) of a
    `prepare_frame` frame, resized to `size` px. Every crop the tracker, the
    trainer and the gradient check take comes through here, from a frame
    each of them prepares once."""
    return featnet.extract_features(Tensor(crop_resize(prepared, cx, cy, side, size)), params, cfg.net)


def cell_offset(cell, side, cfg: ModelConfig):
    """Pixel offset from the crop centre of score-map row or column `cell`,
    on a search crop of `side` px; `offset_cell` is its inverse."""
    center = (cfg.response_size - 1) / 2.0
    return (cell - center) * cfg.net.feature_stride * (side / cfg.net.search_size)


def offset_cell(offset, side, cfg: ModelConfig):
    """Score-map row or column (fractional) of a pixel offset from the centre
    of a search crop of `side` px; the inverse of `cell_offset`."""
    center = (cfg.response_size - 1) / 2.0
    return center + offset / (cfg.net.feature_stride * (side / cfg.net.search_size))


def extract_template(prepared, box, params, cfg: ModelConfig):
    cx, cy, side = object_roi(box, cfg.context_factor)
    return crop_features(prepared, cx, cy, side, cfg.net.object_size, params, cfg)


def init(frame, box: BoundingBox, params, cfg: ModelConfig, ablation="none"):
    """Build the tracking state for the first frame.

    The initial template seeds the controller state and replaces slot 0 of
    the otherwise empty positive memory (`queue_write`, whatever the
    ablation); negative memory starts blank. A box that does not overlap
    the frame raises ValueError.
    """
    if ablation not in VARIANTS:
        raise ValueError(f"unknown ablation {ablation!r}; choose from {ABLATIONS}")
    prepared = prepare_frame(frame, params["featnet/conv0_w"].data.dtype)
    H, W = prepared.shape[1] - 2, prepared.shape[2] - 2
    x, y, w, h = box.to_topleft()
    if x >= W or y >= H or x + w <= 0 or y + h <= 0:
        raise ValueError(f"initial box {box} does not overlap the {W}x{H} frame")
    t0 = extract_template(prepared, box, params, cfg)
    h0, c0 = ctrl.init_state(t0, params)
    n, c = cfg.net.template_size, cfg.net.channels
    dtype = t0.data.dtype
    pos = mem.MemoryState.zeros(cfg.n_pos, n, c, cfg.mem_decay, dtype=dtype)
    pos = mem.queue_write(pos, t0)
    neg = mem.MemoryState.zeros(cfg.n_neg, n, c, cfg.mem_decay, dtype=dtype)
    return TrackState(box=box, h=h0, c=c0, pos_mem=pos, neg_mem=neg, initial_template=t0,
                      ablation=ablation)


def frame_forward(state: TrackState, search_features, params, cfg: ModelConfig,
                  mode="eval", rng=None):
    """Attention, LSTM and control heads on one frame's search features, then
    the positive read joined to the initial template by the residual gate and
    the negative read that cancels distractors. `mode`/`rng` select dropout."""
    v = VARIANTS[state.ablation]
    t0 = state.initial_template
    if not v.adapt:
        return FrameRead(template=t0, h=state.h, c=state.c)
    patches = attn.pool_patches(search_features, cfg.net.template_size, cfg.patch_stride)
    if v.attend:
        scores = attn.attention_scores(state.h, patches, params)
        a_t, _ = attn.attended_vector(scores, patches)
    else:
        a_t = attn.uniform_attended_vector(patches)
    h, c = ctrl.lstm_step(a_t, state.h, state.c, params, mode=mode,
                          keep_prob=cfg.dropout_keep, rng=rng)
    signals = ctrl.control_signals(h, params)

    if v.read == "queue":
        retrieved, w_pos = mem.queue_retrieve(state.pos_mem), None
    elif v.read == "hard":
        retrieved, j = mem.hard_read(state.pos_mem, signals.read_key)
        w_pos = Tensor(np.eye(state.pos_mem.size, dtype=retrieved.data.dtype)[j])
    else:
        retrieved, w_pos = mem.read(state.pos_mem, signals.read_key, signals.read_strength)
    gate = signals.residual_gate
    if state.pin_gates:
        gate = Tensor(np.zeros_like(gate.data))
    if v.gated_residual:
        final = tmpl.residual_combine(t0, retrieved, gate)
    else:
        final = ad.add(t0, retrieved)
    w_neg = None
    if v.negative:
        negative, w_neg = mem.read(state.neg_mem, signals.read_key, signals.read_strength)
        final, _ = tmpl.cancel_distractor(final, negative, params)
    return FrameRead(template=final, h=h, c=c, signals=signals, w_pos=w_pos, w_neg=w_neg)


def write_memories(state: TrackState, read: FrameRead, new_template, score_map,
                   search_features, cfg: ModelConfig):
    """One memory write after `frame_forward`: `new_template` into positive
    memory, then the distractors of `score_map` (a response over
    `search_features`) into negative memory. Returns (pos_mem, neg_mem)."""
    v = VARIANTS[state.ablation]
    if v.read == "queue":
        pos_mem = mem.queue_write(state.pos_mem, new_template)
    else:
        pos_mem = mem.write_positive(state.pos_mem, new_template, read.signals.write_gates,
                                     read.w_pos, read.signals.decay_rate)
    neg_mem = state.neg_mem
    if v.negative:
        distractors = mem.extract_distractors(score_map, search_features, cfg.tau, cfg.score_ratio,
                                              cfg.top_k, cfg.net.template_size)
        neg_mem = mem.write_negative(neg_mem, distractors, read_weight=read.w_neg)
    return pos_mem, neg_mem


def step(state: TrackState, frame, params, cfg: ModelConfig):
    """Track one frame: multi-scale search, box update, memory writes.

    The controller runs once on the middle-scale crop and its template is
    shared across scales; `choose_peak` picks the scale and the cell. When
    it finds no peak (every response flat, as on a blank frame, or one
    non-finite) the state and the box come back unchanged.
    """
    if not isinstance(state, TrackState):
        raise RuntimeError("tracker state not initialized; call init() first")
    prepared = prepare_frame(frame, params["featnet/conv0_w"].data.dtype)
    box = state.box
    cx, cy, base_side = search_roi(box, cfg)
    scales = cfg.scale_factors
    mid = len(scales) // 2
    sides = [base_side * s for s in scales]
    feats = [crop_features(prepared, cx, cy, side, cfg.net.search_size, params, cfg) for side in sides]
    read = frame_forward(state, feats[mid], params, cfg)
    responses = [tmpl.response(f, read.template) for f in feats]

    peak = choose_peak(np.stack([r.data for r in responses]), cfg.window_weight)
    if peak is None:
        return state, box
    s_star, p_star, q_star = peak

    dx = cell_offset(q_star, sides[s_star], cfg)
    dy = cell_offset(p_star, sides[s_star], cfg)
    size_factor = (1.0 - cfg.scale_smooth) + cfg.scale_smooth * scales[s_star]
    new_box = BoundingBox(cx=box.cx + dx, cy=box.cy + dy,
                          w=box.w * size_factor, h=box.h * size_factor)

    new_state = replace(state, box=new_box, h=read.h, c=read.c)
    if VARIANTS[state.ablation].adapt and not state.pin_gates:
        new_template = extract_template(prepared, new_box, params, cfg)
        new_state.pos_mem, new_state.neg_mem = write_memories(
            state, read, new_template, responses[s_star].data, feats[s_star], cfg)
    return new_state, new_box


def track_sequence(frames, first_box, params, cfg: ModelConfig, ablation="none",
                   pin_gates=False):
    """Track a full sequence; frames may be arrays or paths, each read when
    its step prepares it.

    Returns the per-frame boxes (the first one echoes the given box).
    """
    with ad.no_grad():
        state = init(frames[0], first_box, params, cfg, ablation=ablation)
        state.pin_gates = pin_gates
        boxes = [first_box]
        for f in frames[1:]:
            state, box = step(state, f, params, cfg)
            boxes.append(box)
    return boxes
