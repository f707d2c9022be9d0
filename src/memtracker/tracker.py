"""Per-frame tracking: crop geometry, multi-scale search, and the per-frame
model (`init`, `frame_forward`, `write_memories`) that training reuses."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import attention as attn
from . import autodiff as ad
from . import controller as ctrl
from . import featnet
from . import memory as mem
from . import template as tmpl
from .autodiff import Tensor
from .model import ABLATIONS, VARIANTS, ModelConfig


@dataclass
class BoundingBox:
    """Center-form box in continuous pixel coordinates."""
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got {self.w}x{self.h}")

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
    diagnostics: dict = field(default_factory=dict)


@dataclass
class FrameRead:
    """What `frame_forward` computed for one frame."""
    template: Tensor                 # final matching template
    h: Tensor                        # controller state after the frame
    c: Tensor
    signals: ctrl.ControlSignals | None = None  # None when the variant is frozen
    w_pos: Tensor | None = None      # positive read weights (None for the queue read)
    w_neg: Tensor | None = None      # negative read weights
    alpha: Tensor | None = None      # attention weights


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


def crop_resize(frame, cx, cy, side, out_size):
    """Bilinear crop of a square region to out_size; outside pixels take the
    frame's mean color."""
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


def cosine_window(size):
    w = np.hanning(size)
    return np.outer(w, w)


def _minmax(arr):
    lo, hi = arr.min(), arr.max()
    if hi - lo < 1e-12:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def _param_dtype(params):
    return params["featnet/conv0_w"].data.dtype


def extract_template(frame, box, params, cfg: ModelConfig):
    cx, cy, side = object_roi(box, cfg.context_factor)
    patch = crop_resize(np.asarray(frame, dtype=_param_dtype(params)), cx, cy, side,
                        cfg.net.object_size)
    return featnet.extract_features(Tensor(patch), params, cfg.net)


def init(frame, box: BoundingBox, params, cfg: ModelConfig, ablation="none"):
    """Build the tracking state for the first frame.

    The initial template seeds the controller state and is force-written
    into the (otherwise empty) positive memory; negative memory starts blank.
    """
    if ablation not in VARIANTS:
        raise ValueError(f"unknown ablation {ablation!r}; choose from {ABLATIONS}")
    t0 = extract_template(frame, box, params, cfg)
    h0, c0 = ctrl.init_state(t0, params)
    n, c = cfg.net.template_size, cfg.net.channels
    dtype = t0.data.dtype
    pos = mem.MemoryState.zeros(cfg.n_pos, n, c, cfg.mem_decay, dtype=dtype)
    pos = mem.queue_write(pos, t0) if VARIANTS[ablation].read == "queue" else mem.forced_allocation_write(pos, t0)
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
    bank = attn.pool_patches(search_features, cfg.net.template_size, cfg.patch_stride)
    if v.attend:
        scores = attn.attention_scores(state.h, bank, params)
        a_t, alpha = attn.attended_vector(scores, bank)
    else:
        a_t, alpha = attn.uniform_attended_vector(bank)
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
    return FrameRead(template=final, h=h, c=c, signals=signals, w_pos=w_pos, w_neg=w_neg,
                     alpha=alpha)


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
    shared across scales. Each scale's response is min-max normalized and
    blended with a cosine window before the cross-scale argmax.
    """
    if not isinstance(state, TrackState):
        raise RuntimeError("tracker state not initialized; call init() first")
    frame = np.asarray(frame, dtype=_param_dtype(params))
    box = state.box
    cx, cy, base_side = search_roi(box, cfg)
    scales = cfg.scale_factors
    mid = len(scales) // 2
    s_in = cfg.net.search_size

    patches = [crop_resize(frame, cx, cy, base_side * s, s_in) for s in scales]
    feats = [None] * len(scales)
    feats[mid] = featnet.extract_features(Tensor(patches[mid]), params, cfg.net)
    read = frame_forward(state, feats[mid], params, cfg)

    responses = []
    for si in range(len(scales)):
        if feats[si] is None:
            feats[si] = featnet.extract_features(Tensor(patches[si]), params, cfg.net)
        responses.append(tmpl.response(feats[si], read.template))

    window = cosine_window(responses[0].data.shape[0])
    ww = cfg.window_weight
    best = (-np.inf, mid, 0, 0)
    for si in range(len(scales)):
        damped = (1.0 - ww) * _minmax(responses[si].data) + ww * window
        p, q = np.unravel_index(int(np.argmax(damped)), damped.shape)
        val = damped[p, q]
        if val > best[0]:
            best = (val, si, p, q)
    _, s_star, p_star, q_star = best

    P = responses[0].data.shape[0]
    center_cell = (P - 1) / 2.0
    patch_scale = base_side * scales[s_star] / s_in
    stride = cfg.net.feature_stride
    dx = (q_star - center_cell) * stride * patch_scale
    dy = (p_star - center_cell) * stride * patch_scale
    size_factor = (1.0 - cfg.scale_smooth) + cfg.scale_smooth * scales[s_star]
    new_box = BoundingBox(cx=box.cx + dx, cy=box.cy + dy,
                          w=box.w * size_factor, h=box.h * size_factor)

    diag = {"scale_index": s_star, "peak": (p_star, q_star),
            "alpha": None if read.alpha is None else read.alpha.data.copy(),
            "write_gates": None if read.signals is None else read.signals.write_gates.data.copy()}
    new_state = replace(state, box=new_box, h=read.h, c=read.c, diagnostics=diag)
    if VARIANTS[state.ablation].adapt and not state.pin_gates:
        new_template = extract_template(frame, new_box, params, cfg)
        new_state.pos_mem, new_state.neg_mem = write_memories(
            state, read, new_template, responses[s_star].data, feats[s_star], cfg)
    return new_state, new_box


def dump_state(path, state: TrackState):
    """Serialize a tracking state for debugging, checkpoint container format.

    Memory slots, keys and access traces, the controller state, the initial
    template and the box all round-trip through load_checkpoint.
    """
    from .checkpoint import save_checkpoint

    tensors = {
        "state/box": Tensor(np.array([state.box.cx, state.box.cy, state.box.w, state.box.h],
                                     dtype=np.float64)),
        "state/h": state.h,
        "state/c": state.c,
        "state/initial_template": state.initial_template,
        "posmem/slots": state.pos_mem.slots,
        "posmem/keys": state.pos_mem.keys,
        "posmem/access": Tensor(state.pos_mem.access.astype(np.float64)),
        "negmem/slots": state.neg_mem.slots,
        "negmem/keys": state.neg_mem.keys,
        "negmem/access": Tensor(state.neg_mem.access.astype(np.float64)),
    }
    save_checkpoint(path, tensors)


def track_sequence(frames, first_box, params, cfg: ModelConfig, ablation="none",
                   pin_gates=False):
    """Track a full sequence; frames may be arrays or paths loaded lazily.

    Returns the per-frame boxes (the first one echoes the given box).
    """
    from .ppm import read_ppm

    def load(f):
        return read_ppm(f) if isinstance(f, (str, bytes)) else f

    with ad.no_grad():
        state = init(load(frames[0]), first_box, params, cfg, ablation=ablation)
        state.pin_gates = pin_gates
        boxes = [first_box]
        for f in frames[1:]:
            state, box = step(state, load(f), params, cfg)
            boxes.append(box)
    return boxes
