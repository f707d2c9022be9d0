"""Loss construction and the training loop.

Training unrolls the tracking pipeline over a clip with teacher forcing
(crops centered on ground-truth boxes plus small jitter), sums the
per-step matching and auxiliary classification losses, and backpropagates
through the whole unroll including the memory writes, so the controller
learns its gate behavior end to end.
"""

from __future__ import annotations

import gc
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import featnet
from . import template as tmpl
from . import tracker
from .autodiff import Tensor
from .model import ModelConfig, check_fields, fields_from_dict, init_params


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
AUG_TRANSLATE = 4.0   # search-crop centre jitter in pixels, each axis
AUG_STRETCH = 0.05    # search-crop side jitter, relative


@dataclass
class LabelMap:
    labels: np.ndarray   # (P,P) in {0,1}
    weights: np.ndarray  # (P,P), each class sums to 0.5


@dataclass
class TrainConfig:
    steps: int = 1000
    batch_clips: int = 1
    clip_len: int = 8
    lr: float = 3e-3
    lr_decay: float = 0.8
    lr_interval: int = 10000
    kappa: float = 0.05
    seed: int = 0
    radius: float = 2.0       # positive-label radius in score cells

    def __post_init__(self):
        check_fields(self, at_least=(("steps", 1), ("batch_clips", 1), ("clip_len", 2), ("lr_interval", 1)))


def train_config_from_dict(entries):
    """A TrainConfig from the entries given; absent fields keep their defaults."""
    entries = {**asdict(TrainConfig()), **entries}
    tc = TrainConfig(**fields_from_dict(TrainConfig, entries))
    if entries:
        raise ValueError(f"unknown training config keys: {sorted(entries)}")
    return tc


def gt_response(center, extent, radius):
    """Binary disk label map with class-balanced weights.

    `center` is the (row, col) position of the true target in score-map
    cells; fractional positions are allowed and keep the disk aligned with
    the sub-cell peak. Cells within Euclidean distance `radius` are positive
    (a radius of 0 marks the single nearest cell). Each class's weights sum
    to 0.5, so the balanced loss of an all-zero logit map is exactly ln 2.
    """
    r, c = center
    if not (0 <= r < extent and 0 <= c < extent):
        raise ValueError(f"label center {center} outside a {extent}x{extent} map")
    ii, jj = np.meshgrid(np.arange(extent), np.arange(extent), indexing="ij")
    labels = (np.hypot(ii - r, jj - c) <= radius).astype(np.float64)
    if not labels.any():
        labels[int(round(r)), int(round(c))] = 1.0
    n_pos = labels.sum()
    n_neg = labels.size - n_pos
    weights = np.zeros_like(labels)
    if n_pos:
        weights[labels == 1] = 0.5 / n_pos
    if n_neg:
        weights[labels == 0] = 0.5 / n_neg
    return LabelMap(labels=labels, weights=weights)


def centered_logits(response):
    """Subtract the map mean before the loss.

    Raw correlation maps carry a large offset set by feature magnitudes;
    the fastest loss descent from that saturated start is a uniform
    downward shift that ends in the degenerate all-zero-logit optimum.
    Centering removes the offset as a degree of freedom, so the loss can
    only improve by reshaping the map around the true target cell.
    """
    return ad.sub(response, ad.tmean(response))


def matching_loss(response, label_map: LabelMap):
    """Class-balanced elementwise sigmoid cross entropy of a logit map."""
    if response.data.shape != label_map.labels.shape:
        raise ValueError(f"map {response.data.shape} vs labels {label_map.labels.shape}")
    y = Tensor(label_map.labels.astype(response.data.dtype))
    w = Tensor(label_map.weights.astype(response.data.dtype))
    per_cell = ad.sub(ad.softplus(response), ad.mul(response, y))
    return ad.tsum(ad.mul(w, per_cell))


def classification_loss(probs, class_id):
    if not 0 <= class_id < probs.data.shape[0]:
        raise ValueError(f"class id {class_id} outside the model's {probs.data.shape[0]} classes")
    return ad.neg(ad.tlog(probs[int(class_id)]))


def total_loss(response, label_map, probs, class_id, kappa=0.05):
    """matching + kappa * classification; kappa = 0 drops the auxiliary term."""
    loss = matching_loss(response, label_map)
    if kappa:
        loss = ad.add(loss, ad.mul(float(kappa), classification_loss(probs, class_id)))
    return loss


def sample_clip(video_len, clip_len, seed):
    """Uniform without-replacement frame pick, kept in temporal order."""
    if video_len < clip_len:
        raise ValueError(f"video of {video_len} frames too short for clip length {clip_len}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(video_len, size=clip_len, replace=False)
    return np.sort(idx)


def clip_loss(params, cfg: ModelConfig, frames, boxes, class_id, tc: TrainConfig,
              rng, mode="train"):
    """Summed per-step loss of a teacher-forced unroll over one clip. Frames
    may take any layout `tracker.step` accepts, gray and uint8 included."""
    state = tracker.init(frames[0], boxes[0], params, cfg)
    dtype = params["featnet/conv0_w"].data.dtype
    P = cfg.response_size
    total = None
    for t in range(1, len(frames)):
        cx, cy, side = tracker.search_roi(boxes[t - 1], cfg)
        if mode == "train":
            cx += rng.uniform(-AUG_TRANSLATE, AUG_TRANSLATE)
            cy += rng.uniform(-AUG_TRANSLATE, AUG_TRANSLATE)
            side *= 1.0 + rng.uniform(-AUG_STRETCH, AUG_STRETCH)
        prepared = tracker.prepare_frame(frames[t], dtype)
        feats = tracker.crop_features(prepared, cx, cy, side, cfg.net.search_size, params, cfg)
        read = tracker.frame_forward(state, feats, params, cfg, mode=mode, rng=rng)
        response = tmpl.response(feats, read.template)
        logits = centered_logits(response)

        row = tracker.offset_cell(boxes[t].cy - cy, side, cfg)
        col = tracker.offset_cell(boxes[t].cx - cx, side, cfg)
        row, col = min(max(row, 0.0), P - 1.0), min(max(col, 0.0), P - 1.0)
        label = gt_response((row, col), P, tc.radius)

        new_template = tracker.extract_template(prepared, boxes[t], params, cfg)
        probs = featnet.classify_object(new_template, params, cfg.net) if tc.kappa else None
        step_loss = total_loss(logits, label, probs, class_id, kappa=tc.kappa)
        total = step_loss if total is None else ad.add(total, step_loss)

        if t + 1 < len(frames):  # the last frame's write would reach no loss
            state.pos_mem, state.neg_mem = tracker.write_memories(state, read, new_template, response.data, feats, cfg)
            state.box, state.h, state.c = boxes[t], read.h, read.c
    return total


class Adam:
    def __init__(self, params):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def train(tc: TrainConfig, cfg: ModelConfig, source, params=None, on_step=None):
    """Run the optimization loop; returns (params, per-step mean losses).

    `source` is an iterator of videos (objects with .frames, .boxes,
    .class_id). A finite source that runs out stops training cleanly with
    the parameters trained so far.
    """
    if params is None:
        params = init_params(cfg, tc.seed)
    adam = Adam(params)
    rng = np.random.default_rng(tc.seed + 1)
    source_iter = iter(source)
    history = []
    for step in range(tc.steps):
        lr = tc.lr * (tc.lr_decay ** (step // tc.lr_interval))
        adam.zero_grad()
        losses = []
        collecting = gc.isenabled()
        gc.disable()  # the graph has no cycles: reference counting frees it unwalked
        try:
            for _ in range(tc.batch_clips):
                video = next(source_iter)
                idx = sample_clip(len(video.frames), tc.clip_len, int(rng.integers(2 ** 31)))
                frames = [video.frames[i] for i in idx]
                boxes = [video.boxes[i] for i in idx]
                loss = clip_loss(params, cfg, frames, boxes, video.class_id, tc, rng)
                losses.append(loss.item())
                ad.backward(ad.mul(loss, 1.0 / tc.batch_clips))
                del loss  # free the graph before the collector can resume
        except StopIteration:
            break
        finally:
            if collecting:
                gc.enable()
        mean_loss = float(np.mean(losses))
        if math.isfinite(mean_loss):  # a non-finite loss leaves the parameters as they were
            adam.step(lr)
        history.append(mean_loss)
        if on_step is not None:
            on_step(step, mean_loss)
        if not math.isfinite(mean_loss):
            raise FloatingPointError(f"non-finite loss at step {step}")
    return params, history
