"""Fully-convolutional feature extractor shared by the object and search
branches, plus the train-time auxiliary classification head."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

_POOLS = {"max": ad.max_pool, "avg": ad.avg_pool}


@dataclass(frozen=True)
class ConvLayer:
    kernel: int
    stride: int
    channels: int
    relu: bool = True
    pool: tuple | None = None  # (kind "max"|"avg", size, stride)
    groups: int = 1  # channel groups: output group g sees only input group g

    def __post_init__(self):
        from .model import check_fields  # model imports this module

        pool = self.pool
        pool_ok = pool is None or (len(pool) == 3 and pool[0] in _POOLS
                                   and all(isinstance(v, numbers.Real) and 1 <= v < math.inf for v in pool[1:]))
        try:
            check_fields(self, at_least=(("kernel", 1), ("stride", 1), ("channels", 1), ("groups", 1)),
                         ranges=(("pool", pool_ok, "None or (max|avg, size >= 1, stride >= 1)"),))
        except ValueError as exc:
            raise ValueError(f"bad conv layer: {exc}") from None


@dataclass(frozen=True)
class FeatureNetConfig:
    object_size: int
    search_size: int
    layers: tuple[ConvLayer, ...]
    num_classes: int = 30
    cls_hidden: int = 1024

    def __post_init__(self):
        from .model import check_fields  # model imports this module

        check_fields(self, at_least=(("object_size", 1), ("search_size", 1), ("num_classes", 1), ("cls_hidden", 1)),
                     ranges=(("layers", len(self.layers) >= 1, "at least one conv layer"),))
        for i, (cin, ly) in enumerate(zip((3, *(ly.channels for ly in self.layers)), self.layers)):
            if cin % ly.groups or ly.channels % ly.groups:
                raise ValueError(f"FeatureNetConfig layer{i}: groups {ly.groups} must divide its "
                                 f"{cin} input and {ly.channels} output channels")

    @property
    def channels(self):
        return self.layers[-1].channels

    def spatial_out(self, size):
        """Forward shape arithmetic for one spatial extent."""
        for ly in self.layers:
            if ly.kernel > size:
                raise ValueError(f"layer kernel {ly.kernel} exceeds map extent {size}")
            size = (size - ly.kernel) // ly.stride + 1
            if ly.pool is not None:
                _, pn, ps = ly.pool
                if pn > size:
                    raise ValueError(f"pool window {pn} exceeds map extent {size}")
                size = (size - pn) // ps + 1
        return size

    @property
    def template_size(self):
        return self.spatial_out(self.object_size)

    @property
    def search_out(self):
        return self.spatial_out(self.search_size)

    @property
    def feature_stride(self):
        s = 1
        for ly in self.layers:
            s *= ly.stride
            if ly.pool is not None:
                s *= ly.pool[2]
        return s


def glorot(rng, shape, fan_in, fan_out, dtype):
    """Trainable Glorot-uniform tensor: U(-l, l), l = sqrt(6 / (fan_in + fan_out)).

    Drawn one row at a time, the same numbers as one draw of the whole shape,
    so that no float64 copy of a large matrix is made: the full model's
    1024x9216 classifier weights drew 72 MB in float64 before their 36 MB.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = np.empty(shape, dtype)
    for row in w.reshape(shape[0], -1):
        row[...] = rng.uniform(-limit, limit, size=row.shape)
    return Tensor(w, requires_grad=True)


def param_table(cfg: FeatureNetConfig):
    """`name -> (shape, fill)` of the conv layers and the classifier head, in
    checkpoint order; `fill=None` is a Glorot draw, a number a constant."""
    if cfg.template_size < 1 or cfg.search_out < cfg.template_size:
        raise ValueError("config produces degenerate feature shapes")
    table = {}
    cin = 3
    for i, ly in enumerate(cfg.layers):
        table[f"featnet/conv{i}_w"] = ((ly.kernel, ly.kernel, cin // ly.groups, ly.channels), None)
        table[f"featnet/conv{i}_b"] = ((ly.channels,), 0.0)
        cin = ly.channels
    n, c = cfg.template_size, cfg.channels
    table["featnet/cls_w1"] = ((cfg.cls_hidden, n * n * c), None)
    table["featnet/cls_b1"] = ((cfg.cls_hidden,), 0.0)
    table["featnet/cls_w2"] = ((cfg.num_classes, cfg.cls_hidden), None)
    table["featnet/cls_b2"] = ((cfg.num_classes,), 0.0)
    return table


def extract_features(patch, params, cfg: FeatureNetConfig):
    """Run a (H,W,3) image patch through the shared convolutional stack.

    The object and search branches call this with identical parameters; only
    the input size differs.
    """
    if not isinstance(patch, Tensor):
        patch = Tensor(patch)
    h = patch.data.shape[0]
    if patch.data.ndim != 3 or patch.data.shape[2] != 3 or patch.data.shape[1] != h:
        raise ValueError(f"expected a square (S,S,3) patch, got {patch.data.shape}")
    if h not in (cfg.object_size, cfg.search_size):
        raise ValueError(f"patch size {h} matches neither object ({cfg.object_size}) nor search ({cfg.search_size}) input")
    x = patch
    for i, ly in enumerate(cfg.layers):
        x = ad.conv2d(x, params[f"featnet/conv{i}_w"], ly.stride)
        x = ad.add(x, params[f"featnet/conv{i}_b"])
        if ly.relu:
            x = ad.relu(x)
        if ly.pool is not None:
            kind, pn, ps = ly.pool
            x = _POOLS[kind](x, pn, ps)
    return x


def classify_object(template, params, cfg: FeatureNetConfig):
    """Class probabilities for an object template (training only)."""
    n, c = cfg.template_size, cfg.channels
    if template.data.shape != (n, n, c):
        raise ValueError(f"template shape {template.data.shape} != ({n},{n},{c})")
    flat = ad.reshape(template, (n * n * c,))
    hidden = ad.relu(ad.dense_affine(flat, params["featnet/cls_w1"], params["featnet/cls_b1"]))
    logits = ad.dense_affine(hidden, params["featnet/cls_w2"], params["featnet/cls_b2"])
    return ad.softmax(logits)

