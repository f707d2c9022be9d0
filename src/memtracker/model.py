"""Model configuration and parameter assembly.

Two named configurations are provided: the full-scale one (AlexNet-like
five-layer extractor, 512-unit controller) and a desk-scale one small enough
to train on a CPU in minutes, which is the default for tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import attention, controller, featnet, template
from .featnet import ConvLayer, FeatureNetConfig


@dataclass(frozen=True)
class Variant:
    """What an ablation keeps of the memory model."""
    attend: bool = True          # soft attention, else the plain mean of the search patches
    read: str = "soft"           # positive memory: "soft" read, "hard" (best slot) read or "queue"
    gated_residual: bool = True  # else initial + retrieved, ungated
    negative: bool = True        # negative memory read, canceling and write
    adapt: bool = True           # else frozen: no controller, no memory writes


VARIANTS = {
    "none": Variant(),
    "noatt": Variant(attend=False),
    "queue": Variant(read="queue"),
    "hardread": Variant(read="hard"),
    "nores": Variant(gated_residual=False),
    "frozen": Variant(adapt=False),
    "no-negative": Variant(negative=False),
}
ABLATIONS = tuple(VARIANTS)


@dataclass(frozen=True)
class ModelConfig:
    net: FeatureNetConfig
    hidden: int
    attn_size: int
    n_pos: int = 8
    n_neg: int = 16
    mem_decay: float = 0.99
    tau: float = 4.0
    score_ratio: float = 0.7
    top_k: int = 2
    scale_step: float = 1.05
    num_scales: int = 3
    window_weight: float = 0.19
    scale_smooth: float = 0.5
    context_factor: float = 0.5
    dropout_keep: float = 0.8
    patch_stride: int = 1

    @property
    def search_ratio(self):
        return self.net.search_size / self.net.object_size

    @property
    def scale_factors(self):
        half = self.num_scales // 2
        return tuple(self.scale_step ** e for e in range(-half, self.num_scales - half))

    @property
    def response_size(self):
        return self.net.search_out - self.net.template_size + 1


def desk_config(num_classes=5, **overrides):
    """Small configuration: 40/80 inputs, three conv layers, 32 channels."""
    net = FeatureNetConfig(
        object_size=40,
        search_size=80,
        layers=(
            ConvLayer(kernel=5, stride=2, channels=32, relu=True),
            ConvLayer(kernel=3, stride=1, channels=32, relu=True, pool=("avg", 2, 2)),
            ConvLayer(kernel=3, stride=1, channels=32, relu=False),
        ),
        num_classes=num_classes,
        cls_hidden=64,
    )
    cfg = ModelConfig(net=net, hidden=64, attn_size=32)
    return replace(cfg, **overrides) if overrides else cfg


def full_config(**overrides):
    """Full-scale configuration: 127/255 inputs, five conv layers, 256 channels."""
    net = FeatureNetConfig(
        object_size=127,
        search_size=255,
        layers=(
            ConvLayer(kernel=11, stride=2, channels=96, relu=True, pool=("max", 3, 2)),
            ConvLayer(kernel=5, stride=1, channels=256, relu=True, pool=("max", 3, 2)),
            ConvLayer(kernel=3, stride=1, channels=384, relu=True),
            ConvLayer(kernel=3, stride=1, channels=384, relu=True),
            ConvLayer(kernel=3, stride=1, channels=256, relu=False),
        ),
        num_classes=30,
        cls_hidden=1024,
    )
    cfg = ModelConfig(net=net, hidden=512, attn_size=256)
    return replace(cfg, **overrides) if overrides else cfg


def micro_config(**overrides):
    """Tiny configuration used by gradient checks; not meant for tracking."""
    net = FeatureNetConfig(
        object_size=15,
        search_size=23,
        layers=(
            ConvLayer(kernel=3, stride=2, channels=4, relu=True),
            ConvLayer(kernel=3, stride=1, channels=4, relu=False),
        ),
        num_classes=3,
        cls_hidden=8,
    )
    cfg = ModelConfig(net=net, hidden=8, attn_size=6, n_pos=2, n_neg=2, top_k=1)
    return replace(cfg, **overrides) if overrides else cfg


def init_params(cfg: ModelConfig, seed, dtype=np.float32):
    """Deterministic full parameter dict; same (cfg, seed) gives identical bits."""
    ss = np.random.SeedSequence(seed)
    s_net, s_ctrl, s_attn, s_cancel = ss.spawn(4)
    params = {}
    params.update(featnet.init_feature_net(cfg.net, s_net, dtype=dtype))
    params.update(controller.init_controller(cfg.hidden, cfg.net.channels, s_ctrl, dtype=dtype))
    params.update(attention.init_attention(cfg.hidden, cfg.net.channels, cfg.attn_size, s_attn, dtype=dtype))
    params.update(template.init_cancel(cfg.net.channels, s_cancel, dtype=dtype))
    return params


# --- config file mapping (line-based "key = value") ------------------------

def fields_from_dict(cls, entries):
    """Pop the int and float fields of dataclass `cls` out of `entries`,
    each cast to its declared type; a missing one raises KeyError."""
    types = get_type_hints(cls)
    return {f.name: types[f.name](entries.pop(f.name)) for f in fields(cls)
            if types[f.name] in (int, float)}


def config_to_dict(cfg: ModelConfig):
    """The scalar fields of the net and model configs in declaration order,
    `num_layers` for `layers`, then per conv layer one entry
    `layer<i> = kernel,stride,channels,relu,pool kind,pool size,pool stride`."""
    d = {}
    for obj in (cfg.net, cfg):
        for f in fields(obj):
            if f.name == "layers":
                d["num_layers"] = len(cfg.net.layers)
            elif f.name != "net":
                d[f.name] = getattr(obj, f.name)
    for i, ly in enumerate(cfg.net.layers):
        pool = "none,0,0" if ly.pool is None else f"{ly.pool[0]},{ly.pool[1]},{ly.pool[2]}"
        d[f"layer{i}"] = f"{ly.kernel},{ly.stride},{ly.channels},{int(ly.relu)},{pool}"
    return d


def config_from_dict(d):
    d = dict(d)
    num_layers = int(d.pop("num_layers"))
    layers = []
    for i in range(num_layers):
        raw = d.pop(f"layer{i}")
        k, s, c, r, pk, pn, ps = raw.split(",")
        pool = None if pk == "none" else (pk, int(pn), int(ps))
        layers.append(ConvLayer(kernel=int(k), stride=int(s), channels=int(c), relu=bool(int(r)), pool=pool))
    net = FeatureNetConfig(layers=tuple(layers), **fields_from_dict(FeatureNetConfig, d))
    cfg = ModelConfig(net=net, **fields_from_dict(ModelConfig, d))
    if d:
        raise ValueError(f"unknown config keys: {sorted(d)}")
    return cfg
