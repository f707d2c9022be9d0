"""Model configuration and parameter assembly.

Two named configurations are provided: the full-scale one (AlexNet-like
five-layer extractor, 512-unit controller) and a desk-scale one small enough
to train on a CPU in minutes, which is the default for tests and the CLI.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import attention, controller, featnet, template
from .autodiff import Tensor
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


def check_fields(obj, at_least=(), ranges=()):
    """Raise a ValueError naming the first bad field of dataclass `obj`: a
    real value that is NaN or infinite, then a value below its `(name, low)`
    floor in `at_least`, then a failed `(name, ok, wording)` rule in `ranges`."""
    where = type(obj).__name__
    for f in fields(obj):
        value = getattr(obj, f.name)
        # NaN fails both comparisons, and a Python int of any size passes them
        if isinstance(value, numbers.Real) and not -math.inf < value < math.inf:
            raise ValueError(f"{where}.{f.name} must be finite, got {value}")
    for name, low in at_least:
        if getattr(obj, name) < low:
            raise ValueError(f"{where}.{name} must be at least {low}, got {getattr(obj, name)}")
    for name, ok, rule in ranges:
        if not ok:
            raise ValueError(f"{where}.{name} must be {rule}, got {getattr(obj, name)}")


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

    def __post_init__(self):
        # a queue memory's least-accessed slot is its oldest only for a decay in (0, 1];
        # every distractor a frame yields takes a negative slot
        check_fields(self, at_least=(("n_pos", 1), ("num_scales", 1), ("top_k", 0),
                                     ("n_neg", max(self.top_k, 1)), ("patch_stride", 1)),
                     ranges=(("mem_decay", 0.0 < self.mem_decay <= 1.0, "in (0, 1]"),
                             ("scale_step", self.scale_step > 0.0, "positive"),
                             ("window_weight", 0.0 <= self.window_weight <= 1.0, "in [0, 1]"),
                             ("scale_smooth", 0.0 <= self.scale_smooth <= 1.0, "in [0, 1]"),
                             ("dropout_keep", 0.0 < self.dropout_keep <= 1.0, "in (0, 1]"),
                             ("context_factor", self.context_factor >= 0.0, "at least 0")))

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
    """Full-scale configuration: SiamFC's AlexNet, 127/255 inputs, five conv
    layers with conv2, conv4 and conv5 in two channel groups, 256 channels."""
    net = FeatureNetConfig(
        object_size=127,
        search_size=255,
        layers=(
            ConvLayer(kernel=11, stride=2, channels=96, relu=True, pool=("max", 3, 2)),
            ConvLayer(kernel=5, stride=1, channels=256, relu=True, pool=("max", 3, 2), groups=2),
            ConvLayer(kernel=3, stride=1, channels=384, relu=True),
            ConvLayer(kernel=3, stride=1, channels=384, relu=True, groups=2),
            ConvLayer(kernel=3, stride=1, channels=256, relu=False, groups=2),
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


def param_tables(cfg: ModelConfig):
    """The `name -> (shape, fill)` tables of the feature net, controller,
    attention and canceling gate, in checkpoint order."""
    c = cfg.net.channels
    return (featnet.param_table(cfg.net), controller.param_table(cfg.hidden, c),
            attention.param_table(cfg.hidden, c, cfg.attn_size), template.param_table(c))


def init_params(cfg: ModelConfig, seed, dtype=np.float32):
    """Deterministic full parameter dict; same (cfg, seed) gives identical bits.

    Each table draws from its own generator, spawned from `seed`. A dense
    (out, in) matrix takes the Glorot fans of a 1x1 conv kernel (1, 1, in, out).
    """
    tables = param_tables(cfg)
    params = {}
    for table, child in zip(tables, np.random.SeedSequence(seed).spawn(len(tables))):
        rng = np.random.default_rng(child)
        for name, (shape, fill) in table.items():
            if fill is None:
                k, cin, cout = (shape[0], shape[2], shape[3]) if len(shape) == 4 else (1, shape[1], shape[0])
                params[name] = featnet.glorot(rng, shape, k * k * cin, k * k * cout, dtype)
            else:
                params[name] = Tensor(np.full(shape, fill, dtype), requires_grad=True)
    return params


# --- config file mapping (line-based "key = value") ------------------------

def _pop_entry(entries, key, cast):
    """`cast(entries.pop(key))`; a missing key, or a value `cast` refuses,
    raises a ValueError that names the key."""
    if key not in entries:
        raise ValueError(f"config key {key!r} is missing")
    value = entries.pop(key)
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r} has an ill-typed value {value!r}") from None


def fields_from_dict(cls, entries):
    """Pop the int and float fields of dataclass `cls` out of `entries`, cast by `_pop_entry`."""
    types = get_type_hints(cls)
    return {f.name: _pop_entry(entries, f.name, types[f.name]) for f in fields(cls)
            if types[f.name] in (int, float)}


def config_to_dict(cfg: ModelConfig):
    """The scalar fields of the net and model configs in declaration order,
    `num_layers` for `layers`, then per conv layer one entry
    `layer<i> = kernel,stride,channels,relu,pool kind,pool size,pool stride[,groups]`,
    the groups written only when not 1."""
    d = {}
    for obj in (cfg.net, cfg):
        for f in fields(obj):
            if f.name == "layers":
                d["num_layers"] = len(cfg.net.layers)
            elif f.name != "net":
                d[f.name] = getattr(obj, f.name)
    for i, ly in enumerate(cfg.net.layers):
        pool = "none,0,0" if ly.pool is None else f"{ly.pool[0]},{ly.pool[1]},{ly.pool[2]}"
        groups = "" if ly.groups == 1 else f",{ly.groups}"
        d[f"layer{i}"] = f"{ly.kernel},{ly.stride},{ly.channels},{int(ly.relu)},{pool}{groups}"
    return d


def _layer_fields(raw):
    """The ConvLayer fields of one `layer<i>` entry; 7 values mean groups = 1."""
    parts = raw.split(",")
    k, s, c, r, pk, pn, ps, g = parts + ["1"] if len(parts) == 7 else parts
    pool = None if pk == "none" else (pk, int(pn), int(ps))
    return dict(kernel=int(k), stride=int(s), channels=int(c), relu=bool(int(r)), pool=pool, groups=int(g))


def config_from_dict(d):
    d = dict(d)
    num_layers = _pop_entry(d, "num_layers", int)
    layers = tuple(ConvLayer(**_pop_entry(d, f"layer{i}", _layer_fields)) for i in range(num_layers))
    net = FeatureNetConfig(layers=layers, **fields_from_dict(FeatureNetConfig, d))
    cfg = ModelConfig(net=net, **fields_from_dict(ModelConfig, d))
    if d:
        raise ValueError(f"unknown config keys: {sorted(d)}")
    return cfg
