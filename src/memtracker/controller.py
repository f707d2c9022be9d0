"""LSTM controller and its memory-control heads.

The controller consumes the attended feature vector and emits, from its new
hidden state: a read key and read strength for content addressing, the
channel-wise residual gate, the skip/read/allocate write gates and the decay
rate used while writing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from . import memory as mem
from .autodiff import Tensor

GATES = ("i", "f", "o", "n")  # input, forget, output, candidate


@dataclass
class ControlSignals:
    read_key: Tensor       # (C,)
    read_strength: Tensor  # (1,), >= 1
    residual_gate: Tensor  # (C,), entries in (0,1)
    write_gates: Tensor    # (3,) simplex: skip, read, allocate
    decay_rate: Tensor     # (1,), in (0,1)


def param_table(hidden, channels):
    """`name -> (shape, fill)` of the 'ctrl/...' parameters in checkpoint
    order (`fill=None` is a Glorot draw); the forget-gate norm bias starts at 1."""
    t = {}
    for g in GATES:
        t[f"ctrl/wx_{g}"] = ((hidden, channels), None)
        t[f"ctrl/wh_{g}"] = ((hidden, hidden), None)
        t[f"ctrl/ln_{g}_gain"] = ((hidden,), 1.0)
        t[f"ctrl/ln_{g}_bias"] = ((hidden,), 1.0 if g == "f" else 0.0)
    heads = {"key": channels, "beta": 1, "res": channels, "gates": 3, "decay": 1}
    for name, width in heads.items():
        t[f"ctrl/w_{name}"] = ((width, hidden), None)
        t[f"ctrl/b_{name}"] = ((width,), 0.0)
    # initial-state maps from the pooled initial template
    for name in ("h0", "c0"):
        t[f"ctrl/w_{name}"] = ((hidden, channels), None)
        t[f"ctrl/b_{name}"] = ((hidden,), 0.0)
    return t


def init_state(template, params):
    """(h0, c0) from the spatial mean of the initial template, two tanh maps."""
    pooled = mem.memory_key(template)
    h0 = ad.tanh(ad.dense_affine(pooled, params["ctrl/w_h0"], params["ctrl/b_h0"]))
    c0 = ad.tanh(ad.dense_affine(pooled, params["ctrl/w_c0"], params["ctrl/b_c0"]))
    return h0, c0


def lstm_step(x, h_prev, c_prev, params, mode="eval", keep_prob=0.8, rng=None):
    """One LSTM update with layer-normed gate pre-activations.

    Dropout (inverted, on the output h only) runs in train mode; eval mode is
    deterministic.
    """
    acts = {}
    for g in GATES:
        pre = ad.add(ad.matmul(params[f"ctrl/wx_{g}"], x), ad.matmul(params[f"ctrl/wh_{g}"], h_prev))
        acts[g] = ad.layer_norm(pre, params[f"ctrl/ln_{g}_gain"], params[f"ctrl/ln_{g}_bias"])
    i = ad.sigmoid(acts["i"])
    f = ad.sigmoid(acts["f"])
    o = ad.sigmoid(acts["o"])
    n = ad.tanh(acts["n"])
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, n))
    h = ad.mul(o, ad.tanh(c))
    if mode == "train" and keep_prob < 1.0:
        if rng is None:
            raise ValueError("train-mode lstm_step needs an rng for dropout")
        mask = (rng.random(h.data.shape) < keep_prob).astype(h.data.dtype) / keep_prob
        h = ad.mul(h, Tensor(mask))
    return h, c


def control_signals(h, params):
    """Map the hidden state to all memory-control outputs."""
    key = ad.dense_affine(h, params["ctrl/w_key"], params["ctrl/b_key"])
    beta = ad.add(ad.softplus(ad.dense_affine(h, params["ctrl/w_beta"], params["ctrl/b_beta"])), 1.0)
    res = ad.sigmoid(ad.dense_affine(h, params["ctrl/w_res"], params["ctrl/b_res"]))
    gates = ad.softmax(ad.dense_affine(h, params["ctrl/w_gates"], params["ctrl/b_gates"]))
    decay = ad.sigmoid(ad.dense_affine(h, params["ctrl/w_decay"], params["ctrl/b_decay"]))
    return ControlSignals(read_key=key, read_strength=beta, residual_gate=res,
                          write_gates=gates, decay_rate=decay)
