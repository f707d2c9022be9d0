"""Soft attention over search-map patches.

The search feature map is reduced to a bank of pooled patch vectors; a small
network scores each patch against the controller's previous hidden state and
the softmax-weighted sum becomes the controller input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .featnet import glorot


@dataclass
class PatchBank:
    vectors: Tensor  # (L, C), row-major over the patch grid
    window: int
    stride: int
    grid: int  # patches per side, L = grid * grid

    @property
    def count(self):
        return self.vectors.data.shape[0]


def pool_patches(feature_map, window, stride=1):
    """Average-pool every window-sized patch of the map into one C-vector."""
    pooled = ad.avg_pool(feature_map, window, stride)  # (g, g, C)
    g, _, c = pooled.data.shape
    return PatchBank(vectors=ad.reshape(pooled, (g * g, c)), window=window, stride=stride, grid=g)


def attention_scores(h_prev, bank: PatchBank, params):
    """One scalar per patch: wa . tanh(Wh h_prev + Wf f_i + b)."""
    state = ad.add(ad.matmul(params["attn/wh"], h_prev), params["attn/b"])  # (A,)
    pre = ad.add(ad.matmul(bank.vectors, ad.transpose(params["attn/wf"])), state)  # (L, A)
    wa = ad.reshape(params["attn/wa"], (params["attn/wa"].data.shape[1],))
    return ad.matmul(ad.tanh(pre), wa)


def attended_vector(scores, bank: PatchBank):
    """Softmax-weighted sum of the patch vectors; also returns the weights."""
    if scores.data.shape[0] != bank.count:
        raise ValueError(f"{scores.data.shape[0]} scores for {bank.count} patches")
    alpha = ad.softmax(scores)
    return ad.matmul(alpha, bank.vectors), alpha


def uniform_attended_vector(bank: PatchBank):
    """Plain mean over the patch vectors (attention-disabled variant)."""
    w = np.full(bank.count, 1.0 / bank.count, dtype=bank.vectors.data.dtype)
    return ad.tmean(bank.vectors, axis=0), Tensor(w)


def init_attention(hidden, channels, attn_size, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return {
        "attn/wa": glorot(rng, (1, attn_size), attn_size, 1, dtype),
        "attn/wh": glorot(rng, (attn_size, hidden), hidden, attn_size, dtype),
        "attn/wf": glorot(rng, (attn_size, channels), channels, attn_size, dtype),
        "attn/b": Tensor(np.zeros(attn_size, dtype=dtype), requires_grad=True),
    }
