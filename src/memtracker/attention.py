"""Soft attention over search-map patches.

The search feature map is reduced to a bank of pooled patch vectors; a small
network scores each patch against the controller's previous hidden state and
the softmax-weighted sum becomes the controller input.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def pool_patches(feature_map, window, stride=1):
    """Average-pool every window-sized patch of the map into one C-vector:
    the (L, C) patch vectors, row-major over the patch grid."""
    pooled = ad.avg_pool(feature_map, window, stride)  # (g, g, C)
    g, _, c = pooled.data.shape
    return ad.reshape(pooled, (g * g, c))


def attention_scores(h_prev, patches, params):
    """One scalar per patch: wa . tanh(Wh h_prev + Wf f_i + b)."""
    state = ad.add(ad.matmul(params["attn/wh"], h_prev), params["attn/b"])  # (A,)
    pre = ad.add(ad.matmul(patches, ad.transpose(params["attn/wf"])), state)  # (L, A)
    wa = ad.reshape(params["attn/wa"], (params["attn/wa"].data.shape[1],))
    return ad.matmul(ad.tanh(pre), wa)


def attended_vector(scores, patches):
    """Softmax-weighted sum of the patch vectors; also returns the weights."""
    count = patches.data.shape[0]
    if scores.data.shape[0] != count:
        raise ValueError(f"{scores.data.shape[0]} scores for {count} patches")
    alpha = ad.softmax(scores)
    return ad.matmul(alpha, patches), alpha


def uniform_attended_vector(patches):
    """Plain mean over the patch vectors (attention-disabled variant)."""
    count = patches.data.shape[0]
    w = np.full(count, 1.0 / count, dtype=patches.data.dtype)
    return ad.tmean(patches, axis=0), Tensor(w)


def param_table(hidden, channels, attn_size):
    """`name -> (shape, fill)` of the 'attn/...' parameters (`fill=None` is a Glorot draw)."""
    return {
        "attn/wa": ((1, attn_size), None),
        "attn/wh": ((attn_size, hidden), None),
        "attn/wf": ((attn_size, channels), None),
        "attn/b": ((attn_size,), 0.0),
    }
