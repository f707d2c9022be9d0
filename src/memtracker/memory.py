"""External slot memories for object and distractor templates.

Both memories are addressed by cosine similarity between a controller read
key and per-slot keys (the spatial mean of each stored template). The
positive memory writes through skip/read/allocate gates with an erase
factor; the negative memory is queue-like, always overwriting the least
accessed slots; all writes are one slot blend with different weights. Each
memory owns an access vector that decays every write step and accumulates
read and write weights, driving allocation of stale slots.

Slot selection indices (argmin, top-K, argmax) are treated as constants by
the backward pass; gradients flow only through the continuous weights and
the template contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class MemoryState:
    slots: Tensor        # (N, n, n, C)
    keys: Tensor         # (N, C), spatial mean of each slot
    access: np.ndarray   # (N,), nonnegative usage trace
    decay: float         # access decay per write step

    @property
    def size(self):
        return self.slots.data.shape[0]

    @staticmethod
    def zeros(n_slots, template_n, channels, decay, dtype=np.float32):
        slots = Tensor(np.zeros((n_slots, template_n, template_n, channels), dtype=dtype))
        keys = Tensor(np.zeros((n_slots, channels), dtype=dtype))
        return MemoryState(slots=slots, keys=keys, access=np.zeros(n_slots), decay=decay)


@dataclass
class DistractorSet:
    templates: list      # Tensors (n, n, C); a single zero template when empty
    coords: list         # matching (row, col) score-map cells, None for the sentinel

    @property
    def is_sentinel(self):
        return len(self.coords) == 1 and self.coords[0] is None


def memory_key(template):
    """Per-channel spatial mean of a template, the content-addressing key."""
    n = template.data.shape[0]
    return ad.reshape(ad.avg_pool(template, n, 1), (template.data.shape[2],))


def _keys_of(slots):
    n_slots, n, _, c = slots.data.shape
    return ad.tmean(ad.reshape(slots, (n_slots, n * n, c)), axis=1)


def _blend(mem: MemoryState, w):
    """The (n,n,C) template sum_j w(j) M(j) of the slots under (N,) weights `w`."""
    n_slots, n, _, c = mem.slots.data.shape
    return ad.reshape(ad.matmul(w, ad.reshape(mem.slots, (n_slots, n * n * c))), (n, n, c))


def read(mem: MemoryState, read_key, read_strength):
    """Content-based retrieval.

    Read weights are the softmax of read_strength * cosine(read_key, slot
    keys); the retrieved template is the weight-blended sum of all slots.
    Zero-key slots score 0, so an empty memory reads uniformly.
    Returns (retrieved template, read weights).
    """
    sims = ad.cosine_rows(mem.keys, read_key)
    w = ad.softmax(ad.mul(read_strength, sims))
    return _blend(mem, w), w


def hard_read(mem: MemoryState, read_key):
    """Single-slot retrieval at the maximum cosine similarity (ties: lowest index)."""
    with ad.no_grad():
        sims = ad.cosine_rows(mem.keys, read_key).data
    j = int(np.argmax(sims))
    return mem.slots[j], j


def allocation_weight(access):
    """One-hot at the least-accessed slot, ties broken by lowest index."""
    w = np.zeros_like(access, dtype=np.float64)
    w[int(np.argmin(access))] = 1.0
    return w


def _write(mem: MemoryState, blend, written, *usage):
    """The one slot update: M' = M (1 - blend) + written for an (N,1,1,1)
    blend, keys recomputed from M', and access a' = decay * a + usage_1 + ..."""
    slots = ad.add(ad.mul(mem.slots, ad.sub(1.0, blend)), written)
    return MemoryState(slots=slots, keys=_keys_of(slots), access=sum(usage, mem.decay * mem.access),
                       decay=mem.decay)


def write_positive(mem: MemoryState, new_template, write_gates, read_weight, decay_rate):
    """Gated write of a new object template.

    write weight  w = g_read * read_weight + g_alloc * allocation(access)
    erase factor  e = decay_rate * g_read + g_alloc
    slot update   M'(j) = M(j) (1 - w(j) e) + w(j) e * new_template
    access        a' = decay * a + read_weight + w

    With the skip gate saturated nothing is written; with the allocate gate
    saturated the least-used slot is replaced outright.
    """
    g_read = write_gates[1]
    g_alloc = write_gates[2]
    alloc = Tensor(allocation_weight(mem.access).astype(mem.slots.data.dtype))
    w_write = ad.add(ad.mul(g_read, read_weight), ad.mul(g_alloc, alloc))
    erase = ad.add(ad.mul(ad.reshape(decay_rate, ()), g_read), g_alloc)
    blend = ad.reshape(ad.mul(w_write, erase), (mem.size, 1, 1, 1))
    return _write(mem, blend, ad.mul(blend, new_template), read_weight.data, w_write.data)


def queue_write(mem: MemoryState, new_template):
    """Replace the least-accessed slot outright: the queue-style ablation's
    write, and the seed of every positive memory.

    Only writes raise a queue memory's access, and it decays by a factor in
    (0, 1], so its least-accessed slot is always the oldest one and writes
    cycle through the slots in order.
    """
    onehot = allocation_weight(mem.access)
    blend = Tensor(onehot.astype(mem.slots.data.dtype).reshape(mem.size, 1, 1, 1))
    return _write(mem, blend, ad.mul(blend, new_template), onehot)


def queue_retrieve(mem: MemoryState):
    """Mean of the written slots (queue-style ablation's read)."""
    k = max(np.count_nonzero(mem.access), 1)
    w = np.zeros(mem.size, dtype=mem.slots.data.dtype)
    w[:k] = 1.0 / k
    return _blend(mem, Tensor(w))


def _local_maxima(score):
    """Boolean mask of cells not exceeded by any 8-neighbour."""
    H, W = score.shape
    padded = np.full((H + 2, W + 2), -np.inf)
    padded[1:-1, 1:-1] = score
    return score >= sliding_window_view(padded, (3, 3)).max(axis=(2, 3))


def extract_distractors(score, search_features, tau, score_ratio, top_k, template_n):
    """Collect high, far-away peaks of the (P,P) ndarray `score` as distractor
    templates cut from `search_features`.

    Candidates are the top_k strongest local maxima apart from the global
    peak; a candidate survives if its distance to the peak exceeds `tau`
    score-map cells (Euclidean) and its score exceeds `score_ratio` times the
    peak score. When nothing qualifies a single zero template stands in, which
    later cancels nothing.
    """
    H, W = score.shape
    best_flat = int(np.argmax(score))
    bi, bj = divmod(best_flat, W)
    best = score[bi, bj]

    mask = _local_maxima(score)
    mask[bi, bj] = False
    cand = np.argwhere(mask)
    order = np.lexsort((cand[:, 0] * W + cand[:, 1], -score[cand[:, 0], cand[:, 1]]))
    kept_t, kept_c = [], []
    for idx in order[:top_k]:
        i, j = int(cand[idx, 0]), int(cand[idx, 1])
        if np.hypot(i - bi, j - bj) > tau and score[i, j] > score_ratio * best:
            kept_t.append(search_features[i:i + template_n, j:j + template_n, :])
            kept_c.append((i, j))
    if not kept_t:
        c = search_features.data.shape[2]
        zero = Tensor(np.zeros((template_n, template_n, c), dtype=search_features.data.dtype))
        return DistractorSet(templates=[zero], coords=[None])
    return DistractorSet(templates=kept_t, coords=kept_c)


def write_negative(mem: MemoryState, distractors: DistractorSet, read_weight=None):
    """Queue-like write of distractor templates into the least-accessed slots.

    In one masked blend, the k-th distractor replaces the k-th least-accessed
    slot (ties: lowest index). The access vector decays once and absorbs
    this step's negative read weight (a Tensor or None) plus the mask.
    """
    k = len(distractors.templates)
    if k > mem.size:
        raise ValueError("more distractors than negative slots")
    targets = np.lexsort((np.arange(mem.size), mem.access))[:k]
    onehots = np.eye(mem.size, dtype=mem.slots.data.dtype)[targets].reshape(k, mem.size, 1, 1, 1)
    written = reduce(ad.add, [ad.mul(Tensor(b), t) for b, t in zip(onehots, distractors.templates)])
    mask = onehots.sum(axis=0)
    usage = () if read_weight is None else (read_weight.data,)
    return _write(mem, Tensor(mask), written, *usage, mask.reshape(-1).astype(np.float64))
