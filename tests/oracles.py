"""Independent brute-force references shared by the unit and acceptance tests.

These deliberately reimplement behavior with plain loops and full scans, so
they share no code path with the library implementations they check.
"""

import numpy as np


def oracle_distractors(score, tau, ratio, top_k):
    """Full-scan distractor selection: every cell is tested for local
    maximality against all in-bounds neighbours, the global peak is excluded,
    candidates are ordered by score (row-major on ties), truncated to top_k
    and filtered by distance and score ratio."""
    H, W = score.shape
    bi, bj = np.unravel_index(int(np.argmax(score)), score.shape)
    peaks = []
    for i in range(H):
        for j in range(W):
            if (i, j) == (bi, bj):
                continue
            is_peak = True
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    if du == 0 and dv == 0:
                        continue
                    ii, jj = i + du, j + dv
                    if 0 <= ii < H and 0 <= jj < W and score[i, j] < score[ii, jj]:
                        is_peak = False
            if is_peak:
                peaks.append((i, j))
    peaks.sort(key=lambda p: (-score[p], p[0] * W + p[1]))
    kept = []
    for (i, j) in peaks[:top_k]:
        if np.sqrt((i - bi) ** 2 + (j - bj) ** 2) > tau and score[i, j] > ratio * score[bi, bj]:
            kept.append((i, j))
    return kept


def distractor_coords(dset):
    return [] if dset.is_sentinel else dset.coords


def oracle_max_pool(x, n, stride):
    """Nested-loop valid max-pooling of an (H,W,C) map. Each window keeps its
    first maximum in row-major order; a NaN, once met, stays."""
    H, W, C = x.shape
    oh, ow = (H - n) // stride + 1, (W - n) // stride + 1
    out = np.empty((oh, ow, C), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            for c in range(C):
                best = x[i * stride, j * stride, c]
                for u in range(n):
                    for v in range(n):
                        val = x[i * stride + u, j * stride + v, c]
                        if not np.isnan(best) and (val > best or np.isnan(val)):
                            best = val
                out[i, j, c] = best
    return out
