"""Final-template assembly and response computation.

The initial template is adapted by a channel-gated residual from positive
memory, then distractor content retrieved from negative memory is subtracted
channel-wise, and the result is correlated against the search features.
"""

from __future__ import annotations

from . import autodiff as ad


def residual_combine(initial, retrieved, residual_gate):
    """initial + residual_gate (x) retrieved, gated per channel."""
    return ad.add(initial, ad.mul(residual_gate, retrieved))


def cancel_distractor(positive, negative, params):
    """Subtract gated negative-template content from the positive template.

    The gate compares the two templates through 1x1 channel-mixing filters,
    a tanh, a global spatial average and a sigmoid-activated affine map,
    yielding one coefficient per channel. Returns (final template, gate).
    """
    n, _, c = positive.data.shape
    pos_flat = ad.reshape(positive, (n * n, c))
    neg_flat = ad.reshape(negative, (n * n, c))
    mixed = ad.add(ad.add(ad.matmul(pos_flat, ad.transpose(params["cancel/w_pos"])),
                          ad.matmul(neg_flat, ad.transpose(params["cancel/w_neg"]))),
                   params["cancel/b"])
    pooled = ad.tmean(ad.tanh(mixed), axis=0)  # (C,)
    gate = ad.sigmoid(ad.matmul(params["cancel/w_out"], pooled))
    final = ad.sub(positive, ad.mul(gate, negative))
    return final, gate


def response(search_features, final_template):
    """Correlation score map of the final template over the search features."""
    return ad.cross_correlate(search_features, final_template)


def param_table(channels):
    """`name -> (shape, fill)` of the canceling gate (`fill=None` is a Glorot draw)."""
    return {
        "cancel/w_pos": ((channels, channels), None),
        "cancel/w_neg": ((channels, channels), None),
        "cancel/b": ((channels,), 0.0),
        "cancel/w_out": ((channels, channels), None),
    }
