"""Central finite-difference verification of analytic gradients.

The checker perturbs each selected coordinate of each input by +/-h,
re-runs the forward function and compares (f+ - f-) / 2h against the
recorded analytic gradient. All checks run in float64.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def relative_error(analytic, numeric, floor=1e-5):
    """|a - n| over the larger magnitude, floored.

    Central differences at h = 1e-5 in float64 carry ~1e-10 absolute noise;
    below the floor both values are indistinguishable from zero at that
    noise level, so the comparison is made against the floor instead.
    """
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def check_gradients(fn, tensors, h=1e-5, max_coords=None, rng=None):
    """Compare fn's analytic gradients on `tensors` against central differences.

    fn must rebuild the forward graph from the current tensor data and return
    a scalar Tensor. Returns the worst relative error over all checked
    coordinates.
    """
    for t in tensors:
        if t.data.dtype != np.float64:
            raise ValueError("gradient checks run in float64")
        t.zero_grad()
    loss = fn()
    ad.backward(loss)
    worst = 0.0
    for t in tensors:
        grad = np.zeros_like(t.data) if t.grad is None else t.grad
        coords = list(np.ndindex(t.data.shape))
        if max_coords is not None and len(coords) > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            picks = rng.choice(len(coords), size=max_coords, replace=False)
            coords = [coords[i] for i in picks]
        for idx in coords:
            orig = t.data[idx]
            t.data[idx] = orig + h
            with ad.no_grad():
                fp = fn().item()
            t.data[idx] = orig - h
            with ad.no_grad():
                fm = fn().item()
            t.data[idx] = orig
            numeric = (fp - fm) / (2.0 * h)
            worst = max(worst, relative_error(float(grad[idx]), numeric))
    return worst


def _rand(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _weighted(out, rng):
    """Project a tensor to a scalar with a fixed random weighting."""
    w = ad.Tensor(rng.standard_normal(out.data.shape), dtype=np.float64)
    return ad.tsum(ad.mul(out, w))


def primitive_checks(seed, h=1e-5):
    """Gradient-check every differentiable primitive; returns {name: max_rel_err}."""
    results = {}
    rng = np.random.default_rng(seed)

    x, y = _rand(rng, 7), _rand(rng, 7)
    results["cosine_similarity"] = check_gradients(lambda: ad.cosine_similarity(x, y), [x, y], h)

    keys, k = _rand(rng, 5, 6), _rand(rng, 6)
    results["cosine_rows"] = check_gradients(lambda: _weighted(ad.cosine_rows(keys, k), np.random.default_rng(seed + 1)), [keys, k], h)

    v = _rand(rng, 9)
    results["softmax"] = check_gradients(lambda: _weighted(ad.softmax(v), np.random.default_rng(seed + 2)), [v], h)

    g, b = _rand(rng, 8), _rand(rng, 8)
    vl = _rand(rng, 8)
    results["layer_norm"] = check_gradients(
        lambda: _weighted(ad.layer_norm(vl, g, b, eps=1e-5), np.random.default_rng(seed + 3)), [vl, g, b], h)

    W, xb, bb = _rand(rng, 4, 6), _rand(rng, 6), _rand(rng, 4)
    results["dense_affine"] = check_gradients(
        lambda: _weighted(ad.dense_affine(xb, W, bb), np.random.default_rng(seed + 4)), [W, xb, bb], h)

    img = _rand(rng, 6, 6, 3)
    results["avg_pool"] = check_gradients(
        lambda: _weighted(ad.avg_pool(img, 3, 2), np.random.default_rng(seed + 5)), [img], h)

    imgm = _rand(rng, 6, 6, 2)
    results["max_pool"] = check_gradients(
        lambda: _weighted(ad.max_pool(imgm, 2, 2), np.random.default_rng(seed + 6)), [imgm], h)

    cin = _rand(rng, 7, 7, 2)
    kern = _rand(rng, 3, 3, 2, 4)
    results["conv2d_s1"] = check_gradients(
        lambda: _weighted(ad.conv2d(cin, kern, 1), np.random.default_rng(seed + 7)), [cin, kern], h)
    results["conv2d_s2"] = check_gradients(
        lambda: _weighted(ad.conv2d(cin, kern, 2), np.random.default_rng(seed + 8)), [cin, kern], h)

    sr = _rand(rng, 8, 8, 3)
    tmpl = _rand(rng, 3, 3, 3)
    results["cross_correlate"] = check_gradients(
        lambda: _weighted(ad.cross_correlate(sr, tmpl), np.random.default_rng(seed + 9)), [sr, tmpl], h)

    for name, op in [("tanh", ad.tanh), ("sigmoid", ad.sigmoid), ("relu", ad.relu),
                     ("softplus", ad.softplus), ("exp", ad.texp)]:
        z = _rand(rng, 6)
        results[name] = check_gradients(lambda op=op, z=z: _weighted(op(z), np.random.default_rng(seed + 10)), [z], h)

    zp = ad.Tensor(np.abs(rng.standard_normal(6)) + 0.5, requires_grad=True, dtype=np.float64)
    results["log"] = check_gradients(lambda: _weighted(ad.tlog(zp), np.random.default_rng(seed + 11)), [zp], h)
    results["sqrt"] = check_gradients(lambda: _weighted(ad.tsqrt(zp), np.random.default_rng(seed + 12)), [zp], h)

    a2, b2 = _rand(rng, 4, 3), _rand(rng, 3, 5)
    results["matmul"] = check_gradients(
        lambda: _weighted(ad.matmul(a2, b2), np.random.default_rng(seed + 13)), [a2, b2], h)

    e1, e2 = _rand(rng, 5), _rand(rng, 5)
    results["arith"] = check_gradients(
        lambda: _weighted(ad.div(ad.mul(ad.add(e1, e2), ad.sub(e1, e2)),
                                 ad.add(ad.mul(e2, e2), 2.0)),
                          np.random.default_rng(seed + 14)), [e1, e2], h)
    return results


def composed_model_check(seeds, h=1e-5, coords_per_tensor=3):
    """Finite-difference check of the full one-step tracking loss.

    Uses the tiny model configuration in float64. The negative memory is
    pre-seeded with random content so the canceling path carries gradient.
    Only the first tracked step is used: its loss depends on no data-driven
    slot selection, so the loss is smooth in every parameter.
    """
    from . import featnet, template, tracker, train
    from .model import init_params, micro_config

    worst = 0.0
    for seed in seeds:
        cfg = micro_config()
        params = init_params(cfg, int(seed), dtype=np.float64)
        rng = np.random.default_rng(int(seed) + 999)
        frame0 = rng.uniform(0.0, 1.0, (48, 48, 3))
        frame1 = rng.uniform(0.0, 1.0, (48, 48, 3))
        box = tracker.BoundingBox(cx=24.0, cy=24.0, w=12.0, h=12.0)
        n, c = cfg.net.template_size, cfg.net.channels
        neg_slots = rng.standard_normal((cfg.n_neg, n, n, c)) * 0.2
        label = train.gt_response((cfg.response_size // 2, cfg.response_size // 2 + 1),
                                  cfg.response_size, radius=1.0)

        def fn():
            state = tracker.init(frame0, box, params, cfg)
            state.neg_mem.slots = ad.Tensor(neg_slots.copy())
            state.neg_mem.keys = ad.Tensor(neg_slots.mean(axis=(1, 2)))
            cx, cy, side = tracker.search_roi(box, cfg)
            patch = tracker.crop_resize(frame1, cx, cy, side, cfg.net.search_size)
            feats = featnet.extract_features(ad.Tensor(patch), params, cfg.net)
            read = tracker.frame_forward(state, feats, params, cfg)
            logits = train.centered_logits(template.response(feats, read.template))
            probs = featnet.classify_object(state.initial_template, params, cfg.net)
            return train.total_loss(logits, label, probs, class_id=1, kappa=0.05)

        err = check_gradients(fn, list(params.values()), h=h,
                              max_coords=coords_per_tensor,
                              rng=np.random.default_rng(int(seed)))
        worst = max(worst, err)
    return worst


def run_suite(seeds=range(20), tol=1e-4, model_check=None, verbose=False):
    """Run the primitive checks over many seeds; optionally a composed-model check.

    Returns (passed, report) where report maps check name to worst error.
    """
    report = {}
    for seed in seeds:
        for name, err in primitive_checks(int(seed)).items():
            report[name] = max(report.get(name, 0.0), err)
    if model_check is not None:
        report["composed_model"] = model_check(seeds)
    passed = all(err < tol for err in report.values())
    if verbose:
        for name in sorted(report):
            status = "ok" if report[name] < tol else "FAIL"
            print(f"{status:4s} {name:20s} max_rel_err={report[name]:.3e}")
    return passed, report
