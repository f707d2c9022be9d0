"""Exactness probe: sha256 digests of what the tracker and trainer compute.

Prints one `name digest` line each for
  - `synth.generate`'s frames, boxes and class ids over fixed calls: desk
    96 px videos with no, one and three distractors, a 288 px video with a
    56 px target and a 40 px canvas whose distractors cross its edges;
  - `tracker.crop_resize` over fixed cases, each frame prepared once by
    `tracker.prepare_frame`: desk 96 px frames cropped to the 80 px search
    crop at every scale and the 40 px template crop, the same for 288 px
    frames at 255 and 127 px, a centre off the frame and a frame prepared
    in float64;
  - the desk model's boxes under every ablation over three 30-frame
    synthetic sequences (no, one and three distractors);
  - the full model's boxes over a 3-frame, 288 px sequence;
  - two 10-frame training clips' loss and every parameter gradient;
  - 12 training steps: the loss history and the final parameters;
  - the worst-error report of the float64 gradient-check suite, every
    primitive and the composed model, over five seeds;
  - every file that `memtracker synth`, `train` (every synth and training
    flag off its default, and again on `--data`), `track` and `eval` write.

Weights are the seeded initial parameters, BLAS runs on one thread, and
only the public API is used, so the script runs unchanged on any checkout.
A refactor that keeps the arithmetic prints byte-identical output:

    python experiments/exactness.py > after.txt   # in each checkout
    diff before.txt after.txt

`--tiny` runs a few frames and steps of each part, as a smoke test.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from memtracker import autodiff as ad  # noqa: E402
from memtracker import cli, gradcheck, synth, tracker, train  # noqa: E402
from memtracker.model import ABLATIONS, desk_config, full_config, init_params  # noqa: E402

PARAM_SEED = 3


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def box_array(boxes):
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64)


def params_digest(params):
    names = sorted(params)
    return digest(np.array(names), *(params[k].data for k in names))


def rendering(frames):
    cases = [(1000 + d, synth.SynthConfig(frames=frames, drift=1.0, distractors=d)) for d in (0, 1, 3)]
    cases += [(7, synth.SynthConfig(canvas=288, frames=frames, target_size=56.0, speed=24.0, distractors=1)),
              (5, synth.SynthConfig(canvas=40, frames=frames, target_size=20.0, speed=30.0, distractors=3,
                                    size_drift=0.4))]
    out = []
    for seed, cfg in cases:
        video = synth.generate(seed, cfg)
        out += [*video.frames, box_array(video.boxes), np.array(video.class_id)]
    yield "synth", digest(*out)


def crops():
    desk = synth.generate(1000, synth.SynthConfig(frames=3, drift=1.0))
    full = synth.generate(7, synth.SynthConfig(canvas=288, frames=2, target_size=54.0, speed=42.0,
                                               distractors=1))
    out = []
    for cfg, video in ((desk_config(), desk), (full_config(), full)):
        for frame, box in zip(video.frames, video.boxes):
            prepared = tracker.prepare_frame(frame, frame.dtype)
            cx, cy, side = tracker.search_roi(box, cfg)
            out += [tracker.crop_resize(prepared, cx, cy, side * s, cfg.net.search_size)
                    for s in cfg.scale_factors]
            cx, cy, side = tracker.object_roi(box, cfg.context_factor)
            out.append(tracker.crop_resize(prepared, cx, cy, side, cfg.net.object_size))
    frame = full.frames[0]
    out.append(tracker.crop_resize(tracker.prepare_frame(frame, frame.dtype), -40.3, 301.7, 90.0, 80))
    out.append(tracker.crop_resize(tracker.prepare_frame(frame, np.float64), 150.2, 131.9, 170.3, 127))
    yield "crop", digest(*out)


def desk_tracking(frames):
    cfg = desk_config()
    params = init_params(cfg, PARAM_SEED)
    videos = [synth.generate(1000 + d, synth.SynthConfig(frames=frames, drift=1.0, distractors=d))
              for d in (0, 1, 3)]
    for ablation in ABLATIONS:
        boxes = [box_array(tracker.track_sequence(v.frames, v.boxes[0], params, cfg, ablation=ablation))
                 for v in videos]
        yield f"track-desk/{ablation}", digest(*boxes)


def full_tracking(frames):
    cfg = full_config()
    params = init_params(cfg, PARAM_SEED)
    video = synth.generate(7, synth.SynthConfig(canvas=288, frames=frames, target_size=54.0,
                                                speed=42.0, distractors=1))
    yield "track-full/none", digest(box_array(tracker.track_sequence(video.frames, video.boxes[0],
                                                                     params, cfg)))


def clip_gradients(clip_len):
    cfg = desk_config()
    params = init_params(cfg, PARAM_SEED)
    tc = train.TrainConfig(clip_len=clip_len)
    for seed, distractors in ((21, 1), (22, 3)):
        video = synth.generate(seed, synth.SynthConfig(frames=40, drift=1.0, distractors=distractors))
        idx = train.sample_clip(len(video.frames), clip_len, seed)
        for p in params.values():
            p.zero_grad()
        loss = train.clip_loss(params, cfg, [video.frames[i] for i in idx],
                               [video.boxes[i] for i in idx], video.class_id, tc,
                               np.random.default_rng(seed))
        ad.backward(loss)
        names = sorted(params)
        grads = [np.zeros_like(params[k].data) if params[k].grad is None else params[k].grad
                 for k in names]
        yield f"clip/{seed}", digest(loss.data, np.array(names), *grads)


def training(steps, clip_len):
    cfg = desk_config()
    tc = train.TrainConfig(steps=steps, clip_len=clip_len, seed=11)
    source = synth.SyntheticSource(synth.SynthConfig(frames=40, drift=1.0, distractors=1), 0)
    params, history = train.train(tc, cfg, source)
    yield "train/history", digest(np.array(history, dtype=np.float64))
    yield "train/params", params_digest(params)


def gradient_checks(seeds):
    _, report = gradcheck.run_suite(seeds=seeds, model_check=gradcheck.composed_model_check)
    names = sorted(report)
    yield "gradcheck", digest(np.array(names), np.array([report[k] for k in names], dtype=np.float64))


def command_line(steps):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        seqs, seq, model, results = f"{tmp}/seqs", f"{tmp}/seqs/seq_001", f"{tmp}/flags.ckpt", f"{tmp}/r.txt"
        looks = ["--canvas", "64", "--classes", "3", "--size", "14", "--drift", "0.9", "--size-drift", "0.2",
                 "--distractors", "1", "--speed", "10"]
        for argv in (["synth", "--out", seqs, "--num", "2", "--seed", "3", "--frames", "6", *looks],
                     ["train", "--out", model, "--steps", str(steps), "--batch", "2", "--clip-len", "3",
                      "--lr", "1e-3", "--lr-decay", "0.5", "--lr-interval", "1", "--kappa", "0.1",
                      "--seed", "4", "--radius", "1.5", "--frames", "7", "--log-every", "1", *looks],
                     ["train", "--out", f"{tmp}/data.ckpt", "--data", seqs, "--steps", str(steps),
                      "--clip-len", "3"],
                     ["track", "--ckpt", model, "--seq", seq, "--out", results],
                     ["eval", "--results", results, "--seq", seq, "--json", f"{tmp}/metrics.json",
                      "--csv", f"{tmp}/curves.csv"]):
            if cli.main(argv) != 0:
                raise RuntimeError(f"memtracker {argv[0]} failed")
        paths = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        files = digest(np.array([str(p.relative_to(tmp)) for p in paths]),
                       *(np.frombuffer(p.read_bytes(), dtype=np.uint8) for p in paths))
    yield "cli", files


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true", help="a few frames and steps of each part")
    args = ap.parse_args(argv)
    if args.tiny:
        parts = (rendering(4), crops(), desk_tracking(4), full_tracking(2), clip_gradients(3), training(2, 3),
                 gradient_checks(range(1)), command_line(2))
    else:
        parts = (rendering(40), crops(), desk_tracking(30), full_tracking(3), clip_gradients(10), training(12, 10),
                 gradient_checks(range(5)), command_line(6))
    for part in parts:
        for name, hexdigest in part:
            print(f"{name:<24} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
