"""Command-line surface: train, track, eval, synth, gradcheck."""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import checkpoint as ckpt
from . import evaluate, gradcheck, synth, tracker, train
from .model import ABLATIONS, config_from_dict, config_to_dict, desk_config
from .ppm import write_ppm


def _synth_config_from_args(args):
    return synth.SynthConfig(canvas=args.canvas, frames=args.frames,
                             num_classes=args.classes, target_size=args.size,
                             drift=args.drift, size_drift=args.size_drift,
                             distractors=args.distractors, speed=args.speed)


def _add_synth_options(p, frames_default=40):
    p.add_argument("--canvas", type=int, default=96)
    p.add_argument("--frames", type=int, default=frames_default)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--size", type=float, default=18.0)
    p.add_argument("--drift", type=float, default=0.6)
    p.add_argument("--size-drift", type=float, default=0.12)
    p.add_argument("--distractors", type=int, default=0)
    p.add_argument("--speed", type=float, default=14.0)


def cmd_synth(args):
    cfg = _synth_config_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.num):
        video = synth.generate(args.seed + i, cfg)
        seq_dir = os.path.join(args.out, f"seq_{i:03d}")
        os.makedirs(seq_dir, exist_ok=True)
        for t, frame in enumerate(video.frames):
            write_ppm(os.path.join(seq_dir, f"{t:06d}.ppm"), frame)
        evaluate.save_results(os.path.join(seq_dir, "groundtruth_rect.txt"), video.boxes)
        with open(os.path.join(seq_dir, "meta.txt"), "w") as fh:
            fh.write(f"class_id = {video.class_id}\n")
    print(f"wrote {args.num} sequences to {args.out}")
    return 0


def cmd_train(args):
    if args.config:
        cfg = config_from_dict(ckpt.load_config(args.config))
    else:
        cfg = desk_config(num_classes=args.classes)
    if args.train_config:
        tc = train.train_config_from_dict(ckpt.load_config(args.train_config))
    else:
        tc = train.TrainConfig(steps=args.steps, batch_clips=args.batch, clip_len=args.clip_len,
                               lr=args.lr, lr_decay=args.lr_decay, lr_interval=args.lr_interval,
                               kappa=args.kappa, seed=args.seed, radius=args.radius)
    if args.data:
        records = [evaluate.load_sequence(os.path.join(args.data, d))
                   for d in sorted(os.listdir(args.data))
                   if os.path.isdir(os.path.join(args.data, d))]
        source = _directory_source(records)
    else:
        scfg = _synth_config_from_args(args)
        source = synth.SyntheticSource(scfg, args.seed)

    def report(step, loss):
        if args.log_every and (step % args.log_every == 0 or step == tc.steps - 1):
            print(f"step {step:6d}  loss {loss:.5f}")

    t0 = time.time()
    params, history = train.train(tc, cfg, source, on_step=report)
    if not history:
        raise ValueError("no training step ran: the data source holds no sequences")
    ckpt.save_checkpoint(args.out, params)
    ckpt.save_config(args.out + ".cfg", config_to_dict(cfg))
    print(f"trained {len(history)} steps in {time.time() - t0:.1f}s; "
          f"loss {history[0]:.4f} -> {history[-1]:.4f}; saved {args.out}")
    return 0


def _directory_source(records):
    from .ppm import read_ppm

    for rec in records:
        class_id = 0
        meta = os.path.join(os.path.dirname(rec.frame_paths[0]), "meta.txt")
        if os.path.exists(meta):
            entries = ckpt.load_config(meta)
            class_id = int(entries.get("class_id", 0))
        frames = [read_ppm(p) for p in rec.frame_paths]
        yield synth.SynthVideo(frames=frames, boxes=rec.boxes, class_id=class_id)


def cmd_track(args):
    cfg_path = args.config or (args.ckpt + ".cfg")
    if not os.path.exists(cfg_path):
        print(f"error: model config {cfg_path} not found", file=sys.stderr)
        return 2
    cfg = config_from_dict(ckpt.load_config(cfg_path))
    if args.npos or args.nneg:
        from dataclasses import replace
        cfg = replace(cfg, n_pos=args.npos or cfg.n_pos, n_neg=args.nneg or cfg.n_neg)
    params = ckpt.load_checkpoint(args.ckpt)
    record = evaluate.load_sequence(args.seq)
    t0 = time.time()
    boxes = tracker.track_sequence(record.frame_paths, record.boxes[0], params, cfg,
                                   ablation=args.ablation)
    elapsed = time.time() - t0
    evaluate.save_results(args.out, boxes)
    fps = len(record.frame_paths) / elapsed if elapsed > 0 else 0.0
    print(f"{record.name}: {len(boxes)} frames, {fps:.1f} fps, results -> {args.out}")
    return 0


def cmd_eval(args):
    record = evaluate.load_sequence(args.seq)
    predictions = evaluate.load_results(args.results)
    report = evaluate.compute_metrics(predictions, record.boxes, fps=args.fps)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.curves_csv())
    mean_iou = float(np.mean(report.overlaps))
    print(f"{record.name}: auc {report.auc:.4f}  mean_iou {mean_iou:.4f}  "
          f"precision@20 {report.precision_curve[20]:.4f}")
    return 0


def cmd_gradcheck(args):
    seeds = range(args.seed, args.seed + args.seeds)
    ok, report = gradcheck.run_suite(seeds=seeds, tol=args.tol,
                                     model_check=gradcheck.composed_model_check,
                                     verbose=True)
    print("gradient suite:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="memtracker",
                                     description="memory-augmented template tracker")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic sequences")
    p.add_argument("--out", required=True)
    p.add_argument("--num", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    _add_synth_options(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="model config file (key = value)")
    p.add_argument("--train-config", help="training config file; overrides the schedule flags")
    p.add_argument("--data", help="directory of sequences; default: synthetic stream")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--clip-len", type=int, default=8)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--lr-decay", type=float, default=0.8)
    p.add_argument("--lr-interval", type=int, default=10000)
    p.add_argument("--kappa", type=float, default=0.05)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-every", type=int, default=100)
    _add_synth_options(p, frames_default=24)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("track", help="run the tracker over a sequence")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="override model config file")
    p.add_argument("--ablation", choices=ABLATIONS, default="none")
    p.add_argument("--npos", type=int, default=0, help="override positive memory slots")
    p.add_argument("--nneg", type=int, default=0, help="override negative memory slots")
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("eval", help="score tracking results against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.add_argument("--fps", type=float, default=0.0,
                   help="speed figure to embed in the report (not measured here)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0, dest="seed")
    p.add_argument("--seeds", type=int, default=20, help="number of random seeds")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ckpt.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
