"""Command-line surface: train, track, eval, synth, gradcheck."""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np

from . import checkpoint as ckpt
from . import evaluate, gradcheck, synth, tracker, train
from .model import ABLATIONS, config_from_dict, config_to_dict, desk_config, param_tables

# config fields whose flags keep their older, shorter names
FLAG_NAMES = {"num_classes": "classes", "target_size": "size", "batch_clips": "batch"}


def add_config_flags(p, cls, **defaults):
    """One flag per field of dataclass `cls`, typed and defaulted by the
    field itself unless `defaults` names it."""
    types = get_type_hints(cls)
    for f in fields(cls):
        flag = "--" + FLAG_NAMES.get(f.name, f.name).replace("_", "-")
        p.add_argument(flag, dest=f.name, type=types[f.name], default=defaults.get(f.name, f.default))


def config_from_args(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def cmd_synth(args):
    cfg = config_from_args(synth.SynthConfig, args)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.num):
        evaluate.save_sequence(os.path.join(args.out, f"seq_{i:03d}"), synth.generate(args.seed + i, cfg))
    print(f"wrote {args.num} sequences to {args.out}")
    return 0


def cmd_train(args):
    if args.config:
        cfg = config_from_dict(ckpt.load_config(args.config))
    else:
        cfg = desk_config(num_classes=args.num_classes)
    if args.train_config:
        tc = train.train_config_from_dict(ckpt.load_config(args.train_config))
    else:
        tc = config_from_args(train.TrainConfig, args)
    if args.data:
        source = [evaluate.load_sequence(os.path.join(args.data, d))
                  for d in sorted(os.listdir(args.data))
                  if os.path.isdir(os.path.join(args.data, d))]
    else:
        source = synth.SyntheticSource(config_from_args(synth.SynthConfig, args), args.seed)

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


def cmd_track(args):
    cfg_path = args.config or (args.ckpt + ".cfg")
    cfg = config_from_dict(ckpt.load_config(cfg_path))
    overrides = {"n_pos": args.npos, "n_neg": args.nneg}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    params = ckpt.load_checkpoint(args.ckpt)
    want = {k: shape for table in param_tables(cfg) for k, (shape, _) in table.items()}
    have = {k: v.data.shape for k, v in params.items()}
    bad = next((k for k in [*want, *have] if want.get(k) != have.get(k)), None)
    if bad is not None:
        raise ValueError(f"{args.ckpt} does not fit {cfg_path}: tensor {bad!r} is "
                         f"{have.get(bad, 'absent')} in the checkpoint but {want.get(bad, 'absent')} "
                         "in the config")
    # min and max carry any NaN or infinity without a full-size mask
    bad = next((k for k, v in params.items()
                if not np.isfinite([v.data.min(initial=0.0), v.data.max(initial=0.0)]).all()), None)
    if bad is not None:
        raise ValueError(f"{args.ckpt}: tensor {bad!r} holds non-finite values")
    video = evaluate.load_sequence(args.seq)
    t0 = time.time()
    boxes = tracker.track_sequence(video.frames, video.boxes[0], params, cfg, ablation=args.ablation)
    elapsed = time.time() - t0
    evaluate.save_results(args.out, boxes)
    fps = len(video.frames) / elapsed if elapsed > 0 else 0.0
    print(f"{os.path.basename(os.path.normpath(args.seq))}: {len(boxes)} frames, {fps:.1f} fps, "
          f"results -> {args.out}")
    return 0


def cmd_eval(args):
    video = evaluate.load_sequence(args.seq)
    predictions = evaluate.load_results(args.results)
    report = evaluate.compute_metrics(predictions, video.boxes, fps=args.fps)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.curves_csv())
    mean_iou = float(np.mean(report.overlaps))
    print(f"{os.path.basename(os.path.normpath(args.seq))}: auc {report.auc:.4f}  mean_iou {mean_iou:.4f}  "
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
    add_config_flags(p, synth.SynthConfig)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="model config file (key = value)")
    p.add_argument("--train-config", help="training config file; overrides the schedule flags")
    p.add_argument("--data", help="directory of sequences; default: synthetic stream")
    p.add_argument("--log-every", type=int, default=100)
    add_config_flags(p, train.TrainConfig, steps=2000)
    add_config_flags(p, synth.SynthConfig, frames=24)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("track", help="run the tracker over a sequence")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="override model config file")
    p.add_argument("--ablation", choices=ABLATIONS, default="none")
    p.add_argument("--npos", type=int, help="override positive memory slots")
    p.add_argument("--nneg", type=int, help="override negative memory slots")
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
