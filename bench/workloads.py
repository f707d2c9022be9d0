"""The benchmark's workloads: set-up, the timed loop and the output checks.

Every workload is one caller on a closed loop: the next operation starts
only when the previous one has returned, as a tracker must (frame t+1 needs
the state frame t left). An operation is one tracked frame on the track-*
workloads and one optimisation step on train-desk.

A workload repeats a fixed unit of work until the time is up: the same
sequences for tracking, the same training round for training. The first
unit always completes and fixes the quality figure (mean success AUC,
median loss), so that figure depends on the seed alone and not on how fast
the machine is; every later repeat must reproduce the first one exactly.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

from memtracker import autodiff as ad
from memtracker import evaluate, model, ppm, synth, tracker, train
from memtracker.autodiff import Tensor

from tracing import Tracer

SEQUENCE_SEED_STRIDE = 1000  # more than any workload's sequence count


@dataclass(frozen=True)
class TrackSpec:
    config: Callable[[], model.ModelConfig]
    data: synth.SynthConfig
    sequences: int
    warmup_frames: int


@dataclass(frozen=True)
class TrainSpec:
    data: synth.SynthConfig
    round_steps: int
    clip_len: int
    warmup_steps: int


# criterion 6's held-out distribution for tracking and its training
# distribution for training; track-full scales the canvas, target and motion
# by about 3x so that the 127/255 px crops frame the target as the 40/80 px
# desk crops do, and keeps its sequences short because a full-scale frame
# costs about half a second
WORKLOADS = {
    "track-desk": TrackSpec(model.desk_config,
                            synth.SynthConfig(frames=60, distractors=1, drift=1.0, speed=8.0),
                            sequences=40, warmup_frames=10),
    "track-full": TrackSpec(model.full_config,
                            synth.SynthConfig(canvas=288, target_size=56.0, frames=4,
                                              distractors=1, drift=1.0, speed=24.0),
                            sequences=16, warmup_frames=2),
    "train-desk": TrainSpec(synth.SynthConfig(frames=40, distractors=1, drift=1.0, speed=8.0),
                            round_steps=60, clip_len=10, warmup_steps=2),
}

# the smoke test's sizes: every code path, a fraction of the time
TINY = {
    "track-desk": replace(WORKLOADS["track-desk"], sequences=2, warmup_frames=1,
                          data=replace(WORKLOADS["track-desk"].data, frames=6)),
    "track-full": replace(WORKLOADS["track-full"], sequences=1, warmup_frames=1,
                          data=replace(WORKLOADS["track-full"].data, frames=3)),
    "train-desk": replace(WORKLOADS["train-desk"], round_steps=3, clip_len=3, warmup_steps=1,
                          data=replace(WORKLOADS["train-desk"].data, frames=8)),
}


@dataclass
class Phase:
    """Operations of one timed run."""
    latencies_s: list = field(default_factory=list)  # untraced operations only
    ops: int = 0        # every frame on track-* (first frames included), every step on train-desk
    wall_s: float = 0.0


class _Alternation:
    """With a tracer, traces every other operation and times the rest."""

    def __init__(self, tracer, phase):
        self.tracer = tracer
        self.phase = phase
        self.count = 0
        self.traced = False

    def start(self):
        self.traced = self.tracer is not None and self.count % 2 == 1
        self.count += 1
        if self.traced:
            self.tracer.install()
            self.tracer.begin_op()

    def stop(self, seconds):
        self.phase.ops += 1
        if self.traced:
            self.tracer.end_op()
            self.tracer.uninstall()
        else:
            self.phase.latencies_s.append(seconds)
        self.traced = False

    def abort(self):
        if self.traced:
            self.tracer.cancel_op()
            self.tracer.uninstall()
        self.traced = False


@dataclass
class Result:
    op: str             # "frame" or "step"
    quality_name: str   # "track_auc" or "train_loss"
    quality: float
    phase: Phase
    attempted: int
    failed: int
    consistent: bool    # every repeat reproduced the first pass exactly
    setup_s: list
    detail: str
    tracer: Tracer | None = None


def _valid_box(box):
    return all(math.isfinite(v) for v in (box.cx, box.cy, box.w, box.h)) and box.w > 0 and box.h > 0


class _TrackLoop:
    def __init__(self, spec: TrackSpec, seed, workdir):
        self.cfg = spec.config()
        self.params = model.init_params(self.cfg, seed)
        self.sequences = []
        for k in range(spec.sequences):
            video = synth.generate((seed + 1) * SEQUENCE_SEED_STRIDE + k, spec.data)
            directory = workdir / f"seq_{k:03d}"
            directory.mkdir(parents=True, exist_ok=True)
            paths = []
            for t, frame in enumerate(video.frames):
                paths.append(str(directory / f"{t:06d}.ppm"))
                ppm.write_ppm(paths[-1], frame)
            self.sequences.append((paths, video.boxes))
        self.first_pass = [None] * len(self.sequences)
        self.visits = 0
        self.attempted = self.failed = 0
        self.consistent = True
        with ad.no_grad():
            paths, boxes = self.sequences[0]
            state = tracker.init(ppm.read_ppm(paths[0]), boxes[0], self.params, self.cfg)
            for path in paths[1:spec.warmup_frames + 1]:
                state, _ = tracker.step(state, ppm.read_ppm(path), self.params, self.cfg)

    def run(self, seconds, tracer=None):
        phase = Phase()
        ops = _Alternation(tracer, phase)
        start = perf_counter()
        deadline = start + seconds
        while self.visits < len(self.sequences) or perf_counter() < deadline:
            k = self.visits % len(self.sequences)
            first = self.first_pass[k] is None
            boxes = self._track(k, None if first else deadline, phase, ops)
            if first:
                self.first_pass[k] = boxes
            elif boxes != self.first_pass[k][:len(boxes)]:
                self.consistent = False
            self.visits += 1
        phase.wall_s = perf_counter() - start
        return phase

    def _fail(self):
        traceback.print_exc()
        self.failed += 1

    def _track(self, k, deadline, phase, ops):
        """Track sequence k the way `memtracker track` does; returns its boxes."""
        paths, truth = self.sequences[k]
        with ad.no_grad():
            self.attempted += 1
            try:
                state = tracker.init(ppm.read_ppm(paths[0]), truth[0], self.params, self.cfg)
            except Exception:
                self._fail()
                return []
            phase.ops += 1
            boxes = [truth[0]]
            for path in paths[1:]:
                if deadline is not None and perf_counter() >= deadline:
                    break
                self.attempted += 1
                ops.start()
                t0 = perf_counter()
                try:
                    state, box = tracker.step(state, ppm.read_ppm(path), self.params, self.cfg)
                except Exception:
                    ops.abort()
                    self._fail()
                    return boxes
                ops.stop(perf_counter() - t0)
                if not _valid_box(box):
                    self.failed += 1
                boxes.append(box)
        return boxes

    def mean_auc(self):
        aucs = []
        for boxes, (_, truth) in zip(self.first_pass, self.sequences):
            # a sequence that failed part-way scores as lost
            aucs.append(evaluate.compute_metrics(boxes, truth).auc if len(boxes) == len(truth) else 0.0)
        return statistics.fmean(aucs)


def _clone(params):
    return {k: Tensor(p.data.copy(), requires_grad=p.requires_grad) for k, p in params.items()}


def _until(source, deadline):
    """The videos of `source`, ending once `deadline` has passed."""
    for video in source:
        if deadline is not None and perf_counter() >= deadline:
            return
        yield video


class _TrainLoop:
    def __init__(self, spec: TrainSpec, seed):
        self.spec = spec
        self.cfg = model.desk_config()
        self.tc = train.TrainConfig(steps=spec.round_steps, batch_clips=1, clip_len=spec.clip_len,
                                    lr=3e-3, seed=seed)
        self.data_seed = (seed + 1) * SEQUENCE_SEED_STRIDE
        self.params = model.init_params(self.cfg, seed)
        self.first_round = None
        self.attempted = self.failed = 0
        self.consistent = True
        train.train(replace(self.tc, steps=spec.warmup_steps), self.cfg,
                    synth.SyntheticSource(spec.data, self.data_seed), params=_clone(self.params))

    def run(self, seconds, tracer=None):
        phase = Phase()
        ops = _Alternation(tracer, phase)
        start = perf_counter()
        deadline = start + seconds
        while self.first_round is None or perf_counter() < deadline:
            first = self.first_round is None
            losses = self._round(None if first else deadline, ops)
            if first:
                self.first_round = losses
            elif losses != self.first_round[:len(losses)]:
                self.consistent = False
        phase.wall_s = perf_counter() - start
        return phase

    def _round(self, deadline, ops):
        """One training round from the initial weights; returns its losses."""
        params = _clone(self.params)
        if ops.tracer:
            ops.tracer.watch_params(params)
        losses = []

        def on_step(step, loss):
            nonlocal last
            ops.stop(perf_counter() - last)
            losses.append(loss)
            self.attempted += 1
            if not math.isfinite(loss):
                self.failed += 1
            ops.start()
            last = perf_counter()

        ops.start()
        last = perf_counter()
        try:
            train.train(self.tc, self.cfg, _until(synth.SyntheticSource(self.spec.data, self.data_seed),
                                                  deadline),
                        params=params, on_step=on_step)
        except Exception:
            # train() raises on a non-finite loss after on_step counted it
            if not (losses and not math.isfinite(losses[-1])):
                traceback.print_exc()
                self.attempted += 1
                self.failed += 1
        finally:
            ops.abort()  # the step begun after the last on_step never ran
        return losses


def run(name, seed, seconds, trace, workdir, tiny=False):
    """Set the workload up, time it and check its outputs.

    With `trace`, every other operation is traced, so the tracer can state
    its own overhead against the untraced ones.
    """
    spec = (TINY if tiny else WORKLOADS)[name]
    setups = 1 if tiny or trace else 3
    setup_s = []
    for _ in range(setups):
        loop = None  # free the previous set-up first, so it cannot raise peak_rss_mb
        t0 = perf_counter()
        loop = _TrackLoop(spec, seed, workdir) if isinstance(spec, TrackSpec) else _TrainLoop(spec, seed)
        setup_s.append(perf_counter() - t0)

    tracer = None
    if trace:
        tracer = Tracer("frame" if isinstance(spec, TrackSpec) else "step")
        if isinstance(spec, TrackSpec):
            tracer.watch_params(loop.params)
    try:
        phase = loop.run(seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    if isinstance(spec, TrackSpec):
        op, quality_name, quality = "frame", "track_auc", loop.mean_auc()
        detail = f"{spec.sequences} sequences x {spec.data.frames} frames, {spec.data.canvas} px canvas"
    else:
        # the median, because single hard clips spike a step's loss to 8-10
        # and make a mean over one round swing 13% between seeds (median: 7%)
        op, quality_name, quality = "step", "train_loss", statistics.median(loop.first_round or [math.nan])
        detail = f"rounds of {spec.round_steps} steps, clip_len {spec.clip_len}, {spec.data.frames}-frame videos"
    return Result(op=op, quality_name=quality_name, quality=quality, phase=phase,
                  attempted=loop.attempted, failed=loop.failed, consistent=loop.consistent,
                  setup_s=setup_s, detail=detail, tracer=tracer)
