"""Span tracing of the memtracker layers, installed from outside the program.

`Tracer.install()` replaces the public functions of each traced module
with timing wrappers and `Tracer.uninstall()` puts the originals back; the
program itself carries no instrumentation. Callers inside the package look
their callees up through module attributes at call time
(`featnet.extract_features`, `ad.conv2d`, ...), so the wrappers see every
call the tracker and trainer make.

The benchmark traces every other operation (a tracked frame or a training
step), installing the wrappers for it and opening a root span around it
with `begin_op`/`end_op`. The operations in between run untraced, so both
kinds see the same machine conditions and their difference is the
tracer's overhead. A span's self time is its duration minus the time of
the spans nested in it; self times, call counts and counters are kept per
operation and summarised by `per_layer`.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import defaultdict
from time import perf_counter

from memtracker import (attention, autodiff, controller, featnet, memory, ppm, synth,
                        template, tracker, train)

# modules whose every public function is wrapped
_WRAPPED_MODULES = (tracker, featnet, attention, controller, memory, template, ppm, synth, train)
# spans many operations, so it cannot nest inside one operation's root span
_NOT_WRAPPED = {"train.train"}
_BENCH_PREFIX = "bench."

MAX_CONV_LAYERS = 5  # full_config has five conv layers, desk_config three

# functions reported as <name>.calls (per operation) and <name>.ms (median
# over operations of the self time per operation)
REPORTED_FUNCTIONS = (
    "tracker.crop_resize",
    "featnet.extract_features",
    "autodiff.backward",
    "train.Adam.step",
    "train.clip_loss",
    "synth.generate",
    "attention.pool_patches",
    "attention.attention_scores",
    "controller.lstm_step",
    "controller.control_signals",
    "memory.read",
    "memory.write_positive",
    "memory.write_negative",
    "memory.extract_distractors",
    "template.cancel_distractor",
    "template.response",
    "ppm.read_ppm",
)
# whole forward pass, feature net and backward pass, nested spans included
INCLUSIVE_FUNCTIONS = ("train.clip_loss", "featnet.extract_features", "autodiff.backward")


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units = {}
    for fn in REPORTED_FUNCTIONS:
        units[f"{fn}.calls"] = "1/op"
        units[f"{fn}.ms"] = "ms"
    for fn in INCLUSIVE_FUNCTIONS:
        units[f"{fn}.total_ms"] = "ms"
    units["tracker.step.calls"] = "1/op"
    units["tracker.step.self_ms"] = "ms"
    units["train.step.self_ms"] = "ms"
    for i in range(MAX_CONV_LAYERS):
        units[f"autodiff.conv2d.L{i}.fwd_ms"] = "ms"
        units[f"autodiff.conv2d.L{i}.bwd_ms"] = "ms"
        units[f"autodiff.conv2d.L{i}.gflop"] = "GFLOP"
        units[f"autodiff.conv2d.L{i}.gflops_per_s"] = "GFLOP/s"
    units["autodiff.graph_nodes"] = "count"
    units["synth.frames_used_frac"] = "fraction"
    units["memory.distractor_hit_frac"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    units["trace.coverage_frac"] = "fraction"
    return units


def graph_size(loss):
    """Exact number of recorded nodes reachable from `loss`, leaves included."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


class _Op:
    __slots__ = ("self_s", "inclusive_s", "calls", "counts", "duration_s")

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.duration_s = 0.0


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, root_name):
        self.root_name = root_name
        self.ops = []
        self._op = None
        self._stack = []  # [start, time covered by child spans]
        self._conv_layer = {}
        self._patches = None  # (owner, attribute, original, wrapper)

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        self._stack.append([perf_counter(), 0.0])

    def _exit(self, name):
        end = perf_counter()
        start, covered = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        op = self._op
        if op is not None:
            op.self_s[name] += duration - covered
            op.inclusive_s[name] += duration
            op.calls[name] += 1
        return duration

    def count(self, name, value=1.0):
        if self._op is not None:
            self._op.counts[name] += value

    def begin_op(self):
        if self._stack:
            raise RuntimeError("an operation may only start outside every span")
        self._op = _Op()
        self._enter()

    def end_op(self):
        self._op.duration_s = self._exit(self.root_name)
        self.ops.append(self._op)
        self._op = None

    def cancel_op(self):
        """Drop an operation that did not complete."""
        self._stack.clear()
        self._op = None

    def watch_params(self, params):
        """Name each conv kernel of `params` by its layer index."""
        self._conv_layer = {id(t): int(k[len("featnet/conv"):-len("_w")])
                            for k, t in params.items()
                            if k.startswith("featnet/conv") and k.endswith("_w")}

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if after is not None:
                after(result)
            return result
        return traced

    def _wrap_conv(self, fn):
        @functools.wraps(fn)
        def traced(x, kernels, stride=1):
            layer = f"autodiff.conv2d.L{self._conv_layer.get(id(kernels), '?')}"
            self._enter()
            try:
                out = fn(x, kernels, stride)
            finally:
                self._exit(layer + ".fwd")
            oh, ow, cout = out.data.shape
            kh, kw, cin, _ = kernels.data.shape
            self.count(layer + ".gflop", 2.0 * oh * ow * kh * kw * cin * cout / 1e9)
            if out._backward is not None:
                out._backward = self._wrap(layer + ".bwd", out._backward)
            return out
        return traced

    def _wrap_backward(self, fn):
        walk = self._wrap(_BENCH_PREFIX + "graph_walk", graph_size)

        @functools.wraps(fn)
        def traced(loss):
            self.count("autodiff.graph_nodes", walk(loss))
            self._enter()
            try:
                return fn(loss)
            finally:
                self._exit("autodiff.backward")
        return traced

    def _replacements(self):
        hooks = {
            "memory.extract_distractors": lambda r: (
                self.count("memory.distractor_calls"),
                self.count("memory.distractor_hits", not r.is_sentinel)),
            "synth.generate": lambda r: self.count("synth.frames_rendered", len(r.frames)),
            "train.sample_clip": lambda r: self.count("synth.frames_used", len(r)),
        }
        for module in _WRAPPED_MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in _NOT_WRAPPED or not callable(fn)
                        or isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__):
                    continue
                yield module, attr, self._wrap(name, fn, hooks.get(name))
        # of the autodiff core only the layer boundaries: its elementwise ops
        # are too small and frequent to wrap without distorting the timings
        yield autodiff, "conv2d", self._wrap_conv(autodiff.conv2d)
        yield autodiff, "backward", self._wrap_backward(autodiff.backward)
        yield train.Adam, "step", self._wrap("train.Adam.step", train.Adam.step)

    def install(self):
        """Route every call into the traced functions through the wrappers."""
        if self._patches is None:
            self._patches = [(owner, attr, getattr(owner, attr), wrapper)
                             for owner, attr, wrapper in list(self._replacements())]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put the original functions back; harmless when not installed."""
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------

    def _median_ms(self, name, field="self_s"):
        return 1000.0 * statistics.median(getattr(op, field).get(name, 0.0) for op in self.ops)

    def _mean_calls(self, name):
        return statistics.fmean(op.calls.get(name, 0) for op in self.ops)

    def _total(self, name, field="counts"):
        return math.fsum(getattr(op, field).get(name, 0.0) for op in self.ops)

    def self_time_table(self):
        """(name, calls per op, median self ms per op) for every traced span."""
        names = sorted({n for op in self.ops for n in op.self_s})
        rows = [(n, self._mean_calls(n), self._median_ms(n)) for n in names]
        return sorted(rows, key=lambda r: -r[2])

    def per_layer(self, untraced_op_ms):
        """Every metric of `per_layer_units()`, from the operations traced.

        `untraced_op_ms` is the median operation time of the same process
        with tracing off; overhead and coverage are stated against it.
        """
        if not self.ops:
            raise RuntimeError("no traced operation completed")
        m = {}
        for fn in REPORTED_FUNCTIONS:
            m[f"{fn}.calls"] = self._mean_calls(fn)
            m[f"{fn}.ms"] = self._median_ms(fn)
        for fn in INCLUSIVE_FUNCTIONS:
            m[f"{fn}.total_ms"] = self._median_ms(fn, "inclusive_s")
        m["tracker.step.calls"] = self._mean_calls("tracker.step")
        m["tracker.step.self_ms"] = self._median_ms("tracker.step")
        m["train.step.self_ms"] = self._median_ms("step") if self.root_name == "step" else 0.0
        for i in range(MAX_CONV_LAYERS):
            layer = f"autodiff.conv2d.L{i}"
            m[f"{layer}.fwd_ms"] = self._median_ms(layer + ".fwd")
            m[f"{layer}.bwd_ms"] = self._median_ms(layer + ".bwd")
            m[f"{layer}.gflop"] = statistics.median(op.counts.get(layer + ".gflop", 0.0)
                                                    for op in self.ops)
            fwd_s = self._total(layer + ".fwd", "self_s")
            m[f"{layer}.gflops_per_s"] = self._total(layer + ".gflop") / fwd_s if fwd_s else 0.0
        m["autodiff.graph_nodes"] = statistics.median(op.counts.get("autodiff.graph_nodes", 0.0)
                                                      for op in self.ops)
        rendered = self._total("synth.frames_rendered")
        m["synth.frames_used_frac"] = self._total("synth.frames_used") / rendered if rendered else 0.0
        calls = self._total("memory.distractor_calls")
        m["memory.distractor_hit_frac"] = self._total("memory.distractor_hits") / calls if calls else 0.0
        traced_op_ms = 1000.0 * statistics.median(op.duration_s for op in self.ops)
        m["trace.overhead_frac"] = traced_op_ms / untraced_op_ms - 1.0
        layer_ms = sum(ms for name, _, ms in self.self_time_table()
                       if name != self.root_name and not name.startswith(_BENCH_PREFIX))
        m["trace.coverage_frac"] = layer_ms / untraced_op_ms
        units = per_layer_units()
        if set(m) != set(units):
            raise RuntimeError(f"per-layer metrics out of step with their units: {set(m) ^ set(units)}")
        return {name: float(m[name]) for name in units}
