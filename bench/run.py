"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload track-desk --seed 0 --seconds 30 --trace 0

The program is imported from `src/` of the checkout this file sits in. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The lines before it
are the same figures for people: the environment, then each metric under
the name it has for the workload at hand (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"
# the keys of workloads.WORKLOADS, which cannot be imported (it imports
# numpy) before the BLAS thread count is fixed
WORKLOADS = ("track-desk", "track-full", "train-desk")
# Fixed so that timings and the quality figures repeat: the BLAS thread
# count changes both. One thread is also the least exposed to other load.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit of the end-to-end metrics, in the order BENCHMARK.json lists them
END_TO_END = {
    "op_ms_p90": "ms",
    "op_ms_tail": "ms",
    "quality_loss": "score",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# The tail is the highest percentile with at least ten samples beyond it,
# but no higher than this. On track-desk (about 2000 frames a run) the
# uncapped rule lands near p99.5, where the few frames a run loses to other
# work on the machine decide the value: it swung 30% between runs of one
# seed, against 3% for p95.
TAIL_CAP_PERCENT = 95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: a few frames or steps per workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def environment(np, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def percentile_rank(n, percent):
    """1-based nearest rank of an integer percentile among n sorted samples."""
    return max(1, -(-percent * n // 100))


def tail_rank(n):
    """Rank of the highest percentile with at least ten of n samples beyond
    it, capped at TAIL_CAP_PERCENT; the maximum with ten samples or fewer."""
    return n if n <= 10 else min(n - 10, percentile_rank(n, TAIL_CAP_PERCENT))


def end_to_end(result, import_s):
    lat_ms = sorted(1000.0 * s for s in result.phase.latencies_s) or [math.nan]
    n = len(lat_ms)
    tail_pct = 100.0 * tail_rank(n) / n
    quality = result.quality
    metrics = {
        "op_ms_p90": lat_ms[percentile_rank(n, 90) - 1],
        "op_ms_tail": lat_ms[tail_rank(n) - 1],
        "quality_loss": 1.0 - quality if result.quality_name == "track_auc" else quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(result.setup_s),
    }
    op = result.op
    print(f"setup_s        {metrics['setup_s']:.3f} s   (imports {import_s:.3f} s + median of "
          f"{len(result.setup_s)} set-ups: {', '.join(f'{s:.3f}' for s in result.setup_s)})")
    print(f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    print(f"{op}s_per_s   {result.phase.ops / result.phase.wall_s:.3f} 1/s  "
          f"({result.phase.ops} {op}s in {result.phase.wall_s:.2f} s)")
    print(f"{op}_ms_p50   {statistics.median(lat_ms):.3f} ms  ({n} {op}s)")
    print(f"{op}_ms_p90   {metrics['op_ms_p90']:.3f} ms  ({n} {op}s)")
    print(f"{op}_ms_tail  {metrics['op_ms_tail']:.3f} ms  (p{tail_pct:.1f} of {n} {op}s)")
    print(f"{result.quality_name:<14} {quality:.6f}")
    return metrics


def per_layer(result):
    untraced_ms = 1000.0 * statistics.median(result.phase.latencies_s)
    tracer = result.tracer
    print(f"traced {len(tracer.ops)} {result.op}s; untraced {result.op}_ms_p50 {untraced_ms:.3f} ms")
    print(f"{'span':<40} {'calls/' + result.op:>12} {'self ms/' + result.op:>14} {'share':>7}")
    for name, calls, ms in tracer.self_time_table():
        print(f"{name:<40} {calls:>12.2f} {ms:>14.4f} {ms / untraced_ms:>7.1%}")
    metrics = tracer.per_layer(untraced_ms)
    print(f"trace overhead {metrics['trace.overhead_frac']:+.1%}, "
          f"coverage of {result.op}_ms_p50 by layer self times {metrics['trace.coverage_frac']:.1%}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was fixed")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    started = perf_counter()
    # numpy, the program and the modules that drive it are imported only now,
    # after the thread count is fixed, and their import time counts as set-up
    import numpy as np
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import memtracker
    except ImportError as exc:
        print(f"bench: cannot import memtracker from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(memtracker.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: memtracker came from {memtracker.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    import_s = perf_counter() - started

    print("env " + json.dumps(environment(np, args.seed)))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                               tiny=args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}: {result.detail}; closed loop, one caller")
    units = tracing.per_layer_units() if args.trace else END_TO_END
    metrics = per_layer(result) if args.trace else end_to_end(result, import_s)
    correct = (result.failed == 0 and result.consistent and len(result.phase.latencies_s) > 0
               and math.isfinite(result.quality)
               and (result.quality_name != "track_auc" or 0.0 <= result.quality <= 1.0))
    print(f"attempted {result.attempted}, failed {result.failed}, "
          f"repeats identical {result.consistent}, correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0,
                           "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
