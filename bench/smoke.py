"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

For each workload of BENCHMARK.json, untraced and traced, it checks that
bench/run.py exits 0 and ends with one result object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`; that the run was correct;
and that the metrics are exactly those BENCHMARK.json lists for the mode,
each with its unit. Last, it checks that in a directory holding only
BENCHMARK.json and bench/, without the program, run.py fails and prints no
result. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec, workload, trace):
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = run(ROOT, workload, trace)
    if out.returncode != 0:
        return f"exit code {out.returncode}\n{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"incorrect run: {out.stdout}\n{out.stderr}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}"
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        return "a metric value is not a number"
    return None


def check_without_program():
    bare = ROOT / "bench" / ".work" / f"smoke-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        out = run(bare, "track-desk", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return f"ran without the program: exit {out.returncode}, stdout {out.stdout!r}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [(f"{w['name']} trace={t}", check_workload, (spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("no program", check_without_program, ()))
    for label, check, args in checks:
        error = check(*args)
        print(f"{'FAIL' if error else 'ok  '} {label}" + (f": {error}" if error else ""))
        if error:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
