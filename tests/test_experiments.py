"""Smoke runs of the scripts under experiments/."""

import re
import subprocess
import sys
from pathlib import Path

from memtracker.model import ABLATIONS

ROOT = Path(__file__).resolve().parents[1]


def test_exactness_probe_tiny_prints_one_digest_per_part():
    out = subprocess.run([sys.executable, str(ROOT / "experiments" / "exactness.py"), "--tiny"],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    assert all(len(parts) == 2 and re.fullmatch(r"[0-9a-f]{64}", parts[1]) for parts in lines), out
    assert [name for name, _ in lines] == (
        ["synth", "crop"] + [f"track-desk/{a}" for a in ABLATIONS]
        + ["track-full/none", "clip/21", "clip/22", "train/history", "train/params", "gradcheck", "cli"])
