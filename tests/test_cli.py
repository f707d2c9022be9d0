import json
import os
import shutil

import numpy as np
import pytest

from memtracker.checkpoint import save_config
from memtracker.cli import main
from memtracker.model import config_from_dict, config_to_dict, desk_config


def run(argv):
    return main(argv)


def test_synth_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["--num", "2", "--seed", "1", "--frames", "4", "--canvas", "48"]
    assert run(["synth", "--out", str(d1)] + args) == 0
    assert run(["synth", "--out", str(d2)] + args) == 0
    for sub in ("seq_000", "seq_001"):
        for name in sorted(os.listdir(d1 / sub)):
            assert (d1 / sub / name).read_bytes() == (d2 / sub / name).read_bytes()


def test_synth_writes_groundtruth(tmp_path):
    out = tmp_path / "seqs"
    assert run(["synth", "--out", str(out), "--num", "1", "--seed", "3",
                "--frames", "5", "--canvas", "48"]) == 0
    seq = out / "seq_000"
    frames = [f for f in os.listdir(seq) if f.endswith(".ppm")]
    assert len(frames) == 5
    gt = (seq / "groundtruth_rect.txt").read_text().strip().splitlines()
    assert len(gt) == 5
    assert len(gt[0].split(",")) == 4


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny trained checkpoint plus a sequence directory."""
    root = tmp_path_factory.mktemp("cliwork")
    ckpt = root / "model.ckpt"
    assert main(["train", "--out", str(ckpt), "--steps", "3", "--clip-len", "4",
                 "--frames", "8", "--canvas", "64", "--size", "14", "--seed", "2",
                 "--log-every", "0"]) == 0
    seqdir = root / "seqs"
    assert main(["synth", "--out", str(seqdir), "--num", "1", "--seed", "900",
                 "--frames", "20", "--canvas", "64", "--size", "14",
                 "--drift", "1.0", "--distractors", "1"]) == 0
    return ckpt, seqdir / "seq_000"


def test_train_writes_checkpoint_and_config(trained):
    ckpt, _ = trained
    assert ckpt.exists()
    assert ckpt.with_suffix(".ckpt.cfg").exists() or (str(ckpt) + ".cfg")
    assert os.path.exists(str(ckpt) + ".cfg")
    assert ckpt.read_bytes()[:8] == b"MEMTK1\x00\x00"


def test_track_and_eval_pipeline(trained, tmp_path):
    ckpt, seq = trained
    results = tmp_path / "results.txt"
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq),
                "--out", str(results)]) == 0
    lines = results.read_text().strip().splitlines()
    assert len(lines) == 20
    report = tmp_path / "metrics.json"
    csv = tmp_path / "curves.csv"
    assert run(["eval", "--results", str(results), "--seq", str(seq),
                "--json", str(report), "--csv", str(csv)]) == 0
    data = json.loads(report.read_text())
    assert set(data) == {"per_frame", "precision_curve", "success_curve", "auc", "fps"}
    assert csv.read_text().startswith("kind,threshold,value")


def test_track_ablation_changes_results(trained, tmp_path):
    ckpt, seq = trained
    full = tmp_path / "full.txt"
    frozen = tmp_path / "frozen.txt"
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(full)]) == 0
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(frozen),
                "--ablation", "frozen"]) == 0
    assert full.read_text() != frozen.read_text()


def test_track_memory_size_overrides(trained, tmp_path):
    ckpt, seq = trained
    out = tmp_path / "npos1.txt"
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out),
                "--npos", "1", "--nneg", "2"]) == 0
    assert len(out.read_text().strip().splitlines()) == 20


def test_track_results_deterministic(trained, tmp_path):
    ckpt, seq = trained
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(a)]) == 0
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_json_deterministic(trained, tmp_path):
    ckpt, seq = trained
    results = tmp_path / "r.txt"
    run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(results)])
    j1, j2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run(["eval", "--results", str(results), "--seq", str(seq), "--json", str(j1)])
    run(["eval", "--results", str(results), "--seq", str(seq), "--json", str(j2)])
    assert j1.read_bytes() == j2.read_bytes()


@pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--batch", "0"), ("--clip-len", "1"),
                                        ("--lr-interval", "0")])
def test_train_impossible_schedule_is_clean_error(tmp_path, flag, value):
    out = tmp_path / "model.ckpt"
    assert run(["train", "--out", str(out), "--steps", "1", "--clip-len", "2", "--frames", "4",
                "--canvas", "48", "--size", "12", "--log-every", "0", flag, value]) == 2
    assert not out.exists()


def test_train_on_data_without_sequences_is_clean_error(tmp_path):
    data = tmp_path / "empty"
    data.mkdir()
    out = tmp_path / "model.ckpt"
    assert run(["train", "--out", str(out), "--data", str(data), "--steps", "1",
                "--log-every", "0"]) == 2
    assert not out.exists()


def test_non_finite_box_is_clean_error(trained, tmp_path):
    ckpt, seq = trained
    bad_seq = tmp_path / "seq"
    shutil.copytree(seq, bad_seq)
    gt = bad_seq / "groundtruth_rect.txt"
    lines = gt.read_text().splitlines()
    gt.write_text("\n".join(["nan,1,2,2"] + lines[1:]) + "\n")
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(bad_seq),
                "--out", str(tmp_path / "r.txt")]) == 2
    results = tmp_path / "inf.txt"
    results.write_text("\n".join(["1,1,inf,2"] + lines[1:]) + "\n")
    assert run(["eval", "--results", str(results), "--seq", str(seq)]) == 2


def test_initial_box_off_the_frame_is_clean_error(trained, tmp_path):
    ckpt, seq = trained
    bad_seq = tmp_path / "seq"
    shutil.copytree(seq, bad_seq)
    gt = bad_seq / "groundtruth_rect.txt"
    lines = gt.read_text().splitlines()
    gt.write_text("\n".join(["-70,-70,10,10"] + lines[1:]) + "\n")
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(bad_seq),
                "--out", str(tmp_path / "r.txt")]) == 2
    assert not (tmp_path / "r.txt").exists()


def test_missing_checkpoint_is_clean_error(tmp_path):
    assert run(["track", "--ckpt", str(tmp_path / "nope.ckpt"),
                "--seq", str(tmp_path), "--out", str(tmp_path / "r.txt")]) == 2


# zero stride, zero pool size, unknown pool kind
IMPOSSIBLE_LAYERS = ["5,0,32,1,none,0,0", "5,2,32,1,avg,0,2", "5,2,32,1,median,2,2"]


@pytest.mark.parametrize("layer0", IMPOSSIBLE_LAYERS)
def test_config_rejects_impossible_conv_layer(layer0):
    entries = config_to_dict(desk_config())
    entries["layer0"] = layer0
    with pytest.raises(ValueError, match="conv layer"):
        config_from_dict(entries)


@pytest.mark.parametrize("layer0", IMPOSSIBLE_LAYERS)
def test_track_with_impossible_conv_layer_is_clean_error(trained, tmp_path, layer0):
    ckpt, seq = trained
    entries = config_to_dict(desk_config())
    entries["layer0"] = layer0
    bad = tmp_path / "bad.cfg"
    save_config(str(bad), entries)
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(tmp_path / "r.txt"),
                "--config", str(bad)]) == 2


@pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
def test_config_rejects_mem_decay_outside_unit_interval(decay):
    entries = config_to_dict(desk_config())
    entries["mem_decay"] = decay
    with pytest.raises(ValueError, match="mem_decay"):
        config_from_dict(entries)


def test_gradcheck_exit_zero():
    assert run(["gradcheck", "--seed", "7", "--tol", "1e-4"]) == 0
