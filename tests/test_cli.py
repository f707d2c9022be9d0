import json
import os
import shutil
from dataclasses import fields

import numpy as np
import pytest

from memtracker import ppm
from memtracker.checkpoint import load_checkpoint, save_checkpoint, save_config
from memtracker.cli import build_parser, config_from_args, main
from memtracker.evaluate import save_sequence
from memtracker.model import config_from_dict, config_to_dict, desk_config
from memtracker.synth import SynthConfig, generate
from memtracker.train import TrainConfig


def run(argv):
    return main(argv)


SYNTH_FLAGS = {"--canvas": "canvas", "--frames": "frames", "--classes": "num_classes",
               "--size": "target_size", "--drift": "drift", "--size-drift": "size_drift",
               "--distractors": "distractors", "--speed": "speed"}
TRAIN_FLAGS = {"--steps": "steps", "--batch": "batch_clips", "--clip-len": "clip_len", "--lr": "lr",
               "--lr-decay": "lr_decay", "--lr-interval": "lr_interval", "--kappa": "kappa",
               "--seed": "seed", "--radius": "radius"}


def test_every_config_field_has_a_flag(capsys):
    assert sorted(SYNTH_FLAGS.values()) == sorted(f.name for f in fields(SynthConfig))
    assert sorted(TRAIN_FLAGS.values()) == sorted(f.name for f in fields(TrainConfig))
    # by their full names: argparse would also take an old name as a prefix of a new one
    for command, flags in (("synth", SYNTH_FLAGS), ("train", {**SYNTH_FLAGS, **TRAIN_FLAGS})):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        usage = capsys.readouterr().out
        assert all(f" {flag} " in usage for flag in flags), usage


@pytest.mark.parametrize("command,configs", [("synth", [SynthConfig()]),
                                             ("train", [SynthConfig(frames=24), TrainConfig(steps=2000)])])
def test_flag_defaults_build_the_default_configs(command, configs):
    args = build_parser().parse_args([command, "--out", "x"])
    assert [config_from_args(type(c), args) for c in configs] == configs


@pytest.mark.parametrize("command,flag,cls,field",
                         [("synth", f, SynthConfig, n) for f, n in SYNTH_FLAGS.items()]
                         + [("train", f, SynthConfig, n) for f, n in SYNTH_FLAGS.items()]
                         + [("train", f, TrainConfig, n) for f, n in TRAIN_FLAGS.items()])
def test_each_flag_reaches_its_field(command, flag, cls, field):
    default = getattr(cls(), field)
    value = default + (3 if isinstance(default, int) else 0.25)
    args = build_parser().parse_args([command, "--out", "x", flag, str(value)])
    got = getattr(config_from_args(cls, args), field)
    assert got == value and type(got) is type(default)


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


@pytest.mark.parametrize("flag,value", [("--frames", "0"), ("--canvas", "0"), ("--classes", "0"),
                                        ("--size", "0"), ("--distractors", "-1")])
def test_synth_impossible_config_is_clean_error(tmp_path, capsys, flag, value):
    out = tmp_path / "seqs"
    assert run(["synth", "--out", str(out), "--num", "1", "--frames", "3", flag, value]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_data_without_sequences_is_clean_error(tmp_path):
    data = tmp_path / "empty"
    data.mkdir()
    out = tmp_path / "model.ckpt"
    assert run(["train", "--out", str(out), "--data", str(data), "--steps", "1",
                "--log-every", "0"]) == 2
    assert not out.exists()


def test_train_on_data_reads_only_the_frames_its_clips_use(tmp_path, monkeypatch):
    data = tmp_path / "data"
    for seed in range(3):
        save_sequence(str(data / f"seq_{seed}"), generate(seed, SynthConfig(frames=40)))
    reads = []
    read_ppm = ppm.read_ppm
    monkeypatch.setattr(ppm, "read_ppm", lambda path: reads.append(path) or read_ppm(path))
    assert run(["train", "--out", str(tmp_path / "model.ckpt"), "--data", str(data), "--steps", "3",
                "--clip-len", "10", "--log-every", "0"]) == 0
    assert len(reads) == 30


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


@pytest.mark.parametrize("mismatch,tensor", [("config drops a layer", "featnet/cls_w1"),
                                             ("checkpoint drops a tensor", "ctrl/w_h0")])
def test_track_with_checkpoint_that_does_not_fit_its_config_is_clean_error(trained, tmp_path, capsys,
                                                                          mismatch, tensor):
    ckpt, seq = trained
    params, entries = load_checkpoint(str(ckpt)), config_to_dict(desk_config())
    if mismatch == "config drops a layer":
        entries["num_layers"] = 2
        del entries["layer2"]
    else:
        del params[tensor]
    model, out = tmp_path / "model.ckpt", tmp_path / "r.txt"
    save_checkpoint(str(model), params)
    save_config(str(model) + ".cfg", entries)
    assert run(["track", "--ckpt", str(model), "--seq", str(seq), "--out", str(out)]) == 2
    assert repr(tensor) in capsys.readouterr().err
    assert not out.exists()


def test_track_with_fewer_negative_slots_than_distractors_is_clean_error(trained, tmp_path):
    ckpt, seq = trained
    out = tmp_path / "r.txt"
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out), "--nneg", "1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--npos", "0"], ["--nneg", "0"], ["--npos", "0", "--nneg", "0"]])
def test_track_with_zero_memory_slots_is_clean_error(trained, tmp_path, flags):
    ckpt, seq = trained
    out = tmp_path / "r.txt"
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out), *flags]) == 2
    assert not out.exists()


def test_train_on_more_classes_than_the_model_has_is_clean_error(tmp_path):
    cfg, out = tmp_path / "two.cfg", tmp_path / "model.ckpt"
    save_config(str(cfg), config_to_dict(desk_config(num_classes=2)))
    # the first synthetic video at seed 0 is of class 4
    assert run(["train", "--out", str(out), "--config", str(cfg), "--steps", "1", "--clip-len", "2",
                "--frames", "4", "--canvas", "48", "--size", "12", "--log-every", "0"]) == 2
    assert not out.exists()


def test_train_on_data_with_a_negative_class_id_is_clean_error(tmp_path):
    data, out = tmp_path / "data", tmp_path / "model.ckpt"
    assert run(["synth", "--out", str(data), "--num", "1", "--frames", "4", "--canvas", "48",
                "--size", "12"]) == 0
    (data / "seq_000" / "meta.txt").write_text("class_id = -1\n")
    assert run(["train", "--out", str(out), "--data", str(data), "--steps", "1", "--clip-len", "2",
                "--log-every", "0"]) == 2
    assert not out.exists()


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


# the desk model's top_k is 2, so it needs at least two negative slots
@pytest.mark.parametrize("key,value", [("mem_decay", 0.0), ("mem_decay", -0.5), ("mem_decay", 1.5),
                                       ("n_pos", 0), ("n_pos", -1), ("num_scales", 0), ("top_k", -1),
                                       ("n_neg", 1),
                                       ("scale_step", "nan"), ("window_weight", "nan"), ("context_factor", "inf"),
                                       ("tau", "-inf"), ("score_ratio", "nan"), ("mem_decay", "nan"),
                                       ("scale_step", 0.0), ("scale_step", -1.05),
                                       ("window_weight", -0.1), ("window_weight", 1.5),
                                       ("scale_smooth", -0.5), ("scale_smooth", 1.01),
                                       ("dropout_keep", 0.0), ("dropout_keep", 1.2),
                                       ("context_factor", -0.5), ("patch_stride", 0)])
def test_config_rejects_values_that_cannot_run(key, value):
    entries = config_to_dict(desk_config())
    entries[key] = value
    with pytest.raises(ValueError, match=key):
        config_from_dict(entries)


# the last row's first kernel is wider than the 40 px object input
@pytest.mark.parametrize("key,value", [("scale_step", "nan"), ("window_weight", "nan"), ("context_factor", "inf"),
                                       ("layer0", "41,1,32,1,none,0,0")])
def test_track_with_a_config_that_cannot_track_is_clean_error(trained, tmp_path, key, value):
    ckpt, seq = trained
    entries = config_to_dict(desk_config())
    entries[key] = value
    bad, out = tmp_path / "bad.cfg", tmp_path / "r.txt"
    save_config(str(bad), entries)
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out), "--config", str(bad)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_track_with_non_finite_checkpoint_is_clean_error(trained, tmp_path, capsys, value):
    ckpt, seq = trained
    params = load_checkpoint(str(ckpt))
    params["featnet/conv0_w"].data[1, 2, 0, 3] = value
    model, out = tmp_path / "model.ckpt", tmp_path / "r.txt"
    save_checkpoint(str(model), params)
    shutil.copy(str(ckpt) + ".cfg", str(model) + ".cfg")
    assert run(["track", "--ckpt", str(model), "--seq", str(seq), "--out", str(out)]) == 2
    assert "'featnet/conv0_w'" in capsys.readouterr().err
    assert not out.exists()


def test_track_draws_no_parameters(trained, tmp_path, monkeypatch):
    # the checkpoint-fit check reads the declared shapes and never draws weights
    from memtracker import featnet

    def refuse(*args):
        raise AssertionError("track drew a parameter")

    monkeypatch.setattr(featnet, "glorot", refuse)
    ckpt, seq = trained
    out = tmp_path / "r.txt"
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 20


def test_gradcheck_exit_zero():
    assert run(["gradcheck", "--seed", "7", "--tol", "1e-4"]) == 0


@pytest.mark.parametrize("flags", [["--lr", "nan"], ["--radius", "nan"], ["--lr-decay=-inf"],
                                   ["--speed", "nan"], ["--drift", "inf"]])
def test_train_with_a_non_finite_flag_is_clean_error(tmp_path, capsys, flags):
    out = tmp_path / "model.ckpt"
    assert run(["train", "--out", str(out), "--steps", "2", "--clip-len", "2", "--frames", "4",
                "--canvas", "48", "--size", "12", "--log-every", "0", *flags]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_config_file_with_infinite_kappa_is_clean_error(tmp_path, capsys):
    schedule, out = tmp_path / "train.cfg", tmp_path / "model.ckpt"
    save_config(str(schedule), {"steps": 2, "clip_len": 2, "kappa": "inf"})
    assert run(["train", "--out", str(out), "--train-config", str(schedule), "--frames", "4",
                "--canvas", "48", "--size", "12", "--log-every", "0"]) == 2
    assert "kappa must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg"]


@pytest.mark.parametrize("flag", ["--speed", "--drift", "--size-drift", "--size"])
def test_synth_with_a_nan_flag_is_clean_error(tmp_path, capsys, flag):
    out = tmp_path / "seqs"
    assert run(["synth", "--out", str(out), "--num", "1", "--frames", "3", flag, "nan"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("tau", None), ("layer1", None), ("tau", "four"), ("hidden", "1.5")])
def test_track_with_a_config_missing_or_mistyping_a_key_is_clean_error(trained, tmp_path, capsys, key, value):
    ckpt, seq = trained
    entries = config_to_dict(desk_config())
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    bad, out = tmp_path / "bad.cfg", tmp_path / "r.txt"
    save_config(str(bad), entries)
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out), "--config", str(bad)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_gradcheck_without_seeds_is_clean_error(tmp_path, capsys, monkeypatch, seeds):
    monkeypatch.chdir(tmp_path)
    assert run(["gradcheck", "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and "pass" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_train_with_a_config_without_conv_layers_is_clean_error(tmp_path, capsys):
    entries = config_to_dict(desk_config())
    entries["num_layers"] = 0
    for i in range(3):
        del entries[f"layer{i}"]
    cfg, out = tmp_path / "empty.cfg", tmp_path / "model.ckpt"
    save_config(str(cfg), entries)
    assert run(["train", "--out", str(out), "--config", str(cfg), "--steps", "1", "--clip-len", "2",
                "--frames", "4", "--canvas", "48", "--size", "12", "--log-every", "0"]) == 2
    assert "FeatureNetConfig.layers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("layer0", ["5,2,32,1,none,0,0,2", "5,2,32,1,none,0,0,0"])
def test_track_with_conv_groups_that_do_not_divide_is_clean_error(trained, tmp_path, capsys, layer0):
    ckpt, seq = trained
    entries = config_to_dict(desk_config())
    entries["layer0"] = layer0
    bad, out = tmp_path / "bad.cfg", tmp_path / "r.txt"
    save_config(str(bad), entries)
    assert run(["track", "--ckpt", str(ckpt), "--seq", str(seq), "--out", str(out), "--config", str(bad)]) == 2
    assert "groups" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1.5", "1.0", "-0.1"])
def test_synth_with_size_drift_outside_unit_interval_is_clean_error(tmp_path, capsys, value):
    out = tmp_path / "seqs"
    assert run(["synth", "--out", str(out), "--num", "1", "--frames", "3", f"--size-drift={value}"]) == 2
    assert "SynthConfig.size_drift" in capsys.readouterr().err
    assert not out.exists()


def test_sequence_with_an_ill_typed_class_id_is_clean_error(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "model.ckpt"
    assert run(["synth", "--out", str(data), "--num", "1", "--frames", "4", "--canvas", "48",
                "--size", "12"]) == 0
    (data / "seq_000" / "meta.txt").write_text("class_id = two\n")
    assert run(["eval", "--results", str(tmp_path / "r.txt"), "--seq", str(data / "seq_000")]) == 2
    assert run(["train", "--out", str(out), "--data", str(data), "--steps", "1", "--clip-len", "2",
                "--log-every", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("meta.txt: config key 'class_id' has an ill-typed value 'two'") == 2
    assert not out.exists()
