"""The per-frame pipeline shared by tracking and training, and the model
config file format and initial parameter bits."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from memtracker import autodiff as ad
from memtracker import checkpoint as ckpt
from memtracker import featnet, synth, template, tracker
from memtracker.autodiff import Tensor
from memtracker.model import (config_from_dict, config_to_dict, desk_config, full_config, init_params, micro_config,
                              param_tables)


def _unroll(video, params, cfg):
    """Response maps of two frames through frame_forward and write_memories,
    searching around the true boxes."""
    state = tracker.init(video.frames[0], video.boxes[0], params, cfg)
    maps = []
    for t in (1, 2):
        prepared = tracker.prepare_frame(video.frames[t], params["featnet/conv0_w"].data.dtype)
        cx, cy, side = tracker.search_roi(video.boxes[t - 1], cfg)
        patch = tracker.crop_resize(prepared, cx, cy, side, cfg.net.search_size)
        feats = featnet.extract_features(Tensor(patch), params, cfg.net)
        read = tracker.frame_forward(state, feats, params, cfg)
        response = template.response(feats, read.template)
        maps.append(response.data.copy())
        new_template = tracker.extract_template(prepared, video.boxes[t], params, cfg)
        state.pos_mem, state.neg_mem = tracker.write_memories(
            state, read, new_template, response.data, feats, cfg)
        state.h, state.c = read.h, read.c
    return maps


def test_frame_forward_same_numbers_with_and_without_graph(desk_cfg, desk_params):
    video = synth.generate(17, synth.SynthConfig(frames=3, drift=0.7, distractors=1))
    recorded = _unroll(video, desk_params, desk_cfg)
    with ad.no_grad():
        untaped = _unroll(video, desk_params, desk_cfg)
    for a, b in zip(recorded, untaped):
        assert np.array_equal(a, b)


# `experiments/exactness.py`'s crop digest from when every crop converted the
# frame and padded it with its mean colour itself
CROP_DIGEST = "506bed1bed5f60cabd2276ba8fcdac966dc2035d0cc16d190f6c8073501ed59b"


def test_exactness_crop_cases_keep_their_digest(monkeypatch):
    # the script pins BLAS to one thread on import; keep that to this test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = Path(__file__).resolve().parents[1] / "experiments" / "exactness.py"
    spec = importlib.util.spec_from_file_location("exactness", script)
    exactness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(exactness)
    assert dict(exactness.crops()) == {"crop": CROP_DIGEST}


# written by `memtracker train` before the config mapping was derived from
# the dataclass fields; such files must keep loading
DESK_CFG = """\
object_size = 40
search_size = 80
num_layers = 3
num_classes = 5
cls_hidden = 64
hidden = 64
attn_size = 32
n_pos = 8
n_neg = 16
mem_decay = 0.99
tau = 4.0
score_ratio = 0.7
top_k = 2
scale_step = 1.05
num_scales = 3
window_weight = 0.19
scale_smooth = 0.5
context_factor = 0.5
dropout_keep = 0.8
patch_stride = 1
layer0 = 5,2,32,1,none,0,0
layer1 = 3,1,32,1,avg,2,2
layer2 = 3,1,32,0,none,0,0
"""

FULL_CFG = """\
object_size = 127
search_size = 255
num_layers = 5
num_classes = 30
cls_hidden = 1024
hidden = 512
attn_size = 256
n_pos = 8
n_neg = 16
mem_decay = 0.99
tau = 4.0
score_ratio = 0.7
top_k = 2
scale_step = 1.05
num_scales = 3
window_weight = 0.19
scale_smooth = 0.5
context_factor = 0.5
dropout_keep = 0.8
patch_stride = 1
layer0 = 11,2,96,1,max,3,2
layer1 = 5,1,256,1,max,3,2,2
layer2 = 3,1,384,1,none,0,0
layer3 = 3,1,384,1,none,0,0,2
layer4 = 3,1,256,0,none,0,0,2
"""


@pytest.mark.parametrize("text, cfg", [(DESK_CFG, desk_config()), (FULL_CFG, full_config())],
                         ids=["desk", "full"])
def test_config_file_format_is_kept(tmp_path, text, cfg):
    path = tmp_path / "model.cfg"
    path.write_text(text)
    assert config_from_dict(ckpt.load_config(path)) == cfg
    ckpt.save_config(path, config_to_dict(cfg))
    assert path.read_text() == text


def _params_digest(params):
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(f"{name} {t.data.dtype} {t.data.shape}".encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("make,digest", [
    (lambda: init_params(desk_config(), 3),
     "1ea7b73b2f8734bac729217a762b67c097882e9327866ee2027d5bfcb691b7a8"),
    (lambda: init_params(micro_config(), 0, np.float64),
     "f64ce86074939be976156cd9221a522c9c993a41c32c134cc77ae42cc587b23f"),
    (lambda: init_params(full_config(), 3),
     "85411fd635b3f2f332ce06415574dd5a47600b3b47de6f02d9f86ccfde2f5016"),
])
def test_init_params_bits_are_kept(make, digest):
    # every saved checkpoint, bench figure and seeded result starts from these bits
    assert _params_digest(make()) == digest


@pytest.mark.parametrize("make_cfg", [desk_config, full_config, micro_config], ids=["desk", "full", "micro"])
def test_param_tables_give_the_drawn_names_and_shapes_in_order(make_cfg):
    cfg = make_cfg()
    declared = [(name, shape) for table in param_tables(cfg) for name, (shape, _) in table.items()]
    assert declared == [(name, t.data.shape) for name, t in init_params(cfg, 0).items()]
