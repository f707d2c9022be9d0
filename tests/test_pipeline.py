"""The per-frame pipeline shared by tracking and training, and the model
config file format."""

import numpy as np
import pytest

from memtracker import autodiff as ad
from memtracker import checkpoint as ckpt
from memtracker import featnet, synth, template, tracker
from memtracker.autodiff import Tensor
from memtracker.model import config_from_dict, config_to_dict, desk_config, full_config


def _unroll(video, params, cfg):
    """Response maps of two frames through frame_forward and write_memories,
    searching around the true boxes."""
    state = tracker.init(video.frames[0], video.boxes[0], params, cfg)
    maps = []
    for t in (1, 2):
        cx, cy, side = tracker.search_roi(video.boxes[t - 1], cfg)
        patch = tracker.crop_resize(video.frames[t], cx, cy, side, cfg.net.search_size)
        feats = featnet.extract_features(Tensor(patch), params, cfg.net)
        read = tracker.frame_forward(state, feats, params, cfg)
        response = template.response(feats, read.template)
        maps.append(response.data.copy())
        new_template = tracker.extract_template(video.frames[t], video.boxes[t], params, cfg)
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
layer1 = 5,1,256,1,max,3,2
layer2 = 3,1,384,1,none,0,0
layer3 = 3,1,384,1,none,0,0
layer4 = 3,1,256,0,none,0,0
"""


@pytest.mark.parametrize("text, cfg", [(DESK_CFG, desk_config()), (FULL_CFG, full_config())],
                         ids=["desk", "full"])
def test_config_file_format_is_kept(tmp_path, text, cfg):
    path = tmp_path / "model.cfg"
    path.write_text(text)
    assert config_from_dict(ckpt.load_config(path)) == cfg
    ckpt.save_config(path, config_to_dict(cfg))
    assert path.read_text() == text
