from dataclasses import replace

import numpy as np
import pytest

from memtracker import tracker
from memtracker.model import desk_config, init_params, micro_config


@pytest.fixture(scope="session")
def desk_cfg():
    return desk_config()


@pytest.fixture(scope="session")
def desk_params(desk_cfg):
    return init_params(desk_cfg, seed=0)


@pytest.fixture(scope="session")
def micro_cfg():
    return micro_config()


@pytest.fixture(scope="session")
def module_params():
    """`draw(table, channels, seed=0, **overrides)`: the float64 parameters
    named in one module's `table`, as `init_params` draws them for
    `micro_config(**overrides)` with `channels` feature channels."""
    def draw(table, channels, seed=0, **overrides):
        net = micro_config().net
        layers = net.layers[:-1] + (replace(net.layers[-1], channels=channels),)
        params = init_params(micro_config(net=replace(net, layers=layers), **overrides), seed, np.float64)
        return {name: params[name] for name in table}
    return draw


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def prepared_frames(monkeypatch):
    """Every frame `prepare_frame` is given and every prepared frame a crop
    reads, in call order."""
    seen = {"given": [], "cropped": []}
    prepare, crop = tracker.prepare_frame, tracker.crop_resize

    def counting_prepare(frame, dtype):
        seen["given"].append(frame)
        return prepare(frame, dtype)

    def counting_crop(prepared, *args):
        seen["cropped"].append(prepared)
        return crop(prepared, *args)

    monkeypatch.setattr(tracker, "prepare_frame", counting_prepare)
    monkeypatch.setattr(tracker, "crop_resize", counting_crop)
    return seen
