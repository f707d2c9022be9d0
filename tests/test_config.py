"""One field check for every config and box: `model.check_fields`."""

import numbers
from dataclasses import fields, replace

import numpy as np
import pytest

from memtracker import gradcheck, train
from memtracker.model import config_from_dict, config_to_dict, desk_config
from memtracker.synth import SynthConfig
from memtracker.tracker import BoundingBox
from memtracker.train import TrainConfig

VALID = [desk_config(), TrainConfig(), SynthConfig(), BoundingBox(cx=5.0, cy=5.0, w=2.0, h=2.0)]
REAL_FIELDS = [(obj, f.name) for obj in VALID for f in fields(obj)
               if isinstance(getattr(obj, f.name), numbers.Real)]


def test_every_config_has_real_fields():
    assert {type(obj).__name__ for obj, _ in REAL_FIELDS} == {type(obj).__name__ for obj in VALID}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   np.float32("nan"), np.float32("inf"), np.float32("-inf")],
                         ids=["nan", "inf", "-inf", "f32-nan", "f32-inf", "f32--inf"])
@pytest.mark.parametrize("obj,name", REAL_FIELDS,
                         ids=[f"{type(obj).__name__}.{name}" for obj, name in REAL_FIELDS])
def test_every_real_field_rejects_non_finite_values(obj, name, value):
    with pytest.raises(ValueError, match=rf"{type(obj).__name__}\.{name} must be finite"):
        replace(obj, **{name: value})


def test_an_int_beyond_the_float_range_is_finite():
    assert TrainConfig(steps=10 ** 400).steps == 10 ** 400


def test_the_first_bad_field_is_named():
    with pytest.raises(ValueError, match=r"TrainConfig\.lr must be finite"):
        TrainConfig(lr=float("nan"), steps=0)
    with pytest.raises(ValueError, match=r"BoundingBox\.h must be positive, got -1"):
        BoundingBox(cx=0.0, cy=0.0, w=1.0, h=-1.0)


# --- config files -------------------------------------------------------------------

@pytest.mark.parametrize("key", ["tau", "hidden", "num_layers", "layer1", "object_size"])
def test_config_without_a_key_names_it(key):
    entries = config_to_dict(desk_config())
    del entries[key]
    with pytest.raises(ValueError, match=f"'{key}' is missing"):
        config_from_dict(entries)


@pytest.mark.parametrize("key,value", [("tau", "four"), ("hidden", "1.5"), ("n_pos", ""),
                                       ("num_layers", "3.0"), ("layer0", "5,2,32"),
                                       ("layer2", "3,1,x,0,none,0,0")])
def test_config_with_an_ill_typed_value_names_its_key(key, value):
    entries = config_to_dict(desk_config())
    entries[key] = value
    with pytest.raises(ValueError, match=f"'{key}' has an ill-typed value"):
        config_from_dict(entries)


@pytest.mark.parametrize("key,value", [("steps", "2.5"), ("lr", "fast"), ("kappa", "inf")])
def test_train_config_with_a_bad_value_names_its_key(key, value):
    with pytest.raises(ValueError, match=key):
        train.train_config_from_dict({key: value})


@pytest.mark.parametrize("seeds", [range(0), range(7, 7), []])
def test_gradient_suite_without_seeds_is_an_error(seeds):
    with pytest.raises(ValueError, match="seed"):
        gradcheck.run_suite(seeds=seeds)


# --- the feature net and its conv layer groups --------------------------------------

@pytest.mark.parametrize("line,groups", [("3,1,32,1,avg,2,2", 1), ("3,1,32,1,avg,2,2,2", 2),
                                         ("3,1,32,1,avg,2,2,32", 32)])
def test_layer_line_with_or_without_groups_round_trips(line, groups):
    entries = config_to_dict(desk_config())
    entries["layer1"] = line
    cfg = config_from_dict(entries)
    assert cfg.net.layers[1].groups == groups
    assert config_to_dict(cfg) == entries


def test_layer_line_with_one_group_is_written_with_seven_fields():
    entries = config_to_dict(desk_config())
    entries["layer1"] = "3,1,32,1,avg,2,2,1"
    assert config_to_dict(config_from_dict(entries))["layer1"] == "3,1,32,1,avg,2,2"


@pytest.mark.parametrize("value", ["3,1,32,1,avg,2,2,2,2", "3,1,32,1,avg,2,2,two"])
def test_layer_line_with_a_bad_groups_field_names_its_key(value):
    entries = config_to_dict(desk_config())
    entries["layer1"] = value
    with pytest.raises(ValueError, match="'layer1' has an ill-typed value"):
        config_from_dict(entries)


# layer0 sees 3 input channels; layer2 sees desk's 32 and here gives 30
@pytest.mark.parametrize("key,line,match", [("layer0", "5,2,32,1,none,0,0,2", r"layer0: groups 2 .* 3 input"),
                                            ("layer0", "5,2,32,1,none,0,0,3", r"layer0: groups 3 .* 32 output"),
                                            ("layer2", "3,1,30,0,none,0,0,4", r"layer2: groups 4 .* 30 output"),
                                            ("layer1", "3,1,32,1,avg,2,2,0", "conv layer"),
                                            ("layer1", "3,1,32,1,avg,2,2,-2", "conv layer")])
def test_config_rejects_groups_that_do_not_divide_the_channels(key, line, match):
    entries = config_to_dict(desk_config())
    entries[key] = line
    with pytest.raises(ValueError, match=match):
        config_from_dict(entries)


def test_feature_net_needs_a_conv_layer():
    entries = config_to_dict(desk_config())
    entries["num_layers"] = 0
    for i in range(3):
        del entries[f"layer{i}"]
    with pytest.raises(ValueError, match=r"FeatureNetConfig\.layers must be at least one conv layer"):
        config_from_dict(entries)


@pytest.mark.parametrize("name", ["object_size", "search_size", "num_classes", "cls_hidden"])
@pytest.mark.parametrize("value,match", [(0, "must be at least 1"), (-4, "must be at least 1"),
                                         (float("nan"), "must be finite")])
def test_feature_net_sizes_must_be_positive(name, value, match):
    with pytest.raises(ValueError, match=rf"FeatureNetConfig\.{name} {match}"):
        replace(desk_config().net, **{name: value})
