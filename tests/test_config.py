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
