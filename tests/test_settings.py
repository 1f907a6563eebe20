"""Every int or numeric setting goes through one of two checks and fails with ConfigError."""

import re

import numpy as np
import pytest

from fairint.data import split, synth_generate
from fairint.errors import ConfigError, check_int, check_number
from fairint.metrics import evaluate
from fairint.model import FairIntModel, ModelConfig, VanillaModel
from fairint.training import TrainConfig, evaluate_model


@pytest.fixture(scope="module")
def data():
    raw = synth_generate(400, 1.0, 0.5, seed=0)
    return raw, split(raw, (0.6, 0.2, 0.2), seed=0)


def _model(cls):
    return lambda data, kw: cls(data[0].input_columns, ModelConfig(), **{"seed": 0, **kw})


def _evaluate_model(data, kw):
    return evaluate_model(VanillaModel(data[1].input_columns, ModelConfig(), seed=0), data[1], "test", **kw)


def _split(data, kw):
    if "ratio" in kw:
        kw = {"ratios": (kw.pop("ratio"), 0.5, 0.5), **kw}
    return split(data[0], **{"ratios": (0.6, 0.2, 0.2), "seed": 0, **kw})


CALLS = {
    "TrainConfig": lambda data, kw: TrainConfig(**kw),
    "ModelConfig": lambda data, kw: ModelConfig(**kw),
    "synth_generate": lambda data, kw: synth_generate(**{"n": 200, "bias_strength": 1.0, "proxy_corr": 0.5,
                                                         "seed": 0, **kw}),
    "split": _split,
    "FairIntModel": _model(FairIntModel),
    "VanillaModel": _model(VanillaModel),
    "evaluate_model": _evaluate_model,
    "evaluate": lambda data, kw: evaluate([0.2, 0.8, 0.3, 0.7], [0, 1, 1, 0], [0, 0, 1, 1], **kw),
}

# every numeric argument of each entry point, with a value just outside its range
OUT_OF_RANGE = [
    ("TrainConfig", "lambda_ifc", -0.5),
    ("TrainConfig", "lambda_fc", -0.5),
    ("TrainConfig", "learning_rate", 0.0),
    ("TrainConfig", "dropout", 1.0),
    ("TrainConfig", "l2", -1e-4),
    ("TrainConfig", "batch_size", 0),
    ("TrainConfig", "max_epochs", -1),
    ("TrainConfig", "patience", 0),
    ("TrainConfig", "seed", -1),
    ("ModelConfig", "embed_dim", 0),
    ("synth_generate", "n", 99),
    ("synth_generate", "bias_strength", -1.0),
    ("synth_generate", "proxy_corr", 1.5),
    ("synth_generate", "seed", -1),
    ("split", "ratio", 0.0),
    ("split", "seed", -1),
    ("FairIntModel", "seed", -1),
    ("FairIntModel", "dropout", 1.0),
    ("VanillaModel", "seed", -1),
    ("VanillaModel", "dropout", -0.1),
    ("evaluate_model", "threshold", -float("inf")),  # any finite threshold is in range
    ("evaluate", "threshold", -float("inf")),
]

CASES = [
    pytest.param(entry, {arg: value}, id=f"{entry}-{arg}={value!r}")
    for entry, arg, out_of_range in OUT_OF_RANGE
    for value in (True, "x", float("nan"), float("inf"), out_of_range)
] + [
    pytest.param(entry, kw, id=f"{entry}-{kw}")
    for entry, kw in [
        ("split", {"ratios": 0.5, "seed": 1}),  # a single number where three are needed
        ("split", {"ratios": np.array(0.5)}),
        ("split", {"seed": 1.5}),
        ("split", {"seed": np.int64(1)}),  # a numpy integer is not a Python int
        ("FairIntModel", {"seed": np.int64(1)}),
        ("ModelConfig", {"sar_hidden": (8, True)}),
        ("ModelConfig", {"baseline_hidden": (0,)}),
        ("TrainConfig", {"max_epochs": 2.0}),
        ("synth_generate", {"n": 200.0}),
    ]
]


# the two checks' message forms, and split's for ratios that are not three values
MESSAGE = r" must be (an int >= -?\d+|a finite number in [\[(].*[\])]|a sequence of three numbers), got "


@pytest.mark.parametrize(("entry", "kw"), CASES)
def test_a_malformed_setting_raises_config_error(data, entry, kw):
    with pytest.raises(ConfigError, match=MESSAGE):
        CALLS[entry](data, dict(kw))


@pytest.mark.parametrize("entry", CALLS)
def test_each_entry_point_takes_its_defaults(data, entry):
    CALLS[entry](data, {})


def test_split_takes_its_ratios_as_a_tuple_list_or_array_alike(data):
    tags = [split(data[0], ratios, seed=3).split_tags for ratios in
            [(0.6, 0.2, 0.2), [0.6, 0.2, 0.2], np.array([0.6, 0.2, 0.2])]]
    np.testing.assert_array_equal(tags[0], tags[1])
    np.testing.assert_array_equal(tags[0], tags[2])


def test_check_int_takes_a_python_int_at_or_above_its_floor():
    assert check_int("k", 3, 3) == 3
    for value in (2, True, 3.0, np.int64(3), "3"):
        with pytest.raises(ConfigError, match=re.escape(f"k must be an int >= 3, got {value!r}")):
            check_int("k", value, 3)


@pytest.mark.parametrize(("interval", "inside", "outside"), [
    ("[0, 1)", [0, 0.5, np.float64(0.999)], [1, 1.0, -1e-300]),
    ("(0, 1]", [1, 1e-300], [0, 0.0, 1.0000001]),
    ("[0, 1]", [0, 1], [-0.5, 2]),
    ("(0, inf)", [1e-300, 10**300], [0, -1.0]),
    ("(-inf, inf)", [-1e308, 0, 1e308], []),
])
def test_check_number_keeps_each_end_of_its_interval_open_or_closed(interval, inside, outside):
    for value in inside:
        assert check_number("w", value, interval) is value
    for value in [*outside, float("nan"), float("inf"), -float("inf"), 10**400, False, "0.5", None]:
        with pytest.raises(ConfigError, match=r"^w must be a finite number in " + "\\" + interval[0]):
            check_number("w", value, interval)
