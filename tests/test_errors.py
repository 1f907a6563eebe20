"""``located`` puts where a fault is in front of its message, and changes nothing else."""

import traceback

import numpy as np
import pytest

from fairint.errors import ConfigError, DataError, NumericError, located


def _raise(exc):
    raise exc


def test_nested_locations_read_from_the_file_down_to_the_fault():
    with pytest.raises(DataError) as caught:
        with located("data.csv"), located("line 7, column 'y'"):
            _raise(DataError("label '2' is not 0 or 1"))
    assert str(caught.value) == "data.csv: line 7, column 'y': label '2' is not 0 or 1"
    assert caught.value.exit_code == 3


@pytest.mark.parametrize("cls, code", [(ConfigError, 2), (DataError, 3), (NumericError, 4)])
def test_an_error_keeps_its_class_and_exit_code(cls, code):
    with pytest.raises(cls) as caught:
        with located("cfg.json"):
            _raise(cls("seed must be an int >= 0, got -1"))
    assert type(caught.value) is cls and caught.value.exit_code == code
    assert str(caught.value) == "cfg.json: seed must be an int >= 0, got -1"


def test_an_error_can_be_raised_as_another_class():
    with pytest.raises(DataError) as caught:
        with located("m.bin"), located("model file metadata", DataError):
            _raise(ConfigError("embed_dim must be an int >= 1, got 0"))
    assert type(caught.value) is DataError
    assert str(caught.value) == "m.bin: model file metadata: embed_dim must be an int >= 1, got 0"


def test_numpys_memory_error_becomes_a_plain_one_with_its_message():
    with pytest.raises(MemoryError) as caught:
        with located("cfg.json"):
            np.empty(2**50)  # 8 PiB: numpy refuses before touching memory
    assert type(caught.value) is MemoryError
    assert str(caught.value).startswith("cfg.json: Unable to allocate ")


@pytest.mark.parametrize("exc", [ValueError("x"), FileNotFoundError(2, "No such file or directory", "a.csv")])
def test_other_errors_pass_through_untouched(exc):
    with pytest.raises(type(exc)) as caught:
        with located("a.csv"):
            _raise(exc)
    assert caught.value is exc


def test_the_traceback_still_reaches_the_raise():
    with pytest.raises(DataError) as caught:
        with located("a.csv"):
            _raise(DataError("file is empty"))
    assert "_raise" in [frame.name for frame in traceback.extract_tb(caught.value.__traceback__)]
