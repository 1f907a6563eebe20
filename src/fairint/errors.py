"""Exception hierarchy shared by all fairint modules, and the checks of settings.

Each class carries the CLI exit code of its failures in ``exit_code``:

- exit 2: :class:`UsageError` (an API or command line used against its
  contract) and :class:`ConfigError` (a setting);
- exit 3: :class:`DataError` (a dataset, CSV, schema or model file);
- exit 4, as the base class :class:`FairIntError`: :class:`ShapeError`,
  :class:`NumericError` (a NaN or Inf, or a log of a non-positive value,
  caught before it is computed), :class:`MetricError` and
  :class:`TrainingError`.

Every int or numeric setting, whether a config field, a function
argument or a CLI flag, goes through one of two checks, each with one
message form:

- :func:`check_int`: a Python int, not a bool, at or above a floor
  (``seed must be an int >= 0, got -1``);
- :func:`check_number`: a finite number (:func:`is_finite_number`) in an
  interval whose ends are each open or closed
  (``dropout must be a finite number in [0, 1), got 1.0``).

Both raise :class:`ConfigError`. :class:`Settings` gives the config
dataclasses their one ``to_dict``/``from_dict``.

Every reader of a file names the file once, with :func:`located`: a
``with located(path):`` around the reading puts the path in front of
the message of any error raised inside, and nested uses compose, so a
message reads from the file down to the fault
(``data.csv: line 7, column 'y': label '2' is not 0 or 1``).
"""

import sys
from contextlib import contextmanager


class FairIntError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


class ShapeError(FairIntError):
    """Tensor extents are incompatible with the requested operation."""


class NumericError(FairIntError):
    """A forward computation produced NaN or Inf, or would have, such as a log of 0;
    never silently propagated."""


class UsageError(FairIntError):
    """The API was called in a way its contract forbids."""

    exit_code = 2


class ConfigError(FairIntError):
    """A configuration value is missing, malformed, or out of range."""

    exit_code = 2


class DataError(FairIntError):
    """A dataset, CSV file, or schema is malformed or inconsistent."""

    exit_code = 3


class MetricError(FairIntError):
    """A metric is undefined for the given inputs (e.g. a group is absent)."""


class TrainingError(FairIntError):
    """Optimization failed, typically by divergence to non-finite loss."""


@contextmanager
def located(where: str, error=None, catch=(FairIntError, MemoryError)):
    """Put ``where: `` in front of the message of an exception of the ``catch`` classes
    raised inside, any FairIntError or MemoryError by default, keeping its class and
    exit code, or raising it as class ``error`` instead."""
    try:
        yield
    except catch as exc:
        # a plain MemoryError: numpy's subclass builds its message from a shape, not a string
        cls = error or (type(exc) if isinstance(exc, FairIntError) else MemoryError)
        raise cls(f"{where}: {exc}").with_traceback(exc.__traceback__) from None


def is_finite_number(value) -> bool:
    """An int or float, not a bool, that converts to a finite float64."""
    # NaN fails the comparison, and so does an int too large for a float
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def check_int(name: str, value, floor: int = 0) -> int:
    """``value`` if it is a Python int at or above ``floor``, else ConfigError."""
    if type(value) is not int or value < floor:  # type() excludes bools and numpy integers
        raise ConfigError(f"{name} must be an int >= {floor}, got {value!r}")
    return value


def check_number(name: str, value, interval: str = "(-inf, inf)"):
    """``value`` if it is a finite number inside ``interval``, else ConfigError.

    ``interval`` is written as in the message, such as ``"[0, 1)"``: a
    bracket includes its end and a parenthesis excludes it.
    """
    low, high = map(float, interval[1:-1].split(","))
    if not (is_finite_number(value)
            and (low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high)):
        raise ConfigError(f"{name} must be a finite number in {interval}, got {value!r}")
    return value


class Settings:
    """``to_dict``/``from_dict`` for a dataclass of settings, whose class attribute
    ``what`` names its options in errors."""

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, doc):
        """ConfigError unless ``doc`` is an object whose keys are all fields; else the settings."""
        if not isinstance(doc, dict):
            raise ConfigError(f"{cls.what} options must be an object, got {doc!r}")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown {cls.what} options: {sorted(extra)}")
        return cls(**doc)
