"""Exception hierarchy shared by all fairint modules.

Each class carries the CLI exit code of its failures in ``exit_code``:
config/usage problems exit 2, data problems exit 3, and every other
error, a training or metric failure, exits 4 as its base class does.
"""


class FairIntError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


class ShapeError(FairIntError):
    """Tensor extents are incompatible with the requested operation."""


class DomainError(FairIntError):
    """An input lies outside an operation's mathematical domain (e.g. log of 0)."""


class NumericError(FairIntError):
    """A forward computation produced NaN or Inf; never silently propagated."""


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
