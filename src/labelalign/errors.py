"""Exception hierarchy.

Two branches matter for the CLI: ``ConfigError`` (bad invocation or
scenario/config files, exit code 2) and ``DataError`` (bad or degenerate
data, exit code 3). Numeric preconditions raise ``DataError`` subclasses
because they are triggered by the data fed in, not by the configuration.
A ``DataError`` is located by re-raising it, as the same type with the same
attributes, with a prefix that names where it arose (:func:`located`).
"""

import copyreg
from contextlib import contextmanager


class LabelAlignError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Unpickled without __init__: args holds only the message, not the
        # extra arguments some subclasses take.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(LabelAlignError):
    """Invalid configuration: bad scenario spec, CLI arguments, parameters."""


class DataError(LabelAlignError):
    """Invalid or degenerate input data."""


class NonFiniteError(DataError):
    """Input contains NaN or Inf."""


class NotPositiveDefiniteError(DataError):
    """Matrix failed the positive-definiteness check."""


class EigFailureError(DataError):
    """Symmetric eigensolver did not converge (pathological input)."""


class NotConvergedError(DataError):
    """Iterative solver hit its iteration cap before its tolerance."""


class DimMismatchError(DataError):
    """Operands have incompatible dimensions."""


class EmptyInputError(DataError):
    """Operation requires a nonempty collection."""


class DegenerateCovarianceError(DataError):
    """Composite covariance is not SPD; spatial filtering is impossible."""


class CardinalityMismatchError(ConfigError):
    """Source and target label sets have different sizes."""


class MissingClassError(DataError):
    """A class required by the mapping has no trials or no mean."""

    def __init__(self, message: str, label):
        super().__init__(message)
        self.label = label


class UnknownLabelError(DataError):
    """A trial label has no alignment matrix."""


class KTooLargeError(ConfigError):
    """Requested more medoids than there are points."""


class SingularCovarianceError(DataError):
    """Pooled covariance is singular even after regularization."""


class ZeroVarianceError(DataError):
    """All paired differences are equal; the t statistic is undefined."""


class TooFewPointsError(ConfigError):
    """A curve needs at least two points."""


class BadMagicError(DataError):
    """A trial file does not start with the expected magic/version bytes."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class TruncatedPayloadError(DataError):
    """A trial file's payload is shorter than the header declares."""

    def __init__(self, message: str, offset: int, expected_size: int):
        super().__init__(message)
        self.offset = offset
        self.expected_size = expected_size


class NonFinitePayloadError(DataError):
    """A trial file's payload contains a NaN or Inf value."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def require_int(name: str, value) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def reworded(exc: LabelAlignError, message: str) -> LabelAlignError:
    """A new error of ``exc``'s type with ``message`` and ``exc``'s other
    attributes (``MissingClassError.label``, a payload's byte offsets), which
    calling the type with the message alone would not rebuild."""
    new = type(exc).__new__(type(exc), message)
    new.__dict__.update(vars(exc))
    return new


@contextmanager
def located(where: str | None):
    """Re-raise a :class:`DataError` of the block with its message prefixed
    by ``where``; None leaves it as it is."""
    try:
        yield
    except DataError as exc:
        if where is None:
            raise
        raise reworded(exc, f"{where}: {exc}") from exc
