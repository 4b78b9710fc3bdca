"""Exception hierarchy.

Two branches matter for the CLI: ``ConfigError`` (bad invocation or
scenario/config files, exit code 2) and ``DataError`` (bad or degenerate
data, exit code 3). Numeric preconditions raise ``DataError`` subclasses
because they are triggered by the data fed in, not by the configuration.
A ``DataError`` is located by re-raising it, as the same type with the same
attributes, with a prefix that names where it arose (:func:`located`).

A config checks its fields where it is built, each by its annotated kind
(:func:`require_fields`): ``int`` (a bool is not one), ``float`` (a finite
number; an int is one), ``str`` (not empty), ``tuple[k, ...]`` (a non-empty
list or tuple of kind ``k``) or a config class; ``X | None`` also takes None.
"""

import copyreg
import sys
import typing
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


_KIND_WORDS = {int: "an integer", float: "a finite number", str: "a non-empty string"}


def require(name: str, value, kind) -> None:
    """Raise :class:`ConfigError`, naming ``name`` (``name[i]`` for item ``i``
    of a list) and the value as given, unless ``value`` is of ``kind``."""
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        for i, item in enumerate(value):
            require(f"{name}[{i}]", item, typing.get_args(kind)[0])
    elif isinstance(value, bool) or not (
        (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max) if kind is float
        else (isinstance(value, kind) and value != "")
    ):
        words = _KIND_WORDS.get(kind, f"a {kind.__name__} (a JSON object)")
        raise ConfigError(f"{name} must be {words}, got {value!r}")


def require_fields(config) -> None:
    """:func:`require` each field of the frozen dataclass ``config`` by its
    annotated kind; a list is kept as a tuple."""
    for name, kind in typing.get_type_hints(type(config)).items():
        value, options = getattr(config, name), typing.get_args(kind)
        if value is None and type(None) in options:
            continue
        require(name, value, options[0] if type(None) in options else kind)
        if isinstance(value, list):
            object.__setattr__(config, name, tuple(value))


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
