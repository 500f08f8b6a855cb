"""Exception types shared across the package, and the one rule for what a
setting may hold. Each error derives from SurgenetError, and one with a
builtin base keeps it (ValueError for a bad value)."""

import contextlib
import dataclasses
import numbers
import sys
import typing


class SurgenetError(Exception):
    """Root of every error the package raises for bad input or a failed run."""


@contextlib.contextmanager
def named(prefix: str):
    """Start the message of a SurgenetError raised in the block with "prefix: ",
    cut to 40 characters, and re-raise the same object, so its class, row,
    column and cause stay. Readers name their file this way, once each; an
    OSError names its own path."""
    try:
        yield
    except SurgenetError as exc:
        exc.args = (f"{prefix:.40}: {exc}",)
        raise


class DimensionMismatchError(SurgenetError, ValueError):
    """Operands or parameters with incompatible shapes."""


class TrackValidationError(SurgenetError, ValueError):
    """A storm-track file, array or corpus violates the track schema.

    Carries the offending row index and column name when they are known.
    """

    def __init__(self, message, row=None, column=None):
        parts = [message]
        if row is not None:
            parts.append(f"row {row}")
        if column is not None:
            parts.append(f"column {column!r:.40}")
        super().__init__(" | ".join(parts))
        self.row = row
        self.column = column


class ColumnSchemaError(TrackValidationError):
    """Header or field layout does not match the 16-column track schema."""


class RowCountError(TrackValidationError):
    """Track does not have exactly the expected number of rows."""


class TauGridError(TrackValidationError):
    """Time column is not the fixed 30-minute countdown grid."""


class NonFiniteValueError(TrackValidationError):
    """A cell is NaN, infinite, or not parsable as a finite number."""


class FieldRangeError(TrackValidationError):
    """A physical field is outside its admissible range."""


class CheckpointError(SurgenetError):
    """Base for checkpoint serialization problems."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint file is unparsable or structurally malformed."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written with an unsupported format version."""


class CheckpointDimensionError(CheckpointError):
    """Stored arrays disagree with the declared architecture."""


class ConfigError(SurgenetError, ValueError):
    """A run setting is invalid: a config or flag, TrainConfig, Architecture
    or OracleParams value."""


class TrainingDivergedError(SurgenetError, RuntimeError):
    """Training loss became non-finite."""


class DomainError(SurgenetError, ValueError):
    """An argument outside its function's domain, e.g. a mass outside (0, 1)."""


# The classes a value of each annotation must belong to (builtins ahead of
# the slower ABC checks), and its name in errors. A list stands in for a tuple,
# as YAML has none; any other annotation is itself the class.
_KINDS = {int: ((int, numbers.Integral), "an integer"),
          float: ((float, int, numbers.Real), "a finite number"),
          str: (str, "a string"), type(None): (type(None), "null"),
          tuple: ((tuple, list), "a list")}


def check_value(name: str, value, kind, *, above=None, at_least=None, below=None,
                at_most=None, choices=None) -> None:
    """Raise ConfigError naming name unless value fits kind, or one member of
    a union such as str | None, is one of choices if given, and lies within
    the bounds given: above and below exclude theirs, at_least and at_most
    include theirs, and each side takes at most one. Neither int nor float
    takes a bool, a float is within the float range (so not nan or inf), and
    a str holds no NUL. The message shows at most 40 characters of the value."""
    kinds = typing.get_args(kind) or (kind,)
    for k in kinds:
        if (isinstance(value, _KINDS.get(k, (k,))[0]) and not isinstance(value, bool)
                and (k is not float or abs(value) <= sys.float_info.max)):
            break
    else:
        expected = " or ".join(_KINDS.get(k, (k, k.__name__))[1] for k in kinds)
        raise ConfigError(f"{name} must be {expected}, got {value!r:.40}")
    if isinstance(value, str) and "\0" in value:  # no file path can hold one
        raise ConfigError(f"{name} must not hold a NUL character, got {value!r:.40}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r:.40}")
    if ((above is not None and not value > above)
            or (at_least is not None and not value >= at_least)
            or (below is not None and not value < below)
            or (at_most is not None and not value <= at_most)):
        low = f"({above}" if above is not None else None if at_least is None else f"[{at_least}"
        high = f"{below})" if below is not None else None if at_most is None else f"{at_most}]"
        if low and high:
            expected = f"in {low}, {high}"
        elif low:
            expected = f"> {above}" if above is not None else f">= {at_least}"
        else:
            expected = f"< {below}" if below is not None else f"<= {at_most}"
        raise ConfigError(f"{name} must be {expected}, got {value!r:.40}")


def check_fields(obj) -> None:
    """check_value on each field of the dataclass obj against its annotation
    and the choices or bounds in its metadata, in declaration order."""
    for f in dataclasses.fields(obj):
        check_value(f.name, getattr(obj, f.name), f.type, **f.metadata)
