"""Exception types shared across the package. Each derives from SurgenetError,
and one with a builtin base keeps it (ValueError for a bad value)."""


class SurgenetError(Exception):
    """Root of every error the package raises for bad input or a failed run."""


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
            parts.append(f"column {column!r}")
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
