"""Exception hierarchy.

Every error carries a short ``category`` string; the CLI maps categories to
exit codes and prints them, so scripted callers can distinguish failure modes.
"""


class LfequadError(Exception):
    category = "error"


class InvalidInputError(LfequadError, ValueError):
    category = "invalid-input"


class DimensionMismatchError(LfequadError, ValueError):
    category = "dimension-mismatch"


class ConfigError(LfequadError, ValueError):
    category = "invalid-config"


class GridError(LfequadError, ValueError):
    """Grid too small (or otherwise unusable) for the requested operation."""

    category = "unsupported-grid"


class InvalidGridError(LfequadError, ValueError):
    """Grid violates a baseline rule's requirement (e.g. odd M for Simpson)."""

    category = "invalid-grid"


class DetectionUnavailableError(LfequadError, RuntimeError):
    """Too few windows for outlier detection; caller keeps the uncorrected result."""

    category = "detection-unavailable"


class NonFiniteResultError(LfequadError, ArithmeticError):
    """The quadrature value overflowed; the data's scale is beyond what the fits carry."""

    category = "non-finite-result"


class PredictionFailedError(LfequadError, RuntimeError):
    """Endpoint predictor denominator is degenerate for this window."""

    category = "prediction-failed"


class UnknownFunctionError(LfequadError, KeyError):
    category = "unknown-function"


class MissingParameterError(LfequadError, ValueError):
    category = "missing-parameter"


class IngestError(LfequadError, ValueError):
    category = "ingest"


class ParseError(IngestError):
    category = "parse-failure"


class UnsortedDataError(IngestError):
    category = "unsorted-data"


class NonUniformSpacingError(IngestError):
    category = "nonuniform-spacing"


class TooFewSamplesError(IngestError):
    category = "too-few-samples"
