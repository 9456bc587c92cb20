"""Exception types shared across the package."""


class PhysioShapError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(PhysioShapError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateSignalError(PhysioShapError):
    """A signal has no usable variation (e.g. zero variance)."""


class SchemaMismatchError(PhysioShapError):
    """Input does not match the expected channel/feature schema."""


class NumericalFailureError(PhysioShapError):
    """A numerical routine failed to produce a usable result."""


class DegenerateLabelsError(PhysioShapError):
    """Training labels do not contain enough of each class."""


class DegenerateComparisonError(PhysioShapError):
    """Paired comparison has no non-zero differences to test."""


class ModelIncompatibleError(PhysioShapError):
    """A model lacks the statistics an algorithm requires (e.g. cover)."""


class IngestionError(PhysioShapError):
    """A dataset file is malformed; the message names file/row/column."""


class ConfigError(PhysioShapError):
    """A run configuration failed validation."""


class SelectionError(PhysioShapError):
    """Feature-selection evaluation failed; the message names k."""
