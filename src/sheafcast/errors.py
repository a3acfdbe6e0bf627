"""Exception types shared across the package."""


class SheafcastError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SheafcastError):
    """A parameter violates its documented domain."""


class ShapeMismatchError(SheafcastError):
    """Array shapes are inconsistent with the operation's contract."""


class WindowTooShortError(SheafcastError):
    """A time window is too short for the requested operation."""


class SeriesTooShortError(SheafcastError):
    """A series cannot produce a single window at the requested sizes."""


class InfeasiblePlacementError(SheafcastError):
    """A perturbation-straddling window cannot be placed inside the series."""


class MissingEdgeParametersError(SheafcastError):
    """Sheaf parameters do not cover every edge of the working graph."""


class NonFiniteStateError(SheafcastError):
    """Integration produced a NaN or Inf state."""


class DivergenceError(SheafcastError):
    """Training loss became non-finite."""


class ConfigError(SheafcastError):
    """A run configuration failed schema validation."""


class ArtifactMismatchError(SheafcastError):
    """A file does not match the sha256 its manifest pins, or an artifact is
    in a format this version no longer reads."""


class CheckpointMismatchError(ArtifactMismatchError):
    """A checkpoint is incompatible with the requested operation."""
