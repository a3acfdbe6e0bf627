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
    """An artifact file is not pinned, not as pinned, or not one this version
    reads (say an array file that is not an `.npy` of a C-ordered float64
    array); a checkpoint does not fit its model; or the leakage guard."""
