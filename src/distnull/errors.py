"""Exception types shared across the package."""

__all__ = [
    "DistnullError",
    "DomainError",
    "DegenerateSampleError",
    "DataFormatError",
    "SolverFailure",
]


class DistnullError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DistnullError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateSampleError(DomainError):
    """A sample's spread is zero or beyond float range, so no scale-based
    statistic is defined."""


class DataFormatError(DistnullError):
    """Input data cannot be parsed or does not satisfy the format contract."""


class SolverFailure(DistnullError, RuntimeError):
    """An iterative routine terminated without reaching its tolerance."""
