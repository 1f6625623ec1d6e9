"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "KatokitError",
    "GridError",
    "ShapeError",
    "FieldFormatError",
    "NonFiniteError",
    "ResolutionError",
    "HypothesisError",
    "PartitionError",
    "OutOfDomainError",
    "MarginError",
    "ContourConfigError",
    "QuadratureError",
]


class KatokitError(Exception):
    """Base class for all errors raised by this package."""


class GridError(KatokitError, ValueError):
    """Invalid grid parameters (odd sample count, bad period, bad blocks)."""


class ShapeError(KatokitError, ValueError):
    """Fields, windows or orders that do not live on compatible grids."""


class FieldFormatError(KatokitError, ValueError):
    """Malformed binary field file (bad magic, truncation, overflow)."""


class NonFiniteError(FieldFormatError):
    """Samples hold NaN or infinite values (in a field file, or passed to a norm)."""


class ResolutionError(KatokitError, ValueError):
    """Requested object cannot be resolved on the sample lattice."""


class HypothesisError(KatokitError, ValueError):
    """A check was requested outside the hypotheses it is valid under."""


class PartitionError(KatokitError, RuntimeError):
    """Partition-of-unity construction failed one of its invariants."""


class OutOfDomainError(KatokitError, ValueError):
    """Sampled values leave the domain of a holomorphic function."""


class MarginError(KatokitError, RuntimeError):
    """Smoothing could not reach the required sup-norm margin."""


class ContourConfigError(KatokitError, ValueError):
    """Contour geometry cannot enclose the poles or exits the domain."""


class QuadratureError(KatokitError, RuntimeError):
    """Contour quadrature failed its convergence certificate."""
