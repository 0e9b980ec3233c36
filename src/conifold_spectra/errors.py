"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ConifoldSpectraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionTooSmall(ConifoldSpectraError):
    """Cone dimension below the minimum required by an operation."""


class UnsupportedDimension(ConifoldSpectraError):
    """A built-in fixture was requested in a dimension it does not support."""


class SchemaError(ConifoldSpectraError):
    """A spectrum document does not conform to the interchange schema."""


class InvariantViolation(ConifoldSpectraError):
    """Structurally valid input data violates a mathematical invariant."""


class InsufficientSpectrum(ConifoldSpectraError):
    """The listed spectrum is not certified far enough for the computation.

    ``required`` carries the completeness threshold the caller must certify;
    it is ``None`` when the obstruction is qualitative (e.g. no positive
    eigenvalue listed at all).
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class EmptyRateSet(ConifoldSpectraError):
    """A rate minimum was requested over an empty candidate set."""


class NonTerminating(ConifoldSpectraError):
    """The decay bootstrap cannot make progress with the given step."""


class UnsupportedCase(ConifoldSpectraError):
    """The flat-cone verifier has no polynomial model for the request."""
