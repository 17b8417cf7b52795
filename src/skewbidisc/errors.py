"""Exception types raised across the package.

Every exception derives from :class:`SkewBidiscError` so callers can catch
the whole family at once.  Numerical checks that are expected to fail in
normal operation (validation reports, certification campaigns) do not raise;
exceptions are reserved for contract violations.
"""

from __future__ import annotations


class SkewBidiscError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(SkewBidiscError):
    """Matrix inversion was requested for a numerically singular matrix.

    ``index`` is the flat position of the first singular matrix of a stack
    (0 for a single matrix), so callers can name the input that caused it.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NotInvertible(SkewBidiscError):
    """A resolvent-type factor failed to invert; usually a domain violation."""


class ShapeMismatch(SkewBidiscError):
    """Operands have incompatible shapes."""


class GramianMismatch(SkewBidiscError):
    """Two vector families do not have matching Gramians within tolerance.

    Carries the offending residual, so reports can surface the number
    instead of just the message, and the name of the failed check:
    ``"gramian"``, ``"sigma_symmetry"`` or ``"bidisc_model"``.
    """

    def __init__(self, message: str, residual: float, check: str = "gramian"):
        super().__init__(message)
        self.residual = residual
        self.check = check


class OutsideDomain(SkewBidiscError):
    """A point lies outside the open domain required by the operation."""


class PoleAtInput(SkewBidiscError):
    """A scalar fraction was evaluated at (numerically) a pole."""


class NotUnimodular(SkewBidiscError):
    """A parameter that must lie on the unit circle does not."""


class DegenerateDenominator(SkewBidiscError):
    """A denominator that must stay nonzero vanished or lost its sign."""


class InvalidParams(SkewBidiscError):
    """Structured parameters violate the constraints of their constructor."""


class InsufficientSamples(SkewBidiscError):
    """Too few sample points to pin down the requested object."""


class ParseError(SkewBidiscError):
    """A JSON artifact could not be decoded into the expected structure."""


class ConfigError(SkewBidiscError):
    """Command-line configuration is invalid."""
