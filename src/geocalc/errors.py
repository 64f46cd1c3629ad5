"""Domain errors shared across the package."""


class GeocalcError(Exception):
    """Base class for every error raised by this package on bad input."""


class ParseError(GeocalcError):
    """Input text is not a plain or scientific decimal literal."""


class ZeroNotRepresentable(GeocalcError):
    """Zero has no sign/mantissa/exponent form; it cannot enter the engine."""


class DomainError(GeocalcError):
    """Operands are outside the mathematical domain of the operation."""


class DegenerateAngle(GeocalcError):
    """A requested cosine collapsed to 0 or 1, leaving no triangle."""


class SignMismatch(GeocalcError):
    """Operand signs are incompatible (mixed-sign geometric mean)."""


class ExponentOverflow(GeocalcError):
    """Result exponent would leave the supported integer range."""


class EvenRootOfNegative(GeocalcError):
    """Even root index applied to a negative radicand."""


class NoIntegerExponent(GeocalcError):
    """No integer n in range satisfies x**n = a to the match tolerance."""


class ArmOutOfRange(GeocalcError):
    """A cascade arm would have to extend or compress beyond its range."""


class NoConvergence(GeocalcError):
    """A search whose bracket the working precision can no longer split."""


class InconsistentTrace(GeocalcError):
    """A construction trace does not describe a drawable construction."""
