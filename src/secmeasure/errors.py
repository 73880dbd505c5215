"""Exception hierarchy shared across the package: every error is an
InputError (a ValueError) or a NumericalFailure (an ArithmeticError)."""


class SecmeasureError(Exception):
    """Base class for all package-specific failures."""


class InputError(SecmeasureError, ValueError):
    """The input is refused: outside the operation's domain or malformed."""


class NumericalFailure(SecmeasureError, ArithmeticError):
    """A computation on valid input did not produce a trustworthy value;
    keyword fields, such as the level loop's, become attributes."""

    def __init__(self, message, **fields):
        super().__init__(message)
        self.__dict__.update(fields)


# --- quadrature ---

class NonConvergence(NumericalFailure):
    """Refinement budget exhausted before the requested tolerance was met;
    from the level loop with what, level, unsettled, count, gap, tolerance."""


class EvaluationFailure(NumericalFailure):
    """An integrand or expression produced a non-finite value; from the
    level loop with the fields what and level."""


# --- measures ---

class UnknownDensity(InputError):
    """Requested catalog name does not exist."""


class InvalidDensity(InputError):
    """User-supplied density fails the probability checks."""


# --- orthogonal polynomials ---

class InstabilityDetected(NumericalFailure):
    """Recurrence construction lost orthogonality beyond the guard threshold."""


# --- Stieltjes machinery ---

class PointOnInterval(InputError):
    """Transform argument is (numerically) on the support interval."""


class DegenerateMeasure(NumericalFailure):
    """Secondary measure has (numerically) zero mass."""


class ExtrapolationDivergence(NumericalFailure):
    """Stieltjes-Perron epsilon ladder did not produce a Cauchy sequence."""


class DomainError(InputError):
    """Argument outside the mathematical domain of the operation."""


# --- family / operators ---

class DenominatorZero(NumericalFailure):
    """Transform denominator vanished; the family parameter is invalid there."""


class InvalidParameter(InputError):
    """Family parameter (or derived t = 1/(1+lambda)) fails the validity policy."""


# --- expression parsing ---

class ExprSyntaxError(InputError):
    """Malformed expression text.

    Attributes
    ----------
    offset : int
        Byte offset of the offending character in the source string.
    expected : tuple of str
        Token kinds that would have been accepted at that position.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" +
                         (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class UnknownFunction(ExprSyntaxError):
    """Identifier is not one of the supported math functions."""
