"""Exception hierarchy shared across the package."""


class SecmeasureError(Exception):
    """Base class for all package-specific failures."""


# --- quadrature ---

class NonConvergence(SecmeasureError):
    """Refinement budget exhausted before the requested tolerance was met."""


class EvaluationFailure(SecmeasureError):
    """An integrand or expression produced a non-finite value."""


# --- measures ---

class UnknownDensity(SecmeasureError):
    """Requested catalog name does not exist."""


class InvalidDensity(SecmeasureError):
    """User-supplied density fails the probability checks."""


# --- orthogonal polynomials ---

class InstabilityDetected(SecmeasureError):
    """Recurrence construction lost orthogonality beyond the guard threshold."""


# --- Stieltjes machinery ---

class PointOnInterval(SecmeasureError):
    """Transform argument is (numerically) on the support interval."""


class DegenerateMeasure(SecmeasureError):
    """Secondary measure has (numerically) zero mass."""


class ExtrapolationDivergence(SecmeasureError):
    """Stieltjes-Perron epsilon ladder did not produce a Cauchy sequence."""


class DomainError(SecmeasureError):
    """Argument outside the mathematical domain of the operation."""


# --- family / operators ---

class DenominatorZero(SecmeasureError):
    """Transform denominator vanished; the family parameter is invalid there."""


class InvalidParameter(SecmeasureError):
    """Family parameter (or derived t = 1/(1+lambda)) fails the validity policy."""


# --- expression parsing ---

class ExprSyntaxError(SecmeasureError):
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
