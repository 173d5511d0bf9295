"""Exception types shared across the library."""


class QkmError(Exception):
    """Base class for all library errors."""


class DomainError(QkmError):
    """An argument is outside the mathematical domain of the operation."""


class TruncationExhausted(QkmError):
    """A series or product hit the hard term cap before its tail criterion."""


class DegenerateArgument(QkmError):
    """A difference quotient is evaluated too close to its singular point."""


class OverflowGuard(QkmError):
    """Intermediate terms would exceed double-precision range; reduce the order."""


class EigensolverFailure(QkmError):
    """The dense eigensolver did not converge."""


class SingularMeasure(QkmError):
    """A summation measure vanishes inside the requested spin window."""


class PoleHit(QkmError):
    """Evaluation landed on (or too close to) a pole of a q-product."""


class WindowTooSmall(QkmError):
    """A quadrature window does not contain the support of the integrand."""
