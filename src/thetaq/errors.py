"""Exception types shared across the package."""


class ThetaQError(Exception):
    """Base class for all thetaq errors."""


class DomainError(ThetaQError):
    """Input outside the mathematical domain (e.g. Im tau <= 0, |q| >= 1)."""


class ConvergenceError(ThetaQError):
    """A truncated sum or product hit its term cap before meeting tolerance."""


class RangeError(ConvergenceError):
    """A value, argument or multiplier left double range."""


class PoleError(ThetaQError):
    """Evaluation requested at (or too close to) a pole of the function."""


class GradeMismatch(ThetaQError):
    """Formal series with incompatible nome grading combined."""


class OrderUnderflow(ThetaQError):
    """A series operation left no certified coefficients behind."""


class UnsupportedFormal(ThetaQError):
    """The identity has no formal (exact series) certification mode."""
