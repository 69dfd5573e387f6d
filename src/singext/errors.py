"""Shared exception types."""


class DimensionMismatchError(ValueError):
    """Vector or matrix dimensions do not agree."""


class InsufficientDataError(ValueError):
    """Too few samples to determine the requested quantity."""


class PoleError(ArithmeticError):
    """A matrix that must be inverted is singular at the requested point.

    For Weyl-function and scattering evaluations this usually marks a
    legitimate spectral point rather than a programming error.
    """


class ConvergenceError(ArithmeticError):
    """A series or adaptive scheme did not reach the requested accuracy."""
