"""Exception types shared across the package."""


class BubbleTowerError(Exception):
    """Base class for numerical / model errors raised by this package."""


class RegimeMismatchError(BubbleTowerError):
    """A constant or formula was requested outside its exponent window."""


class HypothesisViolationError(BubbleTowerError):
    """A hypothesis of the construction (potential sign, exponent window) fails."""


class WindowViolationError(BubbleTowerError):
    """The scales place no spike set: spike_locations' gaps collapse (epsilon
    at or above 1/max_{i>=2} Lambda_i) or Lambda_1* overflows."""


class QuadratureConvergenceError(BubbleTowerError):
    """Line quadrature missed its tolerance (panels, roundoff, non-finite f).

    Carries the best available estimate so callers can degrade gracefully.
    """

    def __init__(self, message, value=None, err=None):
        super().__init__(message)
        self.value = value
        self.err = err


class ConvergenceError(BubbleTowerError):
    """An iterative solve (Newton, bisection, separatrix search) failed.

    ``state`` holds the last iterate when one is available.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class ConditioningError(BubbleTowerError):
    """A linear system was singular or numerically unusable."""


class AssemblyError(BubbleTowerError):
    """A converged state produced an invalid profile (e.g. negative values)."""


class LapackUnavailableError(BubbleTowerError):
    """numpy's own LAPACK, which the tridiagonal solver calls, was not found."""
