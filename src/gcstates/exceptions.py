"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A numerical routine could not reach an answer within its range or budget."""


class QuadratureError(RuntimeError):
    """The moment check's grid sum could not certify its error; carries the sum
    (estimate) and its error bound, for a caller to judge the value."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ConsistencyError(RuntimeError):
    """Two independent routes to the same quantity disagree.

    Raised by the internal cross-checks (generalized factorial product vs
    closed form, series vs closed-form normalization, coefficient vs kernel
    overlap).  Seeing this means a bug, not a user error.
    """
