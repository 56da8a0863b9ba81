"""Exception types shared across the package."""


class BoseFredholmError(Exception):
    """Base class for all package errors."""


class DegenerateDelta(BoseFredholmError):
    """A Gaussian phase integral degenerated to a delta distribution (t=0, x=0)."""


class InvalidIntegrand(BoseFredholmError):
    """Integrand violates a precondition of the quadrature routine."""


class ConvergenceFailure(BoseFredholmError):
    """Damping extrapolation did not stabilize within tolerance.

    Carries the per-delta estimates so callers can inspect the failure.
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class InvalidGrid(BoseFredholmError):
    """Quadrature grid request is malformed (too few nodes, empty domain...)."""


class NumericalFailure(BoseFredholmError):
    """Non-finite values encountered in a kernel matrix or determinant."""


class SingularOperator(BoseFredholmError):
    """Resolvent system is singular or too ill-conditioned to trust."""


class InvalidParameter(BoseFredholmError, ValueError):
    """A parameter is outside its domain (a negative position, T = 0 without
    a positive density...): a configuration error."""


class InvalidState(BoseFredholmError):
    """Finite-size Bethe state specification is invalid (duplicate quantum numbers...)."""


class ExtrapolationWarning(UserWarning):
    """Off-grid Nystrom evaluation far outside the kernel support."""
