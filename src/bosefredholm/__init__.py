"""Fredholm determinant correlators for the impenetrable Bose gas in a half
line with reflecting (Neumann) or absorbing (Dirichlet) walls, plus exact
finite-size oracles and the associated integrable differential system."""

from .errors import (
    BoseFredholmError,
    ConvergenceFailure,
    DegenerateDelta,
    ExtrapolationWarning,
    InvalidGrid,
    InvalidIntegrand,
    InvalidParameter,
    InvalidState,
    NumericalFailure,
    SingularOperator,
)
from .kernels import BoundaryKind, DIRICHLET, GeometryParams, NEUMANN, ThermalParams
from .correlators import (
    CorrelationResult,
    PhysicalPoint,
    correlation_boundary_neumann,
    correlation_ground,
    correlation_static,
    correlation_thermal,
    density_of_temperature,
    static_ground_K,
)
from .special_integrals import RegularizationPolicy

__version__ = "0.1.0"
