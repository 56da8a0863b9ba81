"""User-facing correlation evaluators assembled from the kernel layer.

correlation_ground / correlation_thermal implement the dynamical Fredholm
determinant representations; correlation_boundary_neumann the x1=0 route
through the integrable-system matrix b; correlation_static and
static_ground_K the equal-time first-minor representations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, InvalidParameter
from .fredholm import (
    DiscretizedOperator,
    RankOnePerturbation,
    build_grid,
    det_with_rank_one_derivative,
    fredholm_det,
    fredholm_minor_first,
)
from .kernels import (
    BoundaryKind,
    GeometryParams,
    ThermalParams,
    dynamical_nystrom,
    kernel_K_static,
    kernel_theta,
    kernel_W,
    spectral_grid,
)
from .special_integrals import gaussian_fresnel


@dataclass(frozen=True)
class PhysicalPoint:
    """Evaluation point of a dynamical correlator.

    The ensemble is the thermal one when thermal.T > 0; at T = 0 the density
    D > 0 must be given and the Fermi momentum is q = pi*D.  thermal.h only
    enters the T = 0 value through the phase exp(-i*h*t).
    """

    x1: float
    x2: float
    t: float
    kind: BoundaryKind
    thermal: ThermalParams
    D: float = 0.0

    def __post_init__(self):
        if self.x1 < 0 or self.x2 < 0:
            raise InvalidParameter("positions must be nonnegative")
        if self.thermal.T == 0.0 and self.D <= 0.0:
            raise InvalidParameter("T = 0 requires a positive density D")

    @property
    def q(self):
        return math.pi * self.D


@dataclass(frozen=True)
class CorrelationResult:
    """Correlator value with its determinant/derivative parts.

    value = exp(-i*h*t) * ((G(x1-x2) + eps*G(x1+x2)) * det_part
                           + derivative_part / (2*pi))
    error_estimate is the node-doubling delta |value(n) - value(n/2)|.
    """

    value: complex
    det_part: complex
    derivative_part: complex
    grid_size: int
    truncation: float
    error_estimate: float


def density_of_temperature(p, n=400):
    """D(T) = (1/pi) * integral of the Fermi weight over [0, inf); at T = 0
    the closed form sqrt(h)/pi."""
    if p.T == 0.0:
        return math.sqrt(p.h) / math.pi
    quad, weight_fn = spectral_grid(p, math.sqrt(p.h), n)
    return float(np.sum(quad.weights * weight_fn(quad.nodes)) / math.pi)


def _assemble(pt, m, tol):
    """(value, det, deriv, truncation) on m nodes of the point's spectral grid."""
    quad, weight_fn = spectral_grid(pt.thermal, pt.q, m, tol=tol)
    mat, f, g = dynamical_nystrom(quad.nodes, pt.kind, GeometryParams(pt.x1, pt.x2, pt.t))
    op = DiscretizedOperator(quadrature=quad, matrix=mat, scale=2.0 / math.pi,
                             weight_fn=weight_fn)
    pert = RankOnePerturbation(f_values=f, g_values=g, sign=pt.kind.eps)
    det, deriv = det_with_rank_one_derivative(op, pert)
    eps = pt.kind.eps
    # DegenerateDelta propagates at coincident equal-time points
    gsum = gaussian_fresnel(pt.x1 - pt.x2, pt.t) + eps * gaussian_fresnel(pt.x1 + pt.x2, pt.t)
    phase = np.exp(-1j * pt.thermal.h * pt.t)
    value = phase * (gsum * det + deriv / (2.0 * math.pi))
    return complex(value), complex(det), complex(deriv), quad.truncation


def _correlation(pt, n, with_error, tol=1e-14):
    if with_error:
        half = _assemble(pt, max(8, n // 2), tol)
        full = _assemble(pt, n, tol)
        err = abs(full[0] - half[0])
    else:
        full = _assemble(pt, n, tol)
        err = float("nan")
    value, det, deriv, truncation = full
    return CorrelationResult(value=value, det_part=det, derivative_part=deriv,
                             grid_size=n, truncation=truncation, error_estimate=err)


def correlation_ground(pt, n=64, with_error=True):
    """Ground-state dynamical correlator (T = 0, Fermi sphere [0, pi*D])."""
    if pt.thermal.T != 0.0:
        raise InvalidParameter("correlation_ground requires T = 0")
    return _correlation(pt, n, with_error)


def correlation_thermal(pt, n=64, with_error=True, tol=1e-14):
    """Finite-temperature dynamical correlator on the truncated half line.

    The Fermi weight enters as the operator weight, i.e. the determinant of
    the sqrt(theta)-conjugated symmetric kernel.  `tol` sets the domain
    truncation through the Fermi-weight decay bound.  T = 0 is
    correlation_ground's and raises InvalidParameter.
    """
    if pt.thermal.T == 0.0:
        raise InvalidParameter("correlation_thermal requires T > 0")
    return _correlation(pt, n, with_error, tol)


def boundary_w_det(x, t, pt, n=64):
    """det(1 - (2/pi) W-hat) for the x1 = 0 Neumann route.

    W on the point's spectral grid: [0, q] at T = 0, Fermi-weighted on the
    truncated half line at T > 0.  Independent of t at fixed x.
    """
    quad, weight_fn = spectral_grid(pt.thermal, pt.q, n)
    op = DiscretizedOperator.from_kernel(
        lambda a, b: kernel_W(a, b, x).astype(complex), quad, 2.0 / math.pi,
        weight_fn=weight_fn)
    return fredholm_det(op)


def correlation_boundary_neumann(x, t, pt, n=64, n_spectral=None, w_det=None):
    """x1 = 0 Neumann correlator: 2 exp(-i h t) det(1 - (2/pi) W-hat) * b_14.

    b_14 is evaluated at the four-point configuration (0, 0, -x, x; 0, 0, t, t)
    by the integrable-system module, over [-q, q] (T = 0) or the weighted
    line (T > 0); at this configuration every whole-line integral of b has
    a closed form, so no line grid and no damping enter.  w_det is
    boundary_w_det(x, ., pt, n) when the caller already has it (it does not
    depend on t, so a time scan computes it once per x).
    """
    from .nls_system import FourPointConfig, build_b

    if pt.kind.eps != 1:
        raise InvalidParameter("boundary route is Neumann-only")
    det = boundary_w_det(x, t, pt, n=n) if w_det is None else w_det
    cfg = FourPointConfig.correlation(0.0, x, t)
    mats = build_b(cfg, ensemble=pt, n=n_spectral or n)
    phase = np.exp(-1j * pt.thermal.h * t)
    return complex(2.0 * phase * det * mats.b[0, 3])


def correlation_static(x1, x2, kind, p, n=64):
    """Equal-time correlator as a first Fredholm minor.

    Computed as -(1/2) * minor of (1 - (2/pi) theta-hat) over [min(x1,x2),
    max(x1,x2)], pinned at (row x2, column x1).  The sign and interval are
    fixed by matching the t -> 0 limit of the dynamical representation.
    """
    lo, hi = min(x1, x2), max(x1, x2)
    if hi - lo < 1e-12:
        return complex(kernel_theta(x2, x1, kind, p) / math.pi)
    op = DiscretizedOperator.from_kernel(
        lambda a, b: kernel_theta(a, b, kind, p).astype(complex),
        build_grid((lo, hi), n), 2.0 / math.pi)
    return complex(-0.5 * fredholm_minor_first(op, x2, x1))


def static_ground_K(x1, x2, kind, momentum, n=64):
    """Ground-state first-minor formula with the static sine kernel on [x1, x2].

    `momentum` is the sine frequency of the kernel.  This keeps the printed
    (1/2)*minor normalization; tests compare it against correlation_static,
    whose sign is pinned by the dynamical t -> 0 limit.
    """
    if not (0 <= x1 <= x2):
        raise InvalidGrid("need 0 <= x1 <= x2")
    if momentum <= 0:
        raise InvalidParameter("momentum must be positive")
    if x2 - x1 < 1e-12:
        return complex(-(1.0 / math.pi) * kernel_K_static(x2, x1, kind, momentum))
    quad = build_grid((x1, x2), n)
    op = DiscretizedOperator.from_kernel(
        lambda a, b: kernel_K_static(a, b, kind, momentum).astype(complex),
        quad, 2.0 / math.pi)
    return complex(0.5 * fredholm_minor_first(op, x2, x1))
