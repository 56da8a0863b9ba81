"""Nystrom discretization of integral operators: determinants, resolvents,
rank-one perturbation derivatives, and first Fredholm minors.

Each evaluation factorises I - scale*K-hat once (LU with partial
pivoting); the determinant, the condition guard and the resolvent solves
all come from those factors."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .errors import ExtrapolationWarning, InvalidGrid, NumericalFailure, SingularOperator
from .special_integrals import gauss_legendre

COND_LIMIT = 1e12


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre nodes/weights on an interval.

    For semi-infinite thermal domains the interval is the truncated [0, cut];
    `truncation` records the cut (0.0 for genuinely finite domains).
    """

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float
    truncation: float = 0.0

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidGrid("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise InvalidGrid("weights must be positive")
        if abs(float(np.sum(self.weights)) - (self.b - self.a)) > 1e-12 * max(1.0, self.b - self.a):
            raise InvalidGrid("weights do not sum to the domain length")

    @property
    def n(self):
        return len(self.nodes)


def thermal_cut(h, T, tol=1e-14):
    """Truncation of [0, inf) justified by the Fermi-weight decay."""
    return math.sqrt(h + T * math.log(1.0 / tol))


def build_grid(domain, n, thermal=None, tol=1e-14):
    """Gauss-Legendre quadrature on `domain`.

    domain is (a, b) with finite endpoints, or (0, math.inf) for the
    semi-infinite thermal domain, truncated at thermal_cut(h, T, tol=tol)
    taken from `thermal` (a ThermalParams).
    """
    if n < 2:
        raise InvalidGrid(f"need at least 2 nodes, got {n}")
    a, b = domain
    truncation = 0.0
    if math.isinf(b):
        if thermal is None:
            raise InvalidGrid("semi-infinite domain needs thermal parameters")
        b = thermal_cut(thermal.h, thermal.T, tol=tol)
        truncation = b
    if not (a < b):
        raise InvalidGrid(f"empty domain [{a}, {b}]")
    x, w = gauss_legendre(n)
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    return Quadrature(nodes=nodes, weights=weights, a=a, b=b, truncation=truncation)


@dataclass
class DiscretizedOperator:
    """Dense Nystrom image of scale * K-hat with an optional pointwise weight.

    The operator acts as (K f)(lam) = int kernel(lam, mu) weight(mu) f(mu) dmu;
    `matrix` holds kernel values at the nodes, `weight_values` the weight at
    the nodes.  `kernel` (vectorized over meshgrids) is kept for off-grid
    Nystrom evaluation; `weight_fn` likewise.
    """

    quadrature: Quadrature
    matrix: np.ndarray
    scale: float
    kernel: object = None
    weight_fn: object = None
    weight_values: np.ndarray = None

    def __post_init__(self):
        if self.matrix.shape != (self.quadrature.n, self.quadrature.n):
            raise InvalidGrid("matrix dimension must equal node count")
        if not np.all(np.isfinite(self.matrix)):
            raise NumericalFailure("non-finite kernel entries")
        if self.weight_values is None:
            if self.weight_fn is not None:
                self.weight_values = np.asarray(self.weight_fn(self.quadrature.nodes), dtype=float)
            else:
                self.weight_values = np.ones(self.quadrature.n)

    @classmethod
    def from_kernel(cls, kernel, quadrature, scale, weight_fn=None):
        lam = quadrature.nodes
        mat = np.asarray(kernel(lam[:, None], lam[None, :]), dtype=complex)
        return cls(quadrature=quadrature, matrix=mat, scale=scale,
                   kernel=kernel, weight_fn=weight_fn)

    def effective_weights(self):
        return self.quadrature.weights * self.weight_values

    def id_minus(self):
        """I - scale * K * diag(effective weights)."""
        mat = self.matrix * (-self.scale * self.effective_weights())
        mat.flat[::self.quadrature.n + 1] += 1.0
        return mat


def _factor(op):
    """The one LU factorisation of I - scale*K-hat: (lu, piv), the matrix
    and its determinant (the product of U's diagonal, signed by the parity
    of the row interchanges)."""
    mat = op.id_minus()
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure("non-finite entries in determinant matrix")
    lu, piv = lu_factor(mat, check_finite=False)
    swaps = np.count_nonzero(piv != np.arange(len(piv)))
    det = complex((-1.0) ** swaps * lu.diagonal().prod())
    return (lu, piv), mat, det


def _solve(factors, mat, rhs):
    """Solve mat u = rhs from its LU factors (one refinement step).

    SingularOperator guard: LAPACK gecon estimates rcond = 1/cond_1 from
    the factors (Higham's estimator, ACM TOMS 14 (1988) 381), and
    cond_2 <= n*cond_1, so refusing n/rcond > COND_LIMIT refuses every
    system with cond_2 > COND_LIMIT whenever the estimate of cond_1 is
    within a factor n of the true value (it never exceeds it, and is
    usually within a small factor).
    """
    lu = factors[0]
    gecon, = get_lapack_funcs(("gecon",), (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(mat, 1))
    n = len(mat)
    if not rcond * COND_LIMIT >= n:
        raise SingularOperator(f"resolvent system rcond estimate {rcond:.3e} is below "
                               f"n/{COND_LIMIT:.0e} = {n / COND_LIMIT:.1e}")
    rhs = np.asarray(rhs, dtype=complex)
    u = lu_solve(factors, rhs, check_finite=False)
    u += lu_solve(factors, rhs - mat @ u, check_finite=False)
    return u


def fredholm_det(op):
    """det(I - scale*K-hat) on the grid, from the LU factors of I - scale*K*W."""
    return _factor(op)[2]


@dataclass(frozen=True)
class RankOnePerturbation:
    """alpha * eps * f(lam) g(mu) perturbation sampled at the nodes.

    Only the alpha-derivative at 0 is ever used.
    """

    f_values: np.ndarray
    g_values: np.ndarray
    sign: int = 1

    def __post_init__(self):
        if len(self.f_values) != len(self.g_values):
            raise InvalidGrid("perturbation vectors must have equal length")


def det_with_rank_one_derivative(op, pert):
    """(det, d/dalpha det(I - scale*K - alpha*eps*f g^T)|_0).

    The derivative reduces to -det * eps * <g, (I - scale K)^{-1} f>_w by one
    resolvent solve.
    """
    if len(pert.f_values) != op.quadrature.n:
        raise InvalidGrid("perturbation length does not match grid")
    factors, mat, det = _factor(op)
    u = _solve(factors, mat, pert.f_values)
    w = op.effective_weights()
    inner = np.sum(w * pert.g_values * u)
    return det, -det * pert.sign * inner


def fredholm_minor_first(op, xi, eta):
    """First Fredholm minor of (I - scale*K-hat) pinned at row xi, column eta.

    Solves the resolvent-type equation
        D(z) - scale * int K(z, s) w(s) D(s) ds = -scale * K(z, eta) w(eta)
    on the grid and Nystrom-interpolates to z = xi.  Returns det * D(xi).
    """
    if op.kernel is None:
        raise NumericalFailure("operator carries no kernel function for off-grid evaluation")
    quad = op.quadrature
    margin = 0.05 * (quad.b - quad.a)
    for z in (xi, eta):
        if z < quad.a - margin or z > quad.b + margin:
            warnings.warn(f"minor pinned at {z} outside operator domain [{quad.a}, {quad.b}]",
                          ExtrapolationWarning)

    def kcol(z):
        vals = np.asarray(op.kernel(np.asarray(z, dtype=float)[:, None],
                                    np.asarray([eta])[None, :]), dtype=complex)[:, 0]
        if op.weight_fn is not None:
            vals = vals * op.weight_fn(np.asarray([eta]))[0]
        return vals

    factors, mat, det = _factor(op)
    d_nodes = _solve(factors, mat, -op.scale * kcol(quad.nodes))
    # natural Nystrom interpolation off the grid
    krow = np.asarray(op.kernel(np.asarray([xi])[:, None], quad.nodes[None, :]), dtype=complex)[0]
    w = op.effective_weights()
    d_xi = -op.scale * kcol(np.asarray([xi]))[0] + op.scale * np.sum(w * krow * d_nodes)
    return det * d_xi
