"""Integral kernels and weight functions of the correlator formulas.

All kernels are expressed through the closed-form Gaussian-Fresnel
primitives of special_integrals and broadcast over their arguments, so a
Nystrom matrix is one call on an (n, 1) x (1, n) mesh; diagonals are
analytic limits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .fredholm import thermal_cut
from .special_integrals import (
    fresnel_kink_integral,
    gauss_panels,
    pv_fresnel_hilbert,
    pv_fresnel_hilbert_dlam,
)


@dataclass(frozen=True)
class BoundaryKind:
    """Wall type selector: eps=+1 reflecting (Neumann), eps=-1 absorbing (Dirichlet)."""

    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


NEUMANN = BoundaryKind(+1)
DIRICHLET = BoundaryKind(-1)


@dataclass(frozen=True)
class ThermalParams:
    """Chemical potential h > 0 and temperature T >= 0."""

    h: float
    T: float

    def __post_init__(self):
        if self.h <= 0:
            raise InvalidParameter("chemical potential h must be positive")
        if self.T < 0:
            raise InvalidParameter("temperature T must be nonnegative")


@dataclass(frozen=True)
class GeometryParams:
    """Positions x1, x2 >= 0 and time t."""

    x1: float
    x2: float
    t: float

    def __post_init__(self):
        if self.x1 < 0 or self.x2 < 0:
            raise InvalidParameter("positions must be nonnegative")


def fermi_weight(lam, p):
    """Thermal occupation 1/(1 + exp((lam^2 - h)/T)).

    At T = 0: indicator of lam^2 < h (1/2 exactly on the Fermi surface).
    Broadcasts over lam.
    """
    lam = np.asarray(lam, dtype=float)
    if p.T == 0.0:
        out = np.where(lam * lam < p.h, 1.0, np.where(lam * lam > p.h, 0.0, 0.5))
    else:
        out = 1.0 / (1.0 + np.exp(np.clip((lam * lam - p.h) / p.T, -700.0, 700.0)))
    return out if np.ndim(out) else float(out)


def _sinc(x, u):
    """sin(x*u)/u with the removable u = 0 limit."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-9
    safe = np.where(small, 1.0, u)
    out = np.where(small, x * np.cos(x * u), np.sin(x * safe) / safe)
    return out if np.ndim(out) else float(out)


def _pv_terms(lam, mu, x1, x2):
    """(sign, X, e^{i phi}) of the four Gaussian Hilbert terms of kernel_L.

    PV int (1/(s-mu) - 1/(s-lam)) e^{its^2} sin((s-mu)x1) sin((s-lam)x2) ds,
    via sinA sinB = (e^{i(A-B)} + e^{-i(A-B)} - e^{i(A+B)} - e^{-i(A+B)})/4,
    is the sum of sign/4 e^{i phi} (H(mu, -X) - H(lam, -X)).  Each phase
    phi = +-x1 mu +- x2 lam separates, so e^{i phi} is a product of the
    node-vector exponentials e^{i x2 lam} and e^{i x1 mu} or their conjugates.
    """
    el = np.exp(1j * x2 * lam)
    em = np.exp(1j * x1 * mu)
    return ((+1.0, x1 - x2, el * em.conj()),
            (+1.0, x2 - x1, el.conj() * em),
            (-1.0, x1 + x2, el.conj() * em.conj()),
            (-1.0, -x1 - x2, el * em))


def kernel_L(lam, mu, g):
    """Dynamical two-position kernel L(lam, mu); broadcasts over lam/mu.

    For t != 0 the principal-value part is expanded (product-to-sum on the
    two sines) into four Gaussian Hilbert transforms.  lam and mu enter each
    of them separately, so pv_fresnel_hilbert runs once on each of the lam
    and mu arrays, broadcast over the four shifts: an (n, 1) x (1, n) mesh
    costs 8n points, not n^2 per term.  The phases and the gauge factor
    exp(-it(lam^2 + mu^2)/2) are products of node-vector exponentials too.
    At t = 0 the damped regularization collapses to
    [sin(xmax*d) - sin(xmin*d)]/d, d = lam - mu.  Entries with
    |d| < 1e-12 take the analytic diagonal kernel_L_diag; for t != 0,
    entries with 1e-12 <= |d| < 1e-6 take each difference quotient of H as
    the derivative at the midpoint (_kernel_L_near_diag).  Scalar inputs
    give a complex.
    """
    x1, x2, t = g.x1, g.x2, g.t
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d = lam - mu
    diag = np.abs(d) < 1e-12
    near = ~diag & (np.abs(d) < 1e-6)
    d = np.where(diag, 1.0, d)
    if t == 0.0:
        xm, xM = min(x1, x2), max(x1, x2)
        out = (np.sin(xM * d) - np.sin(xm * d)) / d
    else:
        brace = (np.exp(1j * t * lam * lam) * np.sin(x1 * d)
                 + np.exp(1j * t * mu * mu) * np.sin(x2 * d))
        terms = _pv_terms(lam, mu, x1, x2)
        minus_X = -np.array([X for _, X, _ in terms])
        h_mu = pv_fresnel_hilbert(mu[..., None], minus_X, t)
        h_lam = pv_fresnel_hilbert(lam[..., None], minus_X, t)
        pv = 0.0j
        for k, (sgn, _, phase) in enumerate(terms):
            pv = pv + sgn * 0.25 * phase * (h_mu[..., k] - h_lam[..., k])
        gauge = np.exp(-0.5j * t * lam * lam) * np.exp(-0.5j * t * mu * mu)
        out = gauge * (brace + (2.0 / math.pi) * pv) / d
    out = np.asarray(out, dtype=complex)
    if np.any(diag):
        out[diag] = kernel_L_diag(np.broadcast_to(lam, diag.shape)[diag], g)
    if t != 0.0 and np.any(near):
        out[near] = _kernel_L_near_diag(np.broadcast_to(lam, near.shape)[near],
                                        np.broadcast_to(mu, near.shape)[near], g)
    return out if np.ndim(out) else complex(out)


def _kernel_L_near_diag(lam, mu, g):
    """kernel_L (t != 0) at 1e-12 <= |lam - mu| < 1e-6, on node vectors.

    (H(mu) - H(lam))/(lam - mu) there loses about 1e-16/|lam - mu| to
    cancellation; -H'((lam + mu)/2) equals it up to O((lam - mu)^2).
    """
    x1, x2, t = g.x1, g.x2, g.t
    d = lam - mu
    mid = 0.5 * (lam + mu)
    brace = (np.exp(1j * t * lam * lam) * np.sin(x1 * d)
             + np.exp(1j * t * mu * mu) * np.sin(x2 * d)) / d
    pv = 0.0j
    for sgn, X, phase in _pv_terms(lam, mu, x1, x2):
        pv = pv - sgn * 0.25 * phase * pv_fresnel_hilbert_dlam(mid, -X, t)
    return np.exp(-0.5j * t * (lam * lam + mu * mu)) * (brace + (2.0 / math.pi) * pv)


def kernel_L_diag(lam, g):
    """Analytic limit of kernel_L on the diagonal; broadcasts over lam.

    L(lam, lam) = x1 + x2 - (2/pi) e^{-i t lam^2} *
                  (J(x1+x2) - J(|x1-x2|))/2
    with J the Gaussian kink integral; at t = 0 this is |x1 - x2|.
    """
    x1, x2, t = g.x1, g.x2, g.t
    lam = np.asarray(lam, dtype=float)
    if t == 0.0:
        out = np.full(lam.shape, abs(x1 - x2), dtype=complex)
    else:
        jplus = fresnel_kink_integral(x1 + x2, lam, t)
        jminus = fresnel_kink_integral(abs(x1 - x2), lam, t)
        out = (x1 + x2) - (1.0 / math.pi) * np.exp(-1j * t * lam * lam) * (jplus - jminus)
    return out if np.ndim(out) else complex(out)


def kernel_P(lam, x1, x2, t):
    """One-variable kernel P(lam | x1, x2) (two Gaussian Hilbert transforms).

    At t = 0 the regularized value is sign(x1 - x2) * exp(-i*x1*lam).
    Broadcasts over lam.
    """
    lam = np.asarray(lam, dtype=float)
    term = np.exp(1j * t * lam * lam - 1j * x1 * lam)
    pv = (1.0 / 2j) * (np.exp(-1j * x2 * lam) * pv_fresnel_hilbert(lam, x1 - x2, t)
                       - np.exp(1j * x2 * lam) * pv_fresnel_hilbert(lam, x1 + x2, t))
    out = np.exp(-0.5j * t * lam * lam) * (term - (2.0 / math.pi) * pv)
    return out if np.ndim(out) else complex(out)


def kernel_V(lam, mu, kind, g):
    """Boundary-summed kernel V_eps(lam, mu) = L(lam, mu) + eps*L(lam, -mu).

    Broadcasts over lam/mu like kernel_L.
    """
    return kernel_L(lam, mu, g) + kind.eps * kernel_L(lam, -mu, g)


def rank_one_factors(kind, g):
    """One-variable factors (f, g_fn) with A_eps(lam, mu) = eps*f(lam)*g_fn(mu).

    f(lam) = P(lam|x1,x2) + eps*P(-lam|x1,x2), g_fn from the swapped
    position pair.
    """
    eps = kind.eps
    x1, x2, t = g.x1, g.x2, g.t

    def f(lam):
        return kernel_P(lam, x1, x2, t) + eps * kernel_P(-np.asarray(lam, dtype=float), x1, x2, t)

    def g_fn(mu):
        return kernel_P(mu, x2, x1, t) + eps * kernel_P(-np.asarray(mu, dtype=float), x2, x1, t)

    return f, g_fn


def kernel_W(lam, mu, x):
    """Static symmetric sine kernel sin(x(l-m))/(l-m) + sin(x(l+m))/(l+m).

    Diagonals are the analytic limits: W(l, l) = x + sin(2xl)/(2l),
    W(0, 0) = 2x.  Broadcasts over arrays.
    """
    return _sinc(x, np.asarray(lam) - np.asarray(mu)) + _sinc(x, np.asarray(lam) + np.asarray(mu))


def kernel_theta(xi, eta, kind, p, n_panels=60):
    """Thermal position-space kernel: cosine transform of the Fermi weight.

    theta(xi, eta) = int_0^inf fermi(nu) [cos((xi-eta)nu) + eps cos((xi+eta)nu)] dnu.
    At T = 0 this closes to the static sine kernel with momentum sqrt(h).
    Broadcasts over xi/eta (they must broadcast together).

    For T > 0 the bracket is 2 cos(xi nu) cos(eta nu) (Neumann) or
    2 sin(xi nu) sin(eta nu) (Dirichlet), so the nu-quadrature is a product
    of factors evaluated on xi and eta separately: an (n, 1) x (1, n) mesh
    costs O(n m) trig calls for m nodes, not n^2 m.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if p.T == 0.0:
        out = kernel_K_static(xi, eta, kind, math.sqrt(p.h))
        return out
    cut = thermal_cut(p.h, p.T)
    nu, w = gauss_panels(0.0, cut, n_panels)
    trig = np.cos if kind.eps > 0 else np.sin
    out = np.einsum("...k,...k->...", trig(xi[..., None] * nu) * (2.0 * fermi_weight(nu, p) * w),
                    trig(eta[..., None] * nu))
    return out if np.ndim(out) else float(out)


def kernel_K_static(xi, eta, kind, momentum):
    """Ground-state sine kernel sin(q(xi-eta))/(xi-eta) + eps*(xi+eta term).

    `momentum` is the sine frequency q (the Fermi momentum pi*density).
    Diagonals by the analytic limits as in kernel_W.
    """
    out = (_sinc(momentum, np.asarray(xi) - np.asarray(eta))
           + kind.eps * _sinc(momentum, np.asarray(xi) + np.asarray(eta)))
    return out if np.ndim(out) else float(out)
