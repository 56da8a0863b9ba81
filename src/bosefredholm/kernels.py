"""Integral kernels and weight functions of the correlator formulas.

All kernels are expressed through the closed-form Gaussian-Fresnel
primitives of special_integrals and broadcast over their arguments, so a
Nystrom matrix is one call on an (n, 1) x (1, n) mesh; diagonals are
analytic limits.  The dynamical route's matrix and rank-one factors come
from dynamical_nystrom: one Hilbert table and one separable product, with
the broadcast kernel_L recipe kept for the entries near lam = +-mu.
spectral_grid is the ensemble's spectral measure: the one place that picks
the Fermi sea or the Fermi-weighted line.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .fredholm import build_grid, thermal_cut
from .special_integrals import (
    NEAR_DIAGONAL,
    fresnel_kink_integral,
    gauss_panels,
    hilbert_mean_slope,
    pv_fresnel_hilbert,
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


def spectral_grid(p, q, n, tol=1e-14, whole_line=False):
    """(Quadrature, weight_fn) of the ensemble's spectral measure on n nodes.

    T = 0: the Fermi sea [0, q] with unit weight (weight_fn None); T > 0:
    [0, thermal_cut(h, T, tol)] with the Fermi weight.  whole_line takes the
    symmetric domain, [-q, q] or [-cut, cut].
    """
    if p.T == 0.0:
        return build_grid((-q if whole_line else 0.0, q), n), None
    if whole_line:
        cut = thermal_cut(p.h, p.T, tol)
        quad = build_grid((-cut, cut), n)
    else:
        quad = build_grid((0.0, math.inf), n, thermal=p, tol=tol)
    return quad, lambda lam: fermi_weight(lam, p)


def _sinc(x, u):
    """sin(x*u)/u with the removable u = 0 limit."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-9
    safe = np.where(small, 1.0, u)
    out = np.where(small, x * np.cos(x * u), np.sin(x * safe) / safe)
    return out if np.ndim(out) else float(out)


def _hilbert_shifts(x1, x2):
    """The shifts y of the four Gaussian Hilbert terms H(., y) of kernel_L,
    in _pv_terms order; the rank-one factors read H at the same four."""
    return np.array([x2 - x1, x1 - x2, -x1 - x2, x1 + x2])


def _pv_terms(lam, mu, x1, x2):
    """(sign, e^{i a(lam)}, e^{i b(mu)}) of the four Gaussian Hilbert terms
    of kernel_L, in the order of _hilbert_shifts.

    PV int (1/(s-mu) - 1/(s-lam)) e^{its^2} sin((s-mu)x1) sin((s-lam)x2) ds,
    via sinA sinB = (e^{i(A-B)} + e^{-i(A-B)} - e^{i(A+B)} - e^{-i(A+B)})/4,
    is the sum over k of sign/4 e^{i a(lam)} e^{i b(mu)} (H(mu, y_k) -
    H(lam, y_k)).  Each phase a(lam) + b(mu) = +-x2 lam +- x1 mu separates,
    so its factors are the node-vector exponentials e^{i x2 lam} and
    e^{i x1 mu} or their conjugates.
    """
    el = np.exp(1j * x2 * lam)
    em = np.exp(1j * x1 * mu)
    return ((+1.0, el, em.conj()),
            (+1.0, el.conj(), em),
            (-1.0, el.conj(), em.conj()),
            (-1.0, el, em))


def kernel_L(lam, mu, g):
    """Dynamical two-position kernel L(lam, mu); broadcasts over lam/mu.

    For t != 0 the principal-value part is expanded (product-to-sum on the
    two sines) into four Gaussian Hilbert transforms.  lam and mu enter each
    of them separately, so pv_fresnel_hilbert runs once on each of the lam
    and mu arrays, broadcast over the four shifts: an (n, 1) x (1, n) mesh
    costs 8n points, not n^2 per term.  The entries then follow
    _kernel_L_entries.  At t = 0 the damped regularization collapses to
    [sin(xmax*d) - sin(xmin*d)]/d, d = lam - mu, with the diagonal
    |x1 - x2|.  Scalar inputs give a complex.
    """
    x1, x2, t = g.x1, g.x2, g.t
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if t == 0.0:
        d = lam - mu
        diag = np.abs(d) < 1e-12
        d = np.where(diag, 1.0, d)
        xm, xM = min(x1, x2), max(x1, x2)
        out = np.asarray((np.sin(xM * d) - np.sin(xm * d)) / d, dtype=complex)
        out[diag] = abs(x1 - x2)
    else:
        ys = _hilbert_shifts(x1, x2)
        out = _kernel_L_entries(lam, mu, pv_fresnel_hilbert(lam[..., None], ys, t),
                                pv_fresnel_hilbert(mu[..., None], ys, t), g)
    return out if np.ndim(out) else complex(out)


def _kernel_L_entries(lam, mu, h_lam, h_mu, g):
    """kernel_L (t != 0) entry by entry, from H(lam, y_k) and H(mu, y_k)
    (last axis in _hilbert_shifts order); broadcasts over lam/mu.

    gauge * (brace + (2/pi) pv) / (lam - mu) with the brace's sines taken
    at lam - mu.  Entries with |lam - mu| < 1e-12 take the analytic
    diagonal kernel_L_diag; entries with 1e-12 <= |lam - mu| < NEAR_DIAGONAL
    take each difference quotient of H as the mean of H' over [mu, lam]
    (hilbert_mean_slope).
    """
    x1, x2, t = g.x1, g.x2, g.t
    d = lam - mu
    diag = np.abs(d) < 1e-12
    near = ~diag & (np.abs(d) < NEAR_DIAGONAL)
    d = np.where(diag, 1.0, d)
    brace = (np.exp(1j * t * lam * lam) * np.sin(x1 * d)
             + np.exp(1j * t * mu * mu) * np.sin(x2 * d))
    pv = 0.0j
    for k, (sgn, lp, mp) in enumerate(_pv_terms(lam, mu, x1, x2)):
        pv = pv + sgn * 0.25 * (lp * mp) * (h_mu[..., k] - h_lam[..., k])
    gauge = np.exp(-0.5j * t * lam * lam) * np.exp(-0.5j * t * mu * mu)
    out = np.asarray(gauge * (brace + (2.0 / math.pi) * pv) / d, dtype=complex)
    if np.any(diag):
        out[diag] = kernel_L_diag(np.broadcast_to(lam, diag.shape)[diag], g)
    if np.any(near):
        # (H(mu) - H(lam))/(lam - mu) is minus the mean of H' over [mu, lam]
        lam, mu = (np.broadcast_to(v, near.shape)[near] for v in (lam, mu))
        d = lam - mu
        brace = (np.exp(1j * t * lam * lam) * np.sin(x1 * d)
                 + np.exp(1j * t * mu * mu) * np.sin(x2 * d)) / d
        pv = 0.0j
        for (sgn, lp, mp), y in zip(_pv_terms(lam, mu, x1, x2), _hilbert_shifts(x1, x2)):
            pv = pv - sgn * 0.25 * (lp * mp) * hilbert_mean_slope(lam, mu, y, t)
        out[near] = np.exp(-0.5j * t * (lam * lam + mu * mu)) * (brace + (2.0 / math.pi) * pv)
    return out


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
        kink = fresnel_kink_integral(x1 + x2, lam, t, c=abs(x1 - x2))
        out = (x1 + x2) - (1.0 / math.pi) * np.exp(-1j * t * lam * lam) * kink
    return out if np.ndim(out) else complex(out)


def kernel_V(lam, mu, kind, g):
    """Boundary-summed kernel V_eps(lam, mu) = L(lam, mu) + eps*L(lam, -mu).

    Broadcasts over lam/mu like kernel_L.
    """
    return kernel_L(lam, mu, g) + kind.eps * kernel_L(lam, -mu, g)


def _kernel_P(lam, x1, x2, t, h_minus, h_plus):
    """One-variable kernel P(lam | x1, x2) from H(lam, x1 - x2) and
    H(lam, x1 + x2) (two Gaussian Hilbert transforms); at t = 0 the
    regularized value is sign(x1 - x2) * exp(-i*x1*lam)."""
    term = np.exp(1j * t * lam * lam - 1j * x1 * lam)
    pv = (1.0 / 2j) * (np.exp(-1j * x2 * lam) * h_minus - np.exp(1j * x2 * lam) * h_plus)
    return np.exp(-0.5j * t * lam * lam) * (term - (2.0 / math.pi) * pv)


# |lam -+ mu| below which dynamical_nystrom takes kernel_L's entry recipe:
# dividing the separable numerator by lam -+ mu amplifies the rounding of
# its 12-term sum by 1/|lam -+ mu| (against kernel_L, at most 7e-13
# relative for |lam - mu| in [1e-3, 1e-2) and 6e-14 in [1e-2, 1e-1))
NYSTROM_BAND = 1e-2


def dynamical_nystrom(nodes, kind, g):
    """Nystrom data (V, f, gv) of the dynamical route on a node vector.

    V[i, j] = kernel_V(nodes[i], nodes[j], kind, g).  f and gv are the
    rank-one factors of A_eps(lam, mu) = eps*f(lam)*gv(mu) at the nodes:
    f(lam) = P(lam|x1,x2) + eps*P(-lam|x1,x2) and gv from the swapped
    position pair.

    One table H(+-nodes, y_k) of pv_fresnel_hilbert (8n points) serves all
    three.  For t != 0 the numerator gauge * (brace + (2/pi) pv) of
    kernel_L is a sum of 12 separable terms (_separable_numerator), so one
    (n, 12) @ (12, 2n) product gives the numerators of L(lam, mu) and
    L(lam, -mu) before the division by lam -+ mu.  Entries with
    |lam -+ mu| < NYSTROM_BAND take _kernel_L_entries with H gathered from
    the table.  At t = 0, V is kernel_V's closed form.
    """
    eps = kind.eps
    x1, x2, t = g.x1, g.x2, g.t
    lam = np.asarray(nodes, dtype=float)
    n = len(lam)
    pts = np.concatenate([lam, -lam])
    table = pv_fresnel_hilbert(pts[:, None], _hilbert_shifts(x1, x2), t)
    p12 = _kernel_P(pts, x1, x2, t, table[:, 1], table[:, 3])
    p21 = _kernel_P(pts, x2, x1, t, table[:, 0], table[:, 3])
    f = p12[:n] + eps * p12[n:]
    gv = p21[:n] + eps * p21[n:]
    if t == 0.0:
        return kernel_V(lam[:, None], lam[None, :], kind, g), f, gv
    a, b = _separable_numerator(lam, table[:n], pts, table, g)
    d = lam[:, None] - pts[None, :]
    rows, cols = np.nonzero(np.abs(d) < NYSTROM_BAND)
    d[rows, cols] = 1.0
    mat = (a @ b) / d
    mat[rows, cols] = _kernel_L_entries(lam[rows], pts[cols], table[rows], table[cols], g)
    return mat[:, :n] + eps * mat[:, n:], f, gv


def _separable_numerator(lam, h_lam, mu, h_mu, g):
    """Factors (a, b) with a @ b = gauge * (brace + (2/pi) pv), the
    numerator of kernel_L (t != 0) on the lam x mu mesh of two node vectors
    whose H(., y_k) rows are h_lam and h_mu.

    The brace gives 4 terms through sin(x(lam - mu)) = (e^{ix lam}
    e^{-ix mu} - e^{-ix lam} e^{ix mu})/2i, and each of the 4 H differences
    of _pv_terms gives 2; the gauge e^{-it lam^2/2} e^{-it mu^2/2} scales
    the rows of a and the columns of b.
    """
    x1, x2, t = g.x1, g.x2, g.t
    chirp_lam = np.exp(1j * t * lam * lam)
    chirp_mu = np.exp(1j * t * mu * mu)
    e1 = np.exp(1j * x1 * lam)
    e2 = np.exp(1j * x2 * mu)
    terms = _pv_terms(lam, mu, x1, x2)
    # the brace's e^{+-i x2 lam} and e^{-+i x1 mu} are the first two pv phases
    (_, el, em_bar), (_, el_bar, em) = terms[:2]
    cols = [chirp_lam * e1 / 2j, -chirp_lam * e1.conj() / 2j, el / 2j, -el_bar / 2j]
    rows = [em_bar, em, chirp_mu * e2.conj(), chirp_mu * e2]
    for k, (sgn, lp, mp) in enumerate(terms):
        c = sgn * 0.5 / math.pi
        cols += [c * lp, -c * lp * h_lam[:, k]]
        rows += [mp * h_mu[:, k], mp]
    a = np.stack(cols, axis=1) * np.exp(-0.5j * t * lam * lam)[:, None]
    b = np.stack(rows) * np.exp(-0.5j * t * mu * mu)
    return a, b


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
    of factors evaluated on xi and eta separately: an (n, 1) x (1, n') mesh
    costs O(n m) trig calls for m nodes, not n^2 m, and one (n, m) @ (m, n')
    matrix product.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if p.T == 0.0:
        out = kernel_K_static(xi, eta, kind, math.sqrt(p.h))
        return out
    cut = thermal_cut(p.h, p.T)
    nu, w = gauss_panels(0.0, cut, n_panels)
    trig = np.cos if kind.eps > 0 else np.sin
    weighted = 2.0 * fermi_weight(nu, p) * w
    if xi.ndim == eta.ndim == 2 and xi.shape[1] == eta.shape[0] == 1:
        return (trig(xi * nu) * weighted) @ trig(nu[:, None] * eta)
    out = np.einsum("...k,...k->...", trig(xi[..., None] * nu) * weighted, trig(eta[..., None] * nu))
    return out if np.ndim(out) else float(out)


def kernel_K_static(xi, eta, kind, momentum):
    """Ground-state sine kernel sin(q(xi-eta))/(xi-eta) + eps*(xi+eta term).

    `momentum` is the sine frequency q (the Fermi momentum pi*density).
    Diagonals by the analytic limits as in kernel_W.
    """
    out = (_sinc(momentum, np.asarray(xi) - np.asarray(eta))
           + kind.eps * _sinc(momentum, np.asarray(xi) + np.asarray(eta)))
    return out if np.ndim(out) else float(out)
