"""Gaussian-Fresnel integrals, principal-value Hilbert transforms, and the
damped quadrature of whole-line integrals.

Everything oscillatory is defined through Gaussian damping exp(-delta*s^2)
with Richardson extrapolation delta -> 0.  Closed forms (the error function
on the rays arg z = +-pi/4, from real Fresnel integrals) are used on the hot
paths and are unit-tested against the damped quadrature oracles in this
module.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fresnel

from .errors import ConvergenceFailure, DegenerateDelta, InvalidIntegrand, InvalidParameter

SQRT_PI = math.sqrt(math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class RegularizationPolicy:
    """Damping schedule for conditionally convergent integrals and sums.

    damping             largest Gaussian damping exponent delta
    extrapolation_orders  number of delta values (halved successively)
    """

    damping: float = 1e-2
    extrapolation_orders: int = 3

    def __post_init__(self):
        if self.damping <= 0:
            raise InvalidParameter("damping must be positive")
        if self.extrapolation_orders < 1:
            raise InvalidParameter("extrapolation_orders must be >= 1")

    @property
    def deltas(self):
        return tuple(self.damping / 2 ** k
                     for k in range(self.extrapolation_orders))

    @property
    def tail_cut(self):
        """Truncation of infinite domains: exp(-delta_min * tail_cut^2) < 1e-17."""
        return math.sqrt(40.0 / self.deltas[-1])


DEFAULT_POLICY = RegularizationPolicy()

# finer schedule for the integrable-system pipeline where 1e-6..1e-8
# absolute accuracy of whole-line integrals is required (the fourth
# extrapolation order matters when an erf transition sits at s ~ x/t
# inside the damped region)
FINE_POLICY = RegularizationPolicy(damping=4e-3, extrapolation_orders=4)


def gaussian_fresnel(x, t):
    """(1/2pi) * integral of exp(i*t*s^2 - i*x*s) ds over the real line.

    Closed Gaussian form with principal branch sqrt(pi/(-it)), i.e. phase
    exp(i*sign(t)*pi/4).  At t=0 the damped regularization gives 0 for
    x != 0; x = 0 is a delta distribution and raises.
    """
    if t == 0.0:
        if x == 0.0:
            raise DegenerateDelta("gaussian_fresnel(0, 0) is a delta distribution")
        return 0.0 + 0.0j
    amp = SQRT_PI / (2.0 * math.pi * math.sqrt(abs(t)))
    phase = np.exp(1j * math.copysign(math.pi / 4.0, t))
    return amp * phase * np.exp(-1j * x * x / (4.0 * t))


def _ray_fresnel(r):
    """(C(x), S(x)): the Fresnel integrals at x = r sqrt(2/pi)."""
    s, c = fresnel(SQRT_2_OVER_PI * np.asarray(r, dtype=float))
    return c, s


def ray_erf(r, sign):
    """erf(exp(i*sign*pi/4) * r) for real r and sign = +-1.

    On that ray erf is (1 + i sign)(C(x) - i sign S(x)) with x = r sqrt(2/pi)
    and C, S the Fresnel integrals (DLMF 7.5), so two real functions give
    it: real part C + S, imaginary part sign (C - S).  Every erf of the
    Fresnel forms below has its argument on one of these rays.
    """
    c, s = _ray_fresnel(r)
    return (c + s) + (1j * sign) * (c - s)


def ray_chirp(r, sign):
    """exp(-z^2) = exp(-i*sign*r^2) at z = exp(i*sign*pi/4) * r.

    At large r, ray_erf carries a chirp exp(-z^2)/(sqrt(pi) z) that cancels
    against the exp(-z^2) terms of the forms that take both.  So the phase
    is taken as the Fresnel integrals take theirs, pi x^2/2 reduced exactly
    modulo 2 pi, and the chirps cancel to rounding: r^2 rounded in radians
    would leave about eps r^2.
    """
    x = SQRT_2_OVER_PI * np.asarray(r, dtype=float)
    phase = math.pi * np.remainder(0.5 * x * x, 2.0)
    return np.cos(phase) - (1j * sign) * np.sin(phase)


def fresnel_sine_transform(a, t):
    """PV integral of exp(i*t*u^2 + i*a*u)/u du  (odd part only survives).

    Equals i*pi*erf(kappa*a) with kappa = exp(i*sign(t)*pi/4)/(2*sqrt|t|);
    for t = 0 it reduces to i*pi*sign(a).  Broadcasts over `a`.
    """
    a = np.asarray(a, dtype=float)
    if t == 0.0:
        out = 1j * math.pi * np.sign(a)
    else:
        out = 1j * math.pi * ray_erf(a / (2.0 * math.sqrt(abs(t))), math.copysign(1.0, t))
    return out if np.ndim(out) else complex(out)


def pv_fresnel_hilbert(lam, y, t):
    """PV integral of exp(i*t*s^2 - i*y*s)/(s - lam) ds.

    Shift u = s - lam and keep the even part; broadcasts over `lam`.  A
    scalar runs as a one-point array, so a point gets the same bits alone as
    inside an array (numpy's array loop fuses the complex multiply, its
    scalar arithmetic does not): kernel_L divides differences of these
    values by lam - mu down to |lam - mu| = 1e-12.
    """
    lam = np.asarray(lam, dtype=float)
    pts = np.atleast_1d(lam)
    out = np.exp(1j * t * pts * pts - 1j * y * pts) * fresnel_sine_transform(2.0 * t * pts - y, t)
    return out if lam.ndim else complex(out[0])


def pv_fresnel_hilbert_dlam(lam, y, t):
    """d/dlam of pv_fresnel_hilbert (needed for kernel diagonals)."""
    lam = np.asarray(lam, dtype=float)
    a = 2.0 * t * lam - y
    pre = np.exp(1j * t * lam * lam - 1j * y * lam)
    if t == 0.0:
        # sign(a) is lam-independent away from the measure-zero kink
        out = (-1j * y) * pre * (1j * math.pi * np.sign(a))
    else:
        # phi = i pi erf(kappa a), kappa = exp(i sign pi/4)/root, r = a/root:
        # its a-derivative carries exp(-kappa^2 a^2) = exp(-z^2)
        sign, root = math.copysign(1.0, t), 2.0 * math.sqrt(abs(t))
        r = a / root
        phi = 1j * math.pi * ray_erf(r, sign)
        dphi_da = (2j * SQRT_PI / root) * np.exp(1j * sign * math.pi / 4.0) * ray_chirp(r, sign)
        out = pre * ((2j * t * lam - 1j * y) * phi + 2.0 * t * dphi_da)
    return out if np.ndim(out) else complex(out)


def erf_antiderivative(r, sign):
    """Antiderivative of erf, z*erf(z) + exp(-z^2)/sqrt(pi), on the ray
    z = exp(i*sign*pi/4) * r, where z*erf(z) = sqrt(2) r (S + i sign C)
    (ray_erf; ray_chirp for exp(-z^2))."""
    c, s = _ray_fresnel(r)
    return (math.sqrt(2.0) * np.asarray(r, dtype=float) * (s + (1j * sign) * c)
            + ray_chirp(r, sign) / SQRT_PI)


def fresnel_kink_integral(a, lam, t, c=0.0):
    """J(a) - J(c), J(a) the integral of exp(i*t*(u+lam)^2) * (1 - cos(a*u))/u^2 du
    over the line; c = 0 gives J(a) itself.

    Used for the analytic diagonal of the dynamical kernels.  With
    E = erf_antiderivative, J(a) is a multiple of E(k(a+b)) - E(kb) +
    E(k(a-b)) - E(-kb); the E(+-kb) terms cancel in the difference, which
    takes four erf evaluations.  t = 0 gives pi*(|a| - |c|).
    """
    if t == 0.0:
        return math.pi * (abs(a) - abs(c)) + 0.0j
    # k = exp(i sign pi/4)/root, so pi/(2k) = (pi root/2) exp(-i sign pi/4)
    sign, root = math.copysign(1.0, t), 2.0 * math.sqrt(abs(t))
    b = 2.0 * t * lam
    pre = np.exp(1j * t * lam * lam) * (0.5 * math.pi * root) * np.exp(-1j * sign * math.pi / 4.0)

    def E(u):
        return erf_antiderivative(u / root, sign)

    return pre * ((E(a + b) - E(c + b)) + (E(a - b) - E(c - b)))


# ---------------------------------------------------------------------------
# quadrature machinery

@functools.lru_cache(maxsize=64)
def gauss_legendre(order):
    """Gauss-Legendre nodes/weights on [-1, 1], built once per order.

    The cached arrays are shared by every caller and therefore read-only;
    the cache keeps the 64 most recent orders.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_rule(edges, order):
    """Gauss-Legendre nodes/weights of `order` on each panel between edges."""
    x, w = gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def gauss_panels(a, b, n_panels, order=16):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    return _panel_rule(np.linspace(a, b, n_panels + 1), order)


# graded_line_grid steps once per panel, so it refuses more than this many
# per half-line; the test suite, `validate --suite all` and the benchmark
# workloads build at most 21,384 (damped_line_integral at tail_cut 253)
MAX_LINE_PANELS = 100_000


def graded_line_grid(tail_cut, phase_scale=0.0, base_width=0.25, phase_per_panel=4.0, order=16,
                     chirps=None):
    """Symmetric grid on [-tail_cut, tail_cut] whose panels each see at most
    phase_per_panel radians of the integrand's phase, and are never wider
    than base_width.

    The phase rate |d(phase)/ds| at +-s is bounded by 2*phase_scale*max(s, 1)
    for phases ~ phase_scale*s^2.  `chirps`, a sequence of (dt, dy), gives
    the phases dt*s^2 - dy*s instead, with the rate max of 2|dt| s + |dy|.
    More than MAX_LINE_PANELS panels per half-line raise InvalidParameter.
    """
    if chirps is None:
        lines = ((2.0 * phase_scale, 0.0), (0.0, 2.0 * phase_scale))
    else:
        lines = tuple((2.0 * abs(dt), abs(dy)) for dt, dy in chirps)
    edges = [0.0]
    while edges[-1] < tail_cut:
        if len(edges) > MAX_LINE_PANELS:
            raise InvalidParameter(f"the line grid on |s| <= {tail_cut:.3g} needs over "
                                   f"{MAX_LINE_PANELS} panels a side: raise the damping")
        s = edges[-1]
        rate = max(a * s + b for a, b in lines)
        width = min(base_width, phase_per_panel / rate) if rate > 0 else base_width
        edges.append(min(s + width, tail_cut))
    e = np.asarray(edges)
    return _panel_rule(np.concatenate([-e[::-1], e[1:]]), order)


def richardson_weights(k):
    """Real (k, 3) matrix contracting the estimates S(delta), ...,
    S(delta/2^(k-1)) to (limit, raw, refined): the limit delta -> 0 for an
    error series c1*delta + c2*delta^2 + ... (the Lagrange weights at 0 of
    the nodes 2^-j, e.g. (1/3, -2, 8/3) for k = 3), the raw difference
    e_k - e_(k-1), and the refined one 2e_k - 3e_(k-1) + e_(k-2) of the last
    two first-order extrapolants; zero where k is too small for them.
    """
    j = np.arange(k)
    ratio = 2.0 ** (j - j[:, None])
    np.fill_diagonal(ratio, 0.0)
    w = np.zeros((k, 3))
    w[:, 0] = np.prod(1.0 / (1.0 - ratio), axis=1)
    if k >= 2:
        w[-2:, 1] = (-1.0, 1.0)
    if k >= 3:
        w[-3:, 2] = (1.0, -3.0, 2.0)
    return w


def richardson_sequence(values):
    """(limit, (raw, refined)) of values S(delta), S(delta/2), ... stacked on
    the first axis: one contraction against richardson_weights, raw and
    refined the largest moduli of the two differences."""
    values = np.asarray(values)
    limit, raw, refined = np.tensordot(richardson_weights(len(values)), values, axes=(0, 0))
    return limit, (float(np.max(np.abs(raw))), float(np.max(np.abs(refined))))


def damped_weights(nodes, weights, deltas):
    """Real (ns, k) damped-weight matrix weights * exp(-delta_k * s^2).

    Column k damps the quadrature weights with the k-th delta of the
    schedule; every damped sum of the package is a contraction against it,
    or against its extrapolated column (extrapolated_weights).
    """
    nodes = np.asarray(nodes, dtype=float)
    return np.asarray(weights, dtype=float)[:, None] * np.exp(-np.outer(nodes * nodes, deltas))


def extrapolated_weights(nodes, weights, deltas):
    """Real (ns,) weights damped_weights(nodes, weights, deltas) @ c, c the
    limit column of richardson_weights: vals @ extrapolated_weights(...) is
    damped_limit(vals, damped_weights(...)) without its consistency check.
    """
    return damped_weights(nodes, weights, deltas) @ richardson_weights(len(deltas))[:, 0]


def damped_limit(vals, damped, rtol=None):
    """Contract vals (..., ns) against a damped-weight matrix (ns, k) and
    Richardson-extrapolate the k estimates to delta -> 0.

    With `rtol`, the estimates are checked for consistency: when the refined
    first-order extrapolants differ by more than max(0.25 * raw difference,
    rtol * (max|limit| + 1)) the estimates do not follow the assumed error
    series and ConvergenceFailure carries them.  `rtol=None` skips the check.
    """
    estimates = np.moveaxis(np.asarray(vals) @ damped, -1, 0)
    limit, (raw, refined) = richardson_sequence(estimates)
    if rtol is not None and refined > max(0.25 * raw, rtol * (float(np.max(np.abs(limit))) + 1.0)):
        raise ConvergenceFailure(
            "damped extrapolation inconsistent "
            f"(raw diff {raw:.3e}, refined diff {refined:.3e})",
            estimates=list(estimates))
    return limit


def damped_line_integral(f, policy=DEFAULT_POLICY, phase_scale=0.0):
    """integral of f(s) ds over the real line, via Gaussian damping.

    f maps a node array of shape (ns,) to values of shape (..., ns); the
    damped integral is computed for every delta in the policy schedule and
    Richardson-extrapolated, with the consistency check of `damped_limit`.
    `phase_scale` is the largest |d(phase)/ds| / s of the integrand (i.e.
    the coefficient of the quadratic phase), used to grade the panels.
    """
    nodes, weights = graded_line_grid(policy.tail_cut, phase_scale)
    return damped_limit(f(nodes), damped_weights(nodes, weights, policy.deltas), rtol=1e-12)


def pv_quadrature(f, lam, policy=DEFAULT_POLICY, window=None, n_panels=600):
    """PV integral of f(s)/(s - lam) ds on a symmetric window around lam.

    Subtracts f(lam) so the integrand is regular; the symmetric window kills
    the PV of the subtracted pole exactly.  Intended as the oracle for
    pv_fresnel_hilbert with Gaussian-damped integrands: tails beyond the
    window must be negligible.
    """
    flam = np.asarray(f(np.asarray([lam])))[..., 0]
    if not np.all(np.isfinite(flam)):
        raise InvalidIntegrand(f"f({lam}) is not finite")
    if window is None:
        window = policy.tail_cut + abs(lam)
    nodes, weights = gauss_panels(lam - window, lam + window, n_panels)
    vals = np.asarray(f(nodes))
    return ((vals - flam[..., None]) / (nodes - lam)) @ weights
