import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosefredholm.kernels import (
    DIRICHLET,
    GeometryParams,
    NEUMANN,
    NYSTROM_BAND,
    ThermalParams,
    dynamical_nystrom,
    fermi_weight,
    kernel_K_static,
    kernel_L,
    kernel_L_diag,
    kernel_theta,
    kernel_V,
    kernel_W,
    spectral_grid,
)
from bosefredholm.correlators import PhysicalPoint
from bosefredholm.fredholm import build_grid, thermal_cut
from bosefredholm.special_integrals import gauss_panels, pv_fresnel_hilbert, pv_fresnel_hilbert_dlam
from bosefredholm.validate import kernel_reflection_error, theta_static_error


def kernel_P(lam, x1, x2, t):
    """One-variable kernel P(lam | x1, x2) (two Gaussian Hilbert transforms).

    At t = 0 the regularized value is sign(x1 - x2) * exp(-i*x1*lam).
    Broadcasts over lam.  The library evaluates it only inside
    kernels.dynamical_nystrom, from its Hilbert table; this is the oracle.
    """
    lam = np.asarray(lam, dtype=float)
    term = np.exp(1j * t * lam * lam - 1j * x1 * lam)
    pv = (1.0 / 2j) * (np.exp(-1j * x2 * lam) * pv_fresnel_hilbert(lam, x1 - x2, t)
                       - np.exp(1j * x2 * lam) * pv_fresnel_hilbert(lam, x1 + x2, t))
    out = np.exp(-0.5j * t * lam * lam) * (term - (2.0 / math.pi) * pv)
    return out if np.ndim(out) else complex(out)


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


def test_fermi_weight_examples():
    p = ThermalParams(h=1.0, T=0.7)
    assert fermi_weight(1.0, p) == pytest.approx(0.5)
    p1 = ThermalParams(h=1.0, T=1.0)
    assert fermi_weight(0.0, p1) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
    p0 = ThermalParams(h=1.0, T=0.0)
    assert fermi_weight(0.5, p0) == 1.0
    assert fermi_weight(1.5, p0) == 0.0
    assert fermi_weight(1.0, p0) == 0.5


def test_fermi_weight_monotone():
    p = ThermalParams(h=1.0, T=0.4)
    lam = np.linspace(0.0, 4.0, 60)
    w = fermi_weight(lam, p)
    assert np.all(w > 0) and np.all(w < 1)
    assert np.all(np.diff(w) < 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((NEUMANN, DIRICHLET)), st.floats(0.2, 3.0), st.sampled_from((0.0, 0.4, 1.5)),
       st.floats(0.1, 2.0), st.integers(2, 40), st.booleans(),
       st.sampled_from((1e-14, 1e-10, 1e-6)))
def test_spectral_grid_is_the_build_grid_of_the_ensemble(kind, h, T, D, n, whole_line, tol):
    # the Fermi sea [0, q] or [-q, q] with no weight at T = 0; at T > 0 the
    # half line cut at thermal_cut(h, T, tol), or [-cut, cut], with the
    # Fermi weight: bit for bit the build_grid calls of each ensemble
    p = ThermalParams(h=h, T=T)
    pt = PhysicalPoint(0.3, 0.8, 0.2, kind, p, D=D if T == 0.0 else 0.0)
    quad, weight_fn = spectral_grid(p, pt.q, n, tol=tol, whole_line=whole_line)
    if T == 0.0:
        ref = build_grid((-pt.q, pt.q), n) if whole_line else build_grid((0.0, pt.q), n)
        assert weight_fn is None
    else:
        cut = thermal_cut(h, T, tol)
        ref = (build_grid((-cut, cut), n) if whole_line
               else build_grid((0.0, math.inf), n, thermal=p, tol=tol))
        assert np.array_equal(weight_fn(quad.nodes), fermi_weight(quad.nodes, p))
    assert np.array_equal(quad.nodes, ref.nodes) and np.array_equal(quad.weights, ref.weights)
    assert (quad.a, quad.b) == (ref.a, ref.b) and quad.truncation == ref.truncation


def test_kernel_L_x1_zero_form():
    # L(lam, mu)|x1=0 = e^{it(mu^2-lam^2)/2} sin(x(lam-mu))/(lam-mu)
    g = GeometryParams(0.0, 1.3, 0.7)
    for lam, mu in ((0.5, 1.7), (-1.2, 0.4), (2.0, -0.8)):
        expected = (np.exp(0.5j * g.t * (mu ** 2 - lam ** 2))
                    * math.sin(g.x2 * (lam - mu)) / (lam - mu))
        assert abs(kernel_L(lam, mu, g) - expected) < 1e-12


def test_kernel_L_reflection_identity():
    geometries = ((0.4, 1.1, 0.6), (0.9, 0.3, -0.4), (1.5, 1.5, 1.0))
    assert kernel_reflection_error(seed=2, draws=20, geometries=geometries) < 1e-10


def test_kernel_L_t0_closed_form():
    # the damped t=0 limit is [sin(xmax d) - sin(xmin d)]/d; the symmetric-sum
    # form quoted alongside the equal-time reduction does not match the
    # dynamical kernel (see ledger) and is deliberately not asserted here
    g = GeometryParams(0.3, 0.9, 0.0)
    for lam, mu in ((0.5, 1.7), (-1.2, 0.4)):
        d = lam - mu
        expected = (math.sin(0.9 * d) - math.sin(0.3 * d)) / d
        assert abs(kernel_L(lam, mu, g) - expected) < 1e-14


def test_kernel_L_t0_matches_small_t_limit():
    g0 = GeometryParams(0.3, 0.9, 0.0)
    lam, mu = 0.8, 1.9
    v0 = kernel_L(lam, mu, g0)
    prev = None
    for t in (1e-2, 1e-3, 1e-4):
        vt = kernel_L(lam, mu, GeometryParams(0.3, 0.9, t))
        err = abs(vt - v0)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-3


def test_kernel_L_diagonal_limit():
    # analytic diagonal agrees with offset extrapolation
    for t in (0.0, 0.6, -0.9):
        g = GeometryParams(0.4, 1.2, t)
        for lam in (0.3, 1.1, 2.2):
            direct = kernel_L_diag(lam, g)
            e1 = kernel_L(lam, lam + 1e-5, g)
            e2 = kernel_L(lam, lam + 2e-5, g)
            extrap = 2 * e1 - e2
            assert abs(direct - extrap) < 1e-8, (t, lam)


def kernel_L_scalar(lam, mu, g):
    """Scalar oracle of kernel_L: one pair (lam, mu) per call."""
    x1, x2, t = g.x1, g.x2, g.t
    d = lam - mu
    if abs(d) < 1e-12:
        return kernel_L_diag(lam, g)
    if t == 0.0:
        xm, xM = min(x1, x2), max(x1, x2)
        return complex((math.sin(xM * d) - math.sin(xm * d)) / d)
    brace = (np.exp(1j * t * lam * lam) * math.sin(x1 * d)
             + np.exp(1j * t * mu * mu) * math.sin(x2 * d))
    terms = ((+1.0, x1 - x2, -mu * x1 + lam * x2),
             (+1.0, x2 - x1, mu * x1 - lam * x2),
             (-1.0, x1 + x2, -mu * x1 - lam * x2),
             (-1.0, -x1 - x2, mu * x1 + lam * x2))
    gauge = np.exp(-0.5j * t * (lam * lam + mu * mu))
    if abs(d) < 1e-4:
        # each difference quotient of H is the mean of H' over [mu, lam] by
        # the two-point Gauss-Legendre rule
        half = d / (2.0 * math.sqrt(3.0))
        pv = 0.0j
        for sgn, X, phi in terms:
            mean = 0.5 * sum(pv_fresnel_hilbert_dlam(0.5 * (lam + mu) + h, -X, t)
                             for h in (-half, half))
            pv -= sgn * 0.25 * np.exp(1j * phi) * mean
        return complex(gauge * (brace / d + (2.0 / math.pi) * pv))
    pv = 0.0j
    for sgn, X, phi in terms:
        pv += sgn * 0.25 * np.exp(1j * phi) * (pv_fresnel_hilbert(mu, -X, t)
                                               - pv_fresnel_hilbert(lam, -X, t))
    return complex(gauge * (brace + (2.0 / math.pi) * pv) / d)


_COORD = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
_POS = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _kernel_meshes(draw):
    t = draw(st.one_of(st.just(0.0), st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)))
    x1 = draw(st.one_of(st.just(0.0), _POS))
    x2 = draw(st.one_of(st.just(x1), _POS))
    lam = draw(st.lists(_COORD, min_size=1, max_size=4))
    mu = []
    for _ in range(draw(st.integers(1, 5))):
        base = draw(st.sampled_from(lam))
        how = draw(st.sampled_from(("free", "diagonal", "below", "above", "near",
                                    "outside", "reflected")))
        side = draw(st.sampled_from((-1.0, 1.0)))
        # |lam - mu| on either side of the 1e-12 diagonal threshold and of
        # the 1e-4 near-diagonal threshold
        mu.append({"free": draw(_COORD), "diagonal": base,
                   "below": base + side * 0.99e-12, "above": base + side * 1.01e-12,
                   "near": base + side * 0.99e-4, "outside": base + side * 1.01e-4,
                   "reflected": -base}[how])
    return GeometryParams(x1, x2, t), np.array(lam), np.array(mu)


@settings(max_examples=200, deadline=None)
@given(_kernel_meshes(), st.sampled_from((NEUMANN, DIRICHLET)))
def test_kernel_L_V_broadcast_equal_scalar_oracle(case, kind):
    g, lam, mu = case
    L = kernel_L(lam[:, None], mu[None, :], g)
    V = kernel_V(lam[:, None], mu[None, :], kind, g)
    assert L.shape == V.shape == (len(lam), len(mu))
    for i, a in enumerate(lam):
        for j, b in enumerate(mu):
            ref_L = kernel_L_scalar(a, b, g)
            ref_V = ref_L + kind.eps * kernel_L_scalar(a, -b, g)
            assert abs(L[i, j] - ref_L) <= 1e-12 * (1.0 + abs(ref_L)), (a, b)
            assert abs(V[i, j] - ref_V) <= 1e-12 * (1.0 + abs(ref_V)), (a, b)


def test_kernel_V_mesh_evaluates_hilbert_on_node_vectors(monkeypatch):
    # an n x n matrix costs 8n Hilbert-transform points per L half, not n^2
    import bosefredholm.kernels as kernels
    points = []

    def counting(lam, y, t):
        points.append(np.broadcast(lam, y).size)
        return pv_fresnel_hilbert(lam, y, t)

    monkeypatch.setattr(kernels, "pv_fresnel_hilbert", counting)
    nodes = np.linspace(0.1, 3.0, 40)
    kernel_V(nodes[:, None], nodes[None, :], NEUMANN, GeometryParams(0.4, 1.1, 0.6))
    assert sum(points) == 16 * len(nodes)


def test_kernel_L_near_diagonal_has_no_cancellation():
    # 1e-12 <= |lam - mu| < 1e-6 takes the midpoint derivative of each H, so
    # L(lam, lam + d) approaches the analytic diagonal linearly in d
    g = GeometryParams(1.0, 1.0, -1.0)
    lam = 1.0
    for d in (1.01e-12, 1e-10, 1e-8):
        assert abs(kernel_L(lam, lam + d, g) - kernel_L_diag(lam, g)) <= 2 * d + 1e-12, d


def _hilbert_mp(lam, y, t):
    """pv_fresnel_hilbert in mpmath: e^{i t lam^2 - i y lam} i pi erf(kappa (2 t lam - y))."""
    kappa = mp.expjpi(mp.sign(t) / 4) / (2 * mp.sqrt(abs(t)))
    return mp.expj(t * lam ** 2 - y * lam) * 1j * mp.pi * mp.erf(kappa * (2 * t * lam - y))


def kernel_L_mp(lam, mu, g):
    """kernel_L (t != 0, lam != mu) at 40 digits: the H differences are taken
    as they stand, with no midpoint derivative."""
    with mp.workdps(40):
        x1, x2, t, lam, mu = (mp.mpf(v) for v in (g.x1, g.x2, g.t, lam, mu))
        d = lam - mu
        brace = mp.expj(t * lam ** 2) * mp.sin(x1 * d) + mp.expj(t * mu ** 2) * mp.sin(x2 * d)
        terms = ((1, x2 - x1, x2 * lam - x1 * mu), (1, x1 - x2, x1 * mu - x2 * lam),
                 (-1, -x1 - x2, -x2 * lam - x1 * mu), (-1, x1 + x2, x2 * lam + x1 * mu))
        pv = sum(sgn * mp.expj(phi) / 4 * (_hilbert_mp(mu, y, t) - _hilbert_mp(lam, y, t))
                 for sgn, y, phi in terms)
        return complex(mp.expj(-t * (lam ** 2 + mu ** 2) / 2) * (brace + 2 / mp.pi * pv) / d)


_GEOMETRY = st.builds(GeometryParams, _POS, _POS,
                      st.one_of(st.floats(-2.0, -0.05), st.floats(0.05, 2.0)))


@settings(max_examples=40, deadline=None)
@given(_GEOMETRY, _COORD, st.sampled_from((1.01e-12, 1e-10, 1e-8, 1e-7, 3e-7, 0.99e-6)),
       st.sampled_from((-1.0, 1.0)))
def test_kernel_L_near_diagonal_equals_mpmath_oracle(g, lam, d, side):
    # 1e-12 <= |lam - mu| < 1e-6: each H difference quotient is taken as the
    # derivative at the midpoint, which is off by -H'''(mid) d^2/24; the rest
    # is rounding.  So the error is O(d^2) above a floor far below the 2d of
    # test_kernel_L_near_diagonal_has_no_cancellation.
    mu = lam + side * d
    ref = kernel_L_mp(lam, mu, g)
    assert abs(kernel_L(lam, mu, g) - ref) <= (1e-13 + 10.0 * d * d) * (1.0 + abs(ref))


@settings(max_examples=40, deadline=None)
@given(_GEOMETRY, _COORD, st.floats(-7.0, -3.0), st.sampled_from((-1.0, 1.0)))
def test_kernel_L_across_the_near_diagonal_edge_equals_mpmath_oracle(g, lam, log_d, side):
    # 1e-7 <= |lam - mu| <= 1e-3, either side of NEAR_DIAGONAL = 1e-4:
    # below it each H difference quotient is the two-point Gauss-Legendre
    # mean of H' (off by d^4 H^(5)/4320), above it the quotient as it
    # stands (rounding of about 1e-16/d)
    mu = lam + side * 10.0 ** log_d
    ref = kernel_L_mp(lam, mu, g)
    assert abs(kernel_L(lam, mu, g) - ref) <= 1e-11 * (1.0 + abs(ref))


@settings(max_examples=25, deadline=None)
@given(_GEOMETRY, st.floats(0.5, 3.0), st.sampled_from((NEUMANN, DIRICHLET)))
def test_dynamical_nystrom_band_edge_equals_mpmath_oracle(g, lam, kind):
    # node pairs at |lam - mu| (first grid) and |lam + mu| (second grid)
    # just inside and just outside NYSTROM_BAND: entries inside take
    # kernel_L's entry recipe, entries outside the separable product; every
    # other pair of a grid is at least 1.9 NYSTROM_BAND apart
    inside, outside = NYSTROM_BAND * (1.0 - 1e-3), NYSTROM_BAND * (1.0 + 1e-3)
    for nodes in (np.array([lam, lam + inside, lam - outside]),
                  np.array([lam, -lam + inside, -lam - outside])):
        V, _, _ = dynamical_nystrom(nodes, kind, g)
        for i, j in ((0, 1), (1, 0), (0, 2), (2, 0)):
            a, b = nodes[i], nodes[j]
            ref = kernel_L_mp(a, b, g) + kind.eps * kernel_L_mp(a, -b, g)
            assert abs(V[i, j] - ref) <= 1e-12 * (1.0 + abs(ref)), (a, b)


@st.composite
def _nystrom_grids(draw):
    n = draw(st.integers(2, 96))
    if draw(st.booleans()):
        p = ThermalParams(h=draw(st.floats(0.2, 3.0)), T=draw(st.floats(0.05, 2.0)))
        quad = build_grid((0.0, math.inf), n, thermal=p)
    else:
        a = draw(st.floats(-2.0, 2.0))
        quad = build_grid((a, a + draw(st.floats(0.1, 6.0))), n)
    t = draw(st.one_of(st.just(0.0), st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)))
    x1 = draw(st.one_of(st.just(0.0), _POS))
    x2 = draw(st.one_of(st.just(x1), _POS))
    return quad.nodes, GeometryParams(x1, x2, t)


@settings(max_examples=100, deadline=None)
@given(_nystrom_grids(), st.sampled_from((NEUMANN, DIRICHLET)))
def test_dynamical_nystrom_equals_kernel_V_and_rank_one_factors(case, kind):
    nodes, g = case
    V, f, gv = dynamical_nystrom(nodes, kind, g)
    ref = kernel_V(nodes[:, None], nodes[None, :], kind, g)
    assert np.all(np.abs(V - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    f_fn, g_fn = rank_one_factors(kind, g)
    for vals, fn in ((f, f_fn), (gv, g_fn)):
        want = fn(nodes)
        assert np.all(np.abs(vals - want) <= 1e-15 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("t", [0.0, 0.6])
def test_dynamical_nystrom_evaluates_one_hilbert_table(monkeypatch, t):
    # H at (+-node, +-x1 +- x2): 8n points for the matrix and both factors
    import bosefredholm.kernels as kernels
    points = []

    def counting(lam, y, t):
        points.append(np.broadcast(lam, y).size)
        return pv_fresnel_hilbert(lam, y, t)

    monkeypatch.setattr(kernels, "pv_fresnel_hilbert", counting)
    nodes = build_grid((0.0, 3.0), 40).nodes
    dynamical_nystrom(nodes, NEUMANN, GeometryParams(0.4, 1.1, t))
    assert sum(points) == 8 * len(nodes)


def test_kernel_L_scalar_input_gives_complex():
    g = GeometryParams(0.4, 1.1, 0.6)
    for lam, mu in ((0.3, 0.7), (0.3, 0.3)):
        assert type(kernel_L(lam, mu, g)) is complex
        assert type(kernel_V(lam, mu, NEUMANN, g)) is complex


def test_kernel_P_t0():
    # regularized t=0 value: sign(x1-x2) e^{-i x1 lam}
    lam = 0.9
    assert abs(kernel_P(lam, 1.4, 0.5, 0.0) - np.exp(-1j * 1.4 * lam)) < 1e-12
    assert abs(kernel_P(lam, 0.5, 1.4, 0.0) + np.exp(-1j * 0.5 * lam)) < 1e-12


def test_kernel_P_reflection():
    for lam, x1, x2, t in ((1.0, 0.3, 0.7, 0.5), (0.4, 1.2, 0.2, -0.8)):
        a = kernel_P(-lam, x1, x2, t)
        b = kernel_P(lam, -x1, x2, t)
        assert abs(a - b) < 1e-12


def test_kernel_P_generic_vs_quadrature():
    from bosefredholm.special_integrals import pv_quadrature, richardson_sequence
    lam, x1, x2, t = 1.0, 0.3, 0.7, 0.5
    deltas = (1e-2, 5e-3, 2.5e-3)
    window = math.sqrt(40.0 / deltas[-1]) + abs(lam)
    n_panels = int(window * (2 * t * window + 3) / 3.0)
    vals = [pv_quadrature(
        lambda s, dd=dd: np.exp(1j * t * s * s - 1j * x1 * s - dd * s * s)
        * np.sin(x2 * (s - lam)),
        lam, window=window, n_panels=n_panels) for dd in deltas]
    pv, _ = richardson_sequence(vals)
    expected = np.exp(-0.5j * t * lam ** 2) * (
        np.exp(1j * t * lam ** 2 - 1j * x1 * lam) - (2 / math.pi) * pv)
    assert abs(kernel_P(lam, x1, x2, t) - expected) < 1e-6


def test_kernel_V_examples():
    g = GeometryParams(0.4, 1.0, 0.3)
    assert abs(kernel_V(0.7, 0.0, DIRICHLET, g)) < 1e-12
    v = kernel_V(0.0, 0.0, NEUMANN, g)
    assert abs(v - 2 * kernel_L(0.0, 0.0, g)) < 1e-12


def test_rank_one_factors():
    g = GeometryParams(0.4, 1.0, 0.3)
    f, gf = rank_one_factors(DIRICHLET, g)
    assert abs(f(0.0)) < 1e-12
    # t=0: f(lam) = sign(x1-x2) (e^{-i x1 lam} + eps e^{i x1 lam})
    g0 = GeometryParams(0.4, 1.0, 0.0)
    f0, _ = rank_one_factors(NEUMANN, g0)
    lam = 0.8
    expected = -(np.exp(-1j * 0.4 * lam) + np.exp(1j * 0.4 * lam))
    assert abs(f0(lam) - expected) < 1e-12
    # separability cross identity
    f, gf = rank_one_factors(NEUMANN, g)
    a = lambda l, m: f(l) * gf(m)
    l1, m1, l2, m2 = 0.2, 0.9, 1.4, 0.5
    assert abs(a(l1, m1) * a(m2, l2) - a(l1, l2) * a(m2, m1)) < 1e-12


def test_kernel_W():
    assert kernel_W(0.7, 1.4, 0.0) == 0.0
    lam = 0.9
    x = 1.2
    assert kernel_W(lam, lam, x) == pytest.approx(x + math.sin(2 * x * lam) / (2 * lam))
    assert kernel_W(0.0, 0.0, x) == pytest.approx(2 * x)
    assert kernel_W(0.3, 1.1, x) == pytest.approx(kernel_W(1.1, 0.3, x))


def test_kernel_theta_symmetry_and_t0():
    p = ThermalParams(h=1.2, T=0.5)
    assert kernel_theta(0.4, 1.3, NEUMANN, p) == pytest.approx(
        kernel_theta(1.3, 0.4, NEUMANN, p))
    assert abs(kernel_theta(0.0, 0.0, DIRICHLET, p)) < 1e-12
    p0 = ThermalParams(h=1.2, T=0.0)
    sq = math.sqrt(1.2)
    xi = 0.7
    assert kernel_theta(xi, xi, NEUMANN, p0) == pytest.approx(
        sq + math.sin(2 * sq * xi) / (2 * xi))


def test_kernel_theta_t0_equals_static():
    assert theta_static_error(1.44, np.linspace(0.0, 2.5, 12)) < 1e-10


def kernel_theta_mesh(xi, eta, kind, p, n_panels=60):
    """Mesh oracle of kernel_theta: the cosine transform on a (..., m) array."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if p.T == 0.0:
        return kernel_K_static(xi, eta, kind, math.sqrt(p.h))
    nu, w = gauss_panels(0.0, thermal_cut(p.h, p.T), n_panels)
    th = fermi_weight(nu, p) * w
    out = (np.cos((xi - eta)[..., None] * nu) + kind.eps * np.cos((xi + eta)[..., None] * nu)) @ th
    return out if np.ndim(out) else float(out)


@st.composite
def _theta_cases(draw):
    T = draw(st.one_of(st.just(0.0), st.floats(0.02, 2.0)))
    p = ThermalParams(h=draw(st.floats(0.1, 3.0)), T=T)
    xi = draw(st.lists(_COORD, min_size=1, max_size=5))
    eta = []
    for _ in range(draw(st.integers(1, 5))):
        # xi = eta and xi + eta = 0 on purpose
        how = draw(st.sampled_from(("free", "equal", "reflected")))
        base = draw(st.sampled_from(xi))
        eta.append({"free": draw(_COORD), "equal": base, "reflected": -base}[how])
    shape = draw(st.sampled_from(("scalar", "mesh", "column")))
    if shape == "scalar":
        return p, draw(st.sampled_from(xi)), draw(st.sampled_from(eta))
    if shape == "column":
        # the off-grid column of fredholm_minor_first: (n, 1) x (1, 1)
        return p, np.array(xi)[:, None], np.array(eta[:1])[None, :]
    return p, np.array(xi)[:, None], np.array(eta)[None, :]


@settings(max_examples=200, deadline=None)
@given(_theta_cases(), st.sampled_from((NEUMANN, DIRICHLET)))
def test_kernel_theta_separable_equals_mesh_oracle(case, kind):
    p, xi, eta = case
    out = kernel_theta(xi, eta, kind, p)
    ref = kernel_theta_mesh(xi, eta, kind, p)
    assert np.shape(out) == np.shape(ref)
    if not np.ndim(ref):
        assert type(out) is float
    assert np.max(np.abs(out - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


def test_kernel_theta_quadrature_convergence():
    # T=0 closed form vs the T->0 limit of the nu-quadrature
    kind = NEUMANN
    xi, eta = 0.5, 1.1
    v0 = kernel_theta(xi, eta, kind, ThermalParams(h=1.0, T=0.0))
    v = kernel_theta(xi, eta, kind, ThermalParams(h=1.0, T=1e-4), n_panels=400)
    assert abs(v - v0) < 1e-3


def test_kernel_K_static_diag_limit():
    kind = DIRICHLET
    q = 1.3
    xi = 0.9
    direct = kernel_K_static(xi, xi, kind, q)
    e1 = kernel_K_static(xi, xi + 1e-6, kind, q)
    e2 = kernel_K_static(xi, xi + 2e-6, kind, q)
    assert abs(direct - (2 * e1 - e2)) < 1e-8
    assert abs(kernel_K_static(0.4, 1.0, kind, 1e-9)) < 1e-8
