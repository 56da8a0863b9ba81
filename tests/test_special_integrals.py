import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bosefredholm.errors import ConvergenceFailure, DegenerateDelta, InvalidIntegrand
from bosefredholm.special_integrals import (
    DEFAULT_POLICY,
    RegularizationPolicy,
    damped_limit,
    damped_weights,
    erf_antiderivative,
    extrapolated_weights,
    fresnel_kink_integral,
    fresnel_sine_transform,
    gauss_legendre,
    gaussian_fresnel,
    graded_line_grid,
    pv_fresnel_hilbert,
    pv_fresnel_hilbert_dlam,
    pv_quadrature,
    richardson_sequence,
)
from bosefredholm.validate import (
    gaussian_fresnel_error,
    hilbert_conjugation_error,
    hilbert_quadrature_error,
)


def tau(s, x, t):
    """Quadratic phase i*t*s^2 - i*x*s."""
    return 1j * t * s * s - 1j * x * s


ORACLE_POLICY = RegularizationPolicy(damping=1e-2, extrapolation_orders=5)


def test_tau_examples():
    assert tau(0.0, 5.0, 3.0) == 0.0
    assert tau(1.0, 0.0, 1.0) == 1j
    assert tau(2.0, 3.0, 0.5) == -4j


def test_gaussian_fresnel_t_zero():
    assert gaussian_fresnel(2.5, 0.0) == 0.0
    with pytest.raises(DegenerateDelta):
        gaussian_fresnel(0.0, 0.0)


def test_gaussian_fresnel_x0():
    # (1/2pi) sqrt(pi) e^{i pi/4} at x=0, t=1
    expected = math.sqrt(math.pi) / (2 * math.pi) * np.exp(1j * math.pi / 4)
    assert abs(gaussian_fresnel(0.0, 1.0) - expected) < 1e-15


def test_gaussian_fresnel_modulus_x_independent():
    vals = [abs(gaussian_fresnel(x, 1.0)) for x in (0.0, 0.7, 2.0, 5.0)]
    assert max(vals) - min(vals) < 1e-15


def test_gaussian_fresnel_vs_damped_quadrature_lattice():
    # |closed - damped| <= 1e-8 (1 + |G|) on a lattice of >= 100 points
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 3.0, size=10)
    ts = np.concatenate([rng.uniform(0.3, 1.5, size=5), -rng.uniform(0.3, 1.5, size=5)])
    points = [(x, t) for x in xs for t in ts]
    assert len(points) >= 100
    assert gaussian_fresnel_error(points, ORACLE_POLICY) <= 1e-8


def test_pv_hilbert_trivial_values():
    assert pv_fresnel_hilbert(0.7, 0.0, 0.0) == 0.0
    assert abs(pv_fresnel_hilbert(0.0, 0.0, 1.0)) == 0.0
    expected = -1j * math.pi * np.exp(-2j)
    assert abs(pv_fresnel_hilbert(1.0, 2.0, 0.0) - expected) < 1e-14


def test_pv_hilbert_conjugation():
    assert hilbert_conjugation_error(seed=1, draws=40, span=2.5) < 1e-10


def test_pv_hilbert_vs_quadrature_oracle():
    # damped PV quadrature, Richardson over the deltas 1e-2, 5e-3, 2.5e-3
    points = ((0.7, 0.4, 1.0), (-1.2, 0.8, -0.5), (0.3, -2.2, 0.9))
    assert hilbert_quadrature_error(points, DEFAULT_POLICY) < 5e-6


def test_pv_quadrature_trivial():
    # constant integrand: symmetric PV vanishes
    assert abs(pv_quadrature(lambda s: np.ones_like(s, dtype=complex), 0.4, window=10.0)) < 1e-12
    # even Gaussian at lam=0: odd integrand
    assert abs(pv_quadrature(lambda s: np.exp(-s * s), 0.0, window=12.0)) < 1e-12


def test_pv_quadrature_window_stability():
    val1 = pv_quadrature(lambda s: np.exp(-s * s), 1.0, window=12.0)
    val2 = pv_quadrature(lambda s: np.exp(-s * s), 1.0, window=24.0)
    assert abs(val1 - val2) < 1e-10


def test_pv_quadrature_erf_identity():
    # PV int e^{-s^2}/(s-1) ds = -pi * e^{-1} * erfi(1)
    from scipy.special import erfi
    val = pv_quadrature(lambda s: np.exp(-s * s), 1.0, window=14.0, n_panels=2000)
    expected = -math.pi * math.exp(-1.0) * erfi(1.0)
    assert abs(val - expected) < 1e-10


def test_pv_quadrature_invalid_integrand():
    with np.errstate(divide="ignore"):
        with pytest.raises(InvalidIntegrand):
            pv_quadrature(lambda s: 1.0 / (s - 1.0), 1.0)


def regularized_lattice_sum(g, L, policy=DEFAULT_POLICY, check=True):
    """(pi/L) * sum of g(s) exp(-delta s^2) over s in (pi/L)*Z, extrapolated
    delta -> 0 and truncated at |s| <= policy.tail_cut: the damped lattice
    sum that the finite-box oracle's regularized determinant rests on."""
    h = math.pi / L
    n_max = int(policy.tail_cut / h)
    s = h * np.arange(-n_max, n_max + 1)
    damped = damped_weights(s, np.full(len(s), h), policy.deltas)
    return damped_limit(g(s), damped, rtol=1e-10 if check else None)


def test_lattice_sum_zero_and_theta():
    assert regularized_lattice_sum(lambda s: np.zeros_like(s), math.pi) == 0.0
    # L=pi lattice is the integers: sum of exp(-n^2) = Jacobi theta3(e^{-1});
    # deep extrapolation removes the damping bias
    val = regularized_lattice_sum(lambda s: np.exp(-s * s), math.pi,
                                  policy=ORACLE_POLICY)
    expected = sum(math.exp(-n * n) for n in range(-40, 41))
    assert abs(val - expected) < 1e-10


def test_lattice_sum_matches_gaussian_fresnel():
    # (pi/L) sum over the lattice of e^{i s^2 - delta s^2} carries Poisson
    # images e^{-(2 L m)^2 delta/(4(delta^2+1))}; for the integral limit the
    # damping must stay above ~30/(2L)^2, so use a single coarse delta with
    # a small box and first-order extrapolation
    pol = RegularizationPolicy(damping=0.05, extrapolation_orders=3)
    val = regularized_lattice_sum(lambda s: np.exp(1j * s * s), 60.0,
                                  policy=pol, check=False)
    expected = 2 * math.pi * gaussian_fresnel(0.0, 1.0)
    assert abs(val - expected) < 1e-4 * abs(expected)
    # decaying oscillatory summands (entry-like sinc products, nonzero
    # frequencies): the regularized sum reproduces the direct convergent one
    def g(s):
        return (np.sin(0.9 * (s - 0.3)) / (s - 0.3)
                * np.sin(0.4 * (s - 1.1)) / (s - 1.1))
    n = np.arange(-200000, 200001)
    sn = n * math.pi / 8.0 + 1e-5
    direct = (math.pi / 8.0) * float(np.sum(g(sn)))
    # the 1/s^2 oscillatory tail leaves a small log-linear damping bias
    reg = regularized_lattice_sum(
        lambda s: g(s + 1e-5),
        8.0, policy=RegularizationPolicy(damping=1e-2, extrapolation_orders=3))
    assert abs(reg - direct) < 2e-5


def test_lattice_sum_inconsistent_extrapolation_carries_estimates():
    # a constant summand sums to ~sqrt(pi/delta), which has no
    # c1*delta + c2*delta^2 error series: the refined extrapolants do not
    # tighten, and the failure carries the per-delta estimates
    pol = RegularizationPolicy(damping=1e-2, extrapolation_orders=3)
    with pytest.raises(ConvergenceFailure) as info:
        regularized_lattice_sum(lambda s: np.ones_like(s), 1.0, policy=pol)
    h = math.pi
    s = h * np.arange(-int(pol.tail_cut / h), int(pol.tail_cut / h) + 1)
    expected = [h * np.sum(np.exp(-d * s * s)) for d in pol.deltas]
    assert len(info.value.estimates) == 3
    assert np.allclose(info.value.estimates, expected, rtol=1e-12, atol=0.0)


_FINITE = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _damped_cases(draw):
    ns = draw(st.integers(1, 30))
    shape = draw(st.sampled_from([(ns,), (2, ns), (3, ns)]))
    nodes = draw(hnp.arrays(float, ns, elements=st.floats(-50.0, 50.0, **_FINITE)))
    weights = draw(hnp.arrays(float, ns, elements=st.floats(1e-3, 10.0, **_FINITE)))
    re = draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3, **_FINITE)))
    im = draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3, **_FINITE)))
    policy = RegularizationPolicy(damping=draw(st.floats(1e-4, 1.0, **_FINITE)),
                                  extrapolation_orders=draw(st.integers(1, 5)))
    return nodes, weights, re + 1j * im, policy.deltas


@settings(max_examples=200, deadline=None)
@given(_damped_cases())
def test_damped_limit_equals_per_delta_loop(case):
    # the explicit loop over the schedule is the reference
    nodes, weights, vals, deltas = case
    estimates = [vals @ (weights * np.exp(-d * nodes * nodes)) for d in deltas]
    expected, _ = richardson_sequence(estimates)
    got = damped_limit(vals, damped_weights(nodes, weights, deltas))
    scale = np.abs(vals) @ weights
    assert np.shape(got) == np.shape(expected)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(_damped_cases())
@example((np.zeros(2), np.array([3.3 - 3.3 * 2.0 ** -40, 3.3]), np.array([[1.0 + 0j, -1.0]]),
          RegularizationPolicy(damping=0.3).deltas))
def test_extrapolated_weights_equal_damped_limit(case):
    # the Richardson limit folded into the weights is the limit of the
    # per-delta estimates; both round on the scale of the estimates of
    # |vals|, which a limit that cancels to ~0 does not bound
    nodes, weights, vals, deltas = case
    damped = damped_weights(nodes, weights, deltas)
    expected = damped_limit(vals, damped)
    got = vals @ extrapolated_weights(nodes, weights, deltas)
    assert np.shape(got) == np.shape(expected)
    assert np.all(np.abs(got - expected) <= 1e-13 * np.max(np.abs(vals) @ damped))


def richardson_table(values):
    """(limit, raw, refined) of S(delta), S(delta/2), ... by the Richardson
    table, column by column: the reference for richardson_weights."""
    vals = [np.asarray(v) for v in values]
    table = [vals]
    for col in range(1, len(vals)):
        fac = 2.0 ** col
        prev = table[-1]
        table.append([(fac * prev[k + 1] - prev[k]) / (fac - 1.0)
                      for k in range(len(prev) - 1)])
    zero = np.zeros_like(vals[0])
    raw = vals[-1] - vals[-2] if len(vals) >= 2 else zero
    first = table[1] if len(table) > 1 else []
    refined = first[-1] - first[-2] if len(first) >= 2 else zero
    return table[-1][0], raw, refined


@st.composite
def _estimates(draw):
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    re = draw(hnp.arrays(float, (k, m), elements=st.floats(-1e3, 1e3, **_FINITE)))
    im = draw(hnp.arrays(float, (k, m), elements=st.floats(-1e3, 1e3, **_FINITE)))
    return re + 1j * im


@settings(max_examples=200, deadline=None)
@given(_estimates())
def test_richardson_sequence_matches_the_table(values):
    limit, (raw, refined) = richardson_sequence(values)
    t_limit, t_raw, t_refined = richardson_table(values)
    scale = np.max(np.abs(values))
    assert np.shape(limit) == np.shape(t_limit)
    assert np.all(np.abs(limit - t_limit) <= 1e-14 * scale)
    assert abs(raw - np.max(np.abs(t_raw))) <= 1e-14 * scale
    assert abs(refined - np.max(np.abs(t_refined))) <= 1e-14 * scale


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.integers(1, 30), elements=st.floats(-50.0, 50.0, **_FINITE)),
       st.floats(1e-4, 1.0, **_FINITE), st.integers(1, 6))
def test_extrapolated_weights_match_the_table_on_the_identity(nodes, damping, k):
    weights = np.linspace(1e-3, 10.0, len(nodes))
    deltas = RegularizationPolicy(damping=damping, extrapolation_orders=k).deltas
    damped = damped_weights(nodes, weights, deltas)
    expected = damped @ richardson_table(np.eye(len(deltas)))[0]
    got = extrapolated_weights(nodes, weights, deltas)
    assert np.all(np.abs(got - expected) <= 2e-15 * np.sum(np.abs(damped), axis=1))


@pytest.mark.parametrize("k", range(1, 7))
def test_richardson_sequence_returns_limit_and_consistency(k):
    # one estimate is a valid schedule (extrapolation_orders=1): the limit
    # is that estimate, and the differences it has no data for are 0
    values = [np.full(2, 1.0 + 0.5j) * (1.0 + 2.0 ** -j + 4.0 ** -j) for j in range(k)]
    limit, (raw, refined) = richardson_sequence(values)
    assert np.shape(limit) == (2,)
    if k == 1:
        assert np.array_equal(limit, values[0])
    if k >= 3:
        assert np.allclose(limit, 1.0 + 0.5j, rtol=1e-14, atol=0.0)
    assert isinstance(raw, float) and isinstance(refined, float)
    assert (raw == 0.0) == (k == 1) and (refined == 0.0) == (k <= 2)


def test_richardson_consistency_shrinks():
    # successive first-order extrapolants tighten at least 4x vs raw diffs,
    # for an oscillatory decaying summand of the kind the entries use
    policy = DEFAULT_POLICY

    def g(s):
        return (np.exp(1j * 0.5 * s * s) * np.sin(0.9 * (s - 0.4))
                * np.sin(0.3 * (s - 1.2)) / ((s - 0.4) * (s - 1.2)))

    h = math.pi / 25.0
    n_max = int(policy.tail_cut / h)
    s = h * np.arange(-n_max, n_max + 1) + 1e-4
    vals = np.asarray(g(s))
    estimates = [h * (vals @ np.exp(-d * s * s)) for d in policy.deltas]
    _, (raw, refined) = richardson_sequence(estimates)
    assert refined <= raw / 4.0


def test_gauss_legendre_rule_cached_read_only():
    x, w = gauss_legendre(16)
    assert gauss_legendre(16)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


def test_policy_validation():
    with pytest.raises(ValueError):
        RegularizationPolicy(damping=-1.0)
    with pytest.raises(ValueError):
        RegularizationPolicy(extrapolation_orders=0)
    pol = RegularizationPolicy(damping=4e-3)
    assert pol.deltas == (4e-3, 2e-3, 1e-3)
    assert pol.tail_cut == pytest.approx(math.sqrt(40.0 / 1e-3))


def test_graded_line_grid_phase_scale_rule():
    # the phase_scale rule, written as the loop it always was: damped line
    # integrals keep the same nodes now that the grid also takes chirps
    for tail_cut in (10.0, 63.25, 89.44):
        for phase_scale in (0.0, 0.3, 1.0, 1.17, 2.5):
            edges = [0.0]
            while edges[-1] < tail_cut:
                s = edges[-1]
                width = (min(0.25, 4.0 / (2.0 * phase_scale * max(s, 1.0)))
                         if phase_scale > 0 else 0.25)
                edges.append(min(s + width, tail_cut))
            e = np.asarray(edges)
            e = np.concatenate([-e[::-1], e[1:]])
            x, w = gauss_legendre(16)
            mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
            nodes, weights = graded_line_grid(tail_cut, phase_scale)
            assert np.array_equal(nodes, (mid[:, None] + half[:, None] * x[None, :]).ravel())
            assert np.array_equal(weights, (half[:, None] * w[None, :]).ravel())


@pytest.mark.parametrize("chirps", [((0.3, 0.5),), ((-0.45, 0.06), (0.15, -0.21), (0.0, 1.5)),
                                    ((0.0, 0.0),)])
def test_graded_line_grid_chirp_rule(chirps):
    # each panel is as wide as base_width allows, or sees phase_per_panel
    # radians of the fastest chirp at its inner edge; the outermost panels
    # end at the tail cut
    tail_cut, base, per_panel = 40.0, 0.5, 16.0
    nodes, weights = graded_line_grid(tail_cut, 7.0, base_width=base,
                                      phase_per_panel=per_panel, chirps=chirps)
    widths = np.sum(np.reshape(weights, (-1, 16)), axis=1)
    edges = np.concatenate([[-tail_cut], np.cumsum(widths) - tail_cut])
    assert abs(edges[-1] - tail_cut) <= 1e-12 * tail_cut
    inner = np.minimum(np.abs(edges[:-1]), np.abs(edges[1:]))
    rate = np.max([2.0 * abs(dt) * inner + abs(dy) for dt, dy in chirps], axis=0)
    expected = np.minimum(base, per_panel / np.maximum(rate, per_panel / base))
    assert np.allclose(widths[1:-1], expected[1:-1], rtol=1e-9)
    assert np.all(widths <= expected * (1.0 + 1e-9))


def _mp_kappa(t):
    return mp.expj(mp.pi / 4 * (1 if t > 0 else -1)) / (2 * mp.sqrt(abs(mp.mpf(t))))


def _mp_erf_antiderivative(z):
    return z * mp.erf(z) + mp.exp(-z * z) / mp.sqrt(mp.pi)


def _mp_fresnel_forms(a, lam, y, t):
    """fresnel_sine_transform(a, t), fresnel_kink_integral(a, lam, t) and
    pv_fresnel_hilbert_dlam(lam, y, t) at 40 digits, from the same closed
    forms."""
    with mp.workdps(40):
        k = _mp_kappa(t)
        a, lam, y, t = (mp.mpf(v) for v in (a, lam, y, t))
        sine = 1j * mp.pi * mp.erf(k * a)
        b = 2 * t * lam
        F = _mp_erf_antiderivative
        kink = (mp.expj(t * lam * lam) * mp.pi / (2 * k)
                * (F(k * (a + b)) - F(k * b) + F(k * (a - b)) - F(-k * b)))
        u = b - y
        phi = 1j * mp.pi * mp.erf(k * u)
        dphi = 1j * mp.pi * k * (2 / mp.sqrt(mp.pi)) * mp.exp(-k * k * u * u)
        dlam = mp.expj(t * lam * lam - y * lam) * ((2j * t * lam - 1j * y) * phi + 2 * t * dphi)
        return complex(sine), complex(kink), complex(dlam)


def test_fresnel_forms_match_mpmath_as_t_vanishes():
    # t -> 0 puts kappa * a far out along arg z = +-pi/4, where |exp(-z^2)| = 1
    # and the erf antiderivatives of the kink integral cancel.  erf has
    # condition number ~|z| there, so the bound is eps (1 + |z|)(1 + |ref|);
    # over t = 1 .. 1e-12 the constant reaches 15 for the kink integral, 3.5
    # for the sine transform and 2.8 for d/dlam of the Hilbert transform.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    worst = 0.0
    for decade in range(13):
        for sign in (1.0, -1.0):
            t = sign * 10.0 ** -decade * rng.uniform(1.0, 3.0)
            k = 1.0 / (2.0 * math.sqrt(abs(t)))
            for _ in range(8):
                a, lam, y = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0)
                refs = _mp_fresnel_forms(a, lam, y, t)
                got = (fresnel_sine_transform(a, t), fresnel_kink_integral(a, lam, t),
                       pv_fresnel_hilbert_dlam(lam, y, t))
                zs = (k * abs(a), k * (abs(a) + abs(2.0 * t * lam)), k * abs(2.0 * t * lam - y))
                for g, r, z in zip(got, refs, zs):
                    worst = max(worst, abs(g - r) / (eps * (1.0 + z) * (1.0 + abs(r))))
    assert worst <= 32.0, worst


def test_fresnel_forms_match_mpmath_at_small_argument():
    # near z = 0 the Fresnel form of erf is exact to rounding, while the
    # complex erf is 2.6e-14 relative off at |z| = 1e-2; lam = 0 keeps the
    # arguments exact, so the three erf forms are held to a few eps over
    # |z| = 1e-6 .. 0.3, both signs of t and of the argument
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    worst = 0.0
    for sign in (1.0, -1.0):
        for t in sign * np.array([1e-4, 1e-2, 0.3, 1.0, 10.0]):
            root = 2.0 * math.sqrt(abs(t))
            for z in 10.0 ** rng.uniform(-6.0, math.log10(0.3), 6) * rng.choice((-1.0, 1.0), 6):
                a = z * root
                ref_sine, _, ref_dlam = _mp_fresnel_forms(a, 0.0, -a, t)
                with mp.workdps(40):
                    ref_anti = complex(_mp_erf_antiderivative(
                        mp.expj(mp.pi / 4 * sign) * mp.mpf(z)))
                for got, ref in ((fresnel_sine_transform(a, t), ref_sine),
                                 (pv_fresnel_hilbert_dlam(0.0, -a, t), ref_dlam),
                                 (erf_antiderivative(z, sign), ref_anti)):
                    worst = max(worst, abs(got - ref) / (eps * abs(ref)))
    assert worst <= 4.0, worst


def test_ray_chirps_cancel_at_large_argument():
    # at large r, z erf(z) and exp(-z^2)/sqrt(pi) carry opposite chirps of
    # size 1/sqrt(pi); with the phase of exp(-z^2) reduced as the Fresnel
    # integrals reduce theirs they cancel to rounding, where r^2 rounded in
    # radians leaves eps r^2 (36 eps r median at r ~ 100 .. 1000 for the
    # complex erf).  d/dlam of the Hilbert transform cancels the same way
    # as t -> 0 (1.9e-14 relative median at |t| ~ 1e-6 for the complex erf).
    eps = np.finfo(float).eps
    rng = np.random.default_rng(13)
    worst_anti = worst_dlam = 0.0
    for r in 10.0 ** rng.uniform(0.0, 3.0, 24) * rng.choice((-1.0, 1.0), 24):
        sign = float(rng.choice((-1.0, 1.0)))
        with mp.workdps(40):
            ref = complex(_mp_erf_antiderivative(mp.expj(mp.pi / 4 * sign) * mp.mpf(r)))
        worst_anti = max(worst_anti, abs(erf_antiderivative(r, sign) - ref) / (eps * abs(r)))
    for decade in range(7):
        for sign in (1.0, -1.0):
            t = sign * 10.0 ** -decade * rng.uniform(1.0, 3.0)
            lam, y = rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0)
            ref = _mp_fresnel_forms(0.0, lam, y, t)[2]
            worst_dlam = max(worst_dlam, abs(pv_fresnel_hilbert_dlam(lam, y, t) - ref) / abs(ref))
    assert worst_anti <= 4.0, worst_anti
    assert worst_dlam <= 32.0 * eps, worst_dlam
