"""Named checks behind the CLI and the test suite: each measurement takes its
inputs as arguments and returns its worst metric (orthogonality two).  CHECKS
holds the CLI rows (name, tolerance, measurement at fixed arguments), SUITES
the rows each suite runs; the tests call the measurements with their own
inputs and bounds."""

import math

import numpy as np

from .bethe_oracle import (
    FiniteSystem,
    FormFactorInput,
    finite_L_correlation,
    form_factor,
    form_factor_direct,
    orthogonality_check,
    permutation_identity_check,
    proposition_determinant,
)
from .correlators import (PhysicalPoint, correlation_boundary_neumann, correlation_ground,
                          correlation_static, correlation_thermal, density_of_temperature)
from .kernels import (DIRICHLET, GeometryParams, NEUMANN, ThermalParams, kernel_K_static,
                      kernel_L, kernel_theta)
from .special_integrals import (DEFAULT_POLICY, RegularizationPolicy, damped_line_integral,
                                extrapolated_weights, gaussian_fresnel, pv_fresnel_hilbert,
                                pv_quadrature)

_WALLS = (NEUMANN, DIRICHLET)


def _value(x1, x2, t, kind, T, n):
    """Correlator value at h = 1: ground (D = 1) at T = 0, else thermal."""
    p = ThermalParams(h=1.0, T=T)
    if T == 0.0:
        return correlation_ground(PhysicalPoint(x1, x2, t, kind, p, D=1.0), n=n,
                                  with_error=False).value
    return correlation_thermal(PhysicalPoint(x1, x2, t, kind, p), n=n, with_error=False).value


def gaussian_fresnel_error(points, policy):
    """Worst |G - damped quadrature| / (1 + |G|) over (x, t) points."""
    worst = 0.0
    for x, t in points:
        closed = gaussian_fresnel(x, t)
        damped = damped_line_integral(
            lambda s: np.exp(1j * t * s * s - 1j * x * s) / (2.0 * math.pi),
            policy, phase_scale=abs(t))
        worst = max(worst, abs(closed - damped) / (1.0 + abs(closed)))
    return worst


def hilbert_conjugation_error(seed, draws, span):
    """Worst |conj H(lam, y, t) - H(lam, -y, -t)| at random (lam, y, t) in [-span, span]."""
    rng = np.random.default_rng(seed)
    return max(abs(np.conj(pv_fresnel_hilbert(lam, y, t)) - pv_fresnel_hilbert(lam, -y, -t))
               for lam, y, t in rng.uniform(-span, span, size=(draws, 3)))


def hilbert_quadrature_error(points, policy):
    """Worst |H - oracle| / (1 + |H|) over (lam, y, t) points; the oracle is
    pv_quadrature of the integrand damped and extrapolated over the deltas
    of policy (the PV is linear in the integrand)."""
    worst = 0.0
    for lam, y, t in points:
        closed = pv_fresnel_hilbert(lam, y, t)
        window = policy.tail_cut + abs(lam)
        n_panels = int(window * (2 * abs(t) * window + abs(y) + 2) / 3.0)
        orc = pv_quadrature(
            lambda s: np.exp(1j * t * s * s - 1j * y * s)
            * extrapolated_weights(s, np.ones(len(s)), policy.deltas),
            lam, window=window, n_panels=n_panels)
        worst = max(worst, abs(closed - orc) / (1.0 + abs(closed)))
    return worst


def kernel_reflection_error(seed, draws, geometries):
    """Worst |L(lam, -mu) - L(-lam, mu)| at random (lam, mu) per (x1, x2, t)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for geom in geometries:
        g = GeometryParams(*geom)
        lam, mu = rng.uniform(-2.5, 2.5, size=(draws, 2)).T
        worst = max(worst, np.max(np.abs(kernel_L(lam, -mu, g) - kernel_L(-lam, mu, g))))
    return worst


def theta_static_error(h, grid):
    """Worst |theta - K_static(sqrt h)| at T = 0 on the grid mesh, both walls."""
    p0 = ThermalParams(h=h, T=0.0)
    xi, eta = grid[:, None], grid[None, :]
    return max(np.max(np.abs(kernel_theta(xi, eta, kind, p0)
                             - kernel_K_static(xi, eta, kind, math.sqrt(h))))
               for kind in _WALLS)


def permutation_identity_error(seed, orders, draws):
    """Worst |lhs - rhs| of permutation_identity_check at random complex
    (f, g), draws per N in orders."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for N in orders:
        for _ in range(draws):
            f = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            g = rng.normal(size=(N + 1, N)) + 1j * rng.normal(size=(N + 1, N))
            lhs, rhs = permutation_identity_check(N, f, g)
            worst = max(worst, abs(lhs - rhs))
    return worst


def form_factor_error(seed, orders, x_max, nodes):
    """Worst |form_factor - form_factor_direct(n=nodes[N])| / |direct| at L = pi,
    per wall and entry of orders: N drawn from the entry (a one-element entry
    draws nothing), random quantum numbers and x in [0.3, x_max]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kind in _WALLS:
        base = 0 if kind.eps > 0 else 1
        for choices in orders:
            N = int(rng.choice(choices))
            ims = tuple(sorted(rng.choice(np.arange(base, base + 6), size=N, replace=False)))
            ils = tuple(sorted(rng.choice(np.arange(base, base + 7), size=N + 1, replace=False)))
            inp = FormFactorInput(I_lam=ils, I_mu=ims, x=float(rng.uniform(0.3, x_max)),
                                  kind=kind, L=math.pi)
            direct = form_factor_direct(inp, n=nodes[N])
            worst = max(worst, abs(form_factor(inp) - direct) / max(abs(direct), 1e-30))
    return worst


def orthogonality_error(groups):
    """(diagonal, off-diagonal) worst |<a|b> - (2L)^N delta_ab| / (2L)^N at
    L = pi over (wall, states) groups: every state, every pair in a group."""
    L = math.pi
    worst_diag = worst_off = 0.0
    for kind, states in groups:
        systems = [FiniteSystem(L=L, kind=kind, I=I) for I in states]
        for i, sa in enumerate(systems):
            norm = (2 * L) ** sa.N
            worst_diag = max(worst_diag, abs(orthogonality_check(sa, sa) - norm) / norm)
            for sb in systems[i + 1:]:
                worst_off = max(worst_off, abs(orthogonality_check(sa, sb)) / norm)
    return worst_diag, worst_off


def route_equivalence_error(orders, times, lam_max, damped):
    """Worst |state sum - matched determinant| / (1 + |state sum|) of ground
    states at L = pi, x = (0.7, 1.9), per wall, N in orders and t in times."""
    worst = 0.0
    for kind in _WALLS:
        for N in orders:
            sys = FiniteSystem.ground_state(N, math.pi, kind)
            for t in times:
                a = finite_L_correlation(sys, 0.7, 1.9, t, lam_max=lam_max, damped=damped)
                b = proposition_determinant(sys, 0.7, 1.9, t, lam_max=lam_max, mode="matched")
                worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst


def finite_box_dynamical_error(kinds, points):
    """(worst extrapolated gap, worst gap ratio) of the finite box against the
    dynamical route at t > 0, per wall in kinds and (x1, x2, t, L) in points.

    v(L) is proposition_determinant of the N = L ground state in a box of
    length L (lam_max = 240, h = 1), the target the ground-state dynamical
    value at D = 1 on 96 nodes.  The gap is O(1/L): the first metric is
    |2 v(2L) - v(L) - target|, one Richardson step in 1/L, the second
    |v(2L) - target| / |v(L) - target|.
    """
    worst = worst_ratio = 0.0
    for kind in kinds:
        for x1, x2, t, box in points:
            target = _value(x1, x2, t, kind, 0.0, 96)
            small, large = (proposition_determinant(FiniteSystem.ground_state(int(L), L, kind),
                                                    x1, x2, t, lam_max=240.0, h=1.0)
                            for L in (box, 2.0 * box))
            worst = max(worst, abs(2.0 * large - small - target))
            worst_ratio = max(worst_ratio, abs(large - target) / abs(small - target))
    return worst, worst_ratio


def dirichlet_null_ratio(T, n):
    """|Dirichlet| / |Neumann| correlator at the wall, (x1, x2, t) = (0, 0.9, 0.4)."""
    return abs(_value(0.0, 0.9, 0.4, DIRICHLET, T, n)) / abs(_value(0.0, 0.9, 0.4, NEUMANN, T, n))


def hermiticity_error(x1, x2, t, kind, T, n):
    """|conj C(x1, x2, t) - C(x2, x1, -t)| / |C(x1, x2, t)|."""
    a = _value(x1, x2, t, kind, T, n)
    return abs(np.conj(a) - _value(x2, x1, -t, kind, T, n)) / abs(a)


def static_dynamic_error(kind, n_dynamic, n_static):
    """|dynamic value at t = 0 - static minor| / |dynamic| at (0.4, 1.1), T = 0.5."""
    a = _value(0.4, 1.1, 0.0, kind, 0.5, n_dynamic)
    b = correlation_static(0.4, 1.1, kind, ThermalParams(h=1.0, T=0.5), n=n_static)
    return abs(a - b) / abs(a)


def boundary_dynamical_error(points, T, n, n_spectral):
    """Worst |boundary route - dynamical route| / |dynamical| of the Neumann
    correlator at x1 = 0, h = 1 (D = 1 at T = 0) over (x, t) points: W and
    the dynamical kernel on n nodes, b on n_spectral."""
    p = ThermalParams(h=1.0, T=T)
    worst = 0.0
    for x, t in points:
        pt = PhysicalPoint(0.0, x, t, NEUMANN, p, D=1.0 if T == 0.0 else 0.0)
        ref = _value(0.0, x, t, NEUMANN, T, n)
        val = correlation_boundary_neumann(x, t, pt, n=n, n_spectral=n_spectral)
        worst = max(worst, abs(val - ref) / abs(ref))
    return worst


def density_limit_error(T):
    """|D(T) - sqrt(h)/pi| at h = 1."""
    return abs(density_of_temperature(ThermalParams(h=1.0, T=T)) - 1.0 / math.pi)


CHECKS = {
    "gaussian": ("gaussian_fresnel closed form vs damped quadrature", 1e-8,
                 lambda: gaussian_fresnel_error(
                     ((0.0, 1.0), (1.2, 0.7), (2.0, -0.4)),
                     RegularizationPolicy(damping=1e-2, extrapolation_orders=5))),
    "conjugation": ("pv_fresnel_hilbert conjugation symmetry", 1e-10,
                    lambda: hilbert_conjugation_error(seed=7, draws=25, span=2.0)),
    "reflection": ("kernel reflection L(lam,-mu) = L(-lam,mu)", 1e-10,
                   lambda: kernel_reflection_error(seed=3, draws=30,
                                                   geometries=((0.4, 1.1, 0.6),))),
    "theta": ("thermal kernel at T=0 equals static sine kernel", 1e-10,
              lambda: theta_static_error(1.3, np.linspace(0.05, 2.0, 8))),
    "permutation": ("permutation/determinant identity", 1e-12,
                    lambda: permutation_identity_error(seed=11, orders=(1, 2, 3), draws=10)),
    "orthogonality": ("state orthogonality (N=1)", 1e-10,
                      lambda: max(orthogonality_error(((NEUMANN, ((0,), (2,))),
                                                       (DIRICHLET, ((1,), (3,))))))),
    "null": ("Dirichlet correlator vanishes at the wall", 1e-10,
             lambda: dirichlet_null_ratio(T=0.0, n=48)),
    "density": ("density T->0 limit sqrt(h)/pi", 1e-3, lambda: density_limit_error(1e-4)),
    "quadrature": ("pv_fresnel_hilbert vs pv_quadrature oracle", 5e-6,
                   lambda: hilbert_quadrature_error(
                       ((0.7, 0.4, 1.0), (-1.2, 0.8, -0.5), (1.0, 2.0, 0.0)), DEFAULT_POLICY)),
    "form-factors": ("form factor determinant vs direct integral", 1e-8,
                     lambda: form_factor_error(seed=5, orders=((1, 2),) * 3, x_max=2.6,
                                               nodes={1: 90, 2: 60})),
    "routes": ("finite-size correlator route equivalence (t=0, N=2)", 1e-8,
               lambda: route_equivalence_error(orders=(2,), times=(0.0,), lam_max=60.0,
                                               damped=True)),
    "hermiticity": ("hermiticity value(x1,x2,t)* = value(x2,x1,-t)", 1e-8,
                    lambda: hermiticity_error(0.3, 0.9, 0.5, NEUMANN, T=0.0, n=56)),
    "static": ("static minor equals dynamic value at t=0", 1e-9,
               lambda: static_dynamic_error(NEUMANN, n_dynamic=100, n_static=90)),
    "boundary": ("x1=0 boundary route equals dynamical route at T>0", 1e-10,
                 lambda: max(boundary_dynamical_error(((0.2, 0.1), (1.1, 0.55), (2.0, 1.0)), T,
                                                      n=72, n_spectral=128) for T in (0.3, 1.0))),
    "finite-box": ("finite box extrapolates to dynamical route at t>0", 1e-3,
                   lambda: finite_box_dynamical_error(
                       _WALLS, ((0.3, 0.9, 0.1, 32.0), (0.3, 0.9, 0.3, 32.0),
                                (0.5, 1.2, 0.6, 64.0), (1.0, 2.0, 1.0, 64.0)))[0]),
}

_FAST = ("gaussian", "conjugation", "reflection", "theta", "permutation", "orthogonality",
         "null", "density")
SUITES = {
    "fast": _FAST,
    "all": _FAST + ("quadrature", "form-factors", "routes", "hermiticity", "static", "boundary",
                    "finite-box"),
    "oracle": ("permutation", "orthogonality"),
    "oracle-full": ("permutation", "orthogonality", "form-factors", "routes"),
}


def run_suite(suite):
    """The report of a suite: one {name, passed, metric, tolerance} per check."""
    report = []
    for key in SUITES[suite]:
        name, tol, measure = CHECKS[key]
        metric = measure()
        report.append({"name": name, "passed": bool(metric <= tol), "metric": float(metric),
                       "tolerance": float(tol)})
    return report
