"""Named invariant checks behind the CLI `validate` and `oracle` commands.

Each check returns {"name", "passed", "metric", "tolerance"}; the fast suite
is a quick operational mirror of the full pytest acceptance battery.
"""

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
from .correlators import (
    PhysicalPoint,
    correlation_ground,
    correlation_static,
    correlation_thermal,
    density_of_temperature,
)
from .kernels import (
    DIRICHLET,
    GeometryParams,
    NEUMANN,
    ThermalParams,
    kernel_K_static,
    kernel_L,
    kernel_theta,
)
from .special_integrals import (
    DEFAULT_POLICY,
    damped_line_integral,
    gaussian_fresnel,
    pv_fresnel_hilbert,
    pv_quadrature,
)


def _check(name, metric, tol):
    return {"name": name, "passed": bool(metric <= tol), "metric": float(metric),
            "tolerance": float(tol)}


def check_gaussian_closed_form():
    from .special_integrals import RegularizationPolicy

    pol = RegularizationPolicy(damping=1e-2, extrapolation_orders=5)
    worst = 0.0
    for x, t in ((0.0, 1.0), (1.2, 0.7), (2.0, -0.4)):
        closed = gaussian_fresnel(x, t)
        damped = damped_line_integral(
            lambda s: np.exp(1j * t * s * s - 1j * x * s) / (2.0 * math.pi),
            pol, phase_scale=abs(t))
        worst = max(worst, abs(closed - damped) / (1.0 + abs(closed)))
    return _check("gaussian_fresnel closed form vs damped quadrature", worst, 1e-8)


def check_hilbert_conjugation():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        lam, y, t = rng.uniform(-2, 2, size=3)
        a = np.conj(pv_fresnel_hilbert(lam, y, t))
        b = pv_fresnel_hilbert(lam, -y, -t)
        worst = max(worst, abs(a - b))
    return _check("pv_fresnel_hilbert conjugation symmetry", worst, 1e-10)


def check_hilbert_vs_pv_quadrature():
    from .special_integrals import damped_weights, richardson_sequence

    worst = 0.0
    deltas = DEFAULT_POLICY.deltas
    for lam, y, t in ((0.7, 0.4, 1.0), (-1.2, 0.8, -0.5), (1.0, 2.0, 0.0)):
        closed = pv_fresnel_hilbert(lam, y, t)
        window = DEFAULT_POLICY.tail_cut + abs(lam)
        n_panels = int(window * (2 * abs(t) * window + abs(y) + 2) / 3.0)
        # one damped integrand per delta, rows of shape (k, ns)
        vals = pv_quadrature(
            lambda s: np.exp(1j * t * s * s - 1j * y * s)
            * damped_weights(s, np.ones(len(s)), deltas).T,
            lam, window=window, n_panels=n_panels)
        orc, _ = richardson_sequence(vals)
        worst = max(worst, abs(closed - orc) / (1.0 + abs(closed)))
    return _check("pv_fresnel_hilbert vs pv_quadrature oracle", worst, 5e-6)


def check_kernel_reflection():
    rng = np.random.default_rng(3)
    g = GeometryParams(0.4, 1.1, 0.6)
    lam, mu = rng.uniform(-2.5, 2.5, size=(30, 2)).T
    worst = np.max(np.abs(kernel_L(lam, -mu, g) - kernel_L(-lam, mu, g)))
    return _check("kernel reflection L(lam,-mu) = L(-lam,mu)", worst, 1e-10)


def check_theta_static_reduction():
    p0 = ThermalParams(h=1.3, T=0.0)
    grid = np.linspace(0.05, 2.0, 8)
    xi, eta = grid[:, None], grid[None, :]
    worst = max(np.max(np.abs(kernel_theta(xi, eta, kind, p0)
                              - kernel_K_static(xi, eta, kind, math.sqrt(p0.h))))
                for kind in (NEUMANN, DIRICHLET))
    return _check("thermal kernel at T=0 equals static sine kernel", worst, 1e-10)


def check_permutation_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for N in (1, 2, 3):
        for _ in range(10):
            f = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            g = rng.normal(size=(N + 1, N)) + 1j * rng.normal(size=(N + 1, N))
            lhs, rhs = permutation_identity_check(N, f, g)
            worst = max(worst, abs(lhs - rhs))
    return _check("permutation/determinant identity", worst, 1e-12)


def check_form_factors():
    rng = np.random.default_rng(5)
    worst = 0.0
    for kind in (NEUMANN, DIRICHLET):
        base = 0 if kind.eps > 0 else 1
        for _ in range(3):
            N = int(rng.integers(1, 3))
            ims = tuple(sorted(rng.choice(np.arange(base, base + 6), size=N, replace=False)))
            ils = tuple(sorted(rng.choice(np.arange(base, base + 7), size=N + 1, replace=False)))
            inp = FormFactorInput(I_lam=ils, I_mu=ims, x=float(rng.uniform(0.3, 2.6)),
                                  kind=kind, L=math.pi)
            a = form_factor(inp)
            b = form_factor_direct(inp, n=90 if N == 1 else 60)
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    return _check("form factor determinant vs direct integral", worst, 1e-8)


def check_orthogonality():
    worst = 0.0
    L = math.pi
    for kind in (NEUMANN, DIRICHLET):
        base = 0 if kind.eps > 0 else 1
        s1 = FiniteSystem(L=L, kind=kind, I=(base,))
        s2 = FiniteSystem(L=L, kind=kind, I=(base + 2,))
        diag = orthogonality_check(s1, s1)
        off = orthogonality_check(s1, s2)
        worst = max(worst, abs(diag - 2 * L) / (2 * L), abs(off) / (2 * L))
    return _check("state orthogonality (N=1)", worst, 1e-10)


def check_route_equivalence():
    worst = 0.0
    L = math.pi
    for kind in (NEUMANN, DIRICHLET):
        sys = FiniteSystem.ground_state(2, L, kind)
        a = finite_L_correlation(sys, 0.7, 1.9, 0.0, lam_max=60.0)
        b = proposition_determinant(sys, 0.7, 1.9, 0.0, lam_max=60.0, mode="matched")
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return _check("finite-size correlator route equivalence (t=0, N=2)", worst, 1e-8)


def check_dirichlet_null():
    pt = PhysicalPoint(0.0, 0.9, 0.4, DIRICHLET, ThermalParams(h=1.0, T=0.0), D=1.0)
    res = correlation_ground(pt, n=48, with_error=False)
    ptn = PhysicalPoint(0.0, 0.9, 0.4, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    scale = abs(correlation_ground(ptn, n=48, with_error=False).value)
    return _check("Dirichlet correlator vanishes at the wall", abs(res.value) / scale, 1e-10)


def check_hermiticity():
    pt_a = PhysicalPoint(0.3, 0.9, 0.5, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    pt_b = PhysicalPoint(0.9, 0.3, -0.5, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    a = correlation_ground(pt_a, n=56, with_error=False).value
    b = correlation_ground(pt_b, n=56, with_error=False).value
    return _check("hermiticity value(x1,x2,t)* = value(x2,x1,-t)",
                  abs(np.conj(a) - b) / abs(a), 1e-8)


def check_static_matches_dynamic():
    p = ThermalParams(h=1.0, T=0.5)
    pt = PhysicalPoint(0.4, 1.1, 0.0, NEUMANN, p)
    a = correlation_thermal(pt, n=100, with_error=False).value
    b = correlation_static(0.4, 1.1, NEUMANN, p, n=90)
    return _check("static minor equals dynamic value at t=0", abs(a - b) / abs(a), 1e-9)


def check_density_limit():
    d = density_of_temperature(ThermalParams(h=1.0, T=1e-4))
    return _check("density T->0 limit sqrt(h)/pi", abs(d - 1.0 / math.pi), 1e-3)


FAST_CHECKS = (
    check_gaussian_closed_form,
    check_hilbert_conjugation,
    check_kernel_reflection,
    check_theta_static_reduction,
    check_permutation_identity,
    check_orthogonality,
    check_dirichlet_null,
    check_density_limit,
)

SLOW_CHECKS = (
    check_hilbert_vs_pv_quadrature,
    check_form_factors,
    check_route_equivalence,
    check_hermiticity,
    check_static_matches_dynamic,
)


def run_suite(suite="fast"):
    checks = FAST_CHECKS if suite == "fast" else FAST_CHECKS + SLOW_CHECKS
    return [fn() for fn in checks]


def oracle_checks(quick=True):
    checks = [check_permutation_identity, check_orthogonality]
    if not quick:
        checks += [check_form_factors, check_route_equivalence]
    return [fn() for fn in checks]
