import math

import numpy as np
import pytest
from scipy.linalg import lu_factor

from bosefredholm.correlators import (
    PhysicalPoint,
    boundary_w_det,
    correlation_boundary_neumann,
    correlation_ground,
    correlation_static,
    correlation_thermal,
    density_of_temperature,
    static_ground_K,
)
from bosefredholm.errors import InvalidParameter
from bosefredholm.fredholm import (
    DiscretizedOperator,
    Quadrature,
    build_grid,
    fredholm_minor_first,
)
from bosefredholm.kernels import DIRICHLET, NEUMANN, ThermalParams, kernel_theta
from bosefredholm.validate import (
    boundary_dynamical_error,
    density_limit_error,
    dirichlet_null_ratio,
    hermiticity_error,
    static_dynamic_error,
)


def test_density_examples():
    # T -> 0 limit: sqrt(h)/pi
    assert density_limit_error(1e-4) < 1e-3
    assert density_of_temperature(ThermalParams(h=1.0, T=0.0)) == pytest.approx(1 / math.pi)
    # node-doubling stable
    d1 = density_of_temperature(ThermalParams(h=1.0, T=1.0), n=200)
    d2 = density_of_temperature(ThermalParams(h=1.0, T=1.0), n=400)
    assert abs(d1 - d2) < 1e-10


def test_physical_point_validation():
    with pytest.raises(ValueError):
        PhysicalPoint(0.1, 0.2, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0))
    pt = PhysicalPoint(0.1, 0.2, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0), D=0.5)
    assert pt.q == pytest.approx(0.5 * math.pi)


def test_out_of_domain_evaluator_parameters_raise_invalid_parameter():
    ground = ThermalParams(h=1.0, T=0.0)
    with pytest.raises(InvalidParameter, match="Neumann-only"):
        correlation_boundary_neumann(0.5, 0.3, PhysicalPoint(0.0, 0.5, 0.3, DIRICHLET, ground, D=1.0))
    with pytest.raises(InvalidParameter, match="T = 0"):
        correlation_ground(PhysicalPoint(0.2, 0.5, 0.3, NEUMANN, ThermalParams(h=1.0, T=0.4)))
    with pytest.raises(InvalidParameter, match="T > 0"):
        correlation_thermal(PhysicalPoint(0.3, 0.8, 0.2, NEUMANN, ground, D=1.0))
    for momentum in (0.0, -1.0):
        with pytest.raises(InvalidParameter, match="momentum"):
            static_ground_K(0.2, 0.5, NEUMANN, momentum)


def test_one_lu_factorisation_per_operator(monkeypatch):
    # det, condition guard and refined solve share one lu_factor; numpy's
    # slogdet, cond, svd and det are not called
    import bosefredholm.fredholm as fredholm
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a second factorisation")

    monkeypatch.setattr(fredholm, "lu_factor", counting)
    for name in ("slogdet", "cond", "svd", "det"):
        monkeypatch.setattr(np.linalg, name, refused)
    pt = PhysicalPoint(0.4, 1.1, 0.5, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    correlation_ground(pt, n=32)                # node doubling: n = 16 and 32
    assert shapes == [(16, 16), (32, 32)]
    shapes.clear()
    correlation_static(0.4, 1.1, NEUMANN, ThermalParams(h=1.0, T=0.5), n=24)
    assert shapes == [(24, 24)]


def test_dirichlet_wall_null_ground_and_thermal():
    assert dirichlet_null_ratio(T=0.0, n=48) <= 1e-10
    assert dirichlet_null_ratio(T=0.4, n=64) <= 1e-10


def test_hermiticity_thermal():
    assert hermiticity_error(0.4, 1.0, 0.3, DIRICHLET, T=0.6, n=80) <= 1e-8


def test_result_parts_recompose():
    from bosefredholm.special_integrals import gaussian_fresnel
    pt = PhysicalPoint(0.3, 0.9, 0.5, NEUMANN, ThermalParams(h=1.3, T=0.0), D=1.0)
    res = correlation_ground(pt, n=48, with_error=False)
    gsum = gaussian_fresnel(0.3 - 0.9, 0.5) + gaussian_fresnel(0.3 + 0.9, 0.5)
    recomposed = np.exp(-1j * 1.3 * 0.5) * (gsum * res.det_part
                                            + res.derivative_part / (2 * math.pi))
    assert abs(recomposed - res.value) < 1e-13


def test_error_estimate_bounds_next_doubling():
    pt = PhysicalPoint(0.4, 1.1, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.5))
    r64 = correlation_thermal(pt, n=64)     # compares n=32 vs 64
    r128 = correlation_thermal(pt, n=128)   # compares n=64 vs 128
    assert r128.error_estimate <= r64.error_estimate + 1e-14


def test_thermal_smallT_matches_ground():
    # T -> 0 continuity against the ground evaluator at q = sqrt(h)
    h = 1.0
    pt_t = PhysicalPoint(0.3, 0.8, 0.2, NEUMANN, ThermalParams(h=h, T=1e-4))
    pt_g = PhysicalPoint(0.3, 0.8, 0.2, NEUMANN, ThermalParams(h=h, T=0.0),
                         D=math.sqrt(h) / math.pi)
    a = correlation_thermal(pt_t, n=220, with_error=False).value
    b = correlation_ground(pt_g, n=64, with_error=False).value
    assert abs(a - b) / abs(b) < 1e-3


def test_static_symmetry_and_match():
    p = ThermalParams(h=1.0, T=0.5)
    assert correlation_static(0.4, 1.1, NEUMANN, p, n=64) == pytest.approx(
        correlation_static(1.1, 0.4, NEUMANN, p, n=64))
    # equals the dynamical evaluator at t = 0 (both boundary kinds)
    for kind in (NEUMANN, DIRICHLET):
        assert static_dynamic_error(kind, n_dynamic=110, n_static=90) <= 1e-9, kind.eps


def test_static_coincident_point():
    p = ThermalParams(h=1.0, T=0.5)
    v = correlation_static(0.7, 0.7, NEUMANN, p)
    assert v == pytest.approx(kernel_theta(0.7, 0.7, NEUMANN, p) / math.pi)


def _theta_minor(quad, x1, x2, kind, p, weight_fn=None):
    op = DiscretizedOperator.from_kernel(
        lambda a, b: kernel_theta(a, b, kind, p).astype(complex),
        quad, 2.0 / math.pi, weight_fn=weight_fn)
    return complex(0.5 * fredholm_minor_first(op, x2, x1))


def minor_symmetric_interval_form(x1, x2, kind, p, n=64):
    """(1/2) * minor with the operator over [-x1, x2] (alternate path)."""
    return _theta_minor(build_grid((-x1, x2), n), x1, x2, kind, p)


def step_weight(y1, y2, xip):
    """E(y1 - xi') + E(y2 - xi') with the step E(0) = 1 convention."""
    xip = np.asarray(xip, dtype=float)
    out = (y1 - xip >= 0).astype(int) + (y2 - xip >= 0).astype(int)
    return out if np.ndim(out) else int(out)


def test_step_weight():
    assert step_weight(0.5, 1.0, 0.2) == 2
    assert step_weight(0.5, 1.0, 1.5) == 0
    assert step_weight(0.5, 1.0, 0.5) == 2   # E(0) = 1
    assert step_weight(0.5, 1.0, 0.7) == 1
    arr = step_weight(0.5, 1.0, np.array([0.2, 0.7, 1.5]))
    assert list(arr) == [2, 1, 0]


def minor_step_weight_form(x1, x2, kind, p, n=64):
    """(1/2) * minor with the step-weighted half-line operator (alternate path).

    Kernel theta(xi, xi') * (E(x1 - xi') + E(x2 - xi')) on [0, max(x1, x2)];
    the weight is piecewise constant, so the grid is split at min(x1, x2).
    """
    lo, hi = min(x1, x2), max(x1, x2)
    if lo <= 0.0:
        quads = [build_grid((0.0, hi), n)]
    else:
        quads = [build_grid((0.0, lo), n), build_grid((lo, hi), n)]
    quad = Quadrature(nodes=np.concatenate([q.nodes for q in quads]),
                      weights=np.concatenate([q.weights for q in quads]), a=0.0, b=hi)
    return _theta_minor(quad, x1, x2, kind, p,
                        weight_fn=lambda z: step_weight(x1, x2, z).astype(float))


def test_static_alternate_paths_reported_relations():
    # printed step-weight minor = 2x the [-x1,x2] interval minor (the pinned
    # column carries the weight E(0)=1 twice); neither equals the dynamical
    # t=0 value, which correlation_static matches by construction
    p = ThermalParams(h=1.0, T=0.5)
    x1, x2 = 0.4, 1.1
    a = minor_symmetric_interval_form(x1, x2, NEUMANN, p, n=90)
    b = minor_step_weight_form(x1, x2, NEUMANN, p, n=90)
    assert abs(b - 2 * a) < 2e-3 * abs(b)
    c = correlation_static(x1, x2, NEUMANN, p, n=90)
    assert abs(a - (-c)) > 1e-3 * abs(c)  # interval [-x1,x2] differs from [x1,x2]


def test_static_ground_K_examples():
    # coincident points: minor reduces to -(2/pi) K(x,x), giving
    # (1/2)(-(2/pi))(q + sin(2 q x)/(2x))
    q = 1.0
    x = 0.7
    v = static_ground_K(x, x, NEUMANN, q)
    assert v == pytest.approx(-(1 / math.pi) * (q + math.sin(2 * q * x) / (2 * x)))
    # q -> 0: value vanishes linearly
    v1 = static_ground_K(0.3, 0.9, NEUMANN, 1e-3)
    v2 = static_ground_K(0.3, 0.9, NEUMANN, 5e-4)
    assert abs(v1) < 2e-3 and abs(v1 / v2) == pytest.approx(2.0, rel=0.05)


def test_static_ground_vs_thermal_minor_sign():
    # the ground-state minor keeps the printed normalization; the physical
    # equal-time value is its negative at momentum sqrt(h) when T -> 0
    h = 1.44
    p0 = ThermalParams(h=h, T=0.0)
    for kind in (NEUMANN, DIRICHLET):
        a = correlation_static(0.4, 1.1, kind, p0, n=80)
        b = static_ground_K(0.4, 1.1, kind, math.sqrt(h), n=80)
        assert abs(a + b) < 1e-10 * abs(a), kind.eps


@pytest.mark.parametrize("T", [0.3, 1.0])
def test_boundary_route_matches_dynamical_route_at_positive_T(T):
    # the criterion-5 points on the thermal line: b needs 128 spectral
    # nodes there (at 32 the two routes differ by 1.4e-3)
    points = ((0.2, 0.1), (1.1, 0.55), (2.0, 1.0))
    assert boundary_dynamical_error(points, T, n=72, n_spectral=128) <= 1e-10


def test_boundary_det_time_independent():
    pt = PhysicalPoint(0.0, 0.9, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    dets = [boundary_w_det(0.9, t, pt, n=48) for t in (0.0, 0.5, 1.0)]
    assert abs(dets[0] - dets[1]) < 1e-12
    assert abs(dets[0] - dets[2]) < 1e-12


def test_t_to_zero_monotone_chain():
    # |dynamical derivative part - static minor| decreases monotonically
    # along t = 1e-2, 1e-3, 1e-4 (the rate is O(sqrt(t)); only monotonicity
    # is asserted here)
    p = ThermalParams(h=1.0, T=0.5)
    static = correlation_static(0.4, 1.1, NEUMANN, p, n=110)
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        pt = PhysicalPoint(0.4, 1.1, t, NEUMANN, p)
        res = correlation_thermal(pt, n=130, with_error=False)
        errs.append(abs(res.derivative_part / (2 * math.pi) - static))
    assert errs[0] > errs[1] > errs[2]
