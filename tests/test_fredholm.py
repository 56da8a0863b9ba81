import math

import numpy as np
import pytest

from bosefredholm.errors import InvalidGrid, SingularOperator
from bosefredholm.fredholm import (
    COND_LIMIT,
    DiscretizedOperator,
    Quadrature,
    RankOnePerturbation,
    _factor,
    _solve,
    build_grid,
    det_with_rank_one_derivative,
    fredholm_det,
    fredholm_minor_first,
    thermal_cut,
)
from bosefredholm.kernels import GeometryParams, NEUMANN, ThermalParams, kernel_L, kernel_V, kernel_W


def resolvent_apply(op, rhs):
    """Solve (I - scale*K-hat) u = rhs at the nodes (one refinement step)
    from the one factorisation and the guarded solve that the library's
    derivative and minor routines share; no library function returns u."""
    factors, mat, _ = _factor(op)
    return _solve(factors, mat, rhs)


def test_build_grid_two_point():
    q = build_grid((0.0, 1.0), 2)
    assert np.allclose(q.nodes, [0.5 - 0.5 / math.sqrt(3), 0.5 + 0.5 / math.sqrt(3)])
    assert np.sum(q.weights) == pytest.approx(1.0, abs=1e-15)


def test_build_grid_thermal_truncation():
    p = ThermalParams(h=1.0, T=0.1)
    q = build_grid((0.0, math.inf), 32, thermal=p)
    assert q.truncation == pytest.approx(math.sqrt(1.0 + 0.1 * math.log(1e14)))
    assert thermal_cut(1.0, 0.1) == q.truncation


def test_build_grid_invalid():
    with pytest.raises(InvalidGrid):
        build_grid((0.0, 1.0), 1)
    with pytest.raises(InvalidGrid):
        build_grid((1.0, 1.0), 8)
    with pytest.raises(InvalidGrid):
        build_grid((0.0, math.inf), 8)


def test_quadrature_invariants():
    with pytest.raises(InvalidGrid):
        Quadrature(nodes=np.array([0.5, 0.2]), weights=np.array([0.5, 0.5]), a=0.0, b=1.0)
    with pytest.raises(InvalidGrid):
        Quadrature(nodes=np.array([0.2, 0.5]), weights=np.array([0.5, -0.5]), a=0.0, b=1.0)


def _op(kernel, a, b, n, scale=1.0):
    quad = build_grid((a, b), n)
    return DiscretizedOperator.from_kernel(kernel, quad, scale)


def test_det_zero_kernel():
    op = _op(lambda l, m: np.zeros(np.broadcast(l, m).shape, dtype=complex), 0.0, 1.0, 16)
    assert fredholm_det(op) == pytest.approx(1.0)


def test_det_separable_kernel():
    # k(l,m) = a(l) b(m) on [0,1]: det(I - K) = 1 - int a*b
    a = lambda l: np.exp(l)
    b = lambda m: np.cos(m)
    op = _op(lambda l, m: (a(l) * b(m)).astype(complex), 0.0, 1.0, 24)
    from scipy.integrate import quad
    integral = quad(lambda x: math.exp(x) * math.cos(x), 0, 1)[0]
    assert fredholm_det(op) == pytest.approx(1.0 - integral, abs=1e-12)


def test_det_w_kernel_x0():
    op = _op(lambda l, m: kernel_W(l, m, 0.0).astype(complex), 0.0, math.pi, 20,
             scale=2.0 / math.pi)
    assert fredholm_det(op) == pytest.approx(1.0)


def test_det_symmetrized_equals_plain():
    # sqrt(w) K sqrt(w) similarity invariance vs plain K D_w
    g = GeometryParams(0.4, 1.1, 0.5)
    quad = build_grid((0.0, 2.0), 24)
    mat = kernel_V(quad.nodes[:, None], quad.nodes[None, :], NEUMANN, g)
    op = DiscretizedOperator(quadrature=quad, matrix=mat, scale=2.0 / math.pi)
    plain = np.linalg.det(op.id_minus())
    assert abs(fredholm_det(op) - plain) < 1e-12 * abs(plain)


def test_resolvent_zero_kernel_and_identity():
    op = _op(lambda l, m: np.zeros(np.broadcast(l, m).shape, dtype=complex), 0.0, 1.0, 12)
    rhs = np.sin(op.quadrature.nodes).astype(complex)
    assert np.allclose(resolvent_apply(op, rhs), rhs)

    op2 = _op(lambda l, m: np.cos(l - m).astype(complex), 0.0, 1.0, 24, scale=0.7)
    rhs2 = np.sin(op2.quadrature.nodes).astype(complex)
    u = resolvent_apply(op2, rhs2)
    residual = u - 0.7 * (op2.matrix * op2.effective_weights()[None, :]) @ u - rhs2
    assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(rhs2))


def test_resolvent_separable_sherman_morrison():
    # K = a(l) b(m): (I - K)^{-1} rhs = rhs + a <b, rhs>/(1 - <b, a>)
    quad = build_grid((0.0, 1.0), 32)
    a = np.exp(quad.nodes)
    b = np.cos(quad.nodes)
    op = DiscretizedOperator(quadrature=quad,
                             matrix=np.outer(a, b).astype(complex), scale=1.0)
    rhs = np.sin(quad.nodes).astype(complex)
    w = quad.weights
    expected = rhs + a * np.sum(w * b * rhs) / (1.0 - np.sum(w * b * a))
    assert np.allclose(resolvent_apply(op, rhs), expected, atol=1e-12)


def test_resolvent_singular_guard():
    # rank-one kernel tuned so that I - K is singular
    quad = build_grid((0.0, 1.0), 16)
    a = np.ones(16)
    norm = np.sum(quad.weights)
    op = DiscretizedOperator(quadrature=quad,
                             matrix=np.outer(a, a).astype(complex) / norm, scale=1.0)
    with pytest.raises(SingularOperator):
        resolvent_apply(op, a.astype(complex))


def _operator_with_id_minus(quad, target):
    """An operator whose I - scale*K*W is `target` (up to rounding)."""
    w = quad.weights
    return DiscretizedOperator(quadrature=quad, matrix=(np.eye(quad.n) - target) / w[None, :],
                               scale=1.0)


@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_rcond_guard_refuses_what_the_svd_guard_refused(n):
    # operators with prescribed cond_2 (U diag(s) V^H) on both sides of
    # COND_LIMIT: every one that the SVD test cond_2 > COND_LIMIT refused is
    # refused, and moderate conditions pass
    rng = np.random.default_rng(n)
    quad = build_grid((0.0, 1.0), n)
    rhs = np.ones(n, dtype=complex)
    pert = RankOnePerturbation(f_values=rhs, g_values=rhs)
    refused = 0
    for cond in np.geomspace(1e9, 1e15, 25):
        for spread in (True, False):
            u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            s = np.geomspace(1.0, 1.0 / cond, n) if spread else np.r_[np.ones(n - 1), 1.0 / cond]
            op = _operator_with_id_minus(quad, (u * s) @ v.conj().T)
            if np.linalg.cond(op.id_minus()) > COND_LIMIT:
                refused += 1
                with pytest.raises(SingularOperator):
                    resolvent_apply(op, rhs)
                with pytest.raises(SingularOperator):
                    det_with_rank_one_derivative(op, pert)
    assert refused >= 20
    for cond in (1.0, 1e4, 1e8):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        op = _operator_with_id_minus(quad, (u * np.geomspace(1.0, 1.0 / cond, n)) @ u.conj().T)
        u_sol = resolvent_apply(op, rhs)
        assert np.max(np.abs(op.id_minus() @ u_sol - rhs)) < 1e-6


def test_rank_one_derivative_trivial_and_fd():
    quad = build_grid((0.0, 1.0), 20)
    zero = DiscretizedOperator(quadrature=quad,
                               matrix=np.zeros((20, 20), dtype=complex), scale=1.0)
    # f == 0 -> derivative 0
    pert0 = RankOnePerturbation(f_values=np.zeros(20, dtype=complex),
                                g_values=np.ones(20, dtype=complex))
    assert det_with_rank_one_derivative(zero, pert0)[1] == 0.0
    # zero op, f = g = 1 on [0,1]: derivative = -int f g = -1
    pert1 = RankOnePerturbation(f_values=np.ones(20, dtype=complex),
                                g_values=np.ones(20, dtype=complex))
    det, dd = det_with_rank_one_derivative(zero, pert1)
    assert det == pytest.approx(1.0)
    assert dd == pytest.approx(-1.0, abs=1e-14)

    # generic case vs central finite difference in alpha
    g = GeometryParams(0.3, 0.8, 0.4)
    quad = build_grid((0.0, 2.0), 24)
    mat = kernel_V(quad.nodes[:, None], quad.nodes[None, :], NEUMANN, g)
    op = DiscretizedOperator(quadrature=quad, matrix=mat, scale=2.0 / math.pi)
    f = np.exp(1j * quad.nodes)
    gv = np.cos(quad.nodes) + 0.2j
    pert = RankOnePerturbation(f_values=f, g_values=gv, sign=1)
    det, dd = det_with_rank_one_derivative(op, pert)
    w = op.effective_weights()
    step = 1e-5

    def full_det(alpha):
        m = np.eye(24) - (op.scale * mat + alpha * np.outer(f, gv)) * w[None, :]
        return np.linalg.det(m)

    fd = (full_det(step) - full_det(-step)) / (2 * step)
    assert abs(dd - fd) < 1e-6 * abs(dd)


def test_minor_zero_and_separable():
    quad = build_grid((0.0, 1.0), 16)
    zero = DiscretizedOperator(quadrature=quad,
                               matrix=np.zeros((16, 16), dtype=complex),
                               scale=0.5,
                               kernel=lambda l, m: np.zeros(np.broadcast(l, m).shape,
                                                            dtype=complex))
    assert fredholm_minor_first(zero, 0.3, 0.7) == pytest.approx(0.0)

    # separable k = a(l)b(m), scale s: closed-form first minor
    # det = 1 - s*I_ab, resolvent column D(z) = -s a(z) b(eta)/(1 - s I_ab)
    # minor = det * D(xi) = -s a(xi) b(eta)
    s = 0.37
    a = lambda z: np.exp(z)
    b = lambda z: np.cos(z)
    op = DiscretizedOperator.from_kernel(lambda l, m: (a(l) * b(m)).astype(complex),
                                         quad, s)
    xi, eta = 0.25, 0.85
    assert fredholm_minor_first(op, xi, eta) == pytest.approx(
        -s * a(xi) * b(eta), abs=1e-12)


def test_minor_weak_kernel_series():
    # weak kernel: minor matches the truncated series
    # det(1-sK | xi/eta) = -s K(xi,eta) + s^2 int [K(u,u)K(xi,eta)-K(xi,u)K(u,eta)]du - ...
    s = 0.05
    kern = lambda l, m: np.exp(-(l - m) ** 2).astype(complex)
    quad = build_grid((0.0, 1.0), 40)
    op = DiscretizedOperator.from_kernel(kern, quad, s)
    xi, eta = 0.3, 0.6
    minor = fredholm_minor_first(op, xi, eta)
    from scipy.integrate import quad as squad, dblquad
    k = lambda a, b: math.exp(-(a - b) ** 2)
    term1 = -s * k(xi, eta)
    term2 = s ** 2 * squad(lambda u: k(u, u) * k(xi, eta) - k(xi, u) * k(u, eta), 0, 1)[0]
    term3 = -s ** 3 / 2.0 * dblquad(
        lambda v, u: (k(xi, eta) * (k(u, u) * k(v, v) - k(u, v) * k(v, u))
                      - k(xi, u) * (k(u, eta) * k(v, v) - k(v, eta) * k(u, v))
                      + k(xi, v) * (k(u, eta) * k(v, u) - k(v, eta) * k(u, u))),
        0, 1, 0, 1)[0]
    assert abs(minor - (term1 + term2 + term3)) < abs(s) ** 4


def test_minor_scale_linearity():
    kern = lambda l, m: np.exp(-(l - m) ** 2).astype(complex)
    quad = build_grid((0.0, 1.0), 30)
    xi, eta = 0.3, 0.6
    vals = []
    for s in (1e-3, 5e-4, 2.5e-4):
        op = DiscretizedOperator.from_kernel(kern, quad, s)
        vals.append(fredholm_minor_first(op, xi, eta) / s)
    assert abs(vals[-1] - (-math.exp(-(xi - eta) ** 2))) < 1e-3


def test_node_doubling_stability_t0():
    # smooth t=0 kernels: doubling nodes moves the determinant < 1e-10
    g = GeometryParams(0.3, 0.9, 0.0)
    dets = []
    for n in (64, 128):
        quad = build_grid((0.0, math.pi), n)
        mat = kernel_V(quad.nodes[:, None], quad.nodes[None, :], NEUMANN, g)
        op = DiscretizedOperator(quadrature=quad, matrix=mat, scale=2.0 / math.pi)
        dets.append(fredholm_det(op))
    assert abs(dets[0] - dets[1]) <= 1e-10 * (1 + abs(dets[1]))


def test_half_full_interval_resolvent_relation():
    # R_eps(l,m) = S(l,m) + eps*S(l,-m): half-interval resolvent from the
    # full-interval one (the kernels module analytic diagonal keeps this
    # at the 1e-8 level)
    x1, x2, t, q, n = 0.35, 0.9, 0.3, math.pi, 36
    g = GeometryParams(x1, x2, t)
    full = build_grid((-q, q), 2 * n)
    half = build_grid((0.0, q), n)

    def lmat(rows, cols):
        return kernel_L(rows[:, None], cols[None, :], g)

    LF = lmat(full.nodes, full.nodes)
    wF = full.weights
    solveF = lambda rhs: np.linalg.solve(np.eye(2 * n) - (2 / math.pi) * LF * wF[None, :], rhs)
    for eps in (1, -1):
        VH = lmat(half.nodes, half.nodes) + eps * lmat(half.nodes, -half.nodes)
        wH = half.weights
        RH = np.linalg.solve(np.eye(n) - (2 / math.pi) * VH * wH[None, :], VH)
        SP = lmat(half.nodes, half.nodes) + (2 / math.pi) * (lmat(half.nodes, full.nodes)
                                                             * wF[None, :]) @ solveF(lmat(full.nodes, half.nodes))
        SM = lmat(half.nodes, -half.nodes) + (2 / math.pi) * (lmat(half.nodes, full.nodes)
                                                              * wF[None, :]) @ solveF(lmat(full.nodes, -half.nodes))
        assert np.max(np.abs(RH - (SP + eps * SM))) < 1e-8
