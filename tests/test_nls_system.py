import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosefredholm.correlators import (
    PhysicalPoint,
    correlation_boundary_neumann,
    correlation_ground,
)
from bosefredholm.errors import DegenerateDelta
from bosefredholm.fredholm import DiscretizedOperator, build_grid
from bosefredholm.kernels import (
    GeometryParams,
    NEUMANN,
    ThermalParams,
    kernel_L,
    spectral_grid,
)
from bosefredholm.nls_system import (
    LINE_BASE_WIDTH,
    LINE_PHASE_PER_PANEL,
    NEAR_BAND,
    AuxField,
    FourPointConfig,
    LineGrid,
    P_MATRICES,
    _stencil_shifts,
    adapt_policy,
    build_aux_fields,
    build_b,
    build_line_grid,
    line_chirps,
    reciprocal_table,
)
from bosefredholm.special_integrals import (
    FINE_POLICY,
    NEAR_DIAGONAL,
    RegularizationPolicy,
    damped_limit,
    damped_weights,
    gaussian_fresnel,
    graded_line_grid,
    pv_fresnel_hilbert,
)
from test_kernels import _hilbert_mp, kernel_P


POL3 = RegularizationPolicy(damping=4e-3)
POL4 = RegularizationPolicy(damping=4e-3, extrapolation_orders=4)


def stack_of_one(cfg, lam, policy):
    """(sampled, M, Q, degenerate) of cfg as build_b forms them under policy:
    the _Sampled of the stack of one on the spectral nodes lam, M-hat on
    lam, and Q with its flagged degenerate entries."""
    import bosefredholm.nls_system as nls
    lam = np.asarray(lam, dtype=float)
    grid = nls._chosen_line_grid(cfg, policy)
    stack = nls._ClosedForm([cfg]) if grid is None else nls._LineSamples([cfg], grid)
    sampled = stack.on(lam)
    Q, degenerate = nls._q_matrices(stack.aux, sampled.q)
    return sampled, nls._m_hat(lam, sampled)[0], Q[0], degenerate[0]


def test_aux_field_bookkeeping():
    cfg = FourPointConfig.correlation(0.4, 1.2, 0.7)
    a1, a2 = build_aux_fields(cfg)
    assert (a1.dy, a1.dt) == (0.8, 0.0)
    assert (a2.dy, a2.dt) == (2.4, 0.0)
    # pair-1 slot-a phase at the correlation configuration: e^{+i x1 lam}
    lam = 0.9
    assert a1.row_phase(lam) == pytest.approx(np.exp(1j * 0.4 * lam))
    assert a2.col_phase(lam) == pytest.approx(np.exp(-0.7j * lam ** 2 + 1.2j * lam))


def test_aux_coincident_pair_conventions():
    sym = AuxField(0.3, 0.1, 0.3, 0.1, coincident_sign=0)
    assert np.all(sym.hilbert(np.array([0.2, 1.0])) == 0.0)
    directional = AuxField(0.0, 0.0, 0.0, 0.0, coincident_sign=1)
    assert np.allclose(directional.hilbert(np.array([0.2, 1.0])), -0.5j)


def test_aux_hilbert_vs_closed_form():
    a = AuxField(-0.4, 0.0, 0.4, 0.0)
    lam = np.array([0.3, -1.1])
    # dt = 0, dy = 0.8 > 0: G = -(i/2) e^{-i dy lam}
    assert np.allclose(a.hilbert(lam), -0.5j * np.exp(-0.8j * lam))
    # derivative consistent with a finite difference
    d = (a.hilbert(lam + 5e-7) - a.hilbert(lam - 5e-7)) / 1e-6
    assert np.allclose(a.hilbert_deriv(lam), d, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.one_of(st.floats(-2.0, -0.05), st.floats(0.05, 2.0)),
       st.floats(-3.0, 3.0))
@pytest.mark.parametrize("d", (1e-9, 1.01e-7, 1e-6, 1e-5, 0.99e-4, 1.01e-4, 1e-3))
def test_hilbert_diffquot_equals_mpmath_oracle(d, dy, dt, lam):
    # below NEAR_DIAGONAL the quotient is the two-point Gauss-Legendre mean
    # of G' (off by d^4 G^(5)/4320), above it the quotient as it stands
    # (rounding of about 1e-16/d): either side holds 1e-11
    a = AuxField(0.0, 0.0, dy, dt)
    s = lam + d
    with mp.workdps(40):
        x, y, t = (mp.mpf(v) for v in (lam, s, a.dt))
        ref = complex((_hilbert_mp(x, a.dy, t) - _hilbert_mp(y, a.dy, t)) / (x - y) / (2 * mp.pi))
    got = a.hilbert_diffquot(np.array([lam]), np.array([s]))[0]
    assert abs(got - ref) <= 1e-11 * (1.0 + abs(ref))


def e_left(aux, lam, g=None):
    """Row 2-vector e_p^L = row_phase [-1, G] sampled at lam: shape (..., 2)."""
    a = aux.row_phase(lam)
    return np.stack([-a, a * (aux.hilbert(lam) if g is None else g)], axis=-1)


def e_right(aux, mu, g=None):
    """Column 2-vector e_p^R = (2/pi) col_phase [G, 1] sampled at mu: shape (2, ...)."""
    b = (2.0 / math.pi) * aux.col_phase(mu)
    return np.stack([b * (aux.hilbert(mu) if g is None else g), b], axis=0)


def build_K_p(p_index, cfg, quadrature):
    """Integral operator K_p on a grid; kernel (pi/2) e_p^L(lam) e_p^R(mu)/(lam-mu).

    The scalar numerator vanishes on the diagonal; the analytic limit is
    row_phase * col_phase * G_p'.
    """
    aux = build_aux_fields(cfg)[p_index - 1]

    def kern(lam, mu):
        return aux.row_phase(lam) * aux.col_phase(mu) * aux.hilbert_diffquot(lam, mu)

    return DiscretizedOperator.from_kernel(kern, quadrature, 2.0 / math.pi)


def test_K_p_kernel_and_diagonal():
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    quad = build_grid((-1.5, 1.5), 10)
    op = build_K_p(1, cfg, quad)
    a1 = build_aux_fields(cfg)[0]
    lam = quad.nodes
    # off-diagonal entries: A(l) B(m) (G(l)-G(m))/(l-m)
    i, j = 2, 7
    expected = (a1.row_phase(lam[i]) * a1.col_phase(lam[j])
                * (a1.hilbert(lam[i]) - a1.hilbert(lam[j])) / (lam[i] - lam[j]))
    assert abs(op.matrix[i, j] - expected) < 1e-12
    # diagonal equals the offset extrapolation
    kd = op.matrix[3, 3]
    k1 = (a1.row_phase(lam[3]) * a1.col_phase(lam[3] + 1e-5)
          * (a1.hilbert(lam[3]) - a1.hilbert(lam[3] + 1e-5)) / (-1e-5))
    k2 = (a1.row_phase(lam[3]) * a1.col_phase(lam[3] + 2e-5)
          * (a1.hilbert(lam[3]) - a1.hilbert(lam[3] + 2e-5)) / (-2e-5))
    assert abs(kd - (2 * k1 - k2)) < 1e-8


def test_E_vector_bare_components():
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    lam = np.linspace(-1.0, 1.0, 7)
    sampled = stack_of_one(cfg, lam, POL3)[0]
    a1, a2 = build_aux_fields(cfg)
    assert np.allclose(sampled.EL[0][:, :2], e_left(a1, lam), atol=1e-14)
    assert np.allclose(sampled.ER[0][2:, :], e_right(a2, lam), atol=1e-14)


def test_E_vector_degenerate_first_pair():
    # coincident first pair with symmetric convention: G1 = 0 identically,
    # so K1 vanishes and components 3,4 of E^L reduce to e_2^L
    cfg = FourPointConfig(y=(0.3, 0.3, -0.5, 0.9), t=(0.2, 0.2, 0.0, 0.4))
    lam = np.linspace(-1.0, 1.0, 6)
    EL = stack_of_one(cfg, lam, POL3)[0].EL[0]
    a2 = build_aux_fields(cfg)[1]
    assert np.allclose(EL[:, 2:], e_left(a2, lam), atol=1e-12)


def test_E_vector_closed_ode_in_y():
    # d/dy_j E^R = (mu P_j + [Q, P_j]) E^R with O(step^2) convergence
    cfg = FourPointConfig(y=(0.15, 0.45, -0.35, 0.8), t=(0.1, 0.32, -0.2, 0.55))
    mus = np.array([0.37, -0.9])
    sampled, _, Q, _ = stack_of_one(cfg, mus, POL3)
    ER0 = sampled.ER[0]
    worst = {}
    for step in (2e-3, 1e-3):
        worst[step] = 0.0
        for j in range(4):
            dy = [0.0] * 4
            dy[j] = step
            ERp = stack_of_one(cfg.shifted(dy=tuple(dy)), mus, POL3)[0].ER[0]
            ERm = stack_of_one(cfg.shifted(dy=tuple(-v for v in dy)), mus, POL3)[0].ER[0]
            fd = (ERp - ERm) / (2 * step)
            for k, mu in enumerate(mus):
                lj = mu * P_MATRICES[j] + (Q @ P_MATRICES[j] - P_MATRICES[j] @ Q)
                worst[step] = max(worst[step], np.max(np.abs(fd[:, k] - lj @ ER0[:, k])))
    assert worst[2e-3] < 1e-4
    assert worst[2e-3] / worst[1e-3] > 3.0


def test_E_vector_closed_ode_in_t():
    # d/dt_j E^R = m_j(mu) E^R with m_j = -mu l_j + dQ/dy_j
    cfg = FourPointConfig(y=(0.15, 0.45, -0.35, 0.8), t=(0.1, 0.32, -0.2, 0.55))
    mus = np.array([0.37, -0.9])
    sampled, _, Q, _ = stack_of_one(cfg, mus, POL3)
    ER0 = sampled.ER[0]
    step = 2e-3
    dQ_dy = []
    for j in range(4):
        dy = [0.0] * 4
        dy[j] = step
        Qp = stack_of_one(cfg.shifted(dy=tuple(dy)), (), POL3)[2]
        Qm = stack_of_one(cfg.shifted(dy=tuple(-v for v in dy)), (), POL3)[2]
        dQ_dy.append((Qp - Qm) / (2 * step))
    worst = 0.0
    for j in range(4):
        dt = [0.0] * 4
        dt[j] = step
        ERp = stack_of_one(cfg.shifted(dt=tuple(dt)), mus, POL3)[0].ER[0]
        ERm = stack_of_one(cfg.shifted(dt=tuple(-v for v in dt)), mus, POL3)[0].ER[0]
        fd = (ERp - ERm) / (2 * step)
        for k, mu in enumerate(mus):
            lj = mu * P_MATRICES[j] + (Q @ P_MATRICES[j] - P_MATRICES[j] @ Q)
            mj = -mu * lj + dQ_dy[j]
            worst = max(worst, np.max(np.abs(fd[:, k] - mj @ ER0[:, k])))
    assert worst < 1e-4


def test_Q_structure():
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    _, _, Q, degenerate = stack_of_one(cfg, (), POL3)
    assert not degenerate
    assert np.all(Q[2:, :2] == 0.0)           # lower-left block vanishes
    assert Q[0, 0] == 0.0 and Q[1, 1] == 0.0  # sigma_+ blocks are strictly upper
    assert Q[0, 1] == pytest.approx(-gaussian_fresnel(0.5, 0.25))
    assert Q[2, 3] == pytest.approx(-gaussian_fresnel(1.2, 0.5))


def test_Q_degenerate_flagging():
    cfg = FourPointConfig(y=(0.3, 0.3, -0.5, 0.9), t=(0.2, 0.2, 0.0, 0.4))
    _, _, Q, degenerate = stack_of_one(cfg, (), POL3)
    assert degenerate == [(0, 1)]
    assert Q[0, 1] == 0.0


def test_coincident_pair_makes_no_raising_gaussian_fresnel_call(monkeypatch):
    # the coincident first pair of the x1 = 0 configuration is flagged from
    # AuxField.coincident; gaussian_fresnel(0, 0) is never asked for
    import bosefredholm.nls_system as nls
    raised = []

    def counting(x, t):
        try:
            return gaussian_fresnel(x, t)
        except DegenerateDelta:
            raised.append((x, t))
            raise

    monkeypatch.setattr(nls, "gaussian_fresnel", counting)
    pt = PhysicalPoint(0.0, 0.9, 0.4, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    mats = build_b(FourPointConfig.correlation(0.0, 0.9, 0.4), pt, n=16)
    assert raised == []
    assert mats.degenerate_entries == [(0, 1)]
    assert mats.Q[0, 1] == 0.0


def test_Q14_closed_form_at_correlation_cfg():
    # at the correlation configuration the (1,4) entry collapses to G(x1+x2)
    x1, x2, t = 0.35, 0.9, 0.3
    cfg = FourPointConfig.correlation(x1, x2, t)
    Q = stack_of_one(cfg, (), POL4)[2]
    assert abs(Q[0, 3] - gaussian_fresnel(x1 + x2, t)) < 1e-8


def test_four_point_kernel_degeneration():
    # M at the correlation configuration equals the dynamical kernel up to
    # the diagonal gauge e^{i t (lam^2 - mu^2)/2} and the swap of the two
    # position arguments (see ledger); tight tolerance in the acceptance run
    x1, x2, t = 0.35, 0.9, 0.3
    cfg = FourPointConfig.correlation(x1, x2, t)
    quad = build_grid((-math.pi, math.pi), 12)
    M = stack_of_one(cfg, quad.nodes, POL3)[1]
    g = GeometryParams(x2, x1, t)
    lam, mu = quad.nodes[:, None], quad.nodes[None, :]
    gauge = np.exp(0.5j * t * (lam ** 2 - mu ** 2))
    worst = np.max(np.abs(M - gauge * kernel_L(lam, mu, g)))
    assert worst < 1e-6


def test_b14_trace_identity():
    x1, x2, t = 0.35, 0.9, 0.3
    q = math.pi
    cfg = FourPointConfig.correlation(x1, x2, t)
    pt = PhysicalPoint(x1, x2, t, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    mats = build_b(cfg, pt, n=32, policy=POL4)
    quad = build_grid((-q, q), 40)
    lam, w = quad.nodes, quad.weights
    g = GeometryParams(x1, x2, t)
    Lm = kernel_L(lam[:, None], lam[None, :], g)
    u = kernel_P(lam, x1, x2, t)
    v = kernel_P(lam, x2, x1, t)
    sol = np.linalg.solve(np.eye(40) - (2 / math.pi) * Lm * w[None, :], u)
    lhs = gaussian_fresnel(x1 + x2, t) - np.sum(w * v * sol) / (2 * math.pi)
    assert abs(mats.b[0, 3] - lhs) < 1e-7


def test_b_small_q_tends_to_Q():
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    pt = PhysicalPoint(0.5, 0.5, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1e-4 / math.pi)
    mats = build_b(cfg, pt, n=8, policy=POL3)
    Q = stack_of_one(cfg, (), POL3)[2]
    assert np.max(np.abs(mats.B)) < 1e-3
    assert np.max(np.abs(mats.b - Q)) < 1e-3


def test_b_thermal_runs_and_matches_T0_limit():
    cfg = FourPointConfig.correlation(0.3, 0.8, 0.25)
    h = 1.0
    pt_cold = PhysicalPoint(0.3, 0.8, 0.25, NEUMANN, ThermalParams(h=h, T=1e-3))
    pt_zero = PhysicalPoint(0.3, 0.8, 0.25, NEUMANN, ThermalParams(h=h, T=0.0),
                            D=math.sqrt(h) / math.pi)
    b_cold = build_b(cfg, pt_cold, n=64, policy=POL3).b[0, 3]
    b_zero = build_b(cfg, pt_zero, n=32, policy=POL3).b[0, 3]
    assert abs(b_cold - b_zero) < 5e-3 * abs(b_zero)


# (x, t, T, coincident_sign) of the configuration (0, 0, -x, x; 0, 0, t, t):
# both walls of t, t = 0, T > 0, x = 0 (both pairs coincident), the
# symmetric convention, and x < 0 (sign(dy) = -1)
CLOSED_FORM_POINTS = ((0.3, 0.1, 0.0, 1), (0.9, 0.4, 0.0, 1), (0.7, 0.0, 0.0, 1),
                      (0.7, -0.3, 0.5, 1), (0.0, 0.4, 0.0, 1), (0.3, 0.1, 0.5, 0),
                      (-0.5, 0.3, 0.0, 1))


@pytest.mark.parametrize("x,t,T,cs", CLOSED_FORM_POINTS)
def test_closed_form_b_matches_damped_oracle(x, t, T, cs):
    cfg = FourPointConfig(y=(0.0, 0.0, -x, x), t=(0.0, 0.0, t, t), coincident_sign=cs)
    pt = PhysicalPoint(0.0, 1.0, t, NEUMANN, ThermalParams(h=1.0, T=T),
                       D=1.0 if T == 0.0 else 0.0)
    closed = build_b(cfg, pt, n=32)
    damped = build_b(cfg, pt, n=32,
                     line_grid=build_line_grid(cfg, adapt_policy(cfg, FINE_POLICY)))
    dev = np.max(np.abs(closed.b - damped.b)) / np.max(np.abs(damped.b))
    assert dev <= 1e-7
    assert closed.degenerate_entries == damped.degenerate_entries


def test_closed_form_builds_no_line_grid(monkeypatch):
    import bosefredholm.nls_system as nls

    def forbidden(*args, **kwargs):
        raise AssertionError("line grid built at a closed-form configuration")

    monkeypatch.setattr(nls, "graded_line_grid", forbidden)
    pt = PhysicalPoint(0.0, 0.9, 0.4, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    mats = build_b(FourPointConfig.correlation(0.0, 0.9, 0.4), pt, n=16)
    assert np.all(np.isfinite(mats.b))
    # any other configuration still integrates on a line grid
    with pytest.raises(AssertionError):
        build_b(FourPointConfig.correlation(0.1, 0.9, 0.4), pt, n=16)


@pytest.mark.parametrize("x,t", ((0.2, 0.1), (1.1, 0.55), (2.0, 1.0)))
def test_boundary_route_matches_dynamical_route(x, t):
    # criterion-5 points: the closed-form b leaves only the Nystrom error
    pt = PhysicalPoint(0.0, x, t, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    ref = correlation_ground(pt, n=72, with_error=False).value
    val = correlation_boundary_neumann(x, t, pt, n=72, n_spectral=32)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_damped_b_samples_each_hilbert_once_per_line_grid(monkeypatch):
    # G_1 and G_2 are evaluated on the line grid once per build_b, not once
    # per builder, vector component and spectral block; and on the 12
    # spectral nodes once each, not once per E-vector component and again
    # for the whole-line integrals
    import bosefredholm.nls_system as nls
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    pt = PhysicalPoint(0.5, 0.5, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0), D=0.7)
    line_grid = build_line_grid(cfg, RegularizationPolicy(damping=2e-2))
    ns = len(line_grid[0])
    sizes = []

    def counting(lam, y, t):
        sizes.append(np.size(lam))
        return pv_fresnel_hilbert(lam, y, t)

    monkeypatch.setattr(nls, "pv_fresnel_hilbert", counting)
    build_b(cfg, pt, n=12, line_grid=line_grid)
    assert sum(size for size in sizes if size >= ns) == 2 * ns
    assert sizes.count(12) == 2


# -- the damped line grid sized by its phases, and the reciprocal mesh --------

LAX_POLICY = RegularizationPolicy(damping=2e-2)
_FINITE = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _general_configs(draw, coincident=False):
    """General four-point configurations: |y| <= 2, every t_j - t_i of
    either sign; with `coincident`, the first pair may coincide."""
    y = [draw(st.floats(-2.0, 2.0, **_FINITE)) for _ in range(4)]
    t = [draw(st.floats(-0.6, 0.6, **_FINITE)) for _ in range(4)]
    if coincident and draw(st.booleans()):
        y[1], t[1] = y[0], t[0]
    return FourPointConfig(y=tuple(y), t=tuple(t))


def _point(T):
    return PhysicalPoint(0.5, 0.5, 0.0, NEUMANN, ThermalParams(h=1.0, T=T),
                         D=0.7 if T == 0.0 else 0.0)


@settings(max_examples=25, deadline=None)
@given(_general_configs(), st.sampled_from((0.0, 0.4)))
def test_line_grid_node_doubling(cfg, T):
    # halving the base width and the phase per panel leaves b unchanged
    grid = build_line_grid(cfg, LAX_POLICY)
    nodes, weights = graded_line_grid(LAX_POLICY.tail_cut, cfg.phase_scale,
                                      base_width=LINE_BASE_WIDTH / 2.0,
                                      phase_per_panel=LINE_PHASE_PER_PANEL / 2.0,
                                      chirps=line_chirps(cfg))
    assert len(nodes) > len(grid.nodes)
    fine = LineGrid(nodes, weights, LAX_POLICY.deltas)
    b = build_b(cfg, _point(T), n=12, line_grid=grid).b
    b_fine = build_b(cfg, _point(T), n=12, line_grid=fine).b
    assert np.max(np.abs(b - b_fine)) <= 1e-10 * np.max(np.abs(b_fine))


def test_criterion_8_line_grid_size():
    # the first criterion-8 configuration: 75,296 nodes when every panel
    # took 4 radians of a chirp with rate sum |t_j|
    cfg = FourPointConfig(y=(0.15, 0.45, -0.35, 0.8), t=(0.1, 0.32, -0.2, 0.55))
    assert len(build_line_grid(cfg, LAX_POLICY).nodes) <= 15_000


def _diffquot_oracle(aux, lam, s, g_lam, g_s):
    """(G(lam) - G(s))/(lam - s) as one division per entry; where |lam - s|
    < NEAR_DIAGONAL the mean of G' at the two Gauss-Legendre points of [s,
    lam]."""
    den = lam - s
    small = np.abs(den) < NEAR_DIAGONAL
    out = np.asarray((g_lam - g_s) / np.where(small, 1.0, den), dtype=complex)
    lam, s = (np.broadcast_to(v, out.shape)[small] for v in (lam, s))
    mid, half = 0.5 * (lam + s), (lam - s) / (2.0 * math.sqrt(3.0))
    out[small] = 0.5 * (aux.hilbert_deriv(mid - half) + aux.hilbert_deriv(mid + half))
    return out


def _damped_integrals_oracle(cfg, lam, nodes, damped):
    """(K1-hat e_2^L)(lam), (e_1^R K2-hat)(lam) and the M-hat diagonal cross
    integral with every phase and vector component multiplied on the
    (lam, s) mesh before the damped contraction."""
    a1, a2 = build_aux_fields(cfg)
    S, D = nodes, damped
    g1S, g2S = a1.hilbert(S), a2.hilbert(S)
    g1lam, g2lam = a1.hilbert(lam), a2.hilbert(lam)
    e2Ls = e_left(a2, S, g2S)
    e1Rs = e_right(a1, S, g1S)
    dq1 = _diffquot_oracle(a1, lam[:, None], S[None, :], g1lam[:, None], g1S[None, :])
    K1 = a1.row_phase(lam)[:, None] * a1.col_phase(S)[None, :] * dq1
    compL = np.stack([damped_limit(K1 * e2Ls[:, c][None, :], D) for c in range(2)], axis=1)
    dq2 = _diffquot_oracle(a2, S[:, None], lam[None, :], g2S[:, None], g2lam[None, :])
    K2 = a2.row_phase(S)[:, None] * a2.col_phase(lam)[None, :] * dq2
    compR = np.stack([damped_limit((e1Rs[c][:, None] * K2).T, D) for c in range(2)])
    integ = (a1.row_phase(lam)[:, None] * a2.col_phase(lam)[:, None]
             * (a1.col_phase(S) * a2.row_phase(S))[None, :] * dq1 * dq2.T)
    return compL, compR, damped_limit(integ, D)


@st.composite
def _lam_near_nodes(draw, nodes):
    """Spectral points, some on line nodes or within 1e-7 of one, some just
    outside that, some just inside or outside NEAR_DIAGONAL."""
    lam = [draw(st.floats(-3.0, 3.0, **_FINITE)) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 5))):
        s = float(nodes[draw(st.integers(0, len(nodes) - 1))])
        offset = draw(st.sampled_from((0.0, 0.5e-7, -0.9e-7, 1.1e-7, -2e-7,
                                       0.99e-4, -0.99e-4, 1.01e-4, -1.01e-4)))
        lam.append(s + offset)
    return np.array(lam)


_ORACLE_POLICY = RegularizationPolicy(damping=0.5)


def _integrals(cfg, grid, lam):
    """(K1-hat e_2^L)(lam), (e_1^R K2-hat)(lam) and the cross integral of
    cfg damped on grid, a stack of one."""
    import bosefredholm.nls_system as nls
    sampled = nls._LineSamples([cfg], grid).on(lam)
    return sampled.compL[0], sampled.compR[0], sampled.cross[0]


@settings(max_examples=60, deadline=None)
@given(st.data(), _general_configs(coincident=True))
def test_damped_integrals_equal_mesh_oracle(data, cfg):
    grid = build_line_grid(cfg, _ORACLE_POLICY)
    lam = data.draw(_lam_near_nodes(grid.nodes))
    got = _integrals(cfg, grid, lam)
    ref = _damped_integrals_oracle(cfg, lam, grid.nodes,
                                   damped_weights(grid.nodes, grid.weights, grid.deltas))
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-13 * (1.0 + np.max(np.abs(r)))


@st.composite
def _lam_at_band_edge(draw, nodes):
    """Spectral points at about 0.5, 1, 1.01 and 2 times NEAR_BAND from line
    nodes, on either side: where the split quotient cancels most."""
    lam = []
    for _ in range(draw(st.integers(1, 6))):
        s = float(nodes[draw(st.integers(0, len(nodes) - 1))])
        scale = draw(st.sampled_from((0.5, 1.0, 1.01, 2.0))) * draw(st.sampled_from((1.0, -1.0)))
        lam.append(s + scale * NEAR_BAND * draw(st.floats(0.98, 1.02)))
    return np.array(lam)


@settings(max_examples=40, deadline=None)
@given(st.data(), _general_configs(coincident=True))
def test_split_quotients_equal_mesh_oracle_at_the_near_band(data, cfg):
    # the nodes past NEAR_BAND take G(lam) R - R G(s), the nearer ones the
    # exact quotient: either side of the band edge holds the mesh oracle
    grid = build_line_grid(cfg, _ORACLE_POLICY)
    lam = data.draw(_lam_at_band_edge(grid.nodes))
    got = _integrals(cfg, grid, lam)
    ref = _damped_integrals_oracle(cfg, lam, grid.nodes,
                                   damped_weights(grid.nodes, grid.weights, grid.deltas))
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-13 * (1.0 + np.max(np.abs(r)))


def test_b_reports_the_line_grid_it_used():
    pt = PhysicalPoint(0.0, 0.9, 0.4, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    closed = build_b(FourPointConfig.correlation(0.0, 0.9, 0.4), pt, n=12)
    assert (closed.line_nodes, closed.deltas) == (0, ())
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    policy = adapt_policy(cfg, LAX_POLICY)
    damped = build_b(cfg, pt, n=12, policy=LAX_POLICY)
    assert damped.line_nodes == len(build_line_grid(cfg, policy).nodes)
    assert damped.deltas == policy.deltas


# -- one line grid shared by the Lax stencil --------------------------------

def _stencil(cfg, pt, grid, step=4e-3, n=8):
    """(cfg, b) of every configuration that the Lax stencil of one step
    stacks on grid, in order."""
    import bosefredholm.nls_system as nls
    calls = []
    stack = nls._build_b_stack

    def recording(cfgs, *args, **kwargs):
        mats = stack(cfgs, *args, **kwargs)
        calls.extend((c, m.b) for c, m in zip(cfgs, mats))
        return mats

    with mock.patch.object(nls, "_build_b_stack", recording):
        nls._lax_residuals(cfg, pt, (step,), n, grid)
    return calls


def test_residual_matrix_keeps_a_nan():
    # a NaN in one stencil b makes its residuals NaN: the fold over LAX_MUS
    # does not drop it
    import bosefredholm.nls_system as nls
    step = 4e-3
    b = {name: np.zeros((4, 4), dtype=complex)
         for name in [(), *((step, *shift) for shift in _stencil_shifts(step))]}
    b[step, 't', 0, 1.0] = np.full((4, 4), np.nan)
    res = nls._residual_matrix(b, step)
    assert np.isnan(res[0]).all()
    assert np.isfinite(res[1:]).all()


@settings(max_examples=10, deadline=None)
@given(_general_configs(), st.sampled_from((0.0, 0.4)))
def test_stencil_b_on_shared_grid_equals_fresh_grid_oracle(cfg, T):
    # every b of the stencil, and the base once more after it on the same
    # and on another spectral grid, is the b of a fresh copy of the line
    # grid that has sampled nothing yet
    pt = _point(T)
    grid = build_line_grid(cfg, _ORACLE_POLICY)
    calls = [(c, 8, b) for c, b in _stencil(cfg, pt, grid)]
    calls += [(cfg, n, build_b(cfg, pt, n=n, line_grid=grid).b) for n in (8, 6)]
    assert len(calls) == 43
    for c, n, b in calls:
        fresh = LineGrid(grid.nodes, grid.weights, grid.deltas)
        assert np.array_equal(b, build_b(c, pt, n=n, line_grid=fresh).b)


def test_stencil_samples_each_pair_hilbert_once_per_line_grid(monkeypatch):
    # pv_fresnel_hilbert runs on the line nodes once per distinct (dy, dt)
    # of a pair across the 41 stencil configurations, not twice per build_b
    import bosefredholm.nls_system as nls
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    grid = build_line_grid(cfg, LAX_POLICY)
    on_nodes = []

    def counting(lam, y, t):
        if np.size(lam) == len(grid.nodes):
            on_nodes.append((y, t))
        return pv_fresnel_hilbert(lam, y, t)

    monkeypatch.setattr(nls, "pv_fresnel_hilbert", counting)
    calls = _stencil(cfg, _point(0.0), grid)
    pairs = {(a.dy, a.dt) for c, _ in calls for a in build_aux_fields(c)}
    assert len(calls) == 41
    assert sorted(on_nodes) == sorted(pairs)
    assert len(pairs) < 2 * len(calls)


def test_stencil_samples_each_pair_once_on_the_spectral_grid(monkeypatch):
    # a stencil shift moves one pair, so G_p and its derivative run on the
    # spectral nodes once per distinct pair (slots' y and t) across the 41
    # configurations, not once per build_b and pair
    import bosefredholm.nls_system as nls
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    grid = build_line_grid(cfg, LAX_POLICY)
    on_spectral = []
    samples = nls.AuxField.samples

    def counting(self, lam):
        on_spectral.append((self.ya, self.ta, self.yb, self.tb))
        return samples(self, lam)

    monkeypatch.setattr(nls.AuxField, "samples", counting)
    calls = _stencil(cfg, _point(0.0), grid)
    pairs = {(a.ya, a.ta, a.yb, a.tb) for c, _ in calls for a in build_aux_fields(c)}
    assert len(calls) == 41
    assert sorted(on_spectral) == sorted(pairs)
    assert len(pairs) < 2 * len(calls)


def test_stencil_evaluates_each_node_phase_once_per_line_grid(monkeypatch):
    # col_1 and row_2 run on the line nodes once per distinct (y_2, t_2) and
    # (y_3, t_3) across the 41 stencil configurations, not once per build_b
    import bosefredholm.nls_system as nls
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    grid = build_line_grid(cfg, LAX_POLICY)
    on_nodes = []
    col, row = nls.AuxField.col_phase, nls.AuxField.row_phase

    def counting_col(self, mu):
        if np.size(mu) == len(grid.nodes):
            on_nodes.append(("col", self.yb, self.tb))
        return col(self, mu)

    def counting_row(self, lam):
        if np.size(lam) == len(grid.nodes):
            on_nodes.append(("row", self.ya, self.ta))
        return row(self, lam)

    monkeypatch.setattr(nls.AuxField, "col_phase", counting_col)
    monkeypatch.setattr(nls.AuxField, "row_phase", counting_row)
    calls = _stencil(cfg, _point(0.0), grid)
    slots = ({("col", c.y[1], c.t[1]) for c, _ in calls}
             | {("row", c.y[2], c.t[2]) for c, _ in calls})
    assert len(calls) == 41
    assert sorted(on_nodes) == sorted(slots)
    assert len(slots) < 2 * len(calls)


def test_stencil_builds_one_reciprocal_table_per_spectral_grid(monkeypatch):
    # the 41 stencil configurations are one stack, which builds the
    # reciprocal table once for the one spectral grid; each later build_b
    # builds its own; exact difference quotients are formed only for the
    # few nodes near a spectral node, never on the whole node axis
    import bosefredholm.nls_system as nls
    # the base configuration of the lax-general benchmark workload
    cfg = FourPointConfig(y=(-0.06, 0.06, 0.0, 0.15), t=(0.025, 0.1, -0.05, 0.175))
    grid = build_line_grid(cfg, LAX_POLICY)
    ns = len(grid.nodes)
    built, columns = [], []
    table, quotient = nls.reciprocal_table, nls.AuxField.hilbert_diffquot

    def counting_table(lam, nodes):
        built.append(len(lam))
        return table(lam, nodes)

    def counting_quotient(self, lam, s, *args, **kwargs):
        columns.append(np.shape(s)[-1])
        return quotient(self, lam, s, *args, **kwargs)

    monkeypatch.setattr(nls, "reciprocal_table", counting_table)
    monkeypatch.setattr(nls.AuxField, "hilbert_diffquot", counting_quotient)
    calls = _stencil(cfg, _point(0.0), grid, n=12)
    assert len(calls) == 41
    assert built == [12]
    assert columns and max(columns) < ns // 10
    build_b(cfg, _point(0.0), n=10, line_grid=grid)
    build_b(cfg, _point(0.0), n=12, line_grid=grid)
    assert built == [12, 10, 12]


def test_stencil_builds_one_spectral_grid(monkeypatch):
    # the 41 stencil configurations are one stack on one Gauss-Legendre
    # spectral grid, not one grid per configuration
    import bosefredholm.kernels as kernels
    cfg = FourPointConfig(y=(0.2, 0.7, -0.3, 0.9), t=(0.05, 0.3, 0.1, 0.6))
    grid = build_line_grid(cfg, LAX_POLICY)
    built = []

    def counting(domain, n, *args, **kwargs):
        built.append(n)
        return build_grid(domain, n, *args, **kwargs)

    monkeypatch.setattr(kernels, "build_grid", counting)
    for T in (0.0, 0.4):
        built.clear()
        _stencil(cfg, _point(T), grid)
        assert built == [8]


@st.composite
def _stacks(draw):
    """A base configuration, whose first pair may be coincident (either
    coincident_sign) and whose second pair may be equal-time, and a stack
    of it with some of its stencil shifts and some configurations that
    share one of its pairs."""
    base = draw(_general_configs(coincident=True))
    y, t = list(base.y), list(base.t)
    if draw(st.booleans()):
        t[3] = t[2]
    cs = draw(st.sampled_from((0, 1)))
    base = FourPointConfig(y=tuple(y), t=tuple(t), coincident_sign=cs)
    shifts = list(_stencil_shifts(draw(st.sampled_from((4e-3, 2e-3)))).values())
    cfgs = [base]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            dy, dt = draw(st.sampled_from(shifts))
            cfgs.append(base.shifted(dy=dy, dt=dt))
        else:
            other = draw(_general_configs())
            keep = slice(0, 2) if draw(st.booleans()) else slice(2, 4)
            y, t = list(other.y), list(other.t)
            y[keep], t[keep] = base.y[keep], base.t[keep]
            cfgs.append(FourPointConfig(y=tuple(y), t=tuple(t), coincident_sign=cs))
    return cfgs


@settings(max_examples=30, deadline=None)
@given(_stacks(), st.sampled_from((0.0, 0.4)))
def test_stack_equals_stacks_of_one(cfgs, T):
    # a stack shares its samples, node vectors and spectral grid across the
    # configurations; each b equals the configuration's own stack of one
    import bosefredholm.nls_system as nls
    pt, n = _point(T), 8
    grid = build_line_grid(cfgs[0], _ORACLE_POLICY)
    quad, _ = spectral_grid(pt.thermal, pt.q, n, whole_line=True)
    assert len(reciprocal_table(quad.nodes, grid.nodes)[1])     # nodes inside NEAR_BAND
    stack = nls._build_b_stack(cfgs, pt, n, grid)
    assert len(stack) == len(cfgs)
    for c, mats in zip(cfgs, stack):
        one = nls._build_b_stack([c], pt, n, grid)[0]
        assert np.max(np.abs(mats.b - one.b)) <= 1e-14 * np.max(np.abs(one.b))
        assert mats.degenerate_entries == one.degenerate_entries
        assert (mats.line_nodes, mats.deltas) == (one.line_nodes, one.deltas)
