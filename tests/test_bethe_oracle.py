import math
from itertools import chain, combinations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bosefredholm.bethe_oracle import (
    FiniteSystem,
    FormFactorInput,
    _bordered_det,
    _subsets,
    bethe_momenta,
    finite_L_correlation,
    form_factor,
    mode_table,
    permutation_identity_check,
    proposition_determinant,
    wave_function,
)
from bosefredholm.errors import InvalidState
from bosefredholm.kernels import DIRICHLET, NEUMANN, _sinc
from bosefredholm.special_integrals import (
    DEFAULT_POLICY,
    damped_limit,
    damped_weights,
    richardson_sequence,
)
from bosefredholm.validate import (
    finite_box_dynamical_error,
    form_factor_error,
    orthogonality_error,
    permutation_identity_error,
    route_equivalence_error,
)

L = math.pi


def test_bethe_momenta_examples():
    s = FiniteSystem.ground_state(3, math.pi, NEUMANN)
    assert np.allclose(bethe_momenta(s), [0.0, 1.0, 2.0])
    s = FiniteSystem.ground_state(3, math.pi, DIRICHLET)
    assert np.allclose(bethe_momenta(s), [1.0, 2.0, 3.0])
    s = FiniteSystem(L=2 * math.pi, kind=NEUMANN, I=(0, 4))
    assert np.allclose(bethe_momenta(s), [0.0, 2.0])


def test_invalid_states():
    with pytest.raises(InvalidState):
        FiniteSystem(L=math.pi, kind=NEUMANN, I=(1, 1))
    with pytest.raises(InvalidState):
        FiniteSystem(L=math.pi, kind=DIRICHLET, I=(0, 1))


def energy(lams, h):
    """sum of (lam_j^2 - h)."""
    lams = np.asarray(lams, dtype=float)
    return float(np.sum(lams * lams) - h * len(lams))


def test_energy():
    assert energy([], 1.0) == 0.0
    assert energy([0.0, 1.0, 2.0], 1.0) == pytest.approx(2.0)
    assert energy([1.0], 1.0) == 0.0


def test_wave_function_basics():
    s = FiniteSystem(L=L, kind=NEUMANN, I=(0,))
    # constant zero-mode wave function, norm (2L)
    assert wave_function([1.0], s) == pytest.approx(math.sqrt(2.0))
    s2 = FiniteSystem(L=L, kind=NEUMANN, I=(0, 2))
    assert wave_function([0.7, 0.7], s2) == 0.0
    a = wave_function([0.4, 1.9], s2)
    b = wave_function([1.9, 0.4], s2)
    assert a == pytest.approx(b)


def wave_function_scalar(z, sys):
    """Scalar oracle of wave_function: one point of N coordinates per call."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    N = sys.N
    if N == 0:
        return 1.0 + 0.0j
    lams = bethe_momenta(sys)
    sgn = 1.0
    for j in range(N):
        for k in range(j + 1, N):
            if z[j] == z[k]:
                return 0.0 + 0.0j
            sgn *= math.copysign(1.0, z[j] - z[k])
    if sys.kind.eps > 0:
        mat = np.cos(np.outer(lams, z))
        cons = 2.0 ** N / math.sqrt((2.0 if sys.I[0] == 0 else 1.0) * math.factorial(N))
    else:
        mat = np.sin(np.outer(lams, z))
        cons = (2j) ** N / math.sqrt(math.factorial(N))
    return complex(cons * sgn * np.linalg.det(mat))


@st.composite
def _wave_batches(draw):
    kind = draw(st.sampled_from((NEUMANN, DIRICHLET)))
    N = draw(st.integers(1, 5))
    base = 0 if kind.eps > 0 else 1
    I = sorted(draw(st.sets(st.integers(base, base + 6), min_size=N, max_size=N)))
    box = draw(st.floats(0.5, 5.0))
    shape = draw(st.sampled_from(((1,), (5,), (2, 3), (3, 1, 2))))
    coord = st.floats(0.0, box, allow_nan=False, allow_infinity=False, allow_subnormal=False)
    z = np.array(draw(st.lists(coord, min_size=int(np.prod(shape)) * N,
                               max_size=int(np.prod(shape)) * N))).reshape(shape + (N,))
    if N > 1:
        # coincident coordinates in some points, on purpose
        for idx in np.ndindex(shape):
            if draw(st.booleans()):
                j, k = draw(st.sampled_from([(j, k) for j in range(N) for k in range(j + 1, N)]))
                z[idx + (k,)] = z[idx + (j,)]
    return FiniteSystem(L=box, kind=kind, I=tuple(I)), z


@settings(max_examples=200, deadline=None)
@given(_wave_batches())
def test_wave_function_batch_equals_scalar_oracle(case):
    sys_, z = case
    out = wave_function(z, sys_)
    assert out.shape == z.shape[:-1] and out.dtype == complex
    for idx in np.ndindex(out.shape):
        ref = wave_function_scalar(z[idx], sys_)
        if len(set(z[idx])) < sys_.N:
            assert out[idx] == 0.0, idx
        assert abs(out[idx] - ref) <= 1e-13 * (1.0 + abs(ref)), idx
    one = wave_function(z[(0,) * (z.ndim - 1)], sys_)
    assert type(one) is complex
    assert abs(one - out[(0,) * out.ndim]) <= 1e-13 * (1.0 + abs(one))


@pytest.mark.parametrize("kind,I", [(NEUMANN, (0,)), (NEUMANN, (0, 1)),
                                    (DIRICHLET, (1,)), (DIRICHLET, (1, 3))])
def test_normalization(kind, I):
    diag, _ = orthogonality_error(((kind, (I,)),))
    assert diag <= 1e-10


def test_orthogonality_offdiagonal():
    _, worst_off = orthogonality_error(((NEUMANN, ((0,), (2,))), (DIRICHLET, ((1, 2), (1, 4)))))
    assert worst_off < 1e-8


def test_permutation_identity_random():
    assert permutation_identity_error(seed=42, orders=(1, 2, 3, 4), draws=20) <= 1e-12


def test_permutation_identity_delta_f():
    # f zero except the last entry: only the identity coset survives
    rng = np.random.default_rng(1)
    N = 3
    f = np.zeros(N + 1, dtype=complex)
    f[N] = 1.7 - 0.3j
    g = rng.normal(size=(N + 1, N)) + 1j * rng.normal(size=(N + 1, N))
    lhs, rhs = permutation_identity_check(N, f, g)
    assert lhs == pytest.approx(f[N] * np.linalg.det(g[:N, :]))
    assert rhs == pytest.approx(lhs)


def test_form_factor_n0():
    inp = FormFactorInput(I_lam=(2,), I_mu=(), x=0.8, kind=NEUMANN, L=L)
    assert form_factor(inp) == pytest.approx(2 * math.cos(2 * 0.8))


def test_form_factor_vs_direct():
    worst = form_factor_error(seed=9, orders=((1,), (1,), (2,), (2,)), x_max=2.7,
                              nodes={1: 100, 2: 64})
    assert worst <= 1e-8


def test_route_equivalence_matched_box():
    worst = route_equivalence_error(orders=(0, 1, 2, 3), times=(0.0, 0.4), lam_max=40.0,
                                    damped=False)
    assert worst <= 1e-10


def test_proposition_unknown_mode_raises():
    sys_ = FiniteSystem.ground_state(2, L, NEUMANN)
    with pytest.raises(ValueError, match="matchd"):
        proposition_determinant(sys_, 0.7, 1.9, 0.0, lam_max=20.0, mode="matchd")


def test_dirichlet_wall_null():
    for N in (0, 1, 2):
        sys_ = FiniteSystem.ground_state(N, L, DIRICHLET)
        val = finite_L_correlation(sys_, 0.0, 1.2, 0.0, lam_max=30.0)
        assert abs(val) < 1e-12


def test_proposition_n0_equals_tuple():
    sys_ = FiniteSystem(L=L, kind=NEUMANN, I=())
    a = finite_L_correlation(sys_, 0.5, 1.3, 0.0, lam_max=50.0)
    b = proposition_determinant(sys_, 0.5, 1.3, 0.0, lam_max=50.0, mode="matched")
    assert a == pytest.approx(b)


def test_regularized_prop_approaches_thermo_limit():
    # coarse version of the finite-size convergence story (full battery in
    # the acceptance suite): gaps shrink monotonically with L at fixed D
    from bosefredholm.correlators import PhysicalPoint, correlation_ground
    from bosefredholm.kernels import ThermalParams

    pt = PhysicalPoint(0.3, 0.9, 0.0, NEUMANN, ThermalParams(h=1.0, T=0.0), D=1.0)
    target = correlation_ground(pt, n=64, with_error=False).value
    gaps = []
    for box in (8.0, 16.0):
        sys_ = FiniteSystem.ground_state(int(box), box, NEUMANN)
        val = proposition_determinant(sys_, 0.3, 0.9, 0.0, lam_max=240.0)
        gaps.append(abs(val - target))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-2


@pytest.mark.parametrize("kind", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("x1,x2,t,box", [
    (0.3, 0.9, 0.1, 32.0), (0.3, 0.9, 0.3, 32.0), (0.5, 1.2, 0.6, 64.0), (1.0, 2.0, 1.0, 64.0)])
def test_finite_box_approaches_dynamical_route_at_positive_t(kind, x1, x2, t, box):
    # the time-dependent value of the finite box against the dynamical
    # Fredholm route, two independent paths: the gap is O(1/L), and one
    # Richardson step 2 v(2L) - v(L) in 1/L lands within 1e-3 (measured
    # 2.3e-4 to 6.8e-4; the box's damping schedule sets a floor near 5e-4);
    # the box carries h, which the dynamical value's exp(-iht) needs
    error, ratio = finite_box_dynamical_error((kind,), ((x1, x2, t, box),))
    assert ratio < 0.6
    assert error <= 1e-3


# ---------------------------------------------------------------------------
# array paths of the finite-box oracle against their scalar / stacked forms

def c_factor(x, i_lam, L, eps):
    """C_eps(x|lam) = (e^{-i lam x} + eps e^{i lam x}) / sqrt(1 + delta_{lam,0})."""
    lam = math.pi * i_lam / L
    d = math.sqrt(2.0) if i_lam == 0 else 1.0
    return (np.exp(-1j * lam * x) + eps * np.exp(1j * lam * x)) / d


def i_factor(x, i_lam, i_mu, L, eps):
    """I_eps(x|lam, mu) with exact integer Kronecker deltas."""
    lam = math.pi * i_lam / L
    mu = math.pi * i_mu / L
    d = math.sqrt((2.0 if i_lam == 0 else 1.0) * (2.0 if i_mu == 0 else 1.0))
    t1 = 4.0 * x if i_lam == i_mu else 4.0 * math.sin(x * (lam - mu)) / (lam - mu)
    t2 = 4.0 * x if (i_lam == 0 and i_mu == 0) else 4.0 * math.sin(x * (lam + mu)) / (lam + mu)
    kron = 2.0 * L * ((1.0 if i_lam == i_mu else 0.0)
                      + eps * (1.0 if (i_lam == 0 and i_mu == 0) else 0.0))
    return (t1 + eps * t2 - kron) / d


def _stacked_det(mats):
    """np.linalg.det of stacked matrices.  Where LAPACK's complex reciprocal
    of a pivot near the underflow threshold (entries about 1e-307) gives a
    non-finite value, that determinant is taken by mpmath, whose exponents
    do not underflow."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det = np.linalg.det(mats)
    for i in zip(*np.nonzero(~np.isfinite(det))):
        det[i] = complex(mp.det(mp.matrix(mats[i].tolist())))
    return det


def finite_L_correlation_stacked(sys, x1, x2, t, lam_max, policy=DEFAULT_POLICY, h=0.0,
                                 damped=True):
    """Oracle of finite_L_correlation: scalar mode factors, the states from
    itertools.combinations and stacked np.linalg.det bordered determinants
    (_stacked_det)."""
    N = sys.N
    L = sys.L
    eps = sys.kind.eps
    base = 0 if eps > 0 else 1
    i_max = int(lam_max * L / math.pi)
    lattice = list(range(base, i_max + 1))
    mus = bethe_momenta(sys)
    mu_sq = float(np.sum(mus ** 2))

    c1 = np.array([c_factor(x1, i, L, eps) for i in lattice])
    c2 = np.array([c_factor(x2, i, L, eps) for i in lattice])
    i1 = np.array([[i_factor(x1, i, im, L, eps) for im in sys.I] for i in lattice])
    i2 = np.array([[i_factor(x2, i, im, L, eps) for im in sys.I] for i in lattice])
    lam_all = math.pi * np.asarray(lattice, dtype=float) / L

    tuples = np.array(list(combinations(range(len(lattice)), N + 1)), dtype=int)
    lam_sq = np.sum(lam_all[tuples] ** 2, axis=1)

    if N == 0:
        ff1 = c1[tuples[:, 0]]
        ff2 = c2[tuples[:, 0]]
    else:
        M1 = i1[tuples[:, :N], :]
        M2 = i2[tuples[:, :N], :]
        d1 = _stacked_det(M1)
        d2 = _stacked_det(M2)
        B1 = np.zeros((len(tuples), N + 1, N + 1), dtype=complex)
        B2 = np.zeros_like(B1)
        B1[:, :N, :N] = M1
        B2[:, :N, :N] = M2
        B1[:, :N, N] = c1[tuples[:, :N]]
        B2[:, :N, N] = c2[tuples[:, :N]]
        B1[:, N, :N] = i1[tuples[:, N], :]
        B2[:, N, :N] = i2[tuples[:, N], :]
        sign = (-1.0) ** N
        ff1 = sign * (c1[tuples[:, N]] * d1 + _stacked_det(B1))
        ff2 = sign * (c2[tuples[:, N]] * d2 + _stacked_det(B2))

    base_terms = np.conj(ff1) * ff2 / (2.0 * L) ** (2 * N + 1)
    phases = np.exp(1j * t * (lam_sq - mu_sq))
    if t == 0.0 or not damped:
        return complex(np.sum(base_terms * phases) * np.exp(-1j * h * t))
    weights = damped_weights(np.sqrt(lam_sq), np.ones(len(lam_sq)), policy.deltas)
    limit = damped_limit(base_terms * phases, weights)
    return complex(limit * np.exp(-1j * h * t))


def proposition_determinant_per_delta(sys, x1, x2, t, policy=DEFAULT_POLICY, lam_max=240.0,
                                      h=0.0):
    """Oracle of the regularized proposition_determinant: sinc tables by
    kernels._sinc on the (N, S) mesh and one complex product per delta."""
    N = sys.N
    L = sys.L
    eps = sys.kind.eps
    step = math.pi / L
    mus = bethe_momenta(sys)
    iarr = np.asarray(sys.I)
    n_max = int(lam_max / step)
    s = step * np.arange(-n_max, n_max + 1)
    base_phase = np.exp(1j * t * s * s)

    s1m = _sinc(x1, s[None, :] - mus[:, None])
    s1p = _sinc(x1, s[None, :] + mus[:, None])
    s2m = _sinc(x2, s[None, :] - mus[:, None])
    s2p = _sinc(x2, s[None, :] + mus[:, None])
    e1 = np.exp(-1j * s * x1)
    e2 = np.exp(-1j * s * x2)

    dmu = np.sqrt(np.where(iarr == 0, 2.0, 1.0))
    ph_mu = np.exp(1j * t * mus * mus)
    lamj = mus[:, None]
    muk = mus[None, :]
    norm = dmu[:, None] * dmu[None, :]
    kron = (iarr[:, None] == iarr[None, :]).astype(float)

    estimates = []
    for damp in damped_weights(s, np.ones(len(s)), policy.deltas).T:
        dp = damp * base_phase
        pref = (np.sum(dp * np.exp(-1j * s * (x1 - x2)))
                + eps * np.sum(dp * np.exp(-1j * s * (x1 + x2)))) / (2.0 * L)
        if N == 0:
            estimates.append(pref)
            continue
        u = np.exp(-0.5j * t * mus * mus) / dmu * (
            (2.0 / math.pi) * step * ((dp * e1) @ s2m.T) - ph_mu * np.exp(-1j * mus * x1)
            + eps * ((2.0 / math.pi) * step * ((dp * e1) @ s2p.T) - ph_mu * np.exp(1j * mus * x1)))
        v = np.exp(-0.5j * t * mus * mus) / dmu * (
            (2.0 / math.pi) * step * ((dp * e2) @ s1m.T) - ph_mu * np.exp(-1j * mus * x2)
            + eps * ((2.0 / math.pi) * step * ((dp * e2) @ s1p.T) - ph_mu * np.exp(1j * mus * x2)))
        ssum_p = (s2m * dp[None, :]) @ s1m.T
        ssum_m = (s2m * dp[None, :]) @ s1p.T
        part_p = (np.exp(1j * t * lamj ** 2) * _sinc(x1, lamj - muk)
                  + np.exp(1j * t * muk ** 2) * _sinc(x2, lamj - muk)
                  - (2.0 / math.pi) * step * ssum_p)
        part_m = (np.exp(1j * t * lamj ** 2) * _sinc(x1, lamj + muk)
                  + np.exp(1j * t * muk ** 2) * _sinc(x2, lamj + muk)
                  - (2.0 / math.pi) * step * ssum_m)
        M = kron - (2.0 / L) * np.exp(-0.5j * t * (lamj ** 2 + muk ** 2)) * (part_p + eps * part_m) / norm
        estimates.append(pref * np.linalg.det(M) + eps / (2.0 * L) * _bordered_det(M, u, v))
    limit, _ = richardson_sequence(estimates)
    return complex(limit * np.exp(-1j * h * t))


def _quantum_numbers(draw, kind, N, span):
    base = 0 if kind.eps > 0 else 1
    return tuple(sorted(draw(st.sets(st.integers(base, base + span), min_size=N, max_size=N))))


def _positions(draw, box):
    """x1, x2 in [0, box], with the walls and x1 = x2 drawn on purpose."""
    point = st.one_of(st.sampled_from((0.0, box)),
                      st.floats(0.0, box, allow_nan=False, allow_subnormal=False))
    x1 = draw(point)
    x2 = x1 if draw(st.booleans()) else draw(point)
    return x1, x2


@st.composite
def _state_sum_cases(draw):
    kind = draw(st.sampled_from((NEUMANN, DIRICHLET)))
    N = draw(st.integers(0, 3))
    box = draw(st.floats(1.0, 4.0))
    sys_ = FiniteSystem(L=box, kind=kind, I=_quantum_numbers(draw, kind, N, 5))
    x1, x2 = _positions(draw, box)
    t = draw(st.one_of(st.just(0.0), st.floats(-0.8, 0.8)))
    lam_max = draw(st.floats(1.0, 14.0))
    return sys_, x1, x2, t, lam_max, draw(st.booleans()), draw(st.sampled_from((0.0, 1.3)))


@settings(max_examples=150, deadline=None)
@given(_state_sum_cases())
# I-factor entries of about 8 x = 1.4e-306, where np.linalg.det gave nan; the value underflows to 0
@example((FiniteSystem(L=3.0, kind=NEUMANN, I=(4, 5)), 1.7154037127933039e-307,
          1.7154037127933039e-307, 0.0, 3.0, False, 0.0))
def test_state_sum_equals_stacked_det_oracle(case):
    sys_, x1, x2, t, lam_max, damped, h = case
    base = 0 if sys_.kind.eps > 0 else 1
    assume(int(lam_max * sys_.L / math.pi) - base + 1 >= sys_.N + 1)   # the oracle needs a state
    ref = finite_L_correlation_stacked(sys_, x1, x2, t, lam_max, h=h, damped=damped)
    val = finite_L_correlation(sys_, x1, x2, t, lam_max, h=h, damped=damped)
    assert abs(val - ref) <= 1e-13 * (1.0 + abs(ref)), (val, ref)


@st.composite
def _box_cases(draw):
    kind = draw(st.sampled_from((NEUMANN, DIRICHLET)))
    N = draw(st.integers(0, 8))
    box = 8.0
    sys_ = FiniteSystem(L=box, kind=kind, I=_quantum_numbers(draw, kind, N, 10))
    x1, x2 = _positions(draw, box)
    t = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
    return sys_, x1, x2, t, draw(st.sampled_from((0.0, 1.3)))


@settings(max_examples=100, deadline=None)
@given(_box_cases())
def test_regularized_determinant_equals_per_delta_oracle(case):
    sys_, x1, x2, t, h = case
    ref = proposition_determinant_per_delta(sys_, x1, x2, t, h=h)
    val = proposition_determinant(sys_, x1, x2, t, h=h)
    assert abs(val - ref) <= 1e-13 * (1.0 + abs(ref)), (val, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 61), st.integers(1, 4))
@example(61, 4)
@example(3, 4)
@example(0, 1)
def test_subsets_equal_itertools_combinations(m, k):
    ref = np.fromiter(chain.from_iterable(combinations(range(m), k)), dtype=np.intp,
                      count=math.comb(m, k) * k).reshape(-1, k)
    out = _subsets(m, k)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


@st.composite
def _mode_cases(draw):
    kind = draw(st.sampled_from((NEUMANN, DIRICHLET)))
    base = 0 if kind.eps > 0 else 1
    I = _quantum_numbers(draw, kind, draw(st.integers(0, 4)), 8)
    # bra modes drawn from the same range, so i_lam = i_mu (and both 0) occur
    lattice = draw(st.lists(st.integers(base, base + 8), min_size=0, max_size=12))
    box = draw(st.floats(0.5, 6.0))
    x = draw(st.one_of(st.sampled_from((0.0, box)), st.floats(0.0, box)))
    return x, lattice, I, box, kind.eps


@settings(max_examples=150, deadline=None)
@given(_mode_cases())
@example((0.7, [0, 0, 1, 2], (0, 2), math.pi, 1.0))
@example((0.7, [1, 2, 3], (1, 3), math.pi, -1.0))
def test_mode_table_equals_scalar_factors(case):
    x, lattice, I, box, eps = case
    c, imat = mode_table(x, lattice, I, box, eps)
    assert c.shape == (len(lattice),) and imat.shape == (len(lattice), len(I))
    for a, i in enumerate(lattice):
        ref = c_factor(x, i, box, eps)
        assert abs(c[a] - ref) <= 1e-13 * (1.0 + abs(ref))
        for b, im in enumerate(I):
            ref = i_factor(x, i, im, box, eps)
            assert abs(imat[a, b] - ref) <= 1e-13 * (1.0 + abs(ref)), (i, im)


@pytest.mark.parametrize("N,lam_max", [(3, 2.0), (3, 0.5), (1, 0.5)])
@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("damped", [True, False])
def test_empty_state_set_is_zero(N, lam_max, t, damped):
    # fewer than N+1 modes below lam_max: no intermediate state, an empty sum
    assert route_equivalence_error((N,), (t,), lam_max, damped) <= 1e-10
