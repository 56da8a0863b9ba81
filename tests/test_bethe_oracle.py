import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosefredholm.bethe_oracle import (
    FiniteSystem,
    FormFactorInput,
    bethe_momenta,
    energy,
    finite_L_correlation,
    form_factor,
    form_factor_direct,
    orthogonality_check,
    permutation_identity_check,
    proposition_determinant,
    wave_function,
)
from bosefredholm.errors import InvalidState
from bosefredholm.kernels import DIRICHLET, NEUMANN

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
    N = draw(st.integers(1, 3))
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
    s = FiniteSystem(L=L, kind=kind, I=I)
    norm = orthogonality_check(s, s)
    assert norm == pytest.approx((2 * L) ** s.N, rel=1e-10)


def test_orthogonality_offdiagonal():
    for kind, pair in ((NEUMANN, ((0,), (2,))), (DIRICHLET, ((1, 2), (1, 4)))):
        a = FiniteSystem(L=L, kind=kind, I=pair[0])
        b = FiniteSystem(L=L, kind=kind, I=pair[1])
        assert abs(orthogonality_check(a, b)) < 1e-8 * (2 * L) ** a.N


def test_permutation_identity_random():
    rng = np.random.default_rng(42)
    for N in (1, 2, 3, 4):
        for _ in range(20):
            f = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            g = rng.normal(size=(N + 1, N)) + 1j * rng.normal(size=(N + 1, N))
            lhs, rhs = permutation_identity_check(N, f, g)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


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
    rng = np.random.default_rng(9)
    for kind in (NEUMANN, DIRICHLET):
        base = 0 if kind.eps > 0 else 1
        for N in (1, 2):
            for _ in range(2):
                ims = tuple(sorted(rng.choice(np.arange(base, base + 6), size=N,
                                              replace=False)))
                ils = tuple(sorted(rng.choice(np.arange(base, base + 7), size=N + 1,
                                              replace=False)))
                inp = FormFactorInput(I_lam=ils, I_mu=ims,
                                      x=float(rng.uniform(0.3, 2.7)), kind=kind, L=L)
                det_val = form_factor(inp)
                direct = form_factor_direct(inp, n=100 if N == 1 else 64)
                assert abs(det_val - direct) <= 1e-8 * (1 + abs(direct)), (kind.eps, ils, ims)


def test_route_equivalence_matched_box():
    for kind in (NEUMANN, DIRICHLET):
        for N in (1, 2):
            sys_ = FiniteSystem.ground_state(N, L, kind)
            for t in (0.0, 0.4):
                a = finite_L_correlation(sys_, 0.7, 1.9, t, lam_max=40.0,
                                         damped=False)
                b = proposition_determinant(sys_, 0.7, 1.9, t, lam_max=40.0,
                                            mode="matched")
                assert abs(a - b) <= 1e-10 * (1 + abs(a)), (kind.eps, N, t)


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
