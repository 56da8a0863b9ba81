"""Exact finite-size computations: wave functions, form factors, and two
independent routes to the finite-box correlator.

These are the oracles for the thermodynamic-limit Fredholm formulas.  All
momentum lattice comparisons use exact integer quantum numbers.
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations

import numpy as np

from .errors import InvalidState
from .kernels import BoundaryKind, _sinc
from .special_integrals import (
    DEFAULT_POLICY,
    damped_limit,
    damped_weights,
    gauss_panels,
    richardson_sequence,
)


@dataclass(frozen=True)
class FiniteSystem:
    """Box of length L with N particles and integer quantum numbers I.

    Momenta are pi*I/L; Neumann quantum numbers are >= 0 (ground state
    0..N-1), Dirichlet >= 1 (ground state 1..N).
    """

    L: float
    kind: BoundaryKind
    I: tuple

    def __post_init__(self):
        if self.L <= 0:
            raise InvalidState("box length must be positive")
        ii = tuple(int(i) for i in self.I)
        object.__setattr__(self, "I", ii)
        if any(b <= a for a, b in zip(ii, ii[1:])):
            raise InvalidState("quantum numbers must be strictly increasing")
        low = 0 if self.kind.eps > 0 else 1
        if ii and ii[0] < low:
            raise InvalidState(f"quantum numbers must be >= {low} for this boundary kind")

    @property
    def N(self):
        return len(self.I)

    @classmethod
    def ground_state(cls, N, L, kind):
        base = 0 if kind.eps > 0 else 1
        return cls(L=L, kind=kind, I=tuple(range(base, base + N)))


def bethe_momenta(sys):
    """Momenta pi*I_j/L."""
    return math.pi * np.asarray(sys.I, dtype=float) / sys.L


def energy(lams, h):
    """sum of (lam_j^2 - h)."""
    lams = np.asarray(lams, dtype=float)
    return float(np.sum(lams * lams) - h * len(lams))


def wave_function(z, sys):
    """Normalized N-particle wave function at coordinates z of shape (..., N).

    Neumann: (2^N / sqrt((1+delta_{I1,0}) N!)) * prod sgn(z_j - z_k) *
    det cos(lam_j z_k); Dirichlet: ((2i)^N / sqrt(N!)) * prod sgn * det sin.
    Norm is (2L)^N; coincident coordinates give 0.  A stack of points is
    one stacked determinant and returns shape z.shape[:-1]; one point
    returns a complex.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z[None]
    N = sys.N
    if z.shape[-1] != N:
        raise InvalidState(f"expected {N} coordinates, got {z.shape[-1]}")
    if N == 0:
        out = np.ones(z.shape[:-1], dtype=complex)
        return out if out.ndim else complex(out)
    sgn = 1.0
    for j, k in combinations(range(N), 2):
        sgn = sgn * np.sign(z[..., j] - z[..., k])
    arg = bethe_momenta(sys)[:, None] * z[..., None, :]
    if sys.kind.eps > 0:
        mat = np.cos(arg)
        cons = 2.0 ** N / math.sqrt((2.0 if sys.I[0] == 0 else 1.0) * math.factorial(N))
    else:
        mat = np.sin(arg)
        cons = (2j) ** N / math.sqrt(math.factorial(N))
    out = cons * sgn * np.linalg.det(mat)
    return out.astype(complex) if np.ndim(out) else complex(out)


def _tensor_rule(panels, n_panels, N):
    """Gauss-Legendre tensor-product rule over panels^N.

    Returns points of shape (m,)*N + (N,) and weights of shape (m,)*N, with
    m the total node count of the composite rule on the panels.
    """
    rules = [gauss_panels(a, b, n_panels) for a, b in panels]
    z = np.concatenate([r[0] for r in rules])
    w = np.concatenate([r[1] for r in rules])
    pts = np.stack(np.meshgrid(*[z] * N, indexing="ij"), axis=-1)
    return pts, reduce(np.multiply.outer, [w] * N)


def orthogonality_check(sys_a, sys_b, n=80):
    """<Psi(lams_a)|Psi(lams_b)> by tensor-product quadrature (N <= 2)."""
    if sys_a.N != sys_b.N:
        raise InvalidState("states must have equal particle number")
    N = sys_a.N
    if N > 2:
        raise InvalidState("orthogonality quadrature limited to N <= 2")
    if N == 0:
        return 1.0 + 0.0j
    z, w = _tensor_rule([(0.0, sys_a.L)], max(4, n // 16), N)
    return complex(np.sum(w * np.conj(wave_function(z, sys_a)) * wave_function(z, sys_b)))


def permutation_identity_check(N, f, g):
    """Both sides of the permutation/determinant identity.

    lhs: sum over S_{N+1} of sgn(sigma) f_{sigma(N+1)} prod_j g_{sigma(j), j};
    rhs: (f_{N+1} + d/dalpha) det(g_{j,k} - alpha f_j g_{N+1,k}) at alpha=0.
    f has length N+1, g is (N+1) x N.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (N + 1,) or g.shape != (N + 1, N):
        raise InvalidState("need f of length N+1 and g of shape (N+1, N)")
    lhs = 0.0j
    for sigma in permutations(range(N + 1)):
        par = _parity(sigma)
        term = f[sigma[N]]
        for j in range(N):
            term = term * g[sigma[j], j]
        lhs += par * term
    mat = g[:N, :]
    u = f[:N]
    v = g[N, :]
    rhs = f[N] * np.linalg.det(mat) + _bordered_det(mat, u, v)
    return complex(lhs), complex(rhs)


def _parity(sigma):
    seen = [False] * len(sigma)
    sign = 1
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _bordered_det(mat, u, v):
    """det([[mat, u], [v, 0]]) = d/dalpha det(mat - alpha u v^T)|_0 (exact)."""
    n = mat.shape[0]
    if n == 0:
        return 0.0 + 0.0j
    b = np.zeros((n + 1, n + 1), dtype=complex)
    b[:n, :n] = mat
    b[:n, n] = u
    b[n, :n] = v
    return complex(np.linalg.det(b))


# ---------------------------------------------------------------------------
# form factors

@dataclass(frozen=True)
class FormFactorInput:
    """Arguments of the one-field matrix element between N+1 and N states."""

    I_lam: tuple
    I_mu: tuple
    x: float
    kind: BoundaryKind
    L: float

    def __post_init__(self):
        il = tuple(int(i) for i in self.I_lam)
        im = tuple(int(i) for i in self.I_mu)
        object.__setattr__(self, "I_lam", il)
        object.__setattr__(self, "I_mu", im)
        if len(il) != len(im) + 1:
            raise InvalidState("need N+1 bra momenta and N ket momenta")
        for tup in (il, im):
            if any(b <= a for a, b in zip(tup, tup[1:])):
                raise InvalidState("momenta must be strictly increasing")

    @property
    def N(self):
        return len(self.I_mu)


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


def form_factor(inp):
    """<Psi_{N+1}(lam)|psi^dag(x)|Psi_N(mu)> as a bordered determinant.

    Sign convention matches the direct integral of the normalized wave
    functions (the bare determinant identity produces (-1)^N of it).
    """
    N = inp.N
    eps = inp.kind.eps
    if N == 0:
        return complex(c_factor(inp.x, inp.I_lam[0], inp.L, eps))
    M = np.array([[i_factor(inp.x, inp.I_lam[j], inp.I_mu[k], inp.L, eps)
                   for k in range(N)] for j in range(N)], dtype=complex)
    u = np.array([c_factor(inp.x, inp.I_lam[j], inp.L, eps) for j in range(N)], dtype=complex)
    v = np.array([i_factor(inp.x, inp.I_lam[N], inp.I_mu[k], inp.L, eps)
                  for k in range(N)], dtype=complex)
    cN = c_factor(inp.x, inp.I_lam[N], inp.L, eps)
    val = cN * np.linalg.det(M) + _bordered_det(M, u, v)
    return complex((-1.0) ** N * val)


def form_factor_direct(inp, n=110):
    """Direct-integral oracle sqrt(N+1) * int psi*_{N+1}(z, x) psi_N(z) dz.

    Domains are split at z = x so sgn(z - x) is handled exactly (N <= 2).
    """
    N = inp.N
    L, x = inp.L, inp.x
    bra = FiniteSystem(L=L, kind=inp.kind, I=inp.I_lam)
    ket = FiniteSystem(L=L, kind=inp.kind, I=inp.I_mu)
    if N == 0:
        return complex(np.conj(wave_function([x], bra)))
    if N > 2:
        raise InvalidState("direct form-factor oracle limited to N <= 2")
    panels = [(0.0, x), (x, L)] if 0.0 < x < L else [(0.0, L)]
    z, w = _tensor_rule(panels, max(4, n // 16) if N == 1 else max(3, n // 24), N)
    zx = np.concatenate([z, np.full(z.shape[:-1] + (1,), x)], axis=-1)
    tot = np.sum(w * np.conj(wave_function(zx, bra)) * wave_function(z, ket))
    return complex(math.sqrt(N + 1.0) * tot)


# ---------------------------------------------------------------------------
# finite-box correlator, two routes

def finite_L_correlation(sys, x1, x2, t, lam_max, policy=DEFAULT_POLICY, h=0.0,
                         damped=True):
    """<psi(x1,0) psi^dag(x2,t)> on the N-particle state, by explicit
    summation over intermediate (N+1)-particle states up to momentum lam_max.

    For t != 0 the conditionally convergent state sum is damped on the
    intermediate energies and Richardson-extrapolated; damped=False keeps
    the raw truncated sum (for matched-box route comparisons).
    """
    N = sys.N
    if N > 3:
        raise InvalidState("state enumeration limited to N <= 3")
    L = sys.L
    eps = sys.kind.eps
    base = 0 if eps > 0 else 1
    i_max = int(lam_max * L / math.pi)
    lattice = list(range(base, i_max + 1))
    mus = bethe_momenta(sys)
    mu_sq = float(np.sum(mus ** 2))

    # per-mode tables
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
        M1 = i1[tuples[:, :N], :]          # (T, N, N): rows bra modes, cols ket
        M2 = i2[tuples[:, :N], :]
        d1 = np.linalg.det(M1)
        d2 = np.linalg.det(M2)
        B1 = np.zeros((len(tuples), N + 1, N + 1), dtype=complex)
        B2 = np.zeros_like(B1)
        B1[:, :N, :N] = M1
        B2[:, :N, :N] = M2
        B1[:, :N, N] = c1[tuples[:, :N]]
        B2[:, :N, N] = c2[tuples[:, :N]]
        B1[:, N, :N] = i1[tuples[:, N], :]
        B2[:, N, :N] = i2[tuples[:, N], :]
        sign = (-1.0) ** N
        ff1 = sign * (c1[tuples[:, N]] * d1 + np.linalg.det(B1))
        ff2 = sign * (c2[tuples[:, N]] * d2 + np.linalg.det(B2))

    base_terms = np.conj(ff1) * ff2 / (2.0 * L) ** (2 * N + 1)
    phases = np.exp(1j * t * (lam_sq - mu_sq))
    if t == 0.0 or not damped:
        return complex(np.sum(base_terms * phases) * np.exp(-1j * h * t))
    # damped on the intermediate energies: node sqrt(lam_sq), unit weight
    damped = damped_weights(np.sqrt(lam_sq), np.ones(len(lam_sq)), policy.deltas)
    limit = damped_limit(base_terms * phases, damped)
    return complex(limit * np.exp(-1j * h * t))


def proposition_determinant(sys, x1, x2, t, policy=DEFAULT_POLICY, lam_max=240.0,
                             h=0.0, mode="regularized"):
    """Finite-box correlator as the N x N determinant with lattice-sum entries.

    mode "regularized": reduced whole-lattice entry sums, exact Kronecker
    terms plus Gaussian-damped extrapolated oscillatory sums (the
    thermodynamic-limit workhorse).  mode "matched": raw truncated sums over
    the half-lattice up to lam_max; with the same box, agreement with
    finite_L_correlation is exact algebra, making the two routes comparable
    at machine precision.
    """
    if mode == "matched":
        return _proposition_matched(sys, x1, x2, t, lam_max, h)
    N = sys.N
    L = sys.L
    eps = sys.kind.eps
    step = math.pi / L
    mus = bethe_momenta(sys)
    iarr = np.asarray(sys.I)
    n_max = int(lam_max / step)
    s = step * np.arange(-n_max, n_max + 1)
    base_phase = np.exp(1j * t * s * s)

    # sinc tables over the whole lattice (N x S)
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
        ssum_p = (s2m * dp[None, :]) @ s1m.T     # rows j (x2 partner), cols k (x1 partner)
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


def _proposition_matched(sys, x1, x2, t, lam_max, h):
    """Raw half-lattice entry sums truncated at the same box as the explicit
    state enumeration."""
    N = sys.N
    L = sys.L
    eps = sys.kind.eps
    base = 0 if eps > 0 else 1
    i_max = int(lam_max * L / math.pi)
    lattice = list(range(base, i_max + 1))
    mus = bethe_momenta(sys)
    s_all = math.pi * np.asarray(lattice, dtype=float) / L
    phase = np.exp(1j * t * s_all * s_all)
    c1 = np.array([c_factor(x1, i, L, eps) for i in lattice])
    c2 = np.array([c_factor(x2, i, L, eps) for i in lattice])
    pref = eps * np.sum(phase * c1 * c2) / (2.0 * L)
    if N == 0:
        return complex(pref * np.exp(-1j * h * t))
    j_phase = np.exp(-0.5j * t * mus * mus)
    J1 = np.array([[i_factor(x1, i, im, L, eps) for i in lattice] for im in sys.I]) \
        * j_phase[:, None]
    J2 = np.array([[i_factor(x2, i, im, L, eps) for i in lattice] for im in sys.I]) \
        * j_phase[:, None]
    M = np.einsum('s,ks,js->jk', phase, J1, J2) / (2.0 * L) ** 2
    u = np.einsum('s,s,js->j', phase, c1, J2) / (2.0 * L)
    v = np.einsum('s,s,ks->k', phase, c2, J1) / (2.0 * L)
    val = pref * np.linalg.det(M) + eps / (2.0 * L) * _bordered_det(M, u, v)
    return complex(val * np.exp(-1j * h * t))
