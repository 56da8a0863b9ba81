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
from .kernels import BoundaryKind
from .special_integrals import (
    DEFAULT_POLICY,
    damped_weights,
    extrapolated_weights,
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


def wave_function(z, sys):
    """Normalized N-particle wave function at coordinates z of shape (..., N).

    Neumann: (2^N / sqrt((1+delta_{I1,0}) N!)) * prod sgn(z_j - z_k) *
    det cos(lam_j z_k); Dirichlet: ((2i)^N / sqrt(N!)) * prod sgn * det sin.
    Norm is (2L)^N; coincident coordinates give 0.  A stack of points is
    evaluated at once, the determinant by cofactor expansion, and returns
    shape z.shape[:-1]; one point returns a complex.
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
    if sys.kind.eps > 0:
        trig = np.cos
        cons = 2.0 ** N / math.sqrt((2.0 if sys.I[0] == 0 else 1.0) * math.factorial(N))
    else:
        trig = np.sin
        cons = (2j) ** N / math.sqrt(math.factorial(N))
    zk = np.moveaxis(z, -1, 0)
    out = cons * sgn * _row_det([trig(lam * zk) for lam in bethe_momenta(sys)])
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


def mode_table(x, lattice, I, L, eps):
    """One-mode factors at position x over a list of bra quantum numbers.

    Returns the c-vector C_eps(x|lam), shape (m,), with
    C_eps = (e^{-i lam x} + eps e^{i lam x}) / sqrt(1 + delta_{lam,0}), and
    the I-matrix I_eps(x|lam, mu), shape (m, N), against the ket quantum
    numbers I; the Kronecker cases i_lam = i_mu and i_lam = i_mu = 0 are
    decided on the integers.
    """
    i_lam = np.asarray(lattice, dtype=int)[:, None]
    i_mu = np.asarray(I, dtype=int)[None, :]
    lam = math.pi * i_lam / L
    mu = math.pi * i_mu / L
    d_lam = np.where(i_lam == 0, math.sqrt(2.0), 1.0)
    same = i_lam == i_mu
    zero = (i_lam == 0) & (i_mu == 0)
    diff = np.where(same, 1.0, lam - mu)
    plus = np.where(zero, 1.0, lam + mu)
    t1 = np.where(same, 4.0 * x, 4.0 * np.sin(x * diff) / diff)
    t2 = np.where(zero, 4.0 * x, 4.0 * np.sin(x * plus) / plus)
    kron = 2.0 * L * (same + eps * zero)
    d = d_lam * np.where(i_mu == 0, math.sqrt(2.0), 1.0)
    c = (np.exp(-1j * lam * x) + eps * np.exp(1j * lam * x)) / d_lam
    return c[:, 0], (t1 + eps * t2 - kron) / d


def _form_factor_rows(x, lattice, I, L, eps):
    """Mode table as rows (I_eps(x|lam, mu_1..mu_N), C_eps(x|lam)), shape
    (m, N+1): the form factor of bra modes lam_0 < ... < lam_N is (-1)^N
    times the determinant of their rows."""
    c, imat = mode_table(x, lattice, I, L, eps)
    return np.column_stack([imat, c])


def _subsets(m, k):
    """All k-subsets of range(m) as rows of increasing indices, shape
    (C(m, k), k), in the order of itertools.combinations."""
    rows = np.zeros((1, 0), dtype=np.intp)
    last = np.full(1, -1, dtype=np.intp)
    for _ in range(k):
        counts = m - 1 - last                  # successors of each row's last index
        parent = np.repeat(np.arange(len(rows)), counts)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        last = last[parent] + 1 + offset
        rows = np.column_stack([rows[parent], last])
    return rows


def _row_det(rows):
    """Determinants of a stack of small k x k matrices given as k rows, each
    an array whose first axis runs over the k columns (further axes are
    batch axes), by cofactor expansion: the minors of the last rows over
    every column subset, built up from the bottom row (k 2^(k-1) products,
    against LAPACK's per-matrix call overhead on a stack of tiny matrices)."""
    k = len(rows)
    minors = {(): 1.0}
    for r in range(k - 1, -1, -1):
        lower, minors = minors, {}
        for cols in combinations(range(k), k - r):
            out = 0.0
            for j, c in enumerate(cols):
                term = rows[r][c] * lower[cols[:j] + cols[j + 1:]]
                out = out - term if j % 2 else out + term
            minors[cols] = out
    return minors[tuple(range(k))]


def form_factor(inp):
    """<Psi_{N+1}(lam)|psi^dag(x)|Psi_N(mu)> as a bordered determinant.

    Row j of the (N+1) x (N+1) matrix is (I_eps(x|lam_j, mu_1..mu_N),
    C_eps(x|lam_j)): linearity in the corner entry folds C_N det M plus the
    zero-corner bordered determinant into one.  Sign convention matches the
    direct integral of the normalized wave functions (the bare determinant
    identity produces (-1)^N of it).
    """
    rows = _form_factor_rows(inp.x, inp.I_lam, inp.I_mu, inp.L, inp.kind.eps)
    return complex((-1.0) ** inp.N * np.linalg.det(rows))


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

    Each state's form factor is the determinant of the N+1 rows of the mode
    table (I-matrix | c-vector) that its quantum numbers pick, evaluated by
    cofactor expansion for both positions at once.  For t != 0 the
    conditionally convergent state sum is damped on the intermediate
    energies and Richardson-extrapolated; damped=False keeps the raw
    truncated sum (for matched-box route comparisons).  A box with fewer
    than N+1 modes has no intermediate state, and the sum is 0.
    """
    N = sys.N
    if N > 3:
        raise InvalidState("state enumeration limited to N <= 3")
    L = sys.L
    eps = sys.kind.eps
    base = 0 if eps > 0 else 1
    lattice = np.arange(base, int(lam_max * L / math.pi) + 1)
    mu_sq = float(np.sum(bethe_momenta(sys) ** 2))

    # I_eps is real and C_eps is real (Neumann) or i times real (Dirichlet), so
    # each form factor is a real determinant times a unit factor (and the
    # sign (-1)^N), which cancel in conj(ff1) ff2.  Columns of the rows of
    # both positions, contiguous over the modes: (N+1, 2, m)
    unit = np.append(np.ones(N), 1.0 if eps > 0 else 1j)
    table = np.stack([(_form_factor_rows(x, lattice, sys.I, L, eps) * unit).real.T
                      for x in (x1, x2)], axis=1)
    states = _subsets(len(lattice), N + 1)
    lam_sq_all = (math.pi * lattice / L) ** 2
    lam_sq = sum(lam_sq_all[states[:, j]] for j in range(N + 1))
    ff = _row_det([np.take(table, states[:, j], axis=-1) for j in range(N + 1)])
    base_terms = ff[0] * ff[1] / (2.0 * L) ** (2 * N + 1)
    phases = np.exp(1j * t * (lam_sq - mu_sq))
    if t == 0.0 or not damped:
        return complex(np.sum(base_terms * phases) * np.exp(-1j * h * t))
    # damped on the intermediate energies: node sqrt(lam_sq), unit weight
    limit = (base_terms * phases) @ extrapolated_weights(np.sqrt(lam_sq), np.ones(len(lam_sq)),
                                                         policy.deltas)
    return complex(limit * np.exp(-1j * h * t))


def proposition_determinant(sys, x1, x2, t, policy=DEFAULT_POLICY, lam_max=240.0,
                             h=0.0, mode="regularized"):
    """Finite-box correlator as the N x N determinant with lattice-sum entries.

    mode "regularized": reduced whole-lattice entry sums, exact Kronecker
    terms plus Gaussian-damped extrapolated oscillatory sums (the
    thermodynamic-limit workhorse).  mode "matched": raw truncated sums over
    the half-lattice up to lam_max; with the same box, agreement with
    finite_L_correlation is exact algebra, making the two routes comparable
    at machine precision.  Any other mode raises ValueError.
    """
    if mode == "matched":
        return _proposition_matched(sys, x1, x2, t, lam_max, h)
    if mode != "regularized":
        raise ValueError(f"unknown mode {mode!r} (want 'regularized' or 'matched')")
    N = sys.N
    L = sys.L
    eps = sys.kind.eps
    step = math.pi / L
    mus = bethe_momenta(sys)
    iarr = np.asarray(sys.I)
    n_max = int(lam_max / step)
    s = step * np.arange(-n_max, n_max + 1)
    # damped lattice weights times e^{i t s^2}, one column per delta: (S, K)
    dp = damped_weights(s, np.ones(len(s)), policy.deltas)
    if t != 0.0:
        dp = dp * np.exp(1j * t * s * s)[:, None]
    pref = (np.exp(-1j * s * (x1 - x2)) @ dp
            + eps * (np.exp(-1j * s * (x1 + x2)) @ dp)) / (2.0 * L)
    if N == 0:
        limit, _ = richardson_sequence(pref)
        return complex(limit * np.exp(-1j * h * t))

    # sinc tables over the whole lattice, columns (s - mu_k, s + mu_k): (S, 2N)
    s1, s2 = _sinc_tables((x1, x2), s, mus)
    scale = (2.0 / math.pi) * step
    U = scale * _real_matmul(s2.T, dp * np.exp(-1j * s * x1)[:, None])     # (2N, K)
    V = scale * _real_matmul(s1.T, dp * np.exp(-1j * s * x2)[:, None])
    # rows j (x2 partner), then (delta, x1 partner k -+): (N, K, 2N)
    pairs = (dp[:, :, None] * s1[:, None, :]).reshape(len(s), -1)
    ssum = (scale * _real_matmul(s2[:, :N].T, pairs)).reshape(N, -1, 2 * N)

    dmu = np.sqrt(np.where(iarr == 0, 2.0, 1.0))
    ph_mu = np.exp(1j * t * mus * mus)
    half = np.exp(-0.5j * t * mus * mus) / dmu
    # the same tables at s = mu_j (symmetric in j and k for each sign)
    near1, near2 = _sinc_tables((x1, x2), mus, mus)
    exact = ph_mu[:, None] * near1 + np.tile(ph_mu, 2) * near2
    mix = (2.0 / L) * half[:, None] * half[None, :]
    kron = (iarr[:, None] == iarr[None, :]).astype(float)
    c_mu = [ph_mu * (np.exp(-1j * mus * x) + eps * np.exp(1j * mus * x)) for x in (x1, x2)]

    estimates = []
    for q in range(dp.shape[1]):
        u = half * (U[:N, q] + eps * U[N:, q] - c_mu[0])
        v = half * (V[:N, q] + eps * V[N:, q] - c_mu[1])
        part = exact - ssum[:, q]
        M = kron - mix * (part[:, :N] + eps * part[:, N:])
        estimates.append(pref[q] * np.linalg.det(M) + eps / (2.0 * L) * _bordered_det(M, u, v))
    limit, _ = richardson_sequence(estimates)
    return complex(limit * np.exp(-1j * h * t))


def _sinc_tables(xs, s, mus):
    """Per x in xs, (S, 2N) columns sin(x(s - mu_k))/(s - mu_k), then
    sin(x(s + mu_k))/(s + mu_k), from node-vector trig
    sin(x(s -+ mu)) = sin(xs)cos(x mu) -+ cos(xs)sin(x mu) over one
    reciprocal mesh per sign shared by all x; |s -+ mu| < 1e-9 takes the
    limit x."""
    u = s[:, None] + np.concatenate([-mus, mus])
    small = np.abs(u) < 1e-9
    recip = 1.0 / np.where(small, 1.0, u)
    sign = np.repeat([-1.0, 1.0], len(mus))
    tables = []
    for x in xs:
        num = (np.column_stack([np.sin(x * s), np.cos(x * s)])
               @ np.vstack([np.tile(np.cos(x * mus), 2), sign * np.tile(np.sin(x * mus), 2)]))
        num *= recip
        num[small] = x
        tables.append(num)
    return tables


def _real_matmul(a, b):
    """a @ b for real a and real or complex b, as one real BLAS product
    (a complex b is contracted as interleaved real and imaginary parts)."""
    if not np.iscomplexobj(b):
        return a @ b
    b = np.ascontiguousarray(b)
    return (a @ b.view(np.float64)).view(np.complex128)


def _proposition_matched(sys, x1, x2, t, lam_max, h):
    """Raw half-lattice entry sums truncated at the same box as the explicit
    state enumeration."""
    N = sys.N
    L = sys.L
    eps = sys.kind.eps
    base = 0 if eps > 0 else 1
    lattice = np.arange(base, int(lam_max * L / math.pi) + 1)
    mus = bethe_momenta(sys)
    s_all = math.pi * lattice / L
    phase = np.exp(1j * t * s_all * s_all)
    c1, i1 = mode_table(x1, lattice, sys.I, L, eps)
    c2, i2 = mode_table(x2, lattice, sys.I, L, eps)
    pref = eps * np.sum(phase * c1 * c2) / (2.0 * L)
    if N == 0:
        return complex(pref * np.exp(-1j * h * t))
    j_phase = np.exp(-0.5j * t * mus * mus)
    J1 = i1.T * j_phase[:, None]
    J2 = i2.T * j_phase[:, None]
    M = np.einsum('s,ks,js->jk', phase, J1, J2) / (2.0 * L) ** 2
    u = np.einsum('s,s,js->j', phase, c1, J2) / (2.0 * L)
    v = np.einsum('s,s,ks->k', phase, c2, J1) / (2.0 * L)
    val = pref * np.linalg.det(M) + eps / (2.0 * L) * _bordered_det(M, u, v)
    return complex(val * np.exp(-1j * h * t))
