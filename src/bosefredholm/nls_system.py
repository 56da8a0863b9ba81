"""Four-point auxiliary fields, the M-hat operator, the matrix b = B + Q,
and the Lax compatibility check of the associated differential system."""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameter, NumericalFailure
from .kernels import spectral_grid
from .special_integrals import (
    FINE_POLICY,
    NEAR_DIAGONAL,
    RegularizationPolicy,
    extrapolated_weights,
    gaussian_fresnel,
    graded_line_grid,
    hilbert_mean_slope,
    pv_fresnel_hilbert,
    pv_fresnel_hilbert_dlam,
)

# (P_j)_{l,m} = i * delta_{l,j} * delta_{m,j}
P_MATRICES = tuple(1j * np.outer(np.eye(4)[j], np.eye(4)[j]) for j in range(4))


@dataclass(frozen=True)
class FourPointConfig:
    """Positions y1..y4 and times t1..t4 of the two field pairs.

    coincident_sign fixes the value of sign(y_{2p} - y_{2p-1}) when a pair
    is exactly coincident (dy = dt = 0): 0 is the symmetric principal value
    (G_p = 0); +1 is the one-sided limit dy -> 0+ used by the x1 = 0
    boundary formula, where G_p = -i/2.
    """

    y: tuple
    t: tuple
    coincident_sign: int = 0

    def __post_init__(self):
        if len(self.y) != 4 or len(self.t) != 4:
            raise ValueError("need four positions and four times")

    @classmethod
    def correlation(cls, x1, x2, t):
        """Specialization describing <psi(x1,0) psi^dag(x2,t)>."""
        return cls(y=(-x1, x1, -x2, x2), t=(0.0, 0.0, t, t), coincident_sign=1)

    def shifted(self, dy=None, dt=None):
        y = tuple(a + b for a, b in zip(self.y, dy or (0.0,) * 4))
        t = tuple(a + b for a, b in zip(self.t, dt or (0.0,) * 4))
        return FourPointConfig(y=y, t=t, coincident_sign=self.coincident_sign)

    @property
    def phase_scale(self):
        return sum(abs(v) for v in self.t)


class AuxField:
    """Auxiliary data of one field pair (odd slot a, even slot b).

    Carries the closed forms of the pair's Hilbert transform G_p, its
    derivative, and the row/column phase factors of e_p^L, e_p^R.
    """

    def __init__(self, ya, ta, yb, tb, coincident_sign=0):
        self.ya, self.ta, self.yb, self.tb = ya, ta, yb, tb
        self.dy = yb - ya
        self.dt = tb - ta
        self.coincident_sign = coincident_sign

    def row_phase(self, lam):
        return np.exp(1j * self.ta * lam ** 2 - 1j * self.ya * lam)

    def col_phase(self, mu):
        return np.exp(-1j * self.tb * mu ** 2 + 1j * self.yb * mu)

    @property
    def key(self):
        """(dy, dt, coincident_sign): all that hilbert and its quotients read."""
        return (self.dy, self.dt, self.coincident_sign)

    @property
    def coincident(self):
        """dy = dt = 0: G_p is the constant -(i/2) coincident_sign."""
        return self.dy == 0.0 and self.dt == 0.0

    def hilbert(self, lam):
        if self.coincident:
            return np.full(np.shape(lam), -0.5j * self.coincident_sign)
        return pv_fresnel_hilbert(lam, self.dy, self.dt) / (2.0 * math.pi)

    def hilbert_deriv(self, lam):
        if self.coincident:
            return np.zeros(np.shape(lam), dtype=complex)
        return pv_fresnel_hilbert_dlam(lam, self.dy, self.dt) / (2.0 * math.pi)

    def hilbert_diffquot(self, lam, s, g_lam=None, g_s=None):
        """(G(lam) - G(s))/(lam - s) on the broadcast (lam, s) mesh; entries
        with |lam - s| < NEAR_DIAGONAL take the mean of G' over [s, lam]
        (hilbert_mean_slope), as kernel_L does.

        g_lam, g_s are G already sampled at lam and s; each one not given
        is evaluated here, once per axis (cheap outer difference).
        """
        lam = np.asarray(lam, dtype=float)
        s = np.asarray(s, dtype=float)
        g_lam = self.hilbert(lam) if g_lam is None else g_lam
        g_s = self.hilbert(s) if g_s is None else g_s
        den = np.asarray(lam - s)
        near = np.abs(den) < NEAR_DIAGONAL
        out = np.asarray((g_lam - g_s) / np.where(near, 1.0, den), dtype=complex)
        if np.any(near):
            pts = (np.broadcast_to(v, den.shape)[near] for v in (lam, s))
            out[near] = hilbert_mean_slope(*pts, self.dy, self.dt) / (2.0 * math.pi)
        return out

    def samples(self, lam):
        """(row phase, column phase, G, G') on lam: with them e_p^L =
        row [-1, G] and e_p^R = (2/pi) col [G, 1]."""
        return self.row_phase(lam), self.col_phase(lam), self.hilbert(lam), self.hilbert_deriv(lam)


def build_aux_fields(cfg):
    """The two AuxField objects of a configuration."""
    y, t = cfg.y, cfg.t
    cs = cfg.coincident_sign
    return (AuxField(y[0], t[0], y[1], t[1], coincident_sign=cs),
            AuxField(y[2], t[2], y[3], t[3], coincident_sign=cs))


def adapt_policy(cfg, policy):
    """Lower the damping when a Fresnel wavefront sits inside the damped
    region.

    The pair Hilbert transforms switch branches near s* = dy/(2 dt); when
    delta_min * s*^2 is not small the damping distorts the wavefront faster
    than the extrapolation can undo.  Keeps the extrapolation depth, floors
    delta_min at 5e-5 to bound the grid size.
    """
    s_star = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            dt = cfg.t[b] - cfg.t[a]
            if dt != 0.0:
                s_star = max(s_star, abs((cfg.y[b] - cfg.y[a]) / (2.0 * dt)))
    if s_star == 0.0:
        return policy
    target = max(0.01 / s_star ** 2, 5e-5)
    if policy.deltas[-1] <= target:
        return policy
    return RegularizationPolicy(damping=target * 2.0 ** (policy.extrapolation_orders - 1),
                                extrapolation_orders=policy.extrapolation_orders)


# panel rule of the damped line grids: no panel is wider than
# LINE_BASE_WIDTH or sees more than LINE_PHASE_PER_PANEL radians of the
# fastest whole-line phase (the node-doubling test of tests/ halves both)
LINE_BASE_WIDTH = 0.5
LINE_PHASE_PER_PANEL = 16.0

# |lam - s| below which a line node's quotient is formed exactly, not split
# into G(lam) R - R G(s), R = 1/(lam - s).  Each of the cross integral's four
# R^2 sums rounds to about eps sum_s |c(s)| R^2 ~ eps (w/d^2 + 2/d) past a
# distance d, w <= d the nearest weight: a loss of about 8 eps/d (measured
# 5.4e-14 at d = 3.3e-2, 4.5e-15 at 0.2), which NEAR_BAND holds near 1e-14.
NEAR_BAND = 8.0 * np.finfo(float).eps / 1e-14


class _LineGridArrays(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    deltas: tuple


def reciprocal_table(lam, nodes):
    """([R; R^2; 1], near): R = 1/(lam - s) of the spectral nodes lam against
    the line nodes s and a row of ones, as one real (2 len(lam) + 1,
    len(nodes)) array, zero in the columns near, the indices of the nodes
    within NEAR_BAND of some lam.  The row of ones gives column sums."""
    m = len(lam)
    table = np.empty((2 * m + 1, len(nodes)))
    den = np.subtract(lam[:, None], nodes[None, :], out=table[:m])
    # |den| in the rows R^2 takes below, not in a temporary
    near = np.flatnonzero(np.any(np.abs(den, out=table[m:2 * m]) < NEAR_BAND, axis=0))
    den[:, near] = np.inf
    R = np.divide(1.0, den, out=den)
    np.multiply(R, R, out=table[m:2 * m])
    table[2 * m] = 1.0
    return table, near


class LineGrid(_LineGridArrays):
    """Nodes, quadrature weights and damping deltas of a line grid.

    `extrapolated` holds their extrapolated_weights, formed once: every
    damped whole-line integral on the grid is one contraction against it,
    which gives the Richardson limit without forming the per-delta
    estimates.  It is read-only.
    """

    def __init__(self, nodes, weights, deltas):
        self.extrapolated = extrapolated_weights(nodes, weights, deltas)
        self.extrapolated.flags.writeable = False


def line_chirps(cfg):
    """(dt, dy) of the phases dt*s^2 - dy*s of the whole-line integrands.

    Every integrand is col_1(s) row_2(s), times 1 or G_1, times 1 or G_2.
    Far out G_p is a chirp of its pair plus a non-oscillating O(1/s) part,
    so the phases are (t_j - t_i) s^2 - (y_j - y_i) s, i in {1, 2}, j in
    {3, 4}.
    """
    y, t = cfg.y, cfg.t
    return tuple((t[j] - t[i], y[j] - y[i]) for i in (0, 1) for j in (2, 3))


def build_line_grid(cfg, policy):
    """Line grid of the whole-line integrals of cfg: panels sized by the
    integrands' phases (line_chirps), truncated and damped by the policy."""
    nodes, weights = graded_line_grid(policy.tail_cut, base_width=LINE_BASE_WIDTH,
                                      phase_per_panel=LINE_PHASE_PER_PANEL,
                                      chirps=line_chirps(cfg))
    return LineGrid(nodes, weights, policy.deltas)


def _plane_wave_amplitude(aux):
    """g with G(s) = g exp(-i dy s) for an equal-time pair (dt = 0).

    The Hilbert transform of exp(-i dy s) is -(i/2) sign(dy) times itself;
    a coincident pair (dy = 0) has g = -(i/2) coincident_sign.
    """
    sign = np.sign(aux.dy) if aux.dy != 0.0 else aux.coincident_sign
    return -0.5j * sign


def _distinct(items, key):
    """(first, index): the position in items of the first item of each
    distinct key(item), and the row of every item among those."""
    rows, first, index = {}, [], []
    for i, item in enumerate(items):
        k = key(item)
        if k not in rows:
            rows[k] = len(first)
            first.append(i)
        index.append(rows[k])
    return first, np.array(index, dtype=int)


class _Sampled(NamedTuple):
    """The whole-line integrals of a stack of K configurations on n spectral
    nodes, leading axis K: `pairs` the AuxField.samples (row, col, G, G')
    of both pairs as a (2, 4, K, n) array; E^L (K, n, 4) and E^R (K, 4, n),
    whose components 3, 4 of E^L are (1 + (2/pi) K1-hat) e_2^L and
    components 1, 2 of E^R are e_1^R (1 + (2/pi) K2-hat) (right action);
    (K1-hat e_2^L) (K, n, 2), (e_1^R K2-hat) (K, 2, n) and the cross
    integral of the M-hat diagonal (K, n); and the integral block of Q (K,
    2, 2)."""

    pairs: np.ndarray
    EL: np.ndarray
    ER: np.ndarray
    compL: np.ndarray
    compR: np.ndarray
    cross: np.ndarray
    q: np.ndarray


class _WholeLine:
    """The whole-line integrals of a stack of configurations as their
    builders read them, and the line grid (None, 0 nodes and () for closed
    forms).  Whatever two configurations share is evaluated once per stack:
    each distinct pair's AuxField.samples on the spectral grid here, and
    the node vectors of the damped integrals in _LineSamples."""

    grid = None
    line_nodes = 0
    deltas = ()

    def __init__(self, cfgs):
        self.aux = [build_aux_fields(c) for c in cfgs]

    def on(self, lam):
        """The stack's _Sampled on the spectral nodes lam."""
        lam = np.asarray(lam, dtype=float)
        flat = [a for pair in self.aux for a in pair]
        first, index = _distinct(flat, lambda a: (a.ya, a.ta, a.yb, a.tb, a.coincident_sign))
        spec = np.array([flat[i].samples(lam) for i in first], dtype=complex)[index]
        pairs = spec.reshape(len(self.aux), 2, 4, len(lam)).transpose(1, 2, 0, 3)
        (row1, col1, g1, _), (row2, col2, g2, _) = pairs
        compL, compR, cross, q = self._integrals(lam, flat, spec)
        # e_p^L = row_p [-1, G_p] and e_p^R = (2/pi) col_p [G_p, 1]
        k = 2.0 / math.pi
        EL = np.empty((len(self.aux), len(lam), 4), dtype=complex)
        ER = np.empty((len(self.aux), 4, len(lam)), dtype=complex)
        EL[..., 0], EL[..., 1] = -row1, row1 * g1
        EL[..., 2], EL[..., 3] = k * compL[..., 0] - row2, k * compL[..., 1] + row2 * g2
        ER[:, 0], ER[:, 1] = k * (col1 * g1 + compR[:, 0]), k * (col1 + compR[:, 1])
        ER[:, 2], ER[:, 3] = k * (col2 * g2), k * col2
        return _Sampled(pairs, EL, ER, compL, compR, cross, q)


class _ClosedForm(_WholeLine):
    """Closed forms of the whole-line integrals when the first pair is
    coincident (G_1 = g1 constant, so K_1 = 0 and the cross integral
    vanishes) and the second equal-time (G_2(s) = g2 exp(-i dy s))."""

    def _integrals(self, mu, flat, spec):
        """(e_1^R K_2-hat)(mu) and the integral block of Q in closed form,
        beside K_1 = 0.

        With a = y_1, the integral of col_1(s) row_2(s) (G_2(s) -
        G_2(mu))/(s - mu) over s is g2 [H(mu; y_4 - a, T) - exp(-i dy mu)
        H(mu; y_3 - a, T)], T = t_3 - t_1, H = pv_fresnel_hilbert: each part
        is a Gaussian Hilbert transform, and their difference is regular at
        s = mu.  The Q block is -(integral of e_1^R e_2^L): col_1 row_2 =
        exp(i T s^2 - i (y_3 - a) s) and G_2 = g2 exp(-i dy s), so both
        integrals are 2 pi gaussian_fresnel.
        """
        K, n = len(self.aux), len(mu)
        compR = np.empty((K, 2, n), dtype=complex)
        q = np.empty((K, 2, 2), dtype=complex)
        for k, (a1, a2) in enumerate(self.aux):
            a, T = a1.ya, a2.ta - a1.ta
            g1, g2 = _plane_wave_amplitude(a1), _plane_wave_amplitude(a2)
            integral = g2 * (pv_fresnel_hilbert(mu, a2.yb - a, T)
                             - np.exp(-1j * a2.dy * mu) * pv_fresnel_hilbert(mu, a2.ya - a, T))
            # e_1^R(s) = (2/pi) col_1(s) [G_1, 1]: col_1 is inside the integral
            spectral = (2.0 / math.pi) * spec[2 * k + 1, 1] * integral
            compR[k] = g1 * spectral, spectral
            row = 2.0 * math.pi * gaussian_fresnel(a2.ya - a, T)
            row_g = g2 * 2.0 * math.pi * gaussian_fresnel(a2.yb - a, T)
            q[k] = -(2.0 / math.pi) * np.outer([g1, 1.0], [-row, row_g])
        return np.zeros((K, n, 2), dtype=complex), compR, np.zeros((K, n), dtype=complex), q


class _LineSamples(_WholeLine):
    """The whole-line integrals of a stack of configurations damped on one
    line grid.

    Every integrand is c = col_1 row_2 times 1, G_1, G_2 or G_1 G_2, and
    times the difference quotients dq_p(lam, s) = (G_p(lam) - G_p(s)) R, R =
    1/(lam - s).  So the node columns V = [c, G_1 c, G_2 c, G_1 G_2 c], c
    carrying the extrapolated weights, hold all that depends on s alone: the
    sum over s of dq_p v is G_p(lam) (R v) - R (G_p v), the cross
    integral's is G_1 G_2 (R^2 c) - G_1 (R^2 G_2 c) - G_2 (R^2 G_1 c) +
    R^2 (G_1 G_2 c), and the Q block's four integrals are the column sums
    of V.
    """

    def __init__(self, cfgs, line_grid):
        super().__init__(cfgs)
        self.grid, self.line_nodes, self.deltas = line_grid, len(line_grid.nodes), line_grid.deltas

    def _integrals(self, lam, flat, spec):
        """The integrals on lam, damped and extrapolated.  G_p on the nodes
        is evaluated once per distinct AuxField.key, col_1 and row_2 once per
        distinct (y_2, t_2) and (y_3, t_3).  Each configuration forms its V
        in one reused buffer and multiplies it by reciprocal_table, one block
        of lam at a time, and the near nodes' exact quotients by their
        columns of V; the sums are then formed for the whole stack at once
        (_quotient_sums)."""
        nodes, w, K = self.grid.nodes, self.grid.extrapolated, len(self.aux)
        gfirst, gi = _distinct(flat, lambda a: a.key)
        G = [flat[i].hilbert(nodes) for i in gfirst]
        cfirst, ci = _distinct(flat[0::2], lambda a: (a.yb, a.tb))
        col = [flat[2 * i].col_phase(nodes) for i in cfirst]
        rfirst, ri = _distinct(flat[1::2], lambda a: (a.ya, a.ta))
        row = [flat[2 * i + 1].row_phase(nodes) for i in rfirst]
        V = np.empty((len(nodes), 4), dtype=complex)
        c, g1c, g2c, g12c = V.T
        # spectral nodes per block: the (2 block + 1, ns) table holds about 4e6 entries
        chunk = max(1, 2_000_000 // max(len(nodes), 1))
        blocks = []
        for lo in range(0, max(len(lam), 1), chunk):
            block = lam[lo:lo + chunk]
            table, near = reciprocal_table(block, nodes)
            g = spec[:, 2, lo:lo + chunk]
            # the exact quotients of the near nodes, once per distinct pair key
            dq = [flat[i].hilbert_diffquot(block[:, None], nodes[near], g[i][:, None], G[j][near])
                  for j, i in enumerate(gfirst)] if len(near) else []
            prod = np.empty((K, len(table), 4), dtype=complex)
            exact = np.zeros((K, 3 * len(block), 4), dtype=complex)
            for k in range(K):
                g1, g2 = G[gi[2 * k]], G[gi[2 * k + 1]]
                np.multiply(col[ci[k]], row[ri[k]], out=c)
                c *= w
                np.multiply(g1, c, out=g1c)
                np.multiply(g2, c, out=g2c)
                np.multiply(g1, g2c, out=g12c)
                np.matmul(table, V.view(float), out=prod[k].view(float))
                if dq:
                    dq1, dq2 = dq[gi[2 * k]], dq[gi[2 * k + 1]]
                    np.matmul(np.concatenate([dq1, dq2, dq1 * dq2]), V[near], out=exact[k])
            blocks.append(_quotient_sums(prod, exact, g[0::2], g[1::2]))
        sums1, sums2, cross = (np.concatenate(part, axis=1) for part in zip(*blocks))
        # a coincident pair's quotients vanish
        co1, co2 = (np.array([a.coincident for a in flat[p::2]]) for p in (0, 1))
        sums1 *= ~co1[:, None, None]
        sums2 *= ~co2[:, None, None]
        cross *= ~(co1 | co2)[:, None]
        row1, col2 = spec[0::2, 0], spec[1::2, 1]
        # K_1-hat e_2^L integrates dq_1 [-c, G_2 c], e_1^R K_2-hat dq_2 (2/pi) [G_1 c, c]
        compL = row1[..., None] * sums1 * [-1.0, 1.0]
        compR = (2.0 / math.pi) * (col2[..., None] * sums2[..., ::-1]).transpose(0, 2, 1)
        c, g1c, g2c, g12c = prod[:, -1].T
        # -(integral of e_1^R e_2^L): e_1^R e_2^L = (2/pi) col_1 row_2 [G_1, 1] (x) [-1, G_2]
        q = -(2.0 / math.pi) * np.array([[-g1c, g12c], [-c, g2c]]).transpose(2, 0, 1)
        return compL, compR, row1 * col2 * cross, q


def _quotient_sums(prod, exact, g1, g2):
    """Sums over the nodes of dq_1 [c, G_2 c], dq_2 [c, G_1 c] and dq_1 dq_2 c
    on a block of m spectral nodes, for a stack of K configurations, from
    G_p on the block, g_p (K, m): split from prod = [R; R^2; 1] V (K, 2m +
    1, 4), plus exact = [dq_1; dq_2; dq_1 dq_2] V (K, 3m, 4) on the nodes
    the reciprocal table leaves out."""
    m = g1.shape[1]
    RV, R2V = prod[:, :m], prod[:, m:2 * m]
    X1, X2, X12 = exact[:, :m], exact[:, m:2 * m], exact[:, 2 * m:]
    sums1 = g1[..., None] * RV[..., [0, 2]] - RV[..., [1, 3]] + X1[..., [0, 2]]
    sums2 = g2[..., None] * RV[..., [0, 1]] - RV[..., [2, 3]] + X2[..., [0, 1]]
    cross = (g1 * (g2 * R2V[..., 0] - R2V[..., 2]) - (g2 * R2V[..., 1] - R2V[..., 3])
             + X12[..., 0])
    return sums1, sums2, cross


def _chosen_line_grid(cfg, policy):
    """The line grid build_b integrates cfg on under policy: None for closed
    forms, which every whole-line integral has when the first pair is
    coincident (G_1 constant, so K_1 = 0) and the second equal-time (G_2 a
    plane wave), as at correlation(0, x, t); else the grid of cfg under
    adapt_policy(cfg, policy)."""
    y, t = cfg.y, cfg.t
    if y[0] == y[1] and t[0] == t[1] and t[2] == t[3]:
        return None
    return build_line_grid(cfg, adapt_policy(cfg, policy))


def _q_matrices(aux, q):
    """The (K, 4, 4) Q of a stack and each configuration's degenerate
    entries: Gaussian sigma_+ blocks, once per distinct pair (dy, dt), and
    the integral blocks q.

    Coincident pairs (dy = dt = 0) make the sigma_+ block a delta
    distribution: entry 0, flagged.
    """
    Q = np.zeros((len(aux), 4, 4), dtype=complex)
    Q[:, :2, 2:] = q
    fresnel, degenerate = {}, []
    for k, pairs in enumerate(aux):
        degenerate.append([])
        for block, a in zip((0, 2), pairs):
            if a.coincident:
                degenerate[k].append((block, block + 1))
                continue
            if (a.dy, a.dt) not in fresnel:
                fresnel[a.dy, a.dt] = gaussian_fresnel(a.dy, a.dt)
            Q[k, block, block + 1] = -fresnel[a.dy, a.dt]
    return Q, degenerate


@dataclass
class NlsMatrices:
    """Q, B and b = B + Q, with bookkeeping of degenerate Q entries."""

    Q: np.ndarray
    B: np.ndarray
    degenerate_entries: list = field(default_factory=list)
    # the damped line grid: its node count and deltas; 0 and () when every
    # integral is a closed form
    line_nodes: int = 0
    deltas: tuple = ()

    @property
    def b(self):
        return self.B + self.Q


def _m_hat(lam, sampled):
    """M-hat of a stack on lam (K, n, n): kernel -(pi/2) E^L(lam).E^R(mu)/(lam
    - mu) off the diagonal, and on it the analytic limit -A1 B1 G1' - A2 B2
    G2' - (2/pi) * cross integral (0 when a pair is coincident: the
    difference quotient of a constant G)."""
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    mat = -(math.pi / 2.0) * (sampled.EL @ sampled.ER) / diff
    (row1, col1, _, dg1), (row2, col2, _, dg2) = sampled.pairs
    diagonal = mat.reshape(len(mat), -1)[:, ::len(lam) + 1]
    diagonal[...] = -row1 * col1 * dg1 - row2 * col2 * dg2 - (2.0 / math.pi) * sampled.cross
    return mat


def build_b(cfg, ensemble, n=32, policy=FINE_POLICY, line_grid=None):
    """b = B + Q with B_{jk} = integral of F_j^R E_k^L over the spectral domain.

    F^R solves the transposed resolvent system F^R (1 - (2/pi) M-hat) = E^R.
    The whole-line integrals are chosen once: closed forms at the x1 = 0
    configuration with no line_grid, so no line grid is built; otherwise
    damped on the given LineGrid, or on the grid of cfg under
    adapt_policy(cfg, policy).  The result reports that grid's node count
    and deltas.  It is the stack of one of _build_b_stack.
    """
    if line_grid is None:
        line_grid = _chosen_line_grid(cfg, policy)
    return _build_b_stack([cfg], ensemble, n, line_grid)[0]


def _build_b_stack(cfgs, ensemble, n, line_grid):
    """The NlsMatrices of each configuration of cfgs, as build_b gives them,
    all on line_grid (closed forms when None) and on one spectral grid: E
    vectors, M-hat, the resolvent solves, B and Q for the whole stack at
    once."""
    quad, weight_fn = spectral_grid(ensemble.thermal, ensemble.q, n, whole_line=True)
    lam = quad.nodes
    whole_line = _ClosedForm(cfgs) if line_grid is None else _LineSamples(cfgs, line_grid)
    sampled = whole_line.on(lam)
    mat = _m_hat(lam, sampled)
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure("non-finite kernel entries")
    w = quad.weights if weight_fn is None else quad.weights * weight_fn(lam)
    amat = np.eye(n) - (2.0 / math.pi) * (mat.transpose(0, 2, 1) * w)
    FR = np.linalg.solve(amat, sampled.ER.transpose(0, 2, 1)).transpose(0, 2, 1)   # (K, 4, n)
    B = (FR * w) @ sampled.EL
    Q, degenerate = _q_matrices(whole_line.aux, sampled.q)
    return [NlsMatrices(Q=Q[k], B=B[k], degenerate_entries=degenerate[k],
                        line_nodes=whole_line.line_nodes, deltas=whole_line.deltas)
            for k in range(len(cfgs))]


def _comm(a, b):
    return a @ b - b @ a


# spectral parameters at which the compatibility residuals are evaluated
LAX_MUS = (0.37, 1.1)


def lax_check(cfg, ensemble, steps, n=24, policy=FINE_POLICY):
    """(b, stencil, residuals): build_b(cfg, ensemble, n, policy), the line
    grid of the stencils and, for each of the steps, the (4, 4) max-norm
    residuals of d_{t_j} L_k - d_{y_k} M_j + [L_k, M_j] = 0, maximized over
    the LAX_MUS values.

    Derivatives of b are three-point central differences with the step; all
    stencil evaluations share one line grid, built once under the policy as
    given (not adapted), so the quadrature bias differentiates smoothly.
    The base and the 40 shifts of every step are one stack of
    _build_b_stack: a shift moves one pair's (dy, dt), so the other pair's
    G samples serve many configurations, and one reciprocal table and one
    spectral grid serve all of them.  When build_b's grid is the stencils'
    (no closed form, and adapt_policy leaves the policy), b is their base b.
    A zero or non-finite step raises InvalidParameter.
    """
    for step in steps:
        if not (math.isfinite(step) and step != 0.0):
            raise InvalidParameter(f"lax-check step must be finite and non-zero, got {step}")
    grid = _chosen_line_grid(cfg, policy)
    shared = grid is not None and adapt_policy(cfg, policy) is policy
    stencil = grid if shared else build_line_grid(cfg, policy)
    base, residuals = _lax_residuals(cfg, ensemble, steps, n, stencil)
    return (base if shared else build_b(cfg, ensemble, n=n, line_grid=grid)), stencil, residuals


def _stencil_shifts(step):
    """(dy, dt) shifts of the stencil's 40 shifted configurations, by name:
    ('y', j, sign) and ('t', j, sign) move slot j by sign*step,
    ('yy', j, k, sj, sk) moves y_j by sj*step and y_k by sk*step."""
    unit = np.zeros((4, 4))
    np.fill_diagonal(unit, step)
    shifts = {}
    for j in range(4):
        for sign in (1.0, -1.0):
            e = tuple(sign * v for v in unit[j].tolist())
            shifts['y', j, sign] = (e, None)
            shifts['t', j, sign] = (None, e)
        for k in range(j + 1, 4):
            for sj in (1.0, -1.0):
                for sk in (1.0, -1.0):
                    shifts['yy', j, k, sj, sk] = (tuple(sj * unit[j] + sk * unit[k]), None)
    return shifts


def _lax_residuals(cfg, ensemble, steps, n, line_grid):
    """The NlsMatrices of cfg on line_grid and the residual matrices of
    lax_check for each of the steps, from one stack of the base
    configuration, evaluated once for every step, and the shifts."""
    configs = {(): cfg}
    for step in steps:
        for name, (dy, dt) in _stencil_shifts(step).items():
            configs[(step, *name)] = cfg.shifted(dy=dy, dt=dt)
    mats = dict(zip(configs, _build_b_stack(list(configs.values()), ensemble, n, line_grid)))
    b = {name: m.b for name, m in mats.items()}
    return mats[()], [_residual_matrix(b, step) for step in steps]


def _residual_matrix(b, step):
    """Residual norms of the compatibility equations from the stencil's b,
    by _stencil_shifts name after the step (the base under ())."""
    b0 = b[()]
    bp = [b[step, 'y', j, 1.0] for j in range(4)]
    bm = [b[step, 'y', j, -1.0] for j in range(4)]
    db_dy = [(bp[j] - bm[j]) / (2.0 * step) for j in range(4)]
    db_dt = [(b[step, 't', j, 1.0] - b[step, 't', j, -1.0]) / (2.0 * step) for j in range(4)]
    d2b = np.zeros((4, 4, 4, 4), dtype=complex)
    for j in range(4):
        d2b[j][j] = (bp[j] - 2.0 * b0 + bm[j]) / step ** 2
        for k in range(j + 1, 4):
            yy = (step, 'yy', j, k)
            val = (b[(*yy, 1.0, 1.0)] - b[(*yy, 1.0, -1.0)]
                   - b[(*yy, -1.0, 1.0)] + b[(*yy, -1.0, -1.0)]) / (4.0 * step ** 2)
            d2b[j][k] = val
            d2b[k][j] = val
    res = np.zeros((4, 4, len(LAX_MUS)))
    for j in range(4):
        for k in range(4):
            for m, mu in enumerate(LAX_MUS):
                # the Lax pair L_j(mu) = mu P_j + [b, P_j], M_j(mu) = -mu L_j(mu) + db/dy_j
                L_k = mu * P_MATRICES[k] + _comm(b0, P_MATRICES[k])
                M_j = -mu * (mu * P_MATRICES[j] + _comm(b0, P_MATRICES[j])) + db_dy[j]
                r = (_comm(db_dt[j], P_MATRICES[k]) + mu * _comm(db_dy[k], P_MATRICES[j])
                     - d2b[j][k] + _comm(L_k, M_j))
                res[j, k, m] = np.max(np.abs(r))
    # np.max, not max: a NaN residual stays NaN
    return np.max(res, axis=2)
