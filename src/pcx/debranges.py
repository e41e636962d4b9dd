"""Structure function E, companions A/B, tilted families, and node sums.

E(z) = 2 pi i (-i - z) K(i, z) / sqrt(4 pi K(i, i)): (-i - z) times one
fixed row of three sinc translates.  Its companions A and B have simple
interlacing real zeros, the quadrature nodes for the weight |E(x)|^-2.
The tilt E_beta = (p - iqz) E, with (p, q) read off E(beta), makes
+/-beta nodes of Re E_beta or of -Im E_beta, which turns the optimal
majorant/minorant masses into finite node sums.

With E(x) = |E(x)| e^(-i phi(x)), phi increasing (de Branges 1968, sections
2-3), pi x - phi(x) lies in [-0.040 pi, 0.208 pi] on [0, 1e6] (sampled); a
tilt adds atan(qx/p) in [0, pi/2) to phi.  A-type node functions (A, A_beta)
vanish at phase pi/2 mod pi and B-type ones (B, B_beta) at 0 mod pi, so the
grid 0, k + 3/4 (A-type) or 0, k + 1/4 (B-type), k = 0, 1, ..., has exactly
one root in each cell (_nodes); for the B-type the first is 0.

One node function, Re(part (p - iqx) E(x)), serves them all: A is (p, q,
part) = (1, 0, 1), B is (1, 0, i), and a tilt's A_beta or B_beta its own
(p, q, part).  It returns its slope too, so find_root refines its roots
by Newton steps: E' = (-i - z) r' - r comes from the same row r of three
sinc translates as E (E_slope_eval), and E_beta' = (p - iqz) E' - iq E.
A node near 0, such as A_beta's about 2 sqrt(beta - b_k) just right of a
B-zero b_k, then comes out to relative precision, where a bracket width
of 1e-13 would leave its weight visibly off.  The node weights come from
that row as well: K(x,x) = -Im(E'(x) conj E(x)) / pi on the real line
(the Wronskian of A and B over pi), so no node needs the kernel itself.

A tilt's nodes start from E's phase.  build_E tabulates phi and phi' =
-Im(E'/E) at x = 0, 1/32, ..., X_MAX + 2 from one call of the slope row.
E_beta's phase is psi = phi + atan(qx/p), so the node of each cell lies
where psi crosses (k + 1/2) pi (A-type) or k pi (B-type), and inverse
cubic Hermite interpolation on the table predicts it within 2e-7
(_starts).  _nodes puts these starts into the grid of find_root, which
then finishes each node by one Newton step and a confirming call, where
from the cell ends it took about six.  A_beta's first node lies on
the scale sqrt(p/q) at small beta and right of a B-zero, finer than the
table resolves; it starts from the root of pA - qxB on the Taylor series
of A and B at 0 (_series_node).  Below B_SERIES_TOP that series root is
the node itself: the node function there holds B only by cancellation,
and its computed root errs by up to 1e-9 relative.  The companion zeros
of build_E take no starts.

A float lambda_values call in (0.3, 8) takes about 0.4 ms on a 2-core x86
host, almost all of it numpy's fixed cost per call on arrays of about ten
points: find_root's own bookkeeping and its two node-function calls about
75 us each, the weights' pass over the slope row and the phase starts
about 40 us each, E(beta) for the tilt about 20 us, _nodes' grid and
cell check about 15 us and the node sums about 12 us.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .beurling import BandlimitedFunction
from .kernel import (_coefficients, _patched, _row, _row_slope, _row_taylor,
                     kernel_eval)
from .numerics import (_ENDS, DomainError, NonConvergence, RootMiss,
                       extrapolate_to_zero, find_root)
from .pcbounds import m_of

# the companion zeros build_E resolves: every A-zero up to X_MAX
X_MAX = 60.0
# largest error estimate quadrature_check accepts for the node tail past
# X_MAX; on the Fejer kernel it is 2.1e-10
NODE_TOL = 1e-7
# below this beta the tilt reads B(beta) from the odd Taylor series
# HermiteBiehler.B_odd: E(beta) forms B as Re r(beta) + beta Im r(beta),
# and Re r(beta) is O(beta) only by the cancellation of O(1) terms, so
# B(beta)/beta errs by 1.6e-10 at beta = 1e-8 and reads A(0) = 2.23, not
# B'(0) = 4.31, by beta = 1e-20; the first term left out, B_9 beta^9, is
# 2.3e-26 of B at beta = 1e-3
B_SERIES_TOP = 1e-3
# below this, A_beta's first node starts from the Taylor series at 0
# (_series_node): that start errs by at most 5e-8 there, the table's by 7e-7
_SERIES_NODE_TOP = 0.25


@dataclass(frozen=True)
class HermiteBiehler:
    E_eval: Callable
    # E(z) and E'(z), stacked along a new first axis, from one row of three
    # sinc translates: the node functions, their slopes and the node weights
    E_slope_eval: Callable
    zeros_A: np.ndarray
    zeros_B: np.ndarray
    # B_1, B_3, B_5, B_7 of B(x) = sum_k B_k x^k near 0 (B is odd)
    B_odd: tuple
    # A_0, A_2, ..., A_8 of A(x) = sum_k A_k x^k near 0 (A is even)
    A_even: tuple
    # the phase table: x = 0, 1/32, ..., X_MAX + 2, the phase phi(x) =
    # -arg E(x) (unwrapped, phi(0) = 0) and its slope -Im(E'(x)/E(x))
    phase: tuple


@dataclass(frozen=True)
class TiltedSpace:
    """The de Branges space of E_beta(z) = (p - iqz) E(z), with (p, q) a
    unit vector, p > 0 and q >= 0, chosen so that beta is a root of the node
    function named by regime (see tilt).  nodes are its roots, one per cell
    of _nodes over [0, max(X_MAX, beta)] with beta exact among them, weights
    their masses (p^2 + q^2 x^2) / K_beta(x,x), and lambda_plus/minus the
    node sums over |x| <= beta and |x| < beta."""
    beta: float
    p: float
    q: float
    regime: str
    nodes: np.ndarray
    weights: np.ndarray
    lambda_plus: float
    lambda_minus: float


def _nodes(fn, offset, x_hi, starts=None):
    """The roots of fn on the grid 0, offset, offset + 1, ..., ceil(x_hi) +
    offset (module docstring); fn returns values, or (values, slopes) for
    find_root's Newton steps.  starts, one guess per cell (NaN for none) or
    None, join find_root's grid where they lie strictly inside their
    cells, so that a start is an end of its node's bracket.  RootMiss
    unless every cell of the grid without the starts holds exactly one
    root, a root at 0 counting for the first cell."""
    grid = offset + np.arange(-1.0, math.ceil(x_hi) + 1.0)
    grid[0] = 0.0
    left, right = grid[:-1], grid[1:]
    xs = grid
    if starts is not None:
        # a NaN start fails both tests
        inside = (left < starts) & (starts < right)
        xs = np.sort(np.concatenate([grid, starts[inside]]))
    roots = find_root(fn, xs, 1e-13)
    if not (len(roots) == len(left)
            and ((left <= roots) & (roots < right)).all()):
        raise RootMiss(f"expected one root in each of the {len(grid) - 1} "
                       f"cells of [0, {grid[-1]:g}], found {len(roots)}")
    return roots


@cache
def build_E():
    """The structure function E of the space, with the zeros of A and B
    resolved up to X_MAX: every A-zero up to X_MAX, and the B-zeros from 0
    through the first one past the last of them."""
    l_ii = 4.0 * math.pi * kernel_eval(1j, 1j).real
    if l_ii <= 0:
        raise RootMiss("diagonal normalization is not positive")
    # E(z) = 2 pi i (-i - z) K(i, z) / sqrt(l_ii); w = i lies far from the
    # poles +/-Z0, so its coefficient triple needs no patch
    a = np.array([2.0j * math.pi / math.sqrt(l_ii) * c
                  for c in _coefficients(-1j)])

    def E_eval(z):
        # a scalar z runs as a 1-element array: numpy rounds the complex
        # product of two scalars differently from its array loop
        z = np.asarray(z, dtype=complex)
        v = z.reshape(-1)
        return ((-1j - v) * _row(a, -1j, v)).reshape(z.shape)

    def E_slope_eval(z):
        # E and E' = (-i - z) r' - r stacked along a new first axis; the
        # values are E_eval's, to the bit but within 1e-3 of +/-Z0
        z = np.asarray(z, dtype=complex)
        v = z.reshape(-1)
        r = _row_slope(a, -1j, v)
        e = (-1j - v) * r
        e[1] -= r[0]
        return e.reshape((2,) + z.shape)

    # a_k > k - 3/4, so at most ceil(X_MAX) A-zeros lie below X_MAX, and
    # the ceil(X_MAX) + 1 B-zeros found reach past the last of them
    zeros_a = _nodes(_node_function(E_slope_eval, 1.0, 0.0, 1.0), 0.75, X_MAX)
    zeros_a = zeros_a[zeros_a <= X_MAX]
    zeros_b = _nodes(_node_function(E_slope_eval, 1.0, 0.0, 1.0j), 0.25,
                     X_MAX)[:len(zeros_a) + 1]
    # on the real line E = (-i - x) r(x) gives B = Re r + x Im r, so with
    # c_n the Taylor coefficients of r at 0, B_k = Re c_k + Im c_(k-1)
    c = _row_taylor(a, -1j, 8)
    b_odd = tuple(float(c[k].real + c[k - 1].imag) for k in (1, 3, 5, 7))
    # and A = Im r - x Re r, so A_k = Im c_k - Re c_(k-1)
    a_even = (float(c[0].imag),) + tuple(
        float(c[k].imag - c[k - 1].real) for k in (2, 4, 6, 8))
    x = np.arange(32.0 * X_MAX + 65.0) / 32.0
    e, e1 = E_slope_eval(x)
    phase = (x, -np.unwrap(np.angle(e)), -np.imag(e1 / e))
    return HermiteBiehler(E_eval=E_eval, E_slope_eval=E_slope_eval,
                          zeros_A=zeros_a, zeros_B=zeros_b, B_odd=b_odd,
                          A_even=a_even, phase=phase)


def _node_function(E_slope_eval, p, q, part):
    """x -> Re(part (p - iqx) E(x)) and its slope, a tuple for find_root's
    Newton steps, with E and E' from E_slope_eval (module docstring)."""
    # part (p - iqx) = pp - iq x, and part E_beta' = part (p - iqx) E' - iq E
    pp, iq = part * p, part * 1j * q

    def fn(x):
        e = E_slope_eval(x)
        t = (pp - iq * x) * e
        t[1] -= iq * e[0]
        t = t.real
        return t[0], t[1]

    return fn


def _weights(x, p, q):
    """Node weights (p^2 + q^2 x^2) / K_beta(x,x) of H(E_beta), in which
    (p - iqz) f has the norm of f in H(E); (p, q) = (1, 0) gives 1/K(x,x).
    K_beta(x,x) = (p^2 + q^2 x^2) K(x,x) + pq |E(x)|^2 / pi is the Wronskian
    of A_beta = pA - qxB and B_beta = qxA + pB over pi, and K(x,x) =
    -Im(E'(x) conj E(x)) / pi, so E and E' from one pass of the slope row
    give the weight pi / (-Im(E' conj E) + (p/h) (q/h) |E|^2), h =
    hypot(p, qx); it is taken so because p^2 + q^2 x^2 underflows at a
    node x ~ beta below 1e-154."""
    x = np.asarray(x, dtype=float)
    h = np.hypot(p, q * x)
    e, e1 = build_E().E_slope_eval(x)
    return math.pi / ((p / h) * (q / h) * np.abs(e) ** 2
                      - (e1 * e.conj()).imag)


def _tilt_params(beta):
    """(p, q, regime, part) of the tilt at beta, from one evaluation of
    E(beta) = A - iB (see tilt); the node function is Re(part E_beta)."""
    if not 0 < beta < math.inf:
        raise DomainError("beta must be positive")
    E = build_E()
    e_b = complex(E.E_eval(beta))
    a_b, b_b = e_b.real, -e_b.imag
    if beta < B_SERIES_TOP:
        b_1, b_3, b_5, b_7 = E.B_odd
        x2 = beta * beta
        b_b = beta * (b_1 + x2 * (b_3 + x2 * (b_5 + x2 * b_7)))
        # here A(beta) > 0 and B(beta) > 0, so the regime is case_bk_ak1
        # and p = beta B(beta), about 4.3 beta^2
        if beta * b_b < sys.float_info.min:
            raise DomainError(
                f"beta must be at least "
                f"{math.sqrt(sys.float_info.min / b_1):.3g}: below it "
                f"p = beta |B(beta)| of the tilt is not a normal float")
    if a_b * b_b > 0 or a_b == 0:
        regime, p, q, part = "case_bk_ak1", beta * abs(b_b), abs(a_b), 1.0
    else:
        regime, p, q, part = "case_ak_bk", beta * abs(a_b), abs(b_b), 1.0j
    norm = math.hypot(p, q)
    return p / norm, q / norm, regime, part


def _starts(p, q, part, cells):
    """A start for the node in each of the first `cells` cells of _nodes'
    grid for the tilt (p, q, part), NaN past the phase table.

    The phase of E_beta is psi = phi + atan(qx/p), increasing from 0, and
    the node of cell k lies where psi = (k + 1/2) pi (A-type) or k pi
    (B-type).  On the table interval holding that value, x is the cubic
    Hermite interpolant of psi, with slopes dx/dpsi = 1/psi'.  psi and
    psi' = phi' + (p/h) (q/h), h = hypot(p, qx), are taken in forms that
    neither overflow nor underflow at p near 1e-154.  The first table
    interval cannot follow psi's rise through atan(qx/p) on the scale p/q:
    _tilted_nodes starts A_beta's first node from _series_node there.
    """
    x, phi, dphi = build_E().phase
    # every node of the cells lies below cells; the rows up to cells + 1
    # bracket them all, and a start is the same for any count of cells
    x = x[:32 * cells + 33]
    qx = q * x
    psi = phi[:len(x)] + np.arctan2(qx, p)
    target = np.arange(0.5 if part == 1.0 else 0.0, cells) * math.pi
    # the rows i and i + 1 of the table interval of each target, clipped
    # to the table
    ends = np.searchsorted(psi[1:-1], target, side="right") + _ENDS
    (x0, x1), (psi0, psi1) = x[ends], psi[ends]
    h = np.hypot(p, qx[ends])
    dpsi0, dpsi1 = dphi[ends] + (p / h) * (q / h)
    d = psi1 - psi0
    t = (target - psi0) / d
    # the cubic Hermite basis on [0, 1]
    u = 1.0 - t
    uu = u ** 2
    t2 = 2.0 * t
    dt = d * t
    starts = (x0 * (1.0 + t2) * uu + dt * uu / dpsi0
              + x1 * t * t * (3.0 - t2) - dt * t * u / dpsi1)
    # psi(0) = 0, so a target is off the table only at or past its end
    starts[target >= psi[-1]] = np.nan
    return starts


def _series_node(p, q):
    """A_beta's first node from A_beta = pA - qxB on the Taylor series of
    A and B at 0: a few Newton steps in y = x^2 on the degree-4 polynomial
    sum_j (p A_2j - q B_2j-1) y^j, from the root of its first two terms,
    x^2 = p A_0 / (q B_1 - p A_2).  NaN unless that root lies below
    _SERIES_NODE_TOP."""
    E = build_E()
    co = [p * a_k - q * b_k for a_k, b_k in zip(E.A_even, (0.0,) + E.B_odd)]
    if not (co[1] < 0 and co[0] < -_SERIES_NODE_TOP ** 2 * co[1]):
        return math.nan
    y = -co[0] / co[1]
    for _ in range(4):
        # Horner for (P(y) - P(0)) / y and its slope
        v = dv = 0.0
        for c_j in co[:0:-1]:
            v, dv = v * y + c_j, dv * y + v
        y -= (v * y + co[0]) / (dv * y + v)
    return math.sqrt(y) if y > 0 else math.nan


def _tilted_nodes(beta, p, q, part, x_hi):
    """The nodes of the tilt (p, q, part) at beta over [0, x_hi], x_hi >=
    beta, the one nearest beta set to beta, and their weights."""
    # Re E_beta or -Im E_beta = Re(i E_beta); E(0) is real, so B_beta(0)
    # is exactly 0 and _nodes lists 0 as a grid root
    starts = _starts(p, q, part, math.ceil(x_hi) + 1)
    x0 = _series_node(p, q) if part == 1.0 else math.nan
    if not math.isnan(x0):
        starts[0] = x0
    nodes = _nodes(_node_function(build_E().E_slope_eval, p, q, part),
                   0.75 if part == 1.0 else 0.25, x_hi, starts)
    if x0 < B_SERIES_TOP:
        # there the node function near 0 holds B only by the cancellation
        # that makes _tilt_params read B(beta) from its series, and its
        # root errs by up to 1e-9 relative; the series root does not
        nodes[0] = x0
    # beta is a node by construction; put it there exactly
    nodes[np.abs(nodes - beta).argmin()] = beta
    return nodes, _weights(nodes, p, q)


def tilt(beta):
    """The node system of E_beta(z) = (p - iqz) E(z) with beta as a node.

    One evaluation of E(beta) = A - iB picks the node function and the unit
    vector (p, q), p > 0 and q >= 0, that makes it vanish at beta: when
    A(beta) B(beta) > 0 or A(beta) = 0, A_beta = Re E_beta with (p, q)
    along (beta |B(beta)|, |A(beta)|) (regime case_bk_ak1, beta in
    (b_k, a_k+1]); otherwise B_beta = -Im E_beta with (p, q) along
    (beta |A(beta)|, |B(beta)|) (regime case_ak_bk, beta in (a_k, b_k]).
    On a zero of A or of B, q = 0 and the nodes are that zero set.
    Below B_SERIES_TOP, B(beta) comes from its odd Taylor series; below
    beta = 7.19e-155, where p = beta |B(beta)| is no normal float,
    DomainError.
    The nodes come from _nodes over [0, max(X_MAX, beta)], started from
    E's phase, the one nearest beta set to beta; A_beta's first may lie
    near 0 (about sqrt(p/q)), and starts from the Taylor series at 0.
    """
    p, q, regime, part = _tilt_params(beta)
    nodes, weights = _tilted_nodes(beta, p, q, part, max(X_MAX, beta))
    lp, lm = _masses(nodes, weights, beta)
    return TiltedSpace(beta=beta, p=p, q=q, regime=regime, nodes=nodes,
                       weights=weights, lambda_plus=lp, lambda_minus=lm)


def _masses(nodes, w, beta):
    """lambda_+/- as node sums over |x| <= beta and |x| < beta.

    The nodes ascend from 0 or above, so each sum runs over a prefix of
    them.  The positive nodes are mirrored; 0 (a node of B_beta) has no
    mirror.
    """
    # the first positive node
    first = int(nodes[0] <= 0.0)

    def total(k):
        return float(w[:k].sum()) + float(w[first:k].sum())

    return (total(nodes.searchsorted(beta, "right")),
            total(nodes.searchsorted(beta)))


def lambda_values(beta):
    """Optimal majorant/minorant masses for the window [-beta, beta]: the
    masses of tilt(beta), from its nodes in the ceil(beta) + 1 cells up to
    beta alone, the only ones the sums reach."""
    p, q, _, part = _tilt_params(beta)
    return _masses(*_tilted_nodes(beta, p, q, part, beta), beta)


def case3_majorant(beta):
    """The explicit optimal majorant below the first A-zero.

    Q(z) = C * A_beta(z)/(beta^2 - z^2) squared, normalized so Q(+/-beta)=1.
    """
    E = build_E()
    a1 = E.zeros_A[0]
    if not 0.0 < beta < a1:
        raise DomainError(f"beta must lie in (0, {a1:.6f})")
    p, q, regime, _ = _tilt_params(beta)
    if regime != "case_bk_ak1":
        raise RootMiss("unexpected regime below the first A-zero")
    # A_beta'(beta) from the node function's slope, no numerical derivative
    _, dA = _node_function(E.E_slope_eval, p, q, 1.0)(beta)
    C = -2.0 * beta / dA

    def q_raw(x):
        x = np.asarray(x, dtype=float)
        # A_beta = Re E_beta, E_beta = (p - iqx) E
        a_beta = np.real((p - 1j * q * x) * E.E_eval(x))
        return C * a_beta / (beta ** 2 - x ** 2)

    def time_eval(x):
        return _patched(q_raw, x, center=beta) ** 2

    return BandlimitedFunction(type_bound=2.0 * math.pi, time_eval=time_eval)


def quadrature_check(F, which, E=None):
    """Mass of F against the pair correlation density two ways: M(F) by
    quadrature (pcbounds.m_of) and the node sum sum_x F(x) / K(x,x) over
    the zeros x of A (which = "A_nodes") or of B ("B_nodes"), the node
    systems of E itself; any other which is a DomainError.
    The node sum is extrapolated past X_MAX from its partial sums at the
    last six nodes, five apart, and NonConvergence is raised when that
    estimate exceeds NODE_TOL.
    E, when given, must be build_E(), the one structure function.
    Returns (integral, node_sum).
    """
    if E is not None and E is not build_E():
        raise DomainError("E must be build_E()")
    if which not in ("A_nodes", "B_nodes"):
        raise DomainError(f"unknown node system {which!r}")
    E = build_E()
    nodes = E.zeros_A if which == "A_nodes" else E.zeros_B
    weights = _weights(nodes, 1.0, 0.0)

    fv = np.asarray(F.time_eval(nodes), dtype=float)
    fv_neg = np.asarray(F.time_eval(-nodes), dtype=float)
    pair = fv * weights + np.where(nodes > 0, fv_neg * weights, 0.0)

    # both node sets ascend, the A-zeros 60 and the B-zeros 61 of them
    cum = np.cumsum(pair)
    idx = len(cum) - 1 - 5 * np.arange(6)[::-1]
    node_sum, est = extrapolate_to_zero(1.0 / nodes[idx], cum[idx])
    if est > NODE_TOL:
        raise NonConvergence(f"node tail beyond X_MAX may contribute {est:.2e}")
    return m_of(F), node_sum


def _recurrence_points(count, dim):
    """The first `count` points frac(1/2 + k*alpha), k = 1, 2, ..., of the
    additive recurrence in [0, 1)^dim with alpha_j = g^-j, g > 1 the root of
    g^(dim+1) = g + 1 (the golden ratio for dim = 1).  A deterministic
    low-discrepancy sample that needs no random generator."""
    g = 2.0
    for _ in range(40):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = g ** -np.arange(1.0, dim + 1)
    k = np.arange(1, count + 1)[:, None]
    return (0.5 + k * alpha) % 1.0


def verify_hb(samples=1000):
    """Check the defining inequalities of the structure function:
    |E(conj z)| < |E(z)| and 2 pi i (conj z - z) K(z,z) > 0 at `samples`
    points z of [-6, 6] x [1e-3, 4] in the upper half-plane, and E real at
    64 points of [-4, 4] on the imaginary axis.  The points come from
    _recurrence_points, so every call checks the same ones."""
    E = build_E()
    u = _recurrence_points(samples, 2)
    z = (-6.0 + 12.0 * u[:, 0]) + 1j * (1e-3 + (4.0 - 1e-3) * u[:, 1])
    modulus_bad = ~(np.abs(E.E_eval(np.conj(z))) < np.abs(E.E_eval(z)))
    lzz = (2.0j * math.pi * (np.conj(z) - z) * kernel_eval(z, z)).real
    x = -4.0 + 8.0 * _recurrence_points(64, 1)[:, 0]
    val = E.E_eval(1j * x)
    axis_bad = np.abs(val.imag) > 1e-12 * np.maximum(1.0, np.abs(val))
    report = {"modulus_violations": z[modulus_bad].tolist(),
              "positivity_violations": z[~(lzz > 0)].tolist(),
              "imag_axis_violations": x[axis_bad].tolist(),
              "samples": samples}
    report["ok"] = not (report["modulus_violations"]
                       or report["positivity_violations"]
                       or report["imag_axis_violations"])
    return report
