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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .beurling import BandlimitedFunction
from .kernel import _coefficients, _patched, _row, _row_taylor, kernel_eval
from .numerics import (DomainError, NonConvergence, RootMiss,
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


@dataclass(frozen=True)
class HermiteBiehler:
    E_eval: Callable
    A_eval: Callable
    B_eval: Callable
    zeros_A: np.ndarray
    zeros_B: np.ndarray
    x_max: float
    # B_1, B_3, B_5, B_7 of B(x) = sum_k B_k x^k near 0 (B is odd)
    B_odd: tuple


@dataclass(frozen=True)
class TiltedSpace:
    """The de Branges space of E_beta(z) = (p - iqz) E(z), with (p, q) a
    unit vector, p > 0 and q >= 0, chosen so that beta is a root of the node
    function named by regime (see tilt).  nodes are its roots, one per cell
    of _nodes over [0, max(x_max, beta)] with beta exact among them, weights
    their masses (p^2 + q^2 x^2) / K_beta(x,x), and lambda_plus/minus the
    node sums over |x| <= beta and |x| < beta."""
    beta: float
    p: float
    q: float
    regime: str
    E_beta_eval: Callable
    nodes: np.ndarray
    weights: np.ndarray
    lambda_plus: float
    lambda_minus: float


def _nodes(fn, offset, x_hi):
    """The roots of fn on the grid 0, offset, offset + 1, ..., ceil(x_hi) +
    offset (module docstring).  RootMiss unless every cell holds exactly one
    root, a root at 0 counting for the first cell."""
    grid = np.concatenate([[0.0], offset + np.arange(math.ceil(x_hi) + 1.0)])
    roots = find_root(fn, grid, 1e-13)
    cells = np.searchsorted(grid, roots, side="right")
    if not np.array_equal(cells, np.arange(1, len(grid))):
        raise RootMiss(f"expected one root in each of the {len(grid) - 1} "
                       f"cells of [0, {grid[-1]:g}], found {len(roots)}")
    return roots


@cache
def build_E():
    """The structure function E of the space, with its companion zeros
    resolved up to X_MAX."""
    return _hermite_biehler(X_MAX)


def _hermite_biehler(x_max):
    """E with the zeros of A and B resolved up to x_max: every A-zero up
    to x_max, and the B-zeros from 0 through the first one past the last
    of them."""
    l_ii = 4.0 * math.pi * kernel_eval(1j, 1j).real
    if l_ii <= 0:
        raise RootMiss("diagonal normalization is not positive")
    # E(z) = 2 pi i (-i - z) K(i, z) / sqrt(l_ii); w = i lies far from the
    # poles +/-Z0, so its coefficient triple needs no patch
    a = [2.0j * math.pi / math.sqrt(l_ii) * c for c in _coefficients(-1j)]

    def E_eval(z):
        # a scalar z runs as a 1-element array: numpy rounds the complex
        # product of two scalars differently from its array loop
        z = np.asarray(z, dtype=complex)
        v = z.reshape(-1)
        return ((-1j - v) * _row(a, -1j, v)).reshape(z.shape)

    def A_eval(x):
        return np.real(E_eval(np.asarray(x, dtype=float)))

    def B_eval(x):
        return -np.imag(E_eval(np.asarray(x, dtype=float)))

    # a_k > k - 3/4, so at most ceil(x_max) A-zeros lie below x_max, and
    # the ceil(x_max) + 1 B-zeros found reach past the last of them
    zeros_a = _nodes(A_eval, 0.75, x_max)
    zeros_a = zeros_a[zeros_a <= x_max]
    zeros_b = _nodes(B_eval, 0.25, x_max)[:len(zeros_a) + 1]
    # on the real line E = (-i - x) r(x) gives B = Re r + x Im r, so with
    # c_n the Taylor coefficients of r at 0, B_k = Re c_k + Im c_(k-1)
    c = _row_taylor(a, -1j, 7)
    b_odd = tuple(float(c[k].real + c[k - 1].imag) for k in (1, 3, 5, 7))
    return HermiteBiehler(E_eval=E_eval, A_eval=A_eval, B_eval=B_eval,
                          zeros_A=zeros_a, zeros_B=zeros_b, x_max=float(x_max),
                          B_odd=b_odd)


def _weights(x, p, q):
    """Node weights (p^2 + q^2 x^2) / K_beta(x,x) of H(E_beta), in which
    (p - iqz) f has the norm of f in H(E); (p, q) = (1, 0) gives 1/K(x,x).
    K_beta(x,x) = (p^2 + q^2 x^2) K(x,x) + pq |E(x)|^2 / pi is the Wronskian
    of A_beta = pA - qxB and B_beta = qxA + pB over pi.  The weight is
    taken as 1 / (K(x,x) + (p/h) (q/h) |E(x)|^2 / pi), h = hypot(p, qx),
    because p^2 + q^2 x^2 underflows at a node x ~ beta below 1e-154."""
    x = np.asarray(x, dtype=float)
    h = np.hypot(p, q * x)
    return 1.0 / (kernel_eval(x, x).real
                  + (p / h) * (q / h) * np.abs(build_E().E_eval(x)) ** 2
                  / math.pi)


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


def _E_beta(p, q):
    """E_beta(z) = (p - iqz) E(z)."""
    E_eval = build_E().E_eval

    def E_beta(z):
        z = np.asarray(z, dtype=complex)
        return (p - 1j * q * z) * E_eval(z)

    return E_beta


def _tilted_nodes(beta, p, q, part, x_hi):
    """The nodes of the tilt (p, q, part) at beta over [0, x_hi], x_hi >=
    beta, the one nearest beta set to beta, and their weights."""
    E_beta = _E_beta(p, q)

    def node_fn(x):
        # Re E_beta or -Im E_beta = Re(i E_beta); E(0) is real, so B_beta(0)
        # is exactly 0 and _nodes lists 0 as a grid root
        return np.real(part * E_beta(x))

    nodes = _nodes(node_fn, 0.75 if part == 1.0 else 0.25, x_hi)
    # beta is a node by construction; put it there exactly
    nodes[np.argmin(np.abs(nodes - beta))] = beta
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
    The nodes come from _nodes over [0, max(x_max, beta)], the one nearest
    beta set to beta; A_beta's first may lie near 0 (about sqrt(p/q)).
    """
    p, q, regime, part = _tilt_params(beta)
    nodes, weights = _tilted_nodes(beta, p, q, part,
                                   max(build_E().x_max, beta))
    lp, lm = _masses(nodes, weights, beta)
    return TiltedSpace(beta=beta, p=p, q=q, regime=regime,
                       E_beta_eval=_E_beta(p, q), nodes=nodes,
                       weights=weights, lambda_plus=lp, lambda_minus=lm)


def _masses(nodes, w, beta):
    """lambda_+/- as node sums over |x| <= beta and |x| < beta.

    The positive nodes are mirrored; 0 (a node of B_beta) has no mirror.
    """
    def total(mask):
        return float(np.sum(w[mask])) + float(np.sum(w[mask & (nodes > 0)]))

    return total(nodes <= beta), total(nodes < beta)


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
    a1 = build_E().zeros_A[0]
    if not 0.0 < beta < a1:
        raise DomainError(f"beta must lie in (0, {a1:.6f})")
    p, q, regime, _ = _tilt_params(beta)
    if regime != "case_bk_ak1":
        raise RootMiss("unexpected regime below the first A-zero")
    E_beta = _E_beta(p, q)
    # A_beta(beta) = 0, so the Wronskian pi K_beta(beta, beta) = -A_beta'(beta)
    # B_beta(beta) gives the slope without a numerical derivative
    k_bb = (p ** 2 + (q * beta) ** 2) / float(_weights(beta, p, q))
    dA = math.pi * k_bb / complex(E_beta(beta)).imag
    C = -2.0 * beta / dA

    def q_raw(x):
        x = np.asarray(x, dtype=float)
        return C * np.real(E_beta(x)) / (beta ** 2 - x ** 2)

    def time_eval(x):
        return _patched(q_raw, x, center=beta) ** 2

    return BandlimitedFunction(type_bound=2.0 * math.pi, time_eval=time_eval)


def quadrature_check(F, which, beta=None, E=None):
    """Mass of F against the pair correlation density two ways: M(F) by
    quadrature (pcbounds.m_of) and the node sum with the weights of the
    node system.

    which: one of A_nodes, B_nodes, A_beta_nodes, B_beta_nodes; the tilted
    variants need beta and take the nodes and weights of tilt(beta).
    With 30 or more nodes the node sum is extrapolated past X_MAX, and
    NonConvergence is raised when that estimate exceeds NODE_TOL.
    E, when given, must be build_E(), the one structure function.
    Returns (integral, node_sum).
    """
    if E is not None and E is not build_E():
        raise DomainError("E must be build_E()")
    integral = m_of(F)

    if which in ("A_nodes", "B_nodes"):
        E = build_E()
        nodes = E.zeros_A if which == "A_nodes" else E.zeros_B
        weights = _weights(nodes, 1.0, 0.0)
    elif which in ("A_beta_nodes", "B_beta_nodes"):
        if beta is None:
            raise DomainError("tilted node systems need beta")
        t = tilt(beta)
        want = "case_bk_ak1" if which == "A_beta_nodes" else "case_ak_bk"
        if t.regime != want:
            raise DomainError(
                f"beta={beta:g} sits in regime {t.regime}, not {want}")
        nodes, weights = t.nodes, t.weights
    else:
        raise DomainError(f"unknown node system {which!r}")

    fv = np.asarray(F.time_eval(nodes), dtype=float)
    fv_neg = np.asarray(F.time_eval(-nodes), dtype=float)
    pair = fv * weights + np.where(nodes > 0, fv_neg * weights, 0.0)

    order = np.argsort(nodes)
    nodes_o = nodes[order]
    cum = np.cumsum(pair[order])
    m = len(cum)
    if m >= 30:
        idx = np.array([m - 1 - 5 * j for j in range(6)][::-1])
        value, est = extrapolate_to_zero(1.0 / nodes_o[idx], cum[idx])
        if est > NODE_TOL:
            raise NonConvergence(
                f"node tail beyond x_max may contribute {est:.2e}")
        node_sum = value
    else:
        node_sum = float(cum[-1])
    return integral, node_sum


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
