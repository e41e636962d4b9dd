"""Structure function E, companions A/B, tilted families, and node sums.

E is manufactured from the reproducing kernel via L(w,z) = 2 pi i
(conj(w) - z) K(w,z) evaluated at w = i; its companions A and B have
simple interlacing real zeros that serve as quadrature nodes for the
weight |E(x)|^-2.  Tilting by gamma - iz repositions +/-beta as nodes,
which turns the optimal majorant/minorant masses into finite node sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .beurling import BandlimitedFunction
from .kernel import _patched, kernel_eval
from .numerics import (DomainError, NonConvergence, RootMiss,
                       extrapolate_to_zero, find_root)
from .pcbounds import m_of


@dataclass(frozen=True)
class HermiteBiehler:
    E_eval: Callable
    A_eval: Callable
    B_eval: Callable
    zeros_A: np.ndarray
    zeros_B: np.ndarray
    x_max: float


@dataclass(frozen=True)
class TiltedSpace:
    beta: float
    gamma_beta: float
    regime: str
    A_beta_eval: Callable
    B_beta_eval: Callable
    nodes: np.ndarray
    weights: np.ndarray
    lambda_plus: float
    lambda_minus: float


@lru_cache(maxsize=4)
def build_E(x_max=60.0):
    """Construct E with zeros of A and B resolved up to x_max."""
    l_ii = 4.0 * math.pi * kernel_eval(1j, 1j).real
    if l_ii <= 0:
        raise RootMiss("diagonal normalization is not positive")
    root_l = math.sqrt(l_ii)

    def E_eval(z):
        z = np.asarray(z, dtype=complex)
        return 2.0j * math.pi * (-1j - z) * kernel_eval(1j, z) / root_l

    def A_eval(x):
        return np.real(E_eval(np.asarray(x, dtype=float)))

    def B_eval(x):
        return -np.imag(E_eval(np.asarray(x, dtype=float)))

    zeros_b = find_root(B_eval, np.arange(0.05, x_max + 0.25, 0.25), 1e-13)
    zeros_b = np.concatenate([[0.0], zeros_b])
    # interlacing puts exactly one A-zero strictly inside each B-interval
    sub = np.linspace(zeros_b[:-1] + 1e-9, zeros_b[1:] - 1e-9, 9, axis=1)
    zeros_a = find_root(A_eval, sub.ravel(), 1e-13)
    found = np.histogram(zeros_a, bins=zeros_b)[0]
    if np.any(found != 1):
        k = int(np.flatnonzero(found != 1)[0])
        raise RootMiss(
            f"expected exactly one A-zero in ({zeros_b[k]:.6f}, "
            f"{zeros_b[k + 1]:.6f}), found {found[k]}")
    return HermiteBiehler(E_eval=E_eval, A_eval=A_eval, B_eval=B_eval,
                          zeros_A=zeros_a, zeros_B=zeros_b, x_max=float(x_max))


def _tilted_diag(x, gamma, E):
    """K_beta(x,x) = (x^2 + gamma^2) K(x,x) + gamma |E(x)|^2 / pi.

    This is the Wronskian of A_beta = gamma A - x B, B_beta = x A + gamma B
    expanded in terms of the Wronskian of A and B, which is pi K(x,x).
    """
    x = np.asarray(x, dtype=float)
    return ((x ** 2 + gamma ** 2) * kernel_eval(x, x).real
            + gamma * np.abs(E.E_eval(x)) ** 2 / math.pi)


def tilt(beta, E=None):
    """Classify beta among the interlaced zeros and build the tilted pair."""
    if not 0 < beta < math.inf:
        raise DomainError("beta must be positive")
    E = E or build_E()
    if beta > E.x_max - 2.0:
        raise DomainError("beta too close to the resolved zero range")

    near_a = np.min(np.abs(E.zeros_A - beta)) < 1e-9
    near_b = np.min(np.abs(E.zeros_B - beta)) < 1e-9

    a_b = float(E.A_eval(beta))
    b_b = float(E.B_eval(beta))

    if near_a or near_b:
        regime = "case_a_zero" if near_a else "case_b_zero"
        zeros = E.zeros_A if near_a else E.zeros_B
        nodes = zeros[zeros <= E.x_max]
        weights = 1.0 / kernel_eval(nodes, nodes).real
        lp, lm = _masses(nodes, weights, beta)
        return TiltedSpace(beta=beta, gamma_beta=float("nan"), regime=regime,
                           A_beta_eval=E.A_eval, B_beta_eval=E.B_eval,
                           nodes=nodes, weights=weights,
                           lambda_plus=lp, lambda_minus=lm)

    if a_b * b_b > 0:
        regime = "case_bk_ak1"
        gamma = beta * b_b / a_b
    else:
        regime = "case_ak_bk"
        gamma = -beta * a_b / b_b
    if gamma <= 0:
        raise RootMiss("tilt parameter came out nonpositive")

    def A_beta(z):
        z = np.asarray(z, dtype=float)
        return gamma * E.A_eval(z) - z * E.B_eval(z)

    def B_beta(z):
        z = np.asarray(z, dtype=float)
        return z * E.A_eval(z) + gamma * E.B_eval(z)

    node_fn = A_beta if regime == "case_bk_ak1" else B_beta
    pos = find_root(node_fn, np.arange(0.05, E.x_max + 0.1, 0.1), 1e-13)
    # beta is a node by construction; snap the scanned root onto it
    pos = np.where(np.abs(pos - beta) < 1e-6, beta, pos)
    if not np.any(pos == beta):
        pos = np.sort(np.append(pos, beta))
    if regime == "case_ak_bk":
        pos = np.concatenate([[0.0], pos])
    nodes = pos

    weights = (nodes ** 2 + gamma ** 2) / _tilted_diag(nodes, gamma, E)
    lp, lm = _masses(nodes, weights, beta)
    return TiltedSpace(beta=beta, gamma_beta=gamma, regime=regime,
                       A_beta_eval=A_beta, B_beta_eval=B_beta, nodes=nodes,
                       weights=weights, lambda_plus=lp, lambda_minus=lm)


def _masses(nodes, w, beta):
    """lambda_+/- as node sums over |x| <= beta and |x| < beta.

    The positive nodes are mirrored; 0 (a B-node) has no mirror.
    """
    def total(mask):
        return float(np.sum(w[mask])) + float(np.sum(w[mask & (nodes > 0)]))

    return total(nodes <= beta + 1e-9), total(nodes < beta - 1e-9)


def lambda_values(beta, E=None):
    """Optimal majorant/minorant masses for the window [-beta, beta]."""
    t = tilt(beta, E)
    return t.lambda_plus, t.lambda_minus


def case3_majorant(beta, E=None):
    """The explicit optimal majorant below the first A-zero.

    Q(z) = C * A_beta(z)/(beta^2 - z^2) squared, normalized so Q(+/-beta)=1.
    """
    E = E or build_E()
    a1 = E.zeros_A[0]
    if not 0.0 < beta < a1:
        raise DomainError(f"beta must lie in (0, {a1:.6f})")
    t = tilt(beta, E)
    if t.regime != "case_bk_ak1":
        raise RootMiss("unexpected regime below the first A-zero")
    # A_beta(beta) = 0, so the Wronskian pi K_beta(beta, beta) = -A_beta'(beta)
    # B_beta(beta) gives the slope without a numerical derivative
    dA = (-math.pi * float(_tilted_diag(beta, t.gamma_beta, E))
          / float(t.B_beta_eval(beta)))
    C = -2.0 * beta / dA

    def q_raw(x):
        x = np.asarray(x, dtype=float)
        return C * t.A_beta_eval(x) / (beta ** 2 - x ** 2)

    def time_eval(x):
        return _patched(q_raw, x, center=beta) ** 2

    return BandlimitedFunction(type_bound=2.0 * math.pi, time_eval=time_eval,
                               freq_eval=None,
                               label=f"endpoint-majorant(beta={beta:g})")


def quadrature_check(F, which, beta=None, E=None, node_tol=1e-7):
    """Mass of F against the pair correlation density two ways: M(F) by
    quadrature (pcbounds.m_of) and the node sum with the weights of the
    node system.

    which: one of A_nodes, B_nodes, A_beta_nodes, B_beta_nodes; the tilted
    variants need beta and take the nodes and weights of tilt(beta).
    With 30 or more nodes the node sum is extrapolated past x_max, and
    NonConvergence is raised when that estimate exceeds node_tol.
    Returns (integral, node_sum).
    """
    E = E or build_E()
    integral = m_of(F)

    if which in ("A_nodes", "B_nodes"):
        nodes = E.zeros_A if which == "A_nodes" else E.zeros_B
        weights = 1.0 / kernel_eval(nodes, nodes).real
    elif which in ("A_beta_nodes", "B_beta_nodes"):
        if beta is None:
            raise DomainError("tilted node systems need beta")
        t = tilt(beta, E)
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
        if est > node_tol:
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


def verify_hb(E=None, samples=1000):
    """Check the defining inequalities of the structure function:
    |E(conj z)| < |E(z)| and 2 pi i (conj z - z) K(z,z) > 0 at `samples`
    points z of [-6, 6] x [1e-3, 4] in the upper half-plane, and E real at
    64 points of [-4, 4] on the imaginary axis.  The points come from
    _recurrence_points, so every call checks the same ones."""
    E = E or build_E()
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
