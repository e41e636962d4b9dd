"""Structure function E, companions A/B, tilted families, and node sums.

E is manufactured from the reproducing kernel via L(w,z) = 2 pi i
(conj(w) - z) K(w,z) evaluated at w = i; its companions A and B have
simple interlacing real zeros that serve as quadrature nodes for the
weight |E(x)|^-2.  Tilting by gamma - iz repositions +/-beta as nodes,
which turns the optimal majorant/minorant masses into finite node sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .beurling import BandlimitedFunction
from .kernel import kernel_eval
from .numerics import (DomainError, QuadratureSpec, RootMiss,
                       TruncationWarning, bracket_from, deriv_central,
                       extrapolate_to_zero, find_root, integrate_real_line)
from .pcbounds import pc_density


@dataclass(frozen=True)
class HermiteBiehler:
    E_eval: Callable
    A_eval: Callable
    B_eval: Callable
    type_bound: float
    zeros_A: np.ndarray
    zeros_B: np.ndarray
    x_max: float


@dataclass(frozen=True)
class TiltedSpace:
    beta: float
    gamma_beta: float
    regime: str
    E_beta_eval: Callable
    A_beta_eval: Callable
    B_beta_eval: Callable
    nodes: np.ndarray
    lambda_plus: float
    lambda_minus: float


def _scan_roots(fn, lo, hi, step, tol=1e-13):
    """All simple roots of fn on [lo, hi] located by sign-change scanning."""
    xs = np.arange(lo, hi + step, step)
    vals = np.asarray(fn(xs), dtype=float)
    roots = []
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(xs[i]))
        elif a * b < 0:
            scalar = lambda x: float(np.asarray(fn(np.array([x])))[0])
            roots.append(find_root(scalar, bracket_from(scalar, float(xs[i]),
                                                        float(xs[i + 1])), tol))
    return np.array(roots)


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

    zeros_b = _scan_roots(B_eval, 0.05, x_max, 0.25)
    zeros_b = np.concatenate([[0.0], zeros_b])
    zeros_a = []
    for lo, hi in zip(zeros_b[:-1], zeros_b[1:]):
        sub = _scan_roots(A_eval, lo + 1e-9, hi - 1e-9, (hi - lo) / 8.0)
        if len(sub) != 1:
            raise RootMiss(
                f"expected exactly one A-zero in ({lo:.6f}, {hi:.6f}), "
                f"found {len(sub)}")
        zeros_a.append(sub[0])
    return HermiteBiehler(E_eval=E_eval, A_eval=A_eval, B_eval=B_eval,
                          type_bound=math.pi, zeros_A=np.array(zeros_a),
                          zeros_B=zeros_b, x_max=float(x_max))


def k_diag(x):
    """The kernel diagonal K(x,x) at real points x."""
    x = np.asarray(x, dtype=float)
    return np.reshape([kernel_eval(v, v).real for v in x.ravel()], x.shape)


def _tilted_diag(x, gamma, E):
    """K_beta(x,x) = (x^2 + gamma^2) K(x,x) + gamma |E(x)|^2 / pi.

    This is the Wronskian of A_beta = gamma A - x B, B_beta = x A + gamma B
    expanded in terms of the Wronskian of A and B, which is pi K(x,x).
    """
    x = np.asarray(x, dtype=float)
    return ((x ** 2 + gamma ** 2) * k_diag(x)
            + gamma * np.abs(E.E_eval(x)) ** 2 / math.pi)


def tilt(beta, E=None):
    """Classify beta among the interlaced zeros and build the tilted pair."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    E = E or build_E()
    if beta > E.x_max - 2.0:
        raise DomainError("beta too close to the resolved zero range")

    near_a = np.min(np.abs(E.zeros_A - beta)) < 1e-9
    near_b = np.min(np.abs(E.zeros_B - beta)) < 1e-9

    a_b = float(E.A_eval(np.array([beta]))[0])
    b_b = float(E.B_eval(np.array([beta]))[0])

    if near_a or near_b:
        regime = "case_a_zero" if near_a else "case_b_zero"
        zeros = E.zeros_A if near_a else E.zeros_B
        nodes = zeros[zeros <= E.x_max]
        lp, lm = _masses(nodes, 1.0 / k_diag(nodes), beta)
        return TiltedSpace(beta=beta, gamma_beta=float("nan"), regime=regime,
                           E_beta_eval=E.E_eval, A_beta_eval=E.A_eval,
                           B_beta_eval=E.B_eval, nodes=nodes,
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

    def E_beta(z):
        z = np.asarray(z, dtype=complex)
        return E.E_eval(z) * (gamma - 1j * z)

    node_fn = A_beta if regime == "case_bk_ak1" else B_beta
    pos = _scan_roots(node_fn, 0.05, E.x_max, 0.1)
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
                       E_beta_eval=E_beta, A_beta_eval=A_beta,
                       B_beta_eval=B_beta, nodes=nodes,
                       lambda_plus=lp, lambda_minus=lm)


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


def _removable_even(fn, x, centers, radius=1e-5, h=2e-3):
    """Patch removable singularities at +/-centers by Richardson averaging."""
    x = np.asarray(x, dtype=float)
    mask = np.zeros(x.shape, dtype=bool)
    for c in centers:
        mask |= np.abs(x - c) < radius
        mask |= np.abs(x + c) < radius
    out = np.asarray(fn(np.where(mask, x + 10.0 * radius, x)), dtype=float)
    if np.any(mask):
        xm = x[mask]
        avg1 = 0.5 * (fn(xm + h) + fn(xm - h))
        avg2 = 0.5 * (fn(xm + 2 * h) + fn(xm - 2 * h))
        out[mask] = (4.0 * avg1 - avg2) / 3.0
    return out


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
    dA = float(deriv_central(t.A_beta_eval, np.array([beta]))[0])
    C = -2.0 * beta / dA

    def q_raw(x):
        x = np.asarray(x, dtype=float)
        return C * t.A_beta_eval(x) / (beta ** 2 - x ** 2)

    def time_eval(x):
        return _removable_even(q_raw, x, (beta,)) ** 2

    return BandlimitedFunction(type_bound=2.0 * math.pi, time_eval=time_eval,
                               freq_eval=None,
                               label=f"endpoint-majorant(beta={beta:g})")


def quadrature_check(F, which, beta=None, E=None, node_tol=1e-7):
    """Mass of F against |E|^-2 two ways: quadrature and node sum.

    which: one of A_nodes, B_nodes, A_beta_nodes, B_beta_nodes; the tilted
    variants need beta.  Returns (integral, node_sum).
    """
    E = E or build_E()

    def integrand(x):
        return np.asarray(F.time_eval(x), dtype=float) * pc_density(x)

    integral = integrate_real_line(
        integrand, QuadratureSpec(oscillation_period=1.0), inner=24.0)

    if which in ("A_nodes", "B_nodes"):
        nodes = E.zeros_A if which == "A_nodes" else E.zeros_B
        weights = 1.0 / k_diag(nodes)
    elif which in ("A_beta_nodes", "B_beta_nodes"):
        if beta is None:
            raise DomainError("tilted node systems need beta")
        t = tilt(beta, E)
        want = "case_bk_ak1" if which == "A_beta_nodes" else "case_ak_bk"
        if t.regime != want:
            raise DomainError(
                f"beta={beta:g} sits in regime {t.regime}, not {want}")
        nodes = t.nodes
        weights = (nodes ** 2 + t.gamma_beta ** 2) / _tilted_diag(
            nodes, t.gamma_beta, E)
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
            warnings.warn(
                f"node tail beyond x_max may contribute {est:.2e}",
                TruncationWarning)
        node_sum = value
    else:
        node_sum = float(cum[-1])
    return integral, node_sum


def verify_hb(E=None, samples=1000, seed=0):
    """Check the defining inequalities of the structure function."""
    E = E or build_E()
    rng = np.random.default_rng(seed)
    report = {"modulus_violations": [], "positivity_violations": [],
              "imag_axis_violations": [], "samples": samples}
    for _ in range(samples):
        z = complex(rng.uniform(-6, 6), rng.uniform(1e-3, 4))
        ez = complex(E.E_eval(np.array([z]))[0])
        ezbar = complex(E.E_eval(np.array([np.conj(z)]))[0])
        if not abs(ezbar) < abs(ez):
            report["modulus_violations"].append(z)
        lzz = (2.0j * math.pi * (np.conj(z) - z) * kernel_eval(z, z)).real
        alt = 4.0 * math.pi * z.imag * kernel_eval(z, z).real
        if lzz <= 0 or abs(lzz - alt) > 1e-8 * max(1.0, abs(lzz)):
            report["positivity_violations"].append(z)
    for x in rng.uniform(-4, 4, 64):
        val = complex(E.E_eval(np.array([1j * x]))[0])
        if abs(val.imag) > 1e-12 * max(1.0, abs(val)):
            report["imag_axis_violations"].append(float(x))
    report["ok"] = not (report["modulus_violations"]
                       or report["positivity_violations"]
                       or report["imag_axis_violations"])
    return report
