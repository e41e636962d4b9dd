"""The reproducing kernel of the type-pi space weighted by 1 - sinc^2.

K(w,z) = f(conj(w),z) + c(conj(w)) g(z) + d(conj(w)) h(z) with elementary
pieces; the apparent poles at 1 - 2 pi^2 z^2 = 0 are removable and patched
by a four-point complex mean (O(h^4) accurate).  On top of the kernel sit
the one-delta and two-delta extremal problems and the two-constraint
minimum-norm problem.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (DomainError, QuadratureSpec, integrate_real_line)
from .beurling import BandlimitedFunction
from .pcbounds import pc_density

_SQ = 2.0 ** -0.5
_DEN_C = math.cos(_SQ) - _SQ * math.sin(_SQ)
_DEN_D = math.sqrt(2.0) * math.cos(_SQ)
_Z0 = 1.0 / (math.pi * math.sqrt(2.0))  # the removable point 1 - 2 pi^2 z^2 = 0
_PATCH_RADIUS = 1e-4
_PATCH_H = 1e-3


def csinc(z):
    """sin(pi z)/(pi z) for complex arrays, stable near 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    out = np.sin(np.pi * safe) / (np.pi * safe)
    pz2 = (np.pi * z) ** 2
    return np.where(small, 1.0 - pz2 / 6.0 + pz2 ** 2 / 120.0, out)


def _near_singular(z):
    z = np.asarray(z, dtype=complex)
    return (np.abs(z - _Z0) < _PATCH_RADIUS) | (np.abs(z + _Z0) < _PATCH_RADIUS)


def _patched(raw, z):
    """Evaluate raw(z), replacing near-singular points by the four-point
    complex mean raw(z +/- h) and raw(z +/- ih), which cancels the h^2 term."""
    z = np.asarray(z, dtype=complex)
    out = raw(np.where(_near_singular(z), z + 10.0 * _PATCH_RADIUS, z))
    mask = _near_singular(z)
    if np.any(mask):
        zm = z[mask]
        acc = np.zeros_like(zm)
        for off in (_PATCH_H, -_PATCH_H, 1j * _PATCH_H, -1j * _PATCH_H):
            acc += raw(zm + off)
        out = np.array(out, dtype=complex)
        out[mask] = acc / 4.0
    return out


def _c_raw(w):
    w = np.asarray(w, dtype=complex)
    return (np.cos(np.pi * w) - np.pi * w * np.sin(np.pi * w)) / (
        (1.0 - 2.0 * np.pi ** 2 * w ** 2) * _DEN_C)


def _d_raw(w):
    w = np.asarray(w, dtype=complex)
    return 2.0 * np.pi * w * np.cos(np.pi * w) / (
        (1.0 - 2.0 * np.pi ** 2 * w ** 2) * _DEN_D)


def _g_raw(z):
    z = np.asarray(z, dtype=complex)
    num = (math.sqrt(2.0) * math.sin(_SQ) * np.cos(np.pi * z)
           - 2.0 * np.pi * z * math.cos(_SQ) * np.sin(np.pi * z))
    return num / (1.0 - 2.0 * np.pi ** 2 * z ** 2)


def _h_raw(z):
    z = np.asarray(z, dtype=complex)
    num = (2.0 * np.pi * z * math.sin(_SQ) * np.cos(np.pi * z)
           - math.sqrt(2.0) * math.cos(_SQ) * np.sin(np.pi * z))
    return num / (1.0 - 2.0 * np.pi ** 2 * z ** 2)


def piece_c(w):
    return _patched(_c_raw, w)


def piece_d(w):
    return _patched(_d_raw, w)


def piece_g(z):
    return _patched(_g_raw, z)


def piece_h(z):
    return _patched(_h_raw, z)


def piece_f(w, z):
    """The sinc block; singular in w at the patch points, entire in z."""
    w = np.asarray(w, dtype=complex)
    z = np.asarray(z, dtype=complex)
    pref = 2.0 * np.pi ** 2 * w ** 2 / (2.0 * np.pi ** 2 * w ** 2 - 1.0)
    return pref * csinc(z - w)


def kernel_eval(w, z):
    """K(w, z) for scalar complex w and scalar-or-array z."""
    w = complex(w)
    z = np.asarray(z, dtype=complex)

    def at_w(wv):
        wbar = np.conj(wv)
        return (piece_f(wbar, z) + _c_raw(np.asarray(wbar, dtype=complex)) * piece_g(z)
                + _d_raw(np.asarray(wbar, dtype=complex)) * piece_h(z))

    if abs(w - _Z0) < _PATCH_RADIUS or abs(w + _Z0) < _PATCH_RADIUS:
        acc = sum(at_w(w + off)
                  for off in (_PATCH_H, -_PATCH_H, 1j * _PATCH_H, -1j * _PATCH_H))
        return acc / 4.0
    return at_w(w)


def reproduce(f, w, spec=None, inner=24.0):
    """<f, K(w,.)> in the weighted space; equals f(w) for type-pi f.

    f may be a BandlimitedFunction or a plain evaluator accepting real
    ndarrays (possibly returning complex values).
    """
    ev = f.time_eval if isinstance(f, BandlimitedFunction) else f
    w = complex(w)
    spec = spec or QuadratureSpec(oscillation_period=1.0)

    def integrand(x):
        kv = kernel_eval(w, x.astype(complex))
        return np.asarray(ev(x)) * np.conj(kv) * pc_density(x)

    return complex(integrate_real_line(integrand, spec, inner=inner))


def min_norm_two_constraints(n11, n12):
    """Minimum norm over {x : |<x,v1>| >= 1, |<x,v2>| >= 1}, equal norms.

    Returns (min_norm, (c1, c2)) with the minimizer c1*v1 + c2*v2.
    """
    n12 = complex(n12)
    if n11 <= 0:
        raise DomainError("n11 must be positive")
    if abs(n12) > n11 * (1.0 + 1e-12):
        raise DomainError("|n12| exceeds n11: not a valid Gram pair")
    s = n11 + abs(n12)
    alpha = -cmath.phase(n12) if n12 != 0 else 0.0
    coeff = (cmath.exp(1j * alpha) / s, 1.0 / s)
    return math.sqrt(2.0 / s), coeff


def one_delta():
    """Least M-mass of a nonnegative admissible function with R(0) = 1.

    value = 1/K(0,0); the unique extremal is K(0,z)^2/K(0,0)^2.
    """
    k00 = kernel_eval(0.0, 0.0).real

    def extremal_eval(x):
        kv = kernel_eval(0.0, np.asarray(x, dtype=float).astype(complex))
        return np.real(kv) ** 2 / k00 ** 2

    return 1.0 / k00, extremal_eval


@dataclass(frozen=True)
class TwoDeltaSolution:
    beta: float
    value: float
    k_bb: float
    k_bmb: float
    extremal_eval: Callable
    case: str


def two_delta(beta):
    """Least M-mass with R(+/-beta) >= 1, R >= 0, type at most 2 pi."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    k_bb = kernel_eval(beta, beta).real
    k_bmb = kernel_eval(beta, -beta).real
    s = k_bb + abs(k_bmb)
    eps = 1.0 if k_bmb >= 0 else -1.0
    case = "orthogonal" if abs(k_bmb) < 1e-10 else "generic"

    def extremal_eval(x):
        x = np.asarray(x, dtype=float).astype(complex)
        num = eps * kernel_eval(beta, x) + kernel_eval(-beta, x)
        return np.real(num) ** 2 / s ** 2

    return TwoDeltaSolution(beta=beta, value=2.0 / s, k_bb=k_bb, k_bmb=k_bmb,
                            extremal_eval=extremal_eval, case=case)


def u_minus_l_gap(beta):
    """Cap on the spread between the upper and lower pair-count bounds."""
    return 0.5 * two_delta(beta).value


def norm_equivalence_eta():
    """The explicit constant in the two-sided norm sandwich.

    The density exceeds eta^2 off [-1/8, 1/8] with eta^2 = density(1/8);
    combined with the uncertainty bound this yields
    (eta/2) ||f||_2 <= ||f||_mu <= ||f||_2.
    """
    return math.sqrt(float(pc_density(0.125)))
