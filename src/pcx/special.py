"""Trigamma, tetragamma and the sine integral.

The bounds of pcx.pcbounds and the majorants of pcx.beurling are closed
forms in psi1, psi2 and Si, and need nothing else from a special-function
library.  Each takes a float or an array; a float is an array of one, and
comes back as a float.

psi1 and psi2 shift x up to SHIFT = 10 by the recurrences
psi1(x) = psi1(x + 1) + 1/x^2 and psi2(x) = psi2(x + 1) - 2/x^3, then sum
eight Bernoulli terms of the asymptotic series
    psi1(t) ~ 1/t + 1/(2 t^2) + sum_k B_2k / t^(2k+1),
    psi2(t) ~ -1/t^2 - 1/t^3 - sum_k (2k+1) B_2k / t^(2k+2).
At t = 10 the first dropped terms, B_18/t^19 and 19 B_18/t^20, are
5e-17 of psi1 and 9.4e-16 of psi2; the latter is psi2's worst error
against 40-digit references.  trigamma_tetragamma takes both from one
shift of the same arguments.  The shift starts from the series value at
x + n, n = ceil(SHIFT - x) steps up, and adds the steps at x + k for
k = n_max - 1, ..., 0 in one masked loop over the array, 0.0 where k is
beyond the argument's own n.  So the shifted terms are added smallest
first, in the order a loop over plain floats would add them, and an
argument's value does not depend on the array it came in.  Arguments
from SHIFT on take no step, and the loop does not run when none is
below it.

Si sums its power series below 4, the terms as a running product of
their ratios and the sum as a running sum, both in a fixed order.  From 4
on, Si(t) = pi/2 - f(t) cos t - g(t) sin t with the auxiliary functions
f(t) = int_0^inf e^(-ts)/(1 + s^2) ds and g(t) = int_0^inf s e^(-ts)/(1 +
s^2) ds (Abramowitz and Stegun 5.2.8, 5.2.12-13).  Both come from one
trapezoid rule in u = log s with step 1/4 on [-40, 4], 177 nodes: the
integrands are analytic and bounded in the strip |Im u| < pi/2, so the
rule errs by about exp(-4 pi^2) = 7e-18 for every t, and the cut ends
drop under e^-40 below and exp(-4 e^4) above.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DomainError

# Bernoulli numbers B_2, B_4, ..., B_16
B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
       -3617 / 510)
# (2k + 1) B_2k, the coefficients of the psi2 series
_B2K_PSI2 = tuple((2 * k + 3) * b for k, b in enumerate(B2K))
# the two series side by side: _SERIES[k] is the column (B_2k, (2k+1) B_2k)
_SERIES = np.array([B2K, _B2K_PSI2]).T[:, :, np.newaxis]
# the recurrence carries every argument to at least this before the series
SHIFT = 10.0
# Si: the power series below, the auxiliary functions from here on
_SI_SWITCH = 4.0
# ratio denominators (2k)(2k + 1) and term divisors 2k + 1 of the power
# series, k = 1..16; the first dropped term is 2e-21 of Si(4)
_SI_RATIO = np.array([(2 * k) * (2 * k + 1) for k in range(1, 17)], float)
_SI_ODD = np.array([2 * k + 1 for k in range(1, 17)], float)
# trapezoid nodes s = e^u, u = -40, -39.75, ..., 4, and the weights of
# f and g: ds = s du
_SI_H = 0.25
_SI_S = np.exp(_SI_H * np.arange(-160, 17))
_SI_WF = _SI_H * _SI_S / (1.0 + _SI_S ** 2)
_SI_W = np.array([_SI_WF, _SI_S * _SI_WF])
# arguments per block of the trapezoid sums; measured on the 1,873 points
# t >= 4 of 2 pi beta, beta = 0.05:10:0.005, on a 2-core x86 host: 32-128
# rows timed alike (3.0-3.3 ms, 0.3-0.7 MB peak), 8 rows 40% slower and
# one block of every row 50% slower with 8 MB of temporaries
_SI_ROWS = 64


def _out(values):
    """A 0-d result as a float, anything else as it is."""
    return float(values) if np.ndim(values) == 0 else values


def _poly(z, coeffs):
    """sum_k coeffs[k] z^k by Horner's rule, for floats or arrays."""
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        p = p * z + c
    return p


def _polygammas(x, rows):
    """psi1 (row 0) and psi2 (row 1) of x > 0 (float or array) for each
    of rows: the series at x + n, n = ceil(SHIFT - x) or 0, then the steps
    at x + k, k = n_max - 1, ..., 0, with 0.0 added where k >= n."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if not (flat > 0.0).all():
        raise DomainError("polygamma arguments must be positive")
    n = np.maximum(np.ceil(SHIFT - flat), 0.0)
    w = 1.0 / (flat + n)
    z = w * w
    p = _poly(z, _SERIES[:, rows])
    psi = [w + z * (0.5 + w * p[i]) if row == 0
           else -z * (1.0 + w * (1.0 + w * p[i]))
           for i, row in enumerate(rows)]
    for k in range(int(n.max(initial=0.0)) - 1, -1, -1):
        y = flat + k
        y2 = y * y
        taken = k < n
        for i, row in enumerate(rows):
            step = 1.0 / y2 if row == 0 else -2.0 / (y2 * y)
            psi[i] += np.where(taken, step, 0.0)
    return [_out(v.reshape(x.shape)) for v in psi]


def trigamma(x):
    """psi1(x) = sum_{n >= 0} 1/(x + n)^2 for x > 0 (float or array)."""
    return _polygammas(x, (0,))[0]


def trigamma_tetragamma(x):
    """psi1(x) and psi2(x) = -2 sum_{n >= 0} 1/(x + n)^3 for x > 0 (float
    or array) from one shift; psi1 as trigamma gives it."""
    return tuple(_polygammas(x, (0, 1)))


def _si_series(t):
    """sum_k (-1)^k t^(2k+1) / ((2k+1) (2k+1)!), k <= 16, for a 1-D t."""
    ratios = -(t * t)[:, np.newaxis] / _SI_RATIO
    terms = np.cumprod(np.concatenate([t[:, np.newaxis], ratios], axis=1),
                       axis=1)
    terms[:, 1:] /= _SI_ODD
    return np.cumsum(terms, axis=1)[:, -1]


def _si_auxiliary(t):
    """pi/2 - f(t) cos t - g(t) sin t for a 1-D t >= 4, _SI_ROWS rows of
    the (rows, 2, nodes) trapezoid sums at a time."""
    si = np.empty_like(t)
    for i in range(0, len(t), _SI_ROWS):
        ti = t[i:i + _SI_ROWS]
        e = np.exp(-ti[:, np.newaxis] * _SI_S)
        f, g = np.add.reduce(e[:, np.newaxis, :] * _SI_W, axis=-1).T
        si[i:i + _SI_ROWS] = 0.5 * math.pi - f * np.cos(ti) - g * np.sin(ti)
    return si


def sine_integral(x):
    """Si(x) = integral of sin(t)/t over [0, x], for finite x (float or
    array)."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if not np.isfinite(flat).all():
        raise DomainError("sine integral needs finite arguments")
    t = np.abs(flat)
    low = t < _SI_SWITCH
    si = np.empty_like(t)
    if low.any():
        si[low] = _si_series(t[low])
    if not low.all():
        si[~low] = _si_auxiliary(t[~low])
    return _out(np.copysign(si, flat).reshape(x.shape))
