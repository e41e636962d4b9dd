"""Trigamma, tetragamma and the sine integral.

The bounds of pcx.pcbounds and the majorants of pcx.beurling are closed
forms in psi1, psi2 and Si, and need nothing else from a special-function
library.  trigamma and trigamma_tetragamma take a float or an array; a
float is an array of one, and comes back as a float.  Si is _si, of a
flat array t >= 0 that its caller has checked finite.

psi1 and psi2 are taken at x >= SHIFT = 10 only, from eight Bernoulli
terms of the asymptotic series
    psi1(t) ~ 1/t + 1/(2 t^2) + sum_k B_2k / t^(2k+1),
    psi2(t) ~ -1/t^2 - 1/t^3 - sum_k (2k+1) B_2k / t^(2k+2).
At t = 10 the first dropped terms, B_18/t^19 and 19 B_18/t^20, are
5e-17 of psi1 and 9.4e-16 of psi2; the latter is psi2's worst error
against 40-digit references.  trigamma_tetragamma takes both from the
same powers of 1/t, and sums both series by Horner's rule on their
stacked coefficients; a matrix product of the powers of 1/t^2 would move
psi1 and psi2 by an ulp at 8e-5 of 200,000 log-uniform t in [10, 1e6].
An argument below SHIFT, or NaN, raises DomainError.  The two callers
that need psi at smaller arguments carry the recurrence psi1(x) =
psi1(x + 1) + 1/x^2 (and psi2(x) = psi2(x + 1) - 2/x^3) themselves: the
closed form of H0 in pcx.beurling takes psi1(1 + |x|) as psi1(11 + |x|)
plus ten steps, and the delta = 1 bounds of pcx.pcbounds take psi1 and
psi2 at beta + 11 and add the ten steps in one row with their terms.

Si sums its power series below 4, the terms as a running product of
their ratios and the sum as a running sum, both in a fixed order.  From 4
on, Si(t) = pi/2 - f(t) cos t - g(t) sin t with the auxiliary functions
f(t) = int_0^inf e^(-ts)/(1 + s^2) ds and g(t) = int_0^inf s e^(-ts)/(1 +
s^2) ds (Abramowitz and Stegun 5.2.8, 5.2.12-13).  Put s = q = v/t:
    t f(t) = int_0^inf e^-v/(1 + q^2) dv,
    t g(t) = int_0^inf q e^-v/(1 + q^2) dv,
so the exponential no longer depends on t.  Both come from one trapezoid
rule in u with v = exp(u - e^-u), a double-exponential rule in the manner
of Takahasi and Mori (1974), step 1/5 on [-4, 4.4], 43 nodes: the
integrands decay double-exponentially at both ends in u, the weights
h (dv/du) e^-v are constants of the module, and an argument costs q = v/t,
1/(1 + q^2), two row sums, a cos and a sin, and no exponential.  q is
v/t, never formed from t^2 or t s, so no finite t overflows.  The first
weights past the ends are 2e-30 and 3e-42 of their sum, 1.  Against
50-digit mpmath Si errs by at most 1.6e-16 relative on 4,000 log-uniform
t in [4, 1e15] and at 1e20, 1e154 and 1e300, within 1 ulp of the 177-node
rule in log s that it replaced.  On 600 such t the error stays there up
to step 0.225 (0.25 errs by 6e-15) and down to a lower end of -3.5 (-3.0
errs by 4e-13), and an upper end of 3.4 still suffices.  An array on one
side of the switch goes to its rule whole, with no mask.  pcx.pcbounds
calls _si on the 2 pi beta it has checked.
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
# the least argument of psi1 and psi2, where the series holds to rounding
SHIFT = 10.0
# Si: the power series below, the auxiliary functions from here on
_SI_SWITCH = 4.0
# ratio denominators (2k)(2k + 1) and term divisors 2k + 1 of the power
# series, k = 1..16; the first dropped term is 2e-21 of Si(4)
_SI_RATIO = np.array([(2 * k) * (2 * k + 1) for k in range(1, 17)], float)
_SI_ODD = np.array([2 * k + 1 for k in range(1, 17)], float)
# trapezoid nodes v = exp(u - e^-u), u = -4, -3.8, ..., 4.4 (step h =
# 0.2), and their weights h (dv/du) e^-v, dv/du = v (1 + e^-u)
_SI_U = 0.2 * np.arange(-20, 23)
_SI_V = np.exp(_SI_U - np.exp(-_SI_U))
_SI_W = 0.2 * _SI_V * (1.0 + np.exp(-_SI_U)) * np.exp(-_SI_V)
# arguments per block of the trapezoid sums; measured on the 1,873 points
# t >= 4 of 2 pi beta, beta = 0.05:10:0.005, on a 2-core x86 host: 256
# and 512 rows timed alike (0.55-0.69 ms, 0.4 and 0.8 MB peak), 64 rows
# 45-57% slower, and one block of every row 2-2.2 times as slow, 2 MB
_SI_ROWS = 256


def _out(values):
    """A 0-d result as a float, anything else as it is."""
    return float(values) if np.ndim(values) == 0 else values


def _poly(z, coeffs):
    """sum_k coeffs[k] z^k by Horner's rule, for floats or arrays."""
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        p = p * z + c
    return p


def _polygammas(x, series):
    """psi1 and, when series is _SERIES and not its first column alone,
    psi2 of x >= SHIFT (float or array): w = 1/x, z = w^2, and the series
    of each by Horner's rule in z on the stacked columns."""
    x = np.asarray(x, dtype=float)
    # NaN fails the check; +inf passes and gives 0
    if not (x >= SHIFT).all():
        raise DomainError(f"polygamma arguments must be at least {SHIFT:g}")
    w = 1.0 / x.reshape(-1)
    z = w * w
    p = _poly(z, series)
    psi = ([w + z * (0.5 + w * p[0])]
           + [-z * (1.0 + w * (1.0 + w * q)) for q in p[1:]])
    return [_out(v.reshape(x.shape)) for v in psi]


def trigamma(x):
    """psi1(x) = sum_{n >= 0} 1/(x + n)^2 for x >= SHIFT (float or
    array)."""
    return _polygammas(x, _SERIES[:, :1])[0]


def trigamma_tetragamma(x):
    """psi1(x) and psi2(x) = -2 sum_{n >= 0} 1/(x + n)^3 for x >= SHIFT
    (float or array) from the same powers of 1/x; psi1 as trigamma gives
    it."""
    return tuple(_polygammas(x, _SERIES))


def _si_series(t):
    """sum_k (-1)^k t^(2k+1) / ((2k+1) (2k+1)!), k <= 16, for a 1-D t."""
    ratios = -(t * t)[:, np.newaxis] / _SI_RATIO
    terms = np.cumprod(np.concatenate([t[:, np.newaxis], ratios], axis=1),
                       axis=1)
    terms[:, 1:] /= _SI_ODD
    return np.cumsum(terms, axis=1)[:, -1]


def _si_auxiliary(t):
    """pi/2 - f(t) cos t - g(t) sin t for a 1-D t >= 4: the row sums t f
    and t g of the (rows, nodes) trapezoid sums in q = v/t, _SI_ROWS rows
    at a time, then one division by t."""
    si = np.empty_like(t)
    for i in range(0, len(t), _SI_ROWS):
        ti = t[i:i + _SI_ROWS]
        q = _SI_V / ti[:, np.newaxis]
        w = _SI_W / (1.0 + q * q)
        f, g = np.add.reduce(w, -1), np.add.reduce(w * q, -1)
        si[i:i + _SI_ROWS] = f * np.cos(ti) + g * np.sin(ti)
    return 0.5 * math.pi - si / t


def _si(t):
    """Si of a flat array t >= 0, checked finite: each side of the switch
    by its own rule, and the whole array at once when it lies on one,
    found by one count of the arguments below the switch."""
    low = t < _SI_SWITCH
    count = np.count_nonzero(low)
    if count == 0:
        return _si_auxiliary(t)
    if count == len(t):
        return _si_series(t)
    si = np.empty_like(t)
    si[~low] = _si_auxiliary(t[~low])
    si[low] = _si_series(t[low])
    return si

