"""Trigamma, tetragamma and the sine integral.

The bounds of pcx.pcbounds and the majorants of pcx.beurling are closed
forms in psi1, psi2 and Si, and need nothing else from a special-function
library.

psi1 and psi2 shift x up to SHIFT = 10 by the recurrences
psi1(x) = psi1(x + 1) + 1/x^2 and psi2(x) = psi2(x + 1) - 2/x^3, then sum
eight Bernoulli terms of the asymptotic series
    psi1(t) ~ 1/t + 1/(2 t^2) + sum_k B_2k / t^(2k+1),
    psi2(t) ~ -1/t^2 - 1/t^3 - sum_k (2k+1) B_2k / t^(2k+2).
At t = 10 the first dropped terms, B_18/t^19 and 19 B_18/t^20, are
5e-17 of psi1 and 9.4e-16 of psi2; the latter is psi2's worst error
against 40-digit references.  The shifted terms are added smallest first.  A
Python float takes a loop over plain floats (the scalar lattice tails
call it tens of thousands of times); an array takes the same arithmetic
elementwise, one masked step per unit of shift, so both give the same
bits for the same argument.

Si uses its power series below 4 and, from 4 on, the continued fraction
of E1(ix) evaluated by the modified Lentz method, Si(x) = pi/2 + Im E1(ix)
(the cisi scheme of Numerical Recipes, section 6.9).
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DomainError, NonConvergence

# Bernoulli numbers B_2, B_4, ..., B_16
B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
       -3617 / 510)
# (2k + 1) B_2k, the coefficients of the psi2 series
_B2K_PSI2 = tuple((2 * k + 3) * b for k, b in enumerate(B2K))
# the recurrence carries every argument to at least this before the series
SHIFT = 10.0
# Si: the power series below, the continued fraction from here on
_SI_SWITCH = 4.0
# the continued fraction stops once a step changes it by less than this
_CF_TOL = 1e-16
_CF_MAXIT = 200


def _poly(z, coeffs):
    """sum_k coeffs[k] z^k by Horner's rule, for floats or arrays."""
    p = coeffs[-1]
    for c in coeffs[-2::-1]:
        p = p * z + c
    return p


def _trigamma_tail(t):
    w = 1.0 / t
    z = w * w
    return w + z * (0.5 + w * _poly(z, B2K))


def _trigamma_step(x):
    return 1.0 / (x * x)


def _tetragamma_tail(t):
    w = 1.0 / t
    z = w * w
    return -z * (1.0 + w * (1.0 + w * _poly(z, _B2K_PSI2)))


def _tetragamma_step(x):
    return -2.0 / (x * x * x)


def _shifted(x, tail, step):
    """tail(x + n) + sum_{k<n} step(x + k), n the steps that carry x to SHIFT."""
    if isinstance(x, (int, float)):
        x = float(x)
        if not x > 0.0:
            raise DomainError(f"polygamma argument must be positive, got {x}")
        n = math.ceil(SHIFT - x) if x < SHIFT else 0
        acc = tail(x + n)
        for k in range(n - 1, -1, -1):
            acc += step(x + k)
        return acc
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise DomainError("polygamma arguments must be positive")
    n = np.maximum(np.ceil(SHIFT - x), 0.0)
    acc = np.asarray(tail(x + n))
    for k in range(int(n.max(initial=0.0)) - 1, -1, -1):
        m = n > k
        acc[m] += step(x[m] + k)
    return acc


def trigamma(x):
    """psi1(x) = sum_{n >= 0} 1/(x + n)^2 for x > 0 (float or array)."""
    return _shifted(x, _trigamma_tail, _trigamma_step)


def tetragamma(x):
    """psi2(x) = -2 sum_{n >= 0} 1/(x + n)^3 for x > 0 (float or array)."""
    return _shifted(x, _tetragamma_tail, _tetragamma_step)


def sine_integral(x):
    """Si(x) = integral of sin(t)/t over [0, x], for a finite float x."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"sine integral needs a finite argument, got {x}")
    t = abs(x)
    if t < _SI_SWITCH:
        # sum_k (-1)^k t^(2k+1) / ((2k+1) (2k+1)!) for k <= 16; the first
        # dropped term is 2e-21 of Si(4)
        term, total, t2 = t, t, t * t
        for k in range(1, 17):
            term *= -t2 / ((2 * k) * (2 * k + 1))
            total += term / (2 * k + 1)
        return math.copysign(total, x)
    # E1(it) e^(it) = 1/(1 + it -) 1^2/(3 + it -) 2^2/(5 + it -) ...
    b = complex(1.0, t)
    c = 1e300  # Lentz's start, 1/tiny
    d = h = 1.0 / b
    for i in range(2, _CF_MAXIT):
        a = -(i - 1) ** 2
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < _CF_TOL:
            break
    else:
        raise NonConvergence(f"Si continued fraction did not converge at {x}")
    h *= complex(math.cos(t), -math.sin(t))
    return math.copysign(0.5 * math.pi + h.imag, x)
