"""Small-gap thresholds for consecutive normalized zero spacings.

The lower-bound functional combines the Fejer-type minorant G (through
its transform) with a quadratic lower bound for the averaged form factor;
the smallest beta where the total turns positive certifies that a
positive proportion of gaps is below beta average spacings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (DomainError, NoRoot, QuadratureSpec, bracket_from,
                       find_root, integrate_adaptive)
from . import pcbounds

XI_CRIT = 1.0 + 1.0 / math.sqrt(3.0)


def g_hat(alpha):
    """Transform of the gap minorant: 1 - |a| + sin(2 pi |a|)/(2 pi) on [-1,1].

    Written as u - sin(2 pi u)/(2 pi) with u = 1 - |a|, which vanishes to
    third order at the band edge; below u = 1e-2 its Taylor series takes
    over, so rounding cannot make the value negative there.
    """
    u = 1.0 - np.abs(np.asarray(alpha, dtype=float))
    x = 2.0 * np.pi * u
    series = x ** 2 * u / 6.0 * (1.0 - x ** 2 / 20.0 + x ** 4 / 840.0)
    inside = np.where(u < 1e-2, series, u - np.sin(x) / (2.0 * np.pi))
    return np.where(u > 0.0, inside, 0.0)


def goldston_lower(xi):
    """Quadratic lower bound for the averaged form factor integral.

    Model input (the vanishing finite-size correction is dropped);
    nontrivial only for xi >= 1 + 1/sqrt(3).
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 1.0):
        raise DomainError("defined for xi >= 1")
    return xi ** 2 / 2.0 - xi + 1.0 / 3.0


@dataclass(frozen=True)
class GapBoundProfile:
    beta: float
    base_term: float
    correction: float

    @property
    def total(self):
        return self.base_term + self.correction


def _base_term(beta):
    """beta - 1 + 2*beta*int_0^1 g_hat(beta*a)*a da, in closed form.

    For beta <= 1 the transform branch is active on the whole range:
    int (1 - beta*a)*a da = 1/2 - beta/3 and the sine part integrates to
    (sin c - c cos c)/(2 pi c^2) with c = 2 pi beta.
    """
    c = 2.0 * math.pi * beta
    sine_part = (math.sin(c) - c * math.cos(c)) / (2.0 * math.pi * c ** 2)
    return beta - 1.0 + 2.0 * beta * (0.5 - beta / 3.0 + sine_part)


def _correction(beta):
    lo = XI_CRIT
    hi = 1.0 / beta
    if hi <= lo:
        return 0.0

    def integrand(a):
        return np.sin(2.0 * np.pi * beta * a) * goldston_lower(a)

    val = integrate_adaptive(integrand, lo, hi, QuadratureSpec())
    return -4.0 * math.pi * beta ** 3 * val


def lower_bound_profile(beta):
    """Assembled lower-bound value at one beta in [1/2, 1]."""
    if not 0.5 <= beta <= 1.0:
        raise DomainError("beta must lie in [1/2, 1]")
    return GapBoundProfile(beta=beta, base_term=_base_term(beta),
                           correction=_correction(beta))


def solve_threshold(use_correction=True, tol=1e-6):
    """Smallest beta in [1/2, 1] with a positive lower bound."""

    def f(b):
        p = lower_bound_profile(b)
        return p.total if use_correction else p.base_term

    grid = np.arange(0.5, 1.0 + 1e-12, 1e-3)
    prev = f(grid[0])
    for lo, hi in zip(grid[:-1], grid[1:]):
        cur = f(hi)
        if prev < 0 <= cur:
            return find_root(f, bracket_from(f, float(lo), float(hi)), tol)
        prev = cur
    raise NoRoot("no sign change of the gap bound in [1/2, 1]")


def selberg_threshold(tol=1e-6):
    """The simpler positivity threshold from the interval minorant."""
    return pcbounds.positivity_threshold(tol)
