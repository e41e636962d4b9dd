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

from .numerics import DomainError, NoRoot, find_root
from .special import _out

XI_CRIT = 1.0 + 1.0 / math.sqrt(3.0)


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
    """beta - 1 + 2*beta*int_0^1 g(beta*a)*a da, in closed form, for a
    float or an array of beta, with g = 1 - |a| + sin(2 pi |a|)/(2 pi) on
    [-1, 1] the transform of the gap minorant.

    For beta <= 1 the transform branch is active on the whole range:
    int (1 - beta*a)*a da = 1/2 - beta/3 and the sine part integrates to
    (sin c - c cos c)/(2 pi c^2) with c = 2 pi beta.
    """
    c = 2.0 * np.pi * beta
    sine_part = (np.sin(c) - c * np.cos(c)) / (2.0 * np.pi * c ** 2)
    return beta - 1.0 + 2.0 * beta * (0.5 - beta / 3.0 + sine_part)


def _correction(beta):
    """-4 pi beta^3 int sin(k a) p(a) da over [XI_CRIT, 1/beta], in closed
    form, for a float or an array of beta in [1/2, 1]: k = 2 pi beta,
    p = goldston_lower, and the antiderivative is -cos(k a) p(a)/k +
    sin(k a) p'(a)/k^2 + cos(k a) p''(a)/k^3.  0 where 1/beta <= XI_CRIT
    leaves no range."""
    hi = 1.0 / np.asarray(beta, dtype=float)
    k = 2.0 * np.pi * beta

    def antiderivative(a):
        cos, sin = np.cos(k * a), np.sin(k * a)
        return (-cos * goldston_lower(a) / k + sin * (a - 1.0) / k ** 2
                + cos / k ** 3)

    value = -4.0 * np.pi * beta ** 3 * (antiderivative(hi)
                                        - antiderivative(XI_CRIT))
    return np.where(hi > XI_CRIT, value, 0.0)


def lower_bound_profile(beta):
    """Assembled lower-bound value at a float or an array of beta in
    [1/2, 1]: float fields for a float, arrays in its shape otherwise."""
    beta = np.asarray(beta, dtype=float)
    if not ((0.5 <= beta) & (beta <= 1.0)).all():
        raise DomainError("beta must lie in [1/2, 1]")
    return GapBoundProfile(beta=_out(beta), base_term=_out(_base_term(beta)),
                           correction=_out(_correction(beta)))


def solve_threshold(use_correction=True, tol=1e-6):
    """Smallest beta in [1/2, 1] with a positive lower bound."""

    def f(b):
        p = lower_bound_profile(b)
        return p.total if use_correction else p.base_term

    # both bounds increase through one sign change, so a coarse grid brackets it
    roots = find_root(f, np.linspace(0.5, 1.0, 51), tol)
    if not len(roots):
        raise NoRoot("no sign change of the gap bound in [1/2, 1]")
    return float(roots[0])
