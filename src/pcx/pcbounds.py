"""The pair correlation functional M and the closed-form bound tables.

M(R) integrates R against the pair correlation density 1 - sinc^2.  For
the dilated interval sandwiches the value collapses to an elementary
expression plus the lattice series V; the series is summed over a window
around 0 and the resonance, with its two tails rolled up exactly (trigamma
for the constant part, iterated Abel summation for the oscillatory part).
The window reaches just far enough for the Abel remainder to drop below
rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import polygamma, sici

from . import beurling
from .numerics import (DomainError, NonConvergence, QuadratureSpec,
                       bracket_from, find_root, integrate_real_line)

TWO_PI_SQ = 2.0 * math.pi ** 2
ABEL_LEVELS = 6
# absolute accuracy asked of each Abel-summed tail: below the rounding of
# the O(1) terms the lattice series is combined with
TAIL_TOL = 1e-16
# largest tail margin; the window then has at most c + 18001 terms
MAX_MARGIN = 9_000


def pc_density(x):
    """The pair correlation density 1 - sinc(x)^2."""
    return 1.0 - np.sinc(np.asarray(x, dtype=float)) ** 2


def _common_period(delta):
    """Smallest integer period shared by the density and a type-2*pi*delta
    component, when one exists; falls back to 1."""
    for ell in range(1, 17):
        if abs(delta * ell - round(delta * ell)) < 1e-9:
            return float(ell)
    return 1.0


def _abel_osc_sum(theta, c, m_last, q, levels=ABEL_LEVELS):
    """Sum of exp(i*theta*n)/(n - c)**q over n > m_last.

    Iterated summation by parts; each level trades a factor ~1/(m|1-z|).
    The differences are taken in extended precision: level k multiplies
    the rounding of the terms by |1-z|^-k, which near delta = 1 would
    otherwise dominate the truncation error.  Exact trigamma/tetragamma
    branch when exp(i*theta) is numerically 1.
    """
    z = cmath.exp(1j * theta)
    if abs(z - 1.0) < 1e-9:
        if q == 2:
            return complex(polygamma(1, m_last + 1 - c))
        return complex(-0.5 * polygamma(2, m_last + 1 - c))
    n = m_last + 1 + np.arange(levels + 1, dtype=np.longdouble)
    a = 1.0 / (n - c) ** q
    total = 0.0 + 0.0j
    zpow = cmath.exp(1j * (theta * (m_last + 1) % (2.0 * math.pi)))
    factor = zpow / (1.0 - z)
    for _ in range(levels):
        total += factor * float(a[0])
        a = np.diff(a)
        factor *= z / (1.0 - z)
    return total


def _series_tails(delta, beta, m_right, k_left, s_right, s_left):
    """Exact tails of the lattice series beyond the summation window.

    m_right: largest n included; k_left: largest -n included.  s_right and
    s_left are the signs attached to the two ends of the bilateral sum.
    """
    a = 2.0 * math.pi / delta
    c = delta * beta
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)
    phase_r = cmath.exp(1j * ((a * c) % (2.0 * math.pi)))

    s2 = _abel_osc_sum(-a, c, m_right, 2)
    s3 = _abel_osc_sum(-a, c, m_right, 3)
    right = inv4pi2 * (
        (delta + 1.0) * polygamma(1, m_right + 1 - c)
        - (delta - 1.0) * (phase_r * s2).real
        + (delta / math.pi) * (phase_r * s3).imag
    )

    s2l = _abel_osc_sum(a, -c, k_left, 2)
    s3l = _abel_osc_sum(a, -c, k_left, 3)
    left = inv4pi2 * (
        (delta + 1.0) * polygamma(1, k_left + 1 + c)
        - (delta - 1.0) * (phase_r * s2l).real
        - (delta / math.pi) * (phase_r * s3l).imag
    )
    return s_right * right + s_left * left


def _tail_margin(delta):
    """Distance from the window ends to 0 and to c beyond which both
    Abel-summed tails are accurate to TAIL_TOL.

    After L levels the remainder of sum_{n>m} z^n/(n - c)^q is at most
    (q)_{L-1} / (|1 - z|^L (m - c)^{q+L-1}); the q = 2 tail carries the
    weight (delta - 1)/(4 pi^2) and the q = 3 tail delta/(4 pi^3).  At
    delta = 1 (z = 1) the trigamma branch is exact and one term suffices.
    """
    gap = abs(1.0 - cmath.exp(2j * math.pi / delta))
    if gap < 1e-9:
        return 1
    margin = 1.0
    for q, weight in ((2, (delta - 1.0) / (4.0 * math.pi ** 2)),
                      (3, delta / (4.0 * math.pi ** 3))):
        bound = (weight * math.factorial(q + ABEL_LEVELS - 2)
                 / math.factorial(q - 1) / gap ** ABEL_LEVELS)
        margin = max(margin, (bound / TAIL_TOL) ** (1 / (q + ABEL_LEVELS - 1)))
    return min(MAX_MARGIN, math.ceil(margin))


def _lattice_sum(delta, beta):
    """Window terms of the bilateral series, near-resonant entries expanded.

    The window [-m, floor(c) + m] straddles n = 0 (where the sign pattern
    flips) and the resonance c = delta*beta.  Returns (n, terms, n_lo,
    n_hi); callers attach the sign pattern and the exact tails.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if delta < 1:
        raise DomainError("delta must be at least 1")
    c = delta * beta
    margin = _tail_margin(delta)
    n_lo = -margin
    n_hi = int(math.floor(c)) + margin
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    u = c - n
    a = 2.0 * math.pi / delta
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)

    phi = a * u
    near = np.abs(u) < 1e-4
    safe = np.where(near, 1.0, u)
    bracket = (
        -(delta - 1.0) * np.cos(phi)
        + (delta + 1.0)
        - np.sin(phi) * delta / (math.pi * safe)
    ) / safe ** 2
    # analytic continuation across the resonance u -> 0
    u2 = u ** 2
    series = (
        a ** 2 * ((delta - 1.0) / 2.0 + 1.0 / 3.0)
        - a ** 4 * u2 * ((delta - 1.0) / 24.0 + 1.0 / 60.0)
        + a ** 6 * u2 ** 2 * ((delta - 1.0) / 720.0 + 1.0 / 2520.0)
    )
    terms = inv4pi2 * np.where(near, series, bracket)
    return n, terms, n_lo, n_hi


def v_series(delta, beta, sign):
    """The signed lattice series; sign picks the weight of the n=0 term."""
    n, terms, n_lo, n_hi = _lattice_sum(delta, beta)
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    sgn = np.sign(n)
    sgn[n == 0] = float(sign)
    window = float(np.sum(sgn * terms))
    return window + _series_tails(delta, beta, n_hi, -n_lo, +1.0, -1.0)


def g_of(delta, beta):
    """The unsigned recombination of the lattice series; constant 1/2."""
    n, terms, n_lo, n_hi = _lattice_sum(delta, beta)
    window = float(np.sum(terms))
    return window + _series_tails(delta, beta, n_hi, -n_lo, +1.0, +1.0)


@dataclass(frozen=True)
class MEvaluation:
    beta: float
    delta: float
    sign: int
    closed_form: float
    asymptotic: float
    quadrature_check: Optional[float] = None


@dataclass(frozen=True)
class BoundRow:
    beta: float
    lower: float
    upper: float
    nstar_ratio: float
    lower_adjusted: float
    upper_adjusted: float
    conjecture: float


def m_of(R, spec=None, inner=24.0):
    """M(R) for a band-limited R integrable against the density.

    Time-domain quadrature, valid for every dilation delta.
    """
    period = _common_period(R.delta)
    spec = spec or QuadratureSpec(oscillation_period=period)
    if spec.oscillation_period is None:
        spec = QuadratureSpec(spec.abs_tol, spec.rel_tol, spec.max_depth, period)

    def integrand(x):
        return np.asarray(R.time_eval(x), dtype=float) * pc_density(x)

    return integrate_real_line(integrand, spec, inner=inner)


def m_selberg(beta, delta=1.0, sign=+1, with_quadrature=False):
    """Half of M for the dilated interval sandwich, in closed form."""
    v = v_series(delta, beta, sign)  # validates beta, delta and sign
    closed = (
        beta + sign / (2.0 * delta)
        - (1.0 / delta) * (1.0 / (TWO_PI_SQ * beta)
                           - math.sin(2.0 * math.pi * beta)
                           / (4.0 * math.pi ** 3 * beta ** 2))
        - v
    )
    asym = beta - 0.5 + sign / (2.0 * delta) + 1.0 / (TWO_PI_SQ * beta)
    check = None
    if with_quadrature:
        pair = beurling.make_selberg_pair(beta, delta)
        fn = pair.majorant if sign > 0 else pair.minorant
        # the oscillatory tail extrapolation saturates near 1e-10 for
        # large beta; a 1e-9 budget keeps the check far below its 1e-7 use
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9,
                              oscillation_period=_common_period(delta))
        check = 0.5 * m_of(fn, spec=spec, inner=max(24.0, 4.0 * beta))
    return MEvaluation(beta=beta, delta=delta, sign=sign, closed_form=closed,
                       asymptotic=asym, quadrature_check=check)


def conjecture_integral(beta):
    """Mass of the pair correlation density on [0, beta].

    beta - Si(2 pi beta)/pi + sin(pi beta)^2/(pi^2 beta).  The three terms
    cancel to O(beta^3), so below beta = 0.05 the Taylor series
    (1/pi) sum_k (-1)^(k+1) x^(2k+1) / ((2k+1) (2k+2)!), x = 2 pi beta,
    takes over; five terms reach rounding there.
    """
    if not beta >= 0:
        raise DomainError("beta must be nonnegative")
    x = 2.0 * math.pi * beta
    if beta < 0.05:
        return sum((-1) ** (k + 1) * x ** (2 * k + 1)
                   / ((2 * k + 1) * math.factorial(2 * k + 2))
                   for k in range(1, 6)) / math.pi
    return (beta - sici(x)[0] / math.pi
            + math.sin(math.pi * beta) ** 2 / (math.pi ** 2 * beta))


def bound_table(betas, nstar_ratio=1.0):
    """Upper/lower bound rows on a beta grid.

    The multiplicity knob shifts both bounds by (1 - nstar_ratio)/2; with
    ratio 4/3 the lower bound drops by exactly 1/6.
    """
    betas = list(betas)
    if any(b <= 0 for b in betas):
        raise DomainError("beta grid must be positive")
    if sorted(betas) != betas:
        raise DomainError("beta grid must be ascending")
    if not 1.0 <= nstar_ratio <= 4.0 / 3.0 + 1e-12:
        raise DomainError("nstar_ratio must lie in [1, 4/3]")
    adj = 0.5 * (1.0 - nstar_ratio)
    rows = []
    for beta in betas:
        lower = m_selberg(beta, 1.0, -1).closed_form
        upper = m_selberg(beta, 1.0, +1).closed_form
        rows.append(BoundRow(beta=beta, lower=lower, upper=upper,
                             nstar_ratio=nstar_ratio,
                             lower_adjusted=lower + adj,
                             upper_adjusted=upper + adj,
                             conjecture=conjecture_integral(beta)))
    return rows


def q_aspect_bounds(beta, epsilon=1e-3):
    """Lower/upper pair at dilation 2 - epsilon (the widest usable band)."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    delta = 2.0 - epsilon
    return (m_selberg(beta, delta, -1).closed_form,
            m_selberg(beta, delta, +1).closed_form)


def positivity_threshold(tol=1e-6):
    """Smallest beta where the minorant bound turns positive."""

    def f(b):
        return m_selberg(b, 1.0, -1).closed_form

    grid = np.arange(0.5, 1.2, 0.01)
    vals = [f(b) for b in grid]
    for i in range(len(grid) - 1):
        if vals[i] < 0 <= vals[i + 1]:
            return find_root(f, bracket_from(f, grid[i], grid[i + 1]), tol)
    raise NonConvergence("no positivity crossing located in [0.5, 1.2]")
