"""The pair correlation functional M and the closed-form bound tables.

M(R) integrates R against the pair correlation density 1 - sinc^2.  For
the dilated interval sandwiches the value collapses to an elementary
expression plus the lattice series V; the series is summed over a window
around 0 and the resonance, with its two tails rolled up exactly (trigamma
for the constant part, iterated Abel summation for the oscillatory part).
The window reaches just far enough for the Abel remainder to drop below
rounding, and at least ceil(SHIFT) terms past 0 and the resonance, so the
polygammas of the tails take no recurrence step.  Trigamma, tetragamma
and the sine integral of the conjectured mass come from pcx.special.

m_selberg, conjecture_integral and bound_table take an array of beta and
work on all of it in numpy passes; a float is an array of one.  The
window [-m, floor(c) + m], c = delta*beta, depends on beta only through
floor(c), so the betas are grouped by floor(c) and each group's windows
form a matrix, one row per beta, in blocks of at most _BLOCK terms.  A
row sum along axis 1 adds the terms in the same pairwise order as a 1-D
sum of that row alone, so no value depends on the other betas of the
call.  The window terms and the tails do not depend on the sign of the
sandwich; only the n = 0 entry of the sign pattern does, so both signs
share one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (DomainError, NonConvergence, find_root,
                       integrate_real_line)
from .special import SHIFT, _out, sine_integral, trigamma_tetragamma

TWO_PI_SQ = 2.0 * math.pi ** 2
ABEL_LEVELS = 6
# absolute accuracy asked of each Abel-summed tail: below the rounding of
# the O(1) terms the lattice series is combined with
TAIL_TOL = 1e-16
# largest tail margin; the window then has at most c + 18001 terms
MAX_MARGIN = 9_000
# window terms per block of rows: one row of the widest window at c < 1,
# so that no block's temporaries outgrow those of a single row at the cap
_BLOCK = 2 * MAX_MARGIN + 1
# largest c = delta*beta: its window holds about c terms, and m_selberg at
# c = 10^7 takes 1.5 s and 570 MB peak (2-core x86 host)
MAX_C = 10 ** 7


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


def _abel_osc_sum(theta, c, m_last, q):
    """Sum of exp(i*theta*n)/(n - c)**q over n > m_last, for each c of an
    array; exp(i*theta) must be away from 1 (the caller takes trigamma and
    tetragamma there).

    Iterated summation by parts; each level trades a factor ~1/(m|1-z|).
    The differences are taken in extended precision: level k multiplies
    the rounding of the terms by |1-z|^-k, which near delta = 1 would
    otherwise dominate the truncation error.
    """
    z = cmath.exp(1j * theta)
    n = m_last + 1 + np.arange(ABEL_LEVELS + 1, dtype=np.longdouble)
    a = 1.0 / (n - np.asarray(c, dtype=np.longdouble)[..., np.newaxis]) ** q
    total = 0.0 + 0.0j
    zpow = cmath.exp(1j * (theta * (m_last + 1) % (2.0 * math.pi)))
    factor = zpow / (1.0 - z)
    for _ in range(ABEL_LEVELS):
        total = total + factor * a[..., 0].astype(float)
        a = np.diff(a, axis=-1)
        factor *= z / (1.0 - z)
    return total


def _series_tails(delta, beta, m_right, k_left, s_right, s_left):
    """Exact tails of the lattice series beyond the summation window, for
    a float or an array of beta.

    m_right: largest n included; k_left: largest -n included.  s_right and
    s_left are the signs attached to the two ends of the bilateral sum.
    The two ends are stacked along a first axis of length 2, so their
    polygammas come from one call.
    """
    a = 2.0 * math.pi / delta
    c = delta * np.asarray(beta, dtype=float)
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)
    # exp(i a c), as its real and imaginary parts
    ac = (a * c) % (2.0 * math.pi)
    cos_r, sin_r = np.cos(ac), np.sin(ac)

    psi1, psi2 = trigamma_tetragamma(np.array([m_right + 1 - c,
                                               k_left + 1 + c]))
    # Re and Im of exp(i a c) s2 and exp(i a c) s3, formed as complex
    # multiplication forms them; at z = 1, s2 = psi1 and s3 = -psi2/2
    if abs(cmath.exp(1j * a) - 1.0) < 1e-9:
        re2, im3 = cos_r * psi1, sin_r * (-0.5 * psi2)
    else:
        s2 = np.array([_abel_osc_sum(-a, c, m_right, 2),
                       _abel_osc_sum(a, -c, k_left, 2)])
        s3 = np.array([_abel_osc_sum(-a, c, m_right, 3),
                       _abel_osc_sum(a, -c, k_left, 3)])
        re2 = cos_r * s2.real - sin_r * s2.imag
        im3 = cos_r * s3.imag + sin_r * s3.real
    even = (delta + 1.0) * psi1 - (delta - 1.0) * re2
    odd = (delta / math.pi) * im3
    right = inv4pi2 * (even[0] + odd[0])
    left = inv4pi2 * (even[1] - odd[1])
    return s_right * right + s_left * left


def _tail_margin(delta):
    """Distance from the window ends to 0 and to c beyond which both
    Abel-summed tails are accurate to TAIL_TOL, and never below
    ceil(SHIFT).

    After L levels the remainder of sum_{n>m} z^n/(n - c)^q is at most
    (q)_{L-1} / (|1 - z|^L (m - c)^{q+L-1}); the q = 2 tail carries the
    weight (delta - 1)/(4 pi^2) and the q = 3 tail delta/(4 pi^3).  At
    delta = 1 (z = 1) the polygamma tails are exact for any margin.  The
    tails take psi1 and psi2 at m + 1 - frac(c) and m + 1 + c, above SHIFT
    once m >= ceil(SHIFT), so pcx.special sums its asymptotic series there
    without a step of its recurrence; the window holds the terms those
    steps would add.
    """
    gap = abs(1.0 - cmath.exp(2j * math.pi / delta))
    margin = SHIFT
    if gap >= 1e-9:
        for q, weight in ((2, (delta - 1.0) / (4.0 * math.pi ** 2)),
                          (3, delta / (4.0 * math.pi ** 3))):
            bound = (weight * math.factorial(q + ABEL_LEVELS - 2)
                     / math.factorial(q - 1) / gap ** ABEL_LEVELS)
            margin = max(margin,
                         (bound / TAIL_TOL) ** (1 / (q + ABEL_LEVELS - 1)))
    return min(MAX_MARGIN, math.ceil(margin))


def _checked_betas(delta, beta):
    """beta as a flat float array, once beta and delta are in the domain
    of the lattice series and no window would exceed MAX_C terms."""
    b = np.asarray(beta, dtype=float).reshape(-1)
    if not ((0.0 < b) & (b < math.inf)).all():
        raise DomainError("beta must be positive")
    if not 1 <= delta < math.inf:
        raise DomainError("delta must be at least 1")
    if not (delta * b <= MAX_C).all():
        raise DomainError(f"delta*beta must be at most {MAX_C:,}: the "
                          "lattice window would hold that many terms")
    return b


def _lattice_sum(delta, c, n_lo, n_hi):
    """Window terms of the bilateral series, near-resonant entries expanded.

    Row i holds the terms at n = n_lo, ..., n_hi for c[i] = delta*beta.
    Returns (n, terms); callers attach the sign pattern and the exact tails.
    """
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    u = c[:, np.newaxis] - n
    a = 2.0 * math.pi / delta
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)

    phi = a * u
    near = np.abs(u) < 1e-4
    resonant = near.any()
    safe = np.where(near, 1.0, u) if resonant else u
    terms = inv4pi2 * ((
        -(delta - 1.0) * np.cos(phi)
        + (delta + 1.0)
        - np.sin(phi) * delta / (math.pi * safe)
    ) / safe ** 2)
    if resonant:
        # analytic continuation across the resonance u -> 0
        u2 = u[near] ** 2
        terms[near] = inv4pi2 * (
            a ** 2 * ((delta - 1.0) / 2.0 + 1.0 / 3.0)
            - a ** 4 * u2 * ((delta - 1.0) / 24.0 + 1.0 / 60.0)
            + a ** 6 * u2 ** 2 * ((delta - 1.0) / 720.0 + 1.0 / 2520.0)
        )
    return n, terms


def _windows(delta, beta):
    """The window terms of a flat array of beta, a block of rows at a time.

    The window [-m, floor(c) + m] straddles n = 0 (where the sign pattern
    flips) and the resonance c = delta*beta, so every beta with the same
    floor(c) has the same window.  Yields (rows, n, terms, n_lo, n_hi):
    rows index beta, and terms holds one row per index, at most _BLOCK
    terms per block unless one row is wider.
    """
    if not len(beta):
        return
    c = delta * beta
    margin = _tail_margin(delta)
    floors = np.floor(c)
    order = np.argsort(floors, kind="stable")
    ordered = floors[order]
    edges = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for start, stop in zip([0] + edges, edges + [len(order)]):
        n_lo, n_hi = -margin, int(floors[order[start]]) + margin
        per = max(1, _BLOCK // (n_hi - n_lo + 1))
        for i in range(start, stop, per):
            rows = order[i:min(i + per, stop)]
            n, terms = _lattice_sum(delta, c[rows], n_lo, n_hi)
            yield rows, n, terms, n_lo, n_hi


def _v_both(delta, beta):
    """The signed lattice series at sign -1 and +1 for a flat array of
    beta, shape (2, len(beta)).

    The window terms and the tails are the same for both signs; only the
    n = 0 entry of the sign pattern differs.  Each row is summed along the
    last axis, which adds its terms in the same order as a 1-D sum of that
    row alone.
    """
    v = np.empty((2, len(beta)))
    for rows, n, terms, n_lo, n_hi in _windows(delta, beta):
        # sgn(n), with the weight -1 and then +1 at n = 0
        pattern = np.array([np.sign(n)] * 2)
        pattern[:, -n_lo] = (-1.0, 1.0)
        v[:, rows] = (np.add.reduce(pattern[:, np.newaxis] * terms, axis=-1)
                      + _series_tails(delta, beta[rows], n_hi, -n_lo,
                                      +1.0, -1.0))
    return v


def _v_at(delta, beta, sign):
    """beta and sign as arrays, and the signed lattice series at sign
    broadcast against beta, once all three are checked."""
    beta = np.asarray(beta, dtype=float)
    b = _checked_betas(delta, beta)
    sign = np.asarray(sign)
    if not (np.abs(sign) == 1).all():
        raise DomainError("sign must be +1 or -1")
    minus, plus = _v_both(delta, b).reshape((2,) + beta.shape)
    return beta, sign, np.where(sign > 0, plus, minus)


def v_series(delta, beta, sign):
    """The signed lattice series; sign picks the weight of the n=0 term.

    beta is a float or an array; sign is +1, -1, or an array of them that
    broadcasts against beta.
    """
    return _out(_v_at(delta, beta, sign)[2])


@dataclass(frozen=True)
class MEvaluation:
    beta: float
    delta: float
    sign: int
    closed_form: float
    asymptotic: float


@dataclass(frozen=True)
class BoundRow:
    beta: float
    lower: float
    upper: float
    lower_adjusted: float
    upper_adjusted: float
    conjecture: float


def m_of(R):
    """M(R) for a band-limited R integrable against the density.

    Time-domain sampling sum, valid for every dilation delta: R has type
    2 pi delta and the density type 2 pi, so the integrand's transform
    vanishes outside [-(delta + 1), delta + 1], and both repeat their
    oscillation over _common_period(delta).
    """
    def integrand(x):
        return np.asarray(R.time_eval(x), dtype=float) * pc_density(x)

    return integrate_real_line(integrand, R.delta + 1.0,
                               _common_period(R.delta))


def m_selberg(beta, delta=1.0, sign=+1):
    """Half of M for the dilated interval sandwich, in closed form.

    beta is a float or an array, sign +1, -1 or an array of them that
    broadcasts against beta; the fields come out as floats for a float
    beta and sign, as arrays otherwise.
    """
    beta, sign, v = _v_at(delta, beta, sign)
    # rest = (x - sin x) / (pi delta x^2), x = 2 pi beta, cancels its two
    # O(1/beta) terms: below beta = 0.05 it is the Taylor series (1/(pi delta))
    # sum_k (-1)^(k+1) x^(2k-1) / (2k+1)!, to rounding at seven terms
    small = beta < 0.05
    some_small = small.any()
    b = np.where(small, 1.0, beta) if some_small else beta
    inv = 1.0 / (TWO_PI_SQ * b)
    rest = (1.0 / delta) * (inv - np.sin(2.0 * math.pi * b)
                            / (4.0 * math.pi ** 3 * b ** 2))
    if some_small:
        x = 2.0 * math.pi * beta
        series = sum((-1) ** (k + 1) * x ** (2 * k - 1)
                     / math.factorial(2 * k + 1) for k in range(1, 8))
        rest = np.where(small, series / (math.pi * delta), rest)
        # the asymptotic form's 1/beta is inf below beta ~ 2.8e-310
        with np.errstate(over="ignore"):
            inv = 1.0 / (TWO_PI_SQ * beta)
    half = sign / (2.0 * delta)
    closed = beta + half - rest - v
    asym = beta - 0.5 + half + inv
    return MEvaluation(beta=_out(beta), delta=delta, sign=_out(sign),
                       closed_form=_out(closed), asymptotic=_out(asym))


def conjecture_integral(beta):
    """Mass of the pair correlation density on [0, beta], for a float or
    an array of beta.

    beta - Si(2 pi beta)/pi + sin(pi beta)^2/(pi^2 beta).  The three terms
    cancel to O(beta^3), so below beta = 0.05 the Taylor series
    (1/pi) sum_k (-1)^(k+1) x^(2k+1) / ((2k+1) (2k+2)!), x = 2 pi beta,
    takes over; five terms reach rounding there.
    """
    beta = np.asarray(beta, dtype=float)
    flat = beta.reshape(-1)
    if not (flat >= 0).all():
        raise DomainError("beta must be nonnegative")
    small = flat < 0.05
    some_small = small.any()
    # the closed form would divide by zero at beta = 0; it is not used there
    b = np.where(small, 1.0, flat) if some_small else flat
    mass = (b - sine_integral(2.0 * math.pi * b) / math.pi
            + np.sin(math.pi * b) ** 2 / (math.pi ** 2 * b))
    if some_small:
        x = 2.0 * math.pi * flat[small]
        mass[small] = sum((-1) ** (k + 1) * x ** (2 * k + 1)
                          / ((2 * k + 1) * math.factorial(2 * k + 2))
                          for k in range(1, 6)) / math.pi
    return _out(mass.reshape(beta.shape))


# both signs of the sandwich, broadcast against a flat beta array:
# row 0 the minorant (lower bound), row 1 the majorant (upper bound)
_BOTH_SIGNS = np.array([[-1], [+1]])


def bound_table(betas, nstar_ratio=1.0, delta=1.0):
    """Upper/lower bound rows on a beta grid, from the interval sandwich
    of type 2 pi delta (m_selberg); delta = 2 - epsilon is the widest
    usable band (the q-aspect bounds).

    The multiplicity knob shifts both bounds by (1 - nstar_ratio)/2; with
    ratio 4/3 the lower bound drops by exactly 1/6.  Both signs and the
    conjectured mass are taken over the whole grid at once.
    """
    betas = np.asarray(list(betas), dtype=float)
    if (betas <= 0).any():
        raise DomainError("beta grid must be positive")
    if (betas[1:] < betas[:-1]).any():
        raise DomainError("beta grid must be ascending")
    if not 1.0 <= nstar_ratio <= 4.0 / 3.0 + 1e-12:
        raise DomainError("nstar_ratio must lie in [1, 4/3]")
    adj = 0.5 * (1.0 - nstar_ratio)
    lower, upper = m_selberg(betas, delta, _BOTH_SIGNS).closed_form
    conjecture = conjecture_integral(betas)
    return [BoundRow(beta=b, lower=lo, upper=up, lower_adjusted=lo + adj,
                     upper_adjusted=up + adj, conjecture=cj)
            for b, lo, up, cj in zip(betas.tolist(), lower.tolist(),
                                     upper.tolist(), conjecture.tolist())]


def positivity_threshold(tol=1e-6):
    """Smallest beta where the minorant bound turns positive."""

    def f(b):
        return m_selberg(b, 1.0, -1).closed_form

    roots = find_root(f, np.arange(0.5, 1.2, 0.01), tol)
    if not len(roots):
        raise NonConvergence("no positivity crossing located in [0.5, 1.2]")
    return float(roots[0])
