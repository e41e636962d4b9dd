"""The pair correlation functional M and the closed-form bound tables.

M(R) integrates R against the pair correlation density 1 - sinc^2.  For
the dilated interval sandwiches the value collapses to an elementary
expression plus the lattice series V; the series is summed over a window
[-10, floor(c) + 10], c = delta*beta, around 0 and the resonance, and its
two tails are rolled up exactly.  Past the window ends each tail is a sum
over n = M + k, k >= 0, with M >= ceil(SHIFT) = 10: trigamma for the
constant part, and for the oscillatory part, z = exp(i theta) with
theta = 2 pi/delta, the Lerch sums

    sum_k z^k / (M + k)^q = (1/Gamma(q)) int_0^inf t^(q-1) e^(-M t)
                            / (1 - z e^(-t)) dt,        q = 2, 3,

one Laplace integral each.  A trapezoid rule in u = log t, step 1/8 on
[-40, 2.125] (338 nodes), takes them; it is the kind of rule pcx.special
uses for Si.  The integrand is analytic in the strip |Im u| < pi/2, with
the poles t = i(theta + 2 pi k) on its edge, where e^(-M t) does not
decay, so the step is half of Si's; the cut ends drop under e^-80 below
and exp(-10 e^2.125) < 1e-36 above.  The denominator is formed as
2 e^-t sin^2(theta/2) - expm1(-t) - i e^-t sin theta, which does not
cancel as z -> 1 (delta -> 1+).  Against 40-digit Lerch transcendents
the rule errs by at most 8e-16 relative, for M in [10, 2e5] and delta in
[1 + 2^-52, 1e6], so V is right to rounding for every delta >= 1, at a
cost that does not depend on delta.  At delta = 1 exactly z = 1, and the
oscillatory tails are polygammas too.  Trigamma, tetragamma and the sine
integral of the conjectured mass come from pcx.special; the polygammas
are taken at M >= SHIFT, where no step of their recurrence is needed.

m_selberg, conjecture_integral and bound_table take an array of beta and
work on all of it in numpy passes; a float is an array of one.  The
window depends on beta only through floor(c), so the betas are grouped by
floor(c) and each group's windows form a matrix, one row per beta, in
blocks of rows that hold at most _BLOCK window terms and tail nodes.  A
row sum along the last axis adds the terms in the same pairwise order as
a 1-D sum of that row alone, so no value depends on the other betas of
the call.  The window terms and the tails do not depend on the sign of
the sandwich; only the n = 0 entry of the sign pattern does, so both
signs share one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (DomainError, NonConvergence, find_root,
                       integrate_real_line)
from .special import SHIFT, _out, sine_integral, trigamma_tetragamma

TWO_PI_SQ = 2.0 * math.pi ** 2
# terms of the window past 0 and past the resonance
_MARGIN = math.ceil(SHIFT)
# trapezoid nodes t = e^u, u = -40, -39.875, ..., 2.125, of the tails'
# Laplace integral, and the step
_TAIL_H = 0.125
_TAIL_T = np.exp(_TAIL_H * np.arange(-320, 18))
# window terms and tail nodes (two ends) per block of rows, a bound on
# the size of each temporary: 256 kB.  On 0.05:10:0.005 at delta = 1.5,
# 2^14 to 2^16 time alike (35-50 ms, 2-core x86 host), with tracemalloc
# peaks of 0.6 to 1.9 MB
_BLOCK = 2 ** 15
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


def _lerch_tails(a, m):
    """exp(i a m) sum_k z^k / (m + k)^q for q = 2 and 3, z = exp(i a), at
    each m >= 10 of an array, from the Laplace integral of the module
    docstring; z must not be 1.  Each node weight is complex, and its real
    and imaginary parts are summed as two real rows."""
    t = _TAIL_T
    e = np.exp(-t)
    den = (2.0 * e * math.sin(0.5 * a) ** 2 - np.expm1(-t)
           - 1j * e * math.sin(a))
    weights = _TAIL_H * np.array([t ** 2, 0.5 * t ** 3]) / den
    decay = np.exp(-m[..., np.newaxis] * t)
    phase = np.exp(1j * a * m)
    return [phase * (np.add.reduce(decay * w.real, axis=-1)
                     + 1j * np.add.reduce(decay * w.imag, axis=-1))
            for w in weights]


def _series_tails(delta, beta, m_right, k_left, s_right, s_left):
    """Exact tails of the lattice series beyond the summation window, for
    a float or an array of beta.

    m_right: largest n included; k_left: largest -n included.  s_right and
    s_left are the signs attached to the two ends of the bilateral sum.
    The two ends are stacked along a first axis of length 2, at
    m = m_right + 1 - c and k_left + 1 + c, so each function of the tails
    is one call.
    """
    a = 2.0 * math.pi / delta
    c = delta * np.asarray(beta, dtype=float)
    inv4pi2 = 1.0 / (4.0 * math.pi ** 2)
    m = np.array([m_right + 1 - c, k_left + 1 + c])
    psi1, psi2 = trigamma_tetragamma(m)
    # Re of exp(i a c) s2 and Im of exp(i a c) s3, s_q the oscillatory sum
    # of each end; at z = 1, s2 = psi1 and s3 = -psi2/2
    if delta == 1.0:
        # exp(i a c), as its real and imaginary parts
        ac = (a * c) % (2.0 * math.pi)
        cos_r, sin_r = np.cos(ac), np.sin(ac)
        re2, im3 = cos_r * psi1, sin_r * (-0.5 * psi2)
    else:
        # the right end sums conj(z)^n, the left end z^n
        p2, p3 = _lerch_tails(a, m)
        re2, im3 = p2.real, np.array([-p3[0].imag, p3[1].imag])
    even = (delta + 1.0) * psi1 - (delta - 1.0) * re2
    odd = (delta / math.pi) * im3
    right = inv4pi2 * (even[0] + odd[0])
    left = inv4pi2 * (even[1] - odd[1])
    return s_right * right + s_left * left


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

    The window [-_MARGIN, floor(c) + _MARGIN] straddles n = 0 (where the
    sign pattern flips) and the resonance c = delta*beta, so every beta
    with the same floor(c) has the same window.  Yields (rows, n, terms,
    n_lo, n_hi): rows index beta, and terms holds one row per index.  A
    block holds at most _BLOCK window terms and tail nodes, unless one row
    is wider; at delta = 1 the tails take no node.
    """
    if not len(beta):
        return
    c = delta * beta
    nodes = 0 if delta == 1.0 else 2 * len(_TAIL_T)
    floors = np.floor(c)
    order = np.argsort(floors, kind="stable")
    ordered = floors[order]
    edges = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for start, stop in zip([0] + edges, edges + [len(order)]):
        n_lo, n_hi = -_MARGIN, int(floors[order[start]]) + _MARGIN
        per = max(1, _BLOCK // (n_hi - n_lo + 1 + nodes))
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
class BoundTable:
    """The columns of bound_table, one array each, one entry per beta."""
    beta: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lower_adjusted: np.ndarray
    upper_adjusted: np.ndarray
    conjecture: np.ndarray


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
    """Upper/lower bound columns on an ascending beta grid (a sequence or
    an array), from the interval sandwich of type 2 pi delta (m_selberg);
    delta = 2 - epsilon is the widest usable band (the q-aspect bounds).

    The multiplicity knob shifts both bounds by (1 - nstar_ratio)/2; with
    ratio 4/3 the lower bound drops by exactly 1/6.  Both signs and the
    conjectured mass are taken over the whole grid at once.
    """
    betas = np.array(betas, dtype=float, ndmin=1)
    if (betas <= 0).any():
        raise DomainError("beta grid must be positive")
    if (betas[1:] < betas[:-1]).any():
        raise DomainError("beta grid must be ascending")
    if not 1.0 <= nstar_ratio <= 4.0 / 3.0 + 1e-12:
        raise DomainError("nstar_ratio must lie in [1, 4/3]")
    adj = 0.5 * (1.0 - nstar_ratio)
    lower, upper = m_selberg(betas, delta, _BOTH_SIGNS).closed_form
    return BoundTable(beta=betas, lower=lower, upper=upper,
                      lower_adjusted=lower + adj, upper_adjusted=upper + adj,
                      conjecture=conjecture_integral(betas))


def positivity_threshold(tol=1e-6):
    """Smallest beta where the minorant bound turns positive."""

    def f(b):
        return m_selberg(b, 1.0, -1).closed_form

    roots = find_root(f, np.arange(0.5, 1.2, 0.01), tol)
    if not len(roots):
        raise NonConvergence("no positivity crossing located in [0.5, 1.2]")
    return float(roots[0])
