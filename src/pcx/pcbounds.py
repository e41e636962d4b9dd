"""The pair correlation functional M and the closed-form bound tables.

M(R) integrates R against the pair correlation density 1 - sinc^2.  For
the dilated interval sandwiches the value collapses to an elementary
expression plus the signed lattice series V, c = delta*beta,

    V = (1/(4 pi^2)) sum_n sgn(n) [(delta + 1) - (delta - 1) cos(a u)
                                   - delta sin(a u)/(pi u)] / u^2,

u = c - n, a = 2 pi/delta, and sgn(0) = s, the sign of the sandwich.

At delta = 1 (the paper's band) every sin(a u) is sin(2 pi beta), and
the unsigned series is exactly 1/2, so V = 1/2 - 2L + (s - 1) t0 in
closed form: t0 = rest/beta is the n = 0 term (rest below), and
L = [2 psi1(beta + 1) + sin(2 pi beta) psi2(beta + 1)/(2 pi)]/(4 pi^2)
the sum over n < 0.  psi1 and psi2 at beta + 1 are their values at
beta + 11 plus the ten steps of the recurrence, added in one row with
the terms.  At beta in N/2 this is Gallagher's
m+ = beta - 1/(2 pi^2 beta) + psi1(beta + 1)/pi^2.

For delta > 1 the series is summed over a window [-10, floor(c) + 10]
around 0 and the resonance, and its two tails are rolled up exactly.
Past the window ends each tail is a sum over n = M + k, k >= 0, with
M >= ceil(SHIFT) = 10: trigamma for the constant part, and for the
oscillatory part, z = exp(i a), the Lerch sums

    sum_k z^k / (M + k)^q = (1/Gamma(q)) int_0^inf t^(q-1) e^(-M t)
                            / (1 - z e^(-t)) dt,        q = 2, 3,

one Laplace integral each.  A trapezoid rule in u = log t, step 1/8 on
[-40, 2.125] (338 nodes), takes them; it is the kind of rule pcx.special
uses for Si.  The integrand is analytic in the strip |Im u| < pi/2, with
the poles t = i(a + 2 pi k) on its edge, where e^(-M t) does not
decay, so the step is half of Si's; the cut ends drop under e^-80 below
and exp(-10 e^2.125) < 1e-36 above.  The denominator is formed as
2 e^-t sin^2(a/2) - expm1(-t) - i e^-t sin a, which does not cancel as
z -> 1 (delta -> 1+).  Against 40-digit Lerch transcendents the rule
errs by at most 8e-16 relative, for M in [10, 2e5] and delta in
[1 + 2^-52, 1e6], so V is right to rounding for every delta > 1, at a
cost that does not depend on delta.  Trigamma, tetragamma and the sine
integral of the conjectured mass come from pcx.special; the polygammas
are taken at arguments of at least SHIFT, where no step of their
recurrence is needed.

m_selberg, conjecture_integral and bound_table take an array of beta and
work on all of it in numpy passes; a float is an array of one.  Each
checks its input once and then calls the same internals: _sandwich forms
the minorant and the majorant as two rows, and _conjecture the
conjectured mass, both from x = 2 pi beta, which bound_table takes once
for all three columns.  bound_table also needs a 1-D ascending grid, and
m_selberg picks a row for each sign.  For delta > 1 the window depends
on beta only through floor(c), so the betas are grouped by floor(c) and
each group's windows form a matrix, one row per beta, in blocks of rows
that hold at most _BLOCK window terms and tail nodes.  A row sum along
the last axis adds the terms in the same pairwise order as a 1-D sum of
that row alone, so no value depends on the other betas of the call.
The series differs between the signs of the sandwich only in the n = 0
entry, so both signs share one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, NoRoot, find_root, integrate_real_line
from .special import SHIFT, _out, _si, trigamma, trigamma_tetragamma

TWO_PI_SQ = 2.0 * math.pi ** 2
_INV_4PI2 = 1.0 / (4.0 * math.pi ** 2)
# terms of the window past 0 and past the resonance, and the terms of L
# before its tail at delta = 1
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
# largest c = delta*beta, at every delta: the window of delta > 1 holds
# about c terms, and m_selberg there at c = 10^7 takes 1.5 s and 570 MB
# peak (2-core x86 host)
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
    docstring.  Each node weight is complex, and its real and imaginary
    parts are summed as two real rows."""
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
    m = np.array([m_right + 1 - c, k_left + 1 + c])
    psi1 = trigamma(m)
    # Re of exp(i a c) s2 and Im of exp(i a c) s3, s_q the oscillatory sum
    # of each end: the right end sums conj(z)^n, the left end z^n
    p2, p3 = _lerch_tails(a, m)
    re2, im3 = p2.real, np.array([-p3[0].imag, p3[1].imag])
    even = (delta + 1.0) * psi1 - (delta - 1.0) * re2
    odd = (delta / math.pi) * im3
    right = _INV_4PI2 * (even[0] + odd[0])
    left = _INV_4PI2 * (even[1] - odd[1])
    return s_right * right + s_left * left


def _checked_betas(delta, beta):
    """beta as a flat float array, once delta >= 1 and beta is positive
    and finite, with delta*beta at most MAX_C."""
    b = np.asarray(beta, dtype=float).reshape(-1)
    if not 1 <= delta < math.inf:
        raise DomainError("delta must be at least 1")
    # MAX_C/delta, unlike delta*beta, cannot overflow; NaN fails both
    if not ((0.0 < b) & (b <= MAX_C / delta)).all():
        raise DomainError(f"beta must be positive and delta*beta must be at "
                          f"most {MAX_C:,}, the window's size at delta > 1")
    return b


def _lattice_sum(delta, c, n_lo, n_hi):
    """Window terms of the bilateral series, near-resonant entries expanded.

    Row i holds the terms at n = n_lo, ..., n_hi for c[i] = delta*beta.
    Returns (n, terms); callers attach the sign pattern and the exact tails.
    """
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    u = c[:, np.newaxis] - n
    a = 2.0 * math.pi / delta

    phi = a * u
    near = np.abs(u) < 1e-4
    resonant = near.any()
    safe = np.where(near, 1.0, u) if resonant else u
    even = -(delta - 1.0) * np.cos(phi) + (delta + 1.0)
    terms = _INV_4PI2 * ((even - np.sin(phi) * delta / (math.pi * safe))
                         / safe ** 2)
    if resonant:
        # analytic continuation across the resonance u -> 0
        u2 = u[near] ** 2
        terms[near] = _INV_4PI2 * (
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
    is wider.
    """
    if not len(beta):
        return
    c = delta * beta
    floors = np.floor(c)
    order = np.argsort(floors, kind="stable")
    ordered = floors[order]
    edges = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for start, stop in zip([0] + edges, edges + [len(order)]):
        n_lo, n_hi = -_MARGIN, int(floors[order[start]]) + _MARGIN
        per = max(1, _BLOCK // (n_hi - n_lo + 1 + 2 * len(_TAIL_T)))
        for i in range(start, stop, per):
            rows = order[i:min(i + per, stop)]
            n, terms = _lattice_sum(delta, c[rows], n_lo, n_hi)
            yield rows, n, terms, n_lo, n_hi


def _v_closed(beta, sin_x, t0):
    """The signed lattice series at delta = 1, sign -1 and +1, for a flat
    array of beta: 1/2 - 2L - 2 t0 and 1/2 - 2L.

    sin_x is sin(2 pi beta) and t0 the n = 0 term.  The row of each beta
    holds the terms of L at n = -1, ..., -10 and then its tail past them,
    from psi1 and psi2 at beta + 11 (module docstring).
    """
    y = beta[:, np.newaxis] + np.arange(1.0, _MARGIN + 1)
    psi1, psi2 = trigamma_tetragamma(beta + (_MARGIN + 1))
    odd = sin_x / math.pi
    row = np.concatenate([(2.0 - odd[:, np.newaxis] / y) / y ** 2,
                          (2.0 * psi1 + 0.5 * odd * psi2)[:, np.newaxis]], 1)
    half = 0.5 - np.add.reduce(row, axis=-1) / TWO_PI_SQ
    return half - 2.0 * t0, half


def _v_both(delta, beta):
    """The signed lattice series at sign -1 and +1 for a flat array of
    beta and delta > 1, shape (2, len(beta)).

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


def _series(delta, b, x, sin_x):
    """rest = (x - sin x)/(pi delta x^2) and the signed lattice series at
    sign -1 and +1, for a flat, checked array b of beta, x = 2 pi b.

    rest cancels its two O(1/beta) terms, and so does t0 = rest/beta, the
    n = 0 term of the series at delta = 1: below beta = 0.05 they are the
    Taylor series (1/(pi delta)) sum_k (-1)^(k+1) x^(2k-1) / (2k+1)! and
    (2/delta) sum_k (-1)^(k+1) x^(2k-2) / (2k+1)!, to rounding at seven
    terms.
    """
    # the closed forms, which cancel below 0.05, are not used there
    safe = np.maximum(b, 0.05)
    inv = 1.0 / (TWO_PI_SQ * safe)
    rest = (1.0 / delta) * (inv - sin_x / (4.0 * math.pi ** 3 * safe ** 2))
    t0 = rest / safe
    small = b < 0.05
    if small.any():
        def taylor(p):
            return sum((-1) ** (k + 1) * x ** (2 * k - p)
                       / math.factorial(2 * k + 1) for k in range(1, 8))

        rest = np.where(small, taylor(1) / (math.pi * delta), rest)
        t0 = np.where(small, taylor(2) * (2.0 / delta), t0)
    return rest, (_v_closed(b, sin_x, t0) if delta == 1.0
                  else _v_both(delta, b))


def _sandwich(delta, b, x):
    """Half of M for the minorant and for the majorant (sign -1 and +1),
    as two rows, for a flat, checked array b of beta, x = 2 pi b."""
    rest, (minus, plus) = _series(delta, b, x, np.sin(x))
    half = 1.0 / (2.0 * delta)
    return b - half - rest - minus, b + half - rest - plus


def _conjecture(b, x):
    """conjecture_integral of a flat, checked array b, x = 2 pi b."""
    # the closed form would divide by zero at beta = 0; it is not used
    # below 0.05
    safe = np.maximum(b, 0.05)
    mass = (safe - _si(x) / math.pi
            + np.sin(math.pi * safe) ** 2 / (math.pi ** 2 * safe))
    small = b < 0.05
    if small.any():
        xs = x[small]
        mass[small] = sum((-1) ** (k + 1) * xs ** (2 * k + 1)
                          / ((2 * k + 1) * math.factorial(2 * k + 2))
                          for k in range(1, 6)) / math.pi
    return mass


@dataclass(frozen=True)
class MEvaluation:
    beta: float
    delta: float
    sign: int
    closed_form: float


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
    beta = np.asarray(beta, dtype=float)
    b = _checked_betas(delta, beta)
    sign = np.asarray(sign)
    if not (np.abs(sign) == 1).all():
        raise DomainError("sign must be +1 or -1")
    minus, plus = np.reshape(_sandwich(delta, b, 2.0 * math.pi * b),
                             (2,) + beta.shape)
    return MEvaluation(beta=_out(beta), delta=delta, sign=_out(sign),
                       closed_form=_out(np.where(sign > 0, plus, minus)))


def conjecture_integral(beta):
    """Mass of the pair correlation density on [0, beta], for a float or
    an array of beta.

    beta - Si(2 pi beta)/pi + sin(pi beta)^2/(pi^2 beta).  The three terms
    cancel to O(beta^3), so below beta = 0.05 the Taylor series
    (1/pi) sum_k (-1)^(k+1) x^(2k+1) / ((2k+1) (2k+2)!), x = 2 pi beta,
    takes over; five terms reach rounding there.
    """
    b = np.asarray(beta, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        x = 2.0 * math.pi * b
    if not ((0.0 <= b) & (x < math.inf)).all():
        raise DomainError("beta must be nonnegative, with 2 pi beta finite")
    return _out(_conjecture(b, x).reshape(np.shape(beta)))


def bound_table(betas, nstar_ratio=1.0, delta=1.0):
    """Upper/lower bound columns on an ascending beta grid (a sequence or
    a 1-D array), from the interval sandwich of type 2 pi delta
    (m_selberg); delta = 2 - epsilon is the widest usable band (the
    q-aspect bounds).

    The multiplicity knob shifts both bounds by (1 - nstar_ratio)/2; with
    ratio 4/3 the lower bound drops by exactly 1/6.  The grid is checked
    once, and both bounds and the conjectured mass are taken over all of
    it in one pass, from one x = 2 pi beta.
    """
    b = np.array(betas, dtype=float, ndmin=1)
    if b.ndim != 1 or len(b) > 1 and (b[1:] < b[:-1]).any():
        raise DomainError("beta grid must be one-dimensional and ascending")
    _checked_betas(delta, b)
    if not 1.0 <= nstar_ratio <= 4.0 / 3.0 + 1e-12:
        raise DomainError("nstar_ratio must lie in [1, 4/3]")
    adj = 0.5 * (1.0 - nstar_ratio)
    x = 2.0 * math.pi * b
    lower, upper = _sandwich(delta, b, x)
    return BoundTable(beta=b, lower=lower, upper=upper,
                      lower_adjusted=lower + adj, upper_adjusted=upper + adj,
                      conjecture=_conjecture(b, x))


def positivity_threshold(tol=1e-6):
    """Smallest beta where the minorant bound turns positive."""

    def f(b):
        return m_selberg(b, 1.0, -1).closed_form

    roots = find_root(f, np.arange(0.5, 1.2, 0.01), tol)
    if not len(roots):
        raise NoRoot("no positivity crossing located in [0.5, 1.2]")
    return float(roots[0])
