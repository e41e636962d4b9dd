"""The extremal sgn-approximant family and interval majorants/minorants.

H0 is the odd entire interpolant of sgn with type 2pi, H1 = sinc^2 its
companion correction; H(+/-) = H0 +/- H1 majorize/minorize sgn.  Averaging
two shifted copies produces the interval sandwich r_beta(+/-), and dilation
gives s_{delta,beta}(+/-) of type 2*pi*delta.  Nothing at run time reads a
Fourier transform; the closed-form transforms are test oracles.

H0 is evaluated in two branches that meet at |x| = FAR = SHIFT = 10,
the least argument of the asymptotic series of psi1 in pcx.special: one
decision, as both take the same eight Bernoulli terms.  Below 10 it is
the closed form through psi1(1 + |x|) (eval_H0), which pcx.special gives
only from its SHIFT = 10 on: _h0_near takes psi1(11 + |x|) and adds the
ten steps 1/(|x| + k)^2 of the recurrence, k = 10, ..., 1, smallest
first, as the delta = 1 bounds of pcx.pcbounds do.  From 10 on, H0 -
sgn(x) = sgn(x) (sin(pi x)/pi)^2 q(|x|), where q(a) = -2[psi1(a) - 1/a -
1/(2a^2)] is summed from the eight Bernoulli terms of the asymptotic
series of psi1 (pcx.special.B2K).  The first dropped term, B_18/a^19,
is 3.3e-14 of q at a = 10 and under 1.2e-18 in H0, so the two branches
agree to rounding there.  The far branch
never forms the O(1/x) terms that the closed form cancels against each
other, and r_beta(+/-) adds the sgn parts of its two arguments as exact
integers.  Its sine reads x +/- beta reduced mod 1 before the sum is
formed, (x - rint x) +/- (beta - rint beta), so the rounding of x +/- beta
does not reach it.  Against 40-digit references on 12 <= |x| <= 2e5,
with both arguments past 10, the relative error of r_beta(+/-) is about
1e-14 (the sine of the rounded x +/- beta errs by up to 1e-8, the closed
form alone by about 1e-6); with one argument nearer, the closed form's
absolute rounding of about 1e-16 sets it.  Each branch takes one sine
per argument: the closed form takes sinc^2, (sin(pi x)/pi)^2 and H1
from one sine of pi |x|, and the far remainder reads the squared sine
(sin(pi y)/pi)^2 that its caller passes.  Every array takes one path:
the far remainder over all its points, a near one reading FAR, then the
closed form over the near points.  _r_gamma, the one assembly of
r_gamma(+/-), takes x, gamma, the sign and the squared sines of its two
arguments: eval_r passes those of the reduced fractions (a near
argument there pays both sines), pcx.zerodata those of its unit phases.
far_series gives the far remainder's power series term by term, and the
functions make_selberg_pair builds (SelbergFunction) carry gamma, sign
and dilation, so that pcx.zerodata can sum the far branch in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import DomainError
from .special import B2K, SHIFT, _poly, trigamma


# where the asymptotic series of psi1 takes over from the closed form: the
# least argument pcx.special takes the same series at
FAR = SHIFT


# stands in for 0 in the sine's argument of _h0_near: its sine is itself,
# so sinc comes out 1 there, and its square over pi^2 underflows to 0
_TINY = 1e-200


def _h0_near(x):
    """The closed form of H0 and H1 = sinc^2, used for |x| < FAR on a flat
    array, from one sine: y = pi |x| feeds it as np.sinc's argument does,
    save that 0 takes _TINY rather than eps, so that (sin(pi x)/pi)^2 is 0
    there.  psi1(1 + |x|) is psi1(SHIFT + 1 + |x|), taken at [11, 21),
    plus the steps 1/(|x| + k)^2, k = SHIFT, ..., 1."""
    ax = np.abs(x)
    psi1 = trigamma(SHIFT + 1.0 + ax)
    for k in range(int(SHIFT), 0, -1):
        psi1 += 1.0 / (ax + k) ** 2
    y = np.pi * ax
    y = np.where(y, y, _TINY)
    s = np.sin(y)
    s2 = (s / y) ** 2
    sin2 = (s / np.pi) ** 2
    val = 1.0 - s2 + 2.0 * ax * s2 - 2.0 * sin2 * psi1
    return np.sign(x) * val, s2


def _far_rest(y, sin2, sign):
    """H0(y) + sign*H1(y) - sgn(y) for |y| >= FAR, given sin2 =
    (sin(pi y)/pi)^2.

    With w = 1/y, sgn(y) q(|y|) = -2 w^3 p(w^2), p(z) = sum_k B_2k z^(k-1),
    and H1(y) = sin2 w^2.
    """
    w = 1.0 / y
    z = w * w
    p = _poly(z, B2K)
    return sin2 * z * (sign - 2.0 * w * p)


def far_series(sign):
    """The far remainder as a power series: pairs (m, q_m) with
    H0(y) + sign*H1(y) - sgn(y) = (sin(pi y)/pi)^2 sum_m q_m y^-m for
    |y| >= FAR, the terms _far_rest sums by Horner's rule: m = 2 with
    q = sign, and m = 2k + 1 with q = -2 B_2k."""
    return ((2, float(sign)),) + tuple((2 * k + 3, -2.0 * b)
                                       for k, b in enumerate(B2K))


def _h_split(y, sign, sin2):
    """H0(y) + sign*H1(y) as (whole, rest) with whole + rest the value.

    whole is sgn(y) where |y| >= FAR and 0 nearer, so sums of whole parts
    are exact; rest is the small far remainder, or the whole value from
    the closed form nearer.  sign = 0 gives H0 alone.  sin2, of y's
    size, is (sin(pi y)/pi)^2 point for point, which only the far
    remainder reads.
    """
    shape = np.shape(y)
    # flat arrays throughout: a numpy scalar's ** 2 is pow(), which can
    # round apart from an array's x * x
    y, sin2 = np.ravel(y), np.ravel(sin2)
    near = np.abs(y) < FAR
    # the far remainder over every point in one pass, a near one reading
    # FAR, costs less than gathering the far points; the closed form then
    # overwrites the near points
    rest = _far_rest(np.where(near, FAR, y), sin2, sign)
    if near.any():
        h0, h1 = _h0_near(y[near])
        rest[near] = h0 + sign * h1
    # taken last, so that it is not held through the branches' temporaries
    whole = np.where(near, 0.0, np.sign(y))
    return whole.reshape(shape), rest.reshape(shape)


def _sin2(frac):
    """(sin(pi y)/pi)^2, flat, from frac = y less an integer: so the
    rounding of a large y does not reach the sine."""
    return (np.sin(np.pi * np.ravel(frac)) / np.pi) ** 2


def _r_gamma(x, gamma, sign, sin2_u, sin2_v):
    """r_gamma(sign)(x) = (H(u) + H(v)) / 2, H = H0 + sign*H1, u = x +
    gamma and v = gamma - x, given the squared sines (sin(pi u)/pi)^2 and
    (sin(pi v)/pi)^2 that _h_split takes.  The sgn parts of u and v are
    added as exact integers, then the remainders."""
    u = x + gamma
    v = gamma - x
    # each let go when its split is done, where the caller passed x and
    # the sines as temporaries
    del x
    wu, ru = _h_split(u, sign, sin2_u)
    del u, sin2_u
    wv, rv = _h_split(v, sign, sin2_v)
    return 0.5 * ((wu + wv) + (ru + rv))


def eval_H0(x):
    """The odd sgn-interpolant.

    The defining bilateral series telescopes against the trigamma function;
    after the reflection formula every pole cancels explicitly, leaving
        H0(x) = 1 - sinc(x)^2 + 2x*sinc(x)^2 - 2*(sin(pi x)/pi)^2*psi1(1+x)
    for x >= 0, which is stable for all arguments including integers.  It
    is used below |x| = 10, the asymptotic form beyond (module docstring).
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    whole, rest = _h_split(x, 0, _sin2(x - np.rint(x)))
    return whole + rest


def eval_r(beta, sign, x):
    """Interval majorant (sign=+1) / minorant (-1) of chi_[-beta,beta],
    for a finite beta > 0 and finite x; DomainError otherwise."""
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")
    # no function sandwiches the indicator of an empty interval
    if beta <= 0:
        raise DomainError("beta must be positive")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    # x - rint(x) is exact, so the sines see x +/- beta reduced mod 1
    # without the rounding of x +/- beta itself
    fx = x - np.rint(x)
    fb = beta - np.rint(beta)
    return _r_gamma(x, beta, sign, _sin2(fx + fb), _sin2(fb - fx))


@dataclass(frozen=True)
class BandlimitedFunction:
    """A closed-form time evaluator of exponential type 2*pi*delta
    (type_bound), so that its transform vanishes outside [-delta, delta].

    freq_eval and label are kept for callers that supply a transform or a
    name; pcx itself reads neither.
    """

    type_bound: float
    time_eval: Callable[[np.ndarray], np.ndarray]
    freq_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    @property
    def delta(self):
        return self.type_bound / (2.0 * np.pi)


@dataclass(frozen=True)
class SelbergFunction(BandlimitedFunction):
    """x -> r_gamma(sign)(dilation x), gamma = dilation*beta: one side of
    the pair make_selberg_pair builds.  It carries its parameters, so that
    a pair sum can take the far branch (|dilation x| >= gamma + FAR) in
    closed form, as pcx.zerodata.weighted_pair_sum does."""

    gamma: float = 0.0
    sign: int = 1
    dilation: float = 1.0


@dataclass(frozen=True)
class SelbergPair:
    beta: float
    delta: float
    minorant: SelbergFunction
    majorant: SelbergFunction


def make_selberg_pair(beta, delta=1.0):
    """Majorant/minorant pair for chi_[-beta,beta] of type 2*pi*delta.

    The dilates s(x) = r_{delta*beta}(delta*x) keep the sandwich property
    while widening the admissible band.  A gamma = delta*beta that
    overflows raises DomainError.
    """
    if not 0 < beta < math.inf:
        raise DomainError("beta must be positive")
    if not 1 <= delta < math.inf:
        raise DomainError("delta must be at least 1")
    gamma = delta * beta
    if gamma == math.inf:
        raise DomainError("delta * beta overflows")

    def make(sign):
        def time_eval(x):
            return eval_r(gamma, sign, delta * np.asarray(x, dtype=float))

        return SelbergFunction(type_bound=2.0 * np.pi * delta,
                               time_eval=time_eval, gamma=gamma, sign=sign,
                               dilation=delta)

    return SelbergPair(beta=beta, delta=delta,
                       minorant=make(-1), majorant=make(+1))

