"""The extremal sgn-approximant family and interval majorants/minorants.

H0 is the odd entire interpolant of sgn with type 2pi, H1 = sinc^2 its
companion correction; H(+/-) = H0 +/- H1 majorize/minorize sgn.  Averaging
two shifted copies produces the interval sandwich r_beta(+/-), and dilation
gives s_{delta,beta}(+/-) of type 2*pi*delta together with exact Fourier
transforms on the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import polygamma

from .numerics import DomainError


def sinc(x):
    """sin(pi x)/(pi x) with the removable point filled in."""
    return np.sinc(np.asarray(x, dtype=float))


def eval_H1(x):
    """sinc squared; the value at integers comes out exactly 0 (1 at 0)."""
    return sinc(x) ** 2


def eval_H0(x):
    """The odd sgn-interpolant.

    The defining bilateral series telescopes against the trigamma function;
    after the reflection formula every pole cancels explicitly, leaving
        H0(x) = 1 - sinc(x)^2 + 2x*sinc(x)^2 - 2*(sin(pi x)/pi)^2*psi1(1+x)
    for x >= 0, which is stable for all arguments including integers.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    s2 = sinc(ax) ** 2
    sin2 = (np.sin(np.pi * ax) / np.pi) ** 2
    val = 1.0 - s2 + 2.0 * ax * s2 - 2.0 * sin2 * polygamma(1, 1.0 + ax)
    return np.sign(x) * val


def _h_signed(x, sign):
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    return eval_H0(x) + sign * eval_H1(x)


def eval_r(beta, sign, x):
    """Interval majorant (sign=+1) / minorant (-1) of chi_[-beta,beta]."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (_h_signed(x + beta, sign) + _h_signed(beta - x, sign))


def _w_transform_imag(t):
    """Imaginary part of the transform of H0 - sgn (the transform is i*this)."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    out = np.zeros_like(t)

    outer = at >= 1.0
    out[outer] = 1.0 / (np.pi * t[outer])

    inner = (~outer) & (at > 1e-6)
    ti = t[inner]
    cot_part = np.pi * ti / np.tan(np.pi * ti) - 1.0
    out[inner] = -(1.0 - np.abs(ti)) * cot_part / (np.pi * ti)

    tiny = (~outer) & ~inner & (at > 0)
    ts = t[tiny]
    out[tiny] = (1.0 - np.abs(ts)) * (np.pi * ts / 3.0 + (np.pi * ts) ** 3 / 45.0)
    return out


def ft_W(t):
    """Fourier transform of H0 - sgn: purely imaginary, odd, 0 at t=0."""
    return 1j * _w_transform_imag(t)


def ft_r(beta, sign, t):
    """Fourier transform of r_beta(+/-) on [-1, 1]; real-valued.

    Raises DomainError outside the band; BandlimitedFunction wrappers
    return 0 there instead.
    """
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise DomainError("ft_r defined on |t| <= 1")
    s = np.sin(2.0 * np.pi * beta * t)
    # i*sin(2 pi beta t)*W_hat(t) is real because W_hat is purely imaginary
    val = -s * _w_transform_imag(t)
    val = val + 2.0 * beta * np.sinc(2.0 * beta * t)
    val = val + sign * (1.0 - np.abs(t)) * np.cos(2.0 * np.pi * beta * t)
    return val


@dataclass(frozen=True)
class BandlimitedFunction:
    """Closed-form time evaluator plus transform on the band [-delta, delta].

    type_bound is the exponential type 2*pi*delta.  freq_eval may be None
    for functions whose transform has no convenient closed form (they are
    still band-limited; only the evaluator is missing).
    """

    type_bound: float
    time_eval: Callable[[np.ndarray], np.ndarray]
    freq_eval: Optional[Callable[[np.ndarray], np.ndarray]]
    label: str = ""

    @property
    def delta(self):
        return self.type_bound / (2.0 * np.pi)


@dataclass(frozen=True)
class SelbergPair:
    beta: float
    delta: float
    minorant: BandlimitedFunction
    majorant: BandlimitedFunction


def _banded(freq_raw, delta):
    def freq_eval(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        mask = np.abs(t) <= delta
        if np.any(mask):
            out[mask] = freq_raw(t[mask])
        return out

    return freq_eval


def make_selberg_pair(beta, delta=1.0):
    """Majorant/minorant pair for chi_[-beta,beta] of type 2*pi*delta.

    The dilates s(x) = r_{delta*beta}(delta*x) keep the sandwich property
    while widening the admissible band.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    if delta < 1:
        raise DomainError("delta must be at least 1")
    gamma = delta * beta

    def make(sign):
        def time_eval(x):
            return eval_r(gamma, sign, delta * np.asarray(x, dtype=float))

        freq = _banded(lambda t: ft_r(gamma, sign, t / delta) / delta, delta)
        name = "majorant" if sign > 0 else "minorant"
        return BandlimitedFunction(
            type_bound=2.0 * np.pi * delta,
            time_eval=time_eval,
            freq_eval=freq,
            label=f"selberg-{name}(beta={beta:g}, delta={delta:g})",
        )

    return SelbergPair(beta=beta, delta=delta,
                       minorant=make(-1), majorant=make(+1))

