"""The reproducing kernel of the type-pi space weighted by 1 - sinc^2.

K(w, z) = a0 sinc(z - conj(w)) + a+ sinc(z - Z0) + a- sinc(z + Z0), with
Z0 = 1/(pi sqrt2), evaluated elementwise over broadcast arrays of w and z.
The coefficient triple (a0, a+, a-) depends on conj(w) alone and takes one
cos and one sin of pi conj(w) (`_coefficients`); `_row` sums the three
sinc translates, stacked into one np.sinc call, so K is entire in z, and a
fixed w (debranges' E uses w = i) pays for its triple once; `_row_slope`
gives the row and its derivative in z from the same stacked translates.
In w the apparent poles of the triple at 1 - 2 pi^2 w^2 = 0 are
removable; one patcher, `_patched`, replaces the points within 1e-4 of them
by a real-offset Richardson mean (O(h^6) accurate).  On top of the kernel
sit the one-delta and two-delta extremal problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DomainError, NonConvergence
from .special import _out

_SQ = 2.0 ** -0.5
_DEN_C = math.cos(_SQ) - _SQ * math.sin(_SQ)
_DEN_D = math.sqrt(2.0) * math.cos(_SQ)
_Z0 = 1.0 / (math.pi * math.sqrt(2.0))  # the removable point 1 - 2 pi^2 z^2 = 0
_PATCH_RADIUS = 1e-4
_PATCH_H = 1e-3
# betas per kernel call of two_delta: a pass over the 10^6 + 1 betas of the
# longest CLI grid grows peak RSS by 24 MB, against 179 MB in one block
# (2-core x86 host)
_BLOCK = 2 ** 14
# largest |w| kernel_eval and largest beta two_delta take: from |w| =
# 2.9e153 on, (1 - 2 (pi w)^2) times _DEN_D in _coefficients overflows,
# and d comes out 0 or NaN
_BETA_MAX = 1e153


def _richardson(fn, x):
    """The value of fn at a removable point x, to O(h^6): the weights
    3/2, -3/5, 1/10 on mean fn(x +/- k h), k = 1, 2, 3, cancel the h^2 and
    h^4 errors of the means.  The offsets are real so that fn may cast to
    float."""
    def avg(k):
        return 0.5 * (fn(x + k * _PATCH_H) + fn(x - k * _PATCH_H))
    return 1.5 * avg(1.0) - 0.6 * avg(2.0) + 0.1 * avg(3.0)


def _near(z, center):
    return ((np.abs(z - center) < _PATCH_RADIUS)
            | (np.abs(z + center) < _PATCH_RADIUS))


def _patched(raw, x, *rest, center=_Z0):
    """raw(x, *rest), broadcast, with every entry whose x lies near the
    removable points +/-center replaced by the Richardson mean in x of raw
    at that entry's rest.  The first pass runs on the native shapes, so a
    scalar x stays scalar there; x keeps its dtype, and the result is a
    writable array (0-d when every input is scalar)."""
    x = np.asarray(x)
    mask = _near(x, center)
    out = np.array(raw(np.where(mask, x + 10.0 * _PATCH_RADIUS, x), *rest))
    if np.any(mask):
        sel = np.broadcast_to(mask, out.shape)
        at = [np.broadcast_to(r, out.shape)[sel] for r in rest]
        out[sel] = _richardson(lambda v: raw(v, *at),
                               np.broadcast_to(x, out.shape)[sel])
    return out


def _coefficients(wbar):
    """(a0, a+, a-) of K(w, z) = a0 sinc(z - wbar) + a+ sinc(z - Z0)
    + a- sinc(z + Z0), wbar = conj(w): a0 = 2 pi^2 wbar^2 / (2 pi^2 wbar^2
    - 1) and a+/- = (c +/- d) / 2, where c and d are the coefficients of the
    half-sum g and half-difference h of the two translates.  All three have
    the removable poles of the module docstring."""
    wbar = np.asarray(wbar, dtype=complex)
    u = np.pi * wbar
    cos, sin = np.cos(u), np.sin(u)
    t = 2.0 * u * u
    c = (cos - u * sin) / ((1.0 - t) * _DEN_C)
    d = 2.0 * u * cos / ((1.0 - t) * _DEN_D)
    return t / (t - 1.0), 0.5 * (c + d), 0.5 * (c - d)


# z - Z0 and z + Z0 as one subtraction of this pair: z - (-Z0 - 0i) has
# the parts z.real + Z0 and z.imag + 0.0 of z + Z0, to the bit
_PLUS_MINUS_Z0 = np.array([_Z0, complex(-_Z0, -0.0)])


def _translates(wbar, z):
    """The three sinc translates z - wbar, z - Z0, z + Z0, stacked along a
    new first axis."""
    z = np.asarray(z, dtype=complex)
    d = z - wbar
    t = np.empty((3,) + d.shape, dtype=complex)
    t[0] = d
    np.subtract(z, _PLUS_MINUS_Z0.reshape((2,) + (1,) * d.ndim), out=t[1:])
    return t


def _row(a, wbar, z):
    """a0 sinc(z - wbar) + a+ sinc(z - Z0) + a- sinc(z + Z0), a = (a0, a+,
    a-); entire in z.  The three translates are stacked into one np.sinc
    call; each value is elementwise, so it is the value of three separate
    calls.  A translate z - wbar below 1e-20 is flushed to 0 first, since
    np.sinc of a subnormal complex overflows, while below 1e-20 sinc is 1.0
    to rounding (and np.sinc takes 0 to 1.0)."""
    t = _translates(wbar, z)
    d = t[0, ...]
    d[np.abs(d) < 1e-20] = 0.0
    s = np.sinc(t)
    return a[0] * s[0] + a[1] * s[1] + a[2] * s[2]


# below this |pi y| the closed form of sinc'(y) loses more to cancellation
# than the Taylor polynomials of sinc and sinc' leave out
_SERIES_TOP = np.pi * 1e-3


def _row_slope(a, wbar, z):
    """_row(a, wbar, z) and its derivative in z, stacked along a new first
    axis, from one stacked evaluation of the three translates y; a is the
    coefficient triple as an array.  With u = pi y, sinc(y) = sin(u)/u,
    taken as np.sinc takes it, and sinc'(y) = pi (cos(u) - sinc(y)) / u;
    below |y| = 1e-3 both come from their Taylor polynomials, 1 - u^2/6 +
    u^4/120 - u^6/5040 and -pi (u/3 - u^3/30 + u^5/840).  The triple's sums
    run left to right, so away from those small translates the values are
    _row's to the bit.  A translate below 1e-20, which _row flushes to 0,
    takes the Taylor polynomials here as it is."""
    u = _translates(wbar, z)
    u *= np.pi
    small = np.abs(u) < _SERIES_TOP
    any_small = np.count_nonzero(small)
    # a small translate gets a harmless stand-in in the closed forms
    y = u + small if any_small else u
    # sinc and sinc' per translate, in one buffer for one weighted sum
    s = np.empty((2,) + u.shape, dtype=complex)
    np.divide(np.sin(y), y, out=s[0])
    np.subtract(np.cos(y), s[0], out=s[1])
    s[1] /= y
    if any_small:
        v = u[small]
        q = v * v
        s[0][small] = 1.0 - q / 6.0 * (1.0 - q / 20.0 * (1.0 - q / 42.0))
        s[1][small] = -v / 3.0 * (1.0 - q / 10.0 + q * q / 280.0)
    out = (a.reshape((3,) + (1,) * (u.ndim - 1)) * s).sum(axis=1)
    out[1] *= np.pi
    return out


def _sinc_taylor(y, order):
    """The Taylor coefficients sinc^(n)(y) / n!, n = 0 .. order, at a point
    y != 0: from y sinc(y) = sin(pi y) / pi, y s_n + s_(n-1) = pi^(n-1)
    sin(pi y + n pi/2) / n!."""
    s = [complex(np.sinc(y))]
    for n in range(1, order + 1):
        s.append((math.pi ** (n - 1) * np.sin(math.pi * y + n * math.pi / 2)
                  / math.factorial(n) - s[-1]) / y)
    return s


def _row_taylor(a, wbar, order):
    """The Taylor coefficients at z = 0 of _row(a, wbar, z), n = 0 ..
    order, from those of its three sinc translates."""
    return [sum(c * s for c, s in zip(a, coeffs)) for coeffs in zip(
        _sinc_taylor(-wbar, order), _sinc_taylor(-_Z0, order),
        _sinc_taylor(_Z0, order))]


def _k_raw(w, z):
    """K(w, z) with the poles in w left in place."""
    wbar = np.conj(np.asarray(w, dtype=complex))
    return _row(_coefficients(wbar), wbar, z)


def kernel_eval(w, z):
    """K(w, z), elementwise over w and z broadcast against each other.

    Scalars give a 0-d array.  Points w within 1e-4 of the removable
    points +/-Z0 are patched.  A w or z that is not finite (NaN or an
    infinite part) raises DomainError.  Past |w| = _BETA_MAX the
    coefficients overflow, and once |Im w| + |Im z| passes about 224 the
    sines do (K grows like exp(pi (|Im w| + |Im z|))); NonConvergence then
    names the first such w and z.  Every overflow with |w| <= _BETA_MAX
    leaves a value that is not finite, so one pass over the values finds
    it.
    """
    if not (np.isfinite(w).all() and np.isfinite(z).all()):
        raise DomainError("kernel_eval: w and z must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        k = _patched(_k_raw, w, z)
    bad = ~np.isfinite(k) | (np.abs(w) > _BETA_MAX)
    if bad.any():
        w, z, _ = np.broadcast_arrays(w, z, bad)
        i = np.argmax(bad)
        raise NonConvergence(f"kernel_eval: K(w, z) overflows at "
                             f"w={w.flat[i]}, z={z.flat[i]}")
    return k


def one_delta():
    """Least M-mass of a nonnegative admissible function with R(0) = 1.

    value = 1/K(0,0); the unique extremal is K(0,z)^2/K(0,0)^2.
    """
    k00 = kernel_eval(0.0, 0.0).real

    def extremal_eval(x):
        kv = kernel_eval(0.0, np.asarray(x, dtype=float).astype(complex))
        return np.real(kv) ** 2 / k00 ** 2

    return 1.0 / k00, extremal_eval


@dataclass(frozen=True)
class TwoDeltaSolution:
    beta: float
    value: float
    k_bb: float
    k_bmb: float
    extremal_eval: Callable


def two_delta(beta):
    """Least M-mass with R(+/-beta) >= 1, R >= 0, type at most 2 pi.

    R = |f|^2 for the least-norm f with |f(beta)|, |f(-beta)| >= 1, a
    multiple of eps K(beta, .) + K(-beta, .); its squared norm, the value,
    is 2/s with s = K(beta, beta) + |K(beta, -beta)|.

    beta is a float, which gives float fields, or an array, which gives
    arrays in its shape; extremal_eval(x) broadcasts x against beta.  The
    kernel is taken _BLOCK betas at a time, so a long grid keeps its
    temporaries small; every value is elementwise, so a block's values are
    those of its betas alone.  Beyond _BETA_MAX the closed form of the
    coefficients overflows, and NonConvergence names the first such beta.
    """
    b = np.asarray(beta, dtype=float)
    if not ((0 < b) & (b <= _BETA_MAX)).all():
        if not ((0 < b) & (b < math.inf)).all():
            raise DomainError("beta must be positive")
        raise NonConvergence(
            f"two_delta: the kernel's coefficients overflow at beta="
            f"{b.flat[np.argmax(b > _BETA_MAX)]:g} (above {_BETA_MAX:g})")
    flat = b.reshape(-1)
    k_bb, k_bmb = np.empty(flat.size), np.empty(flat.size)
    for i in range(0, flat.size, _BLOCK):
        part = flat[i:i + _BLOCK]
        # K(beta, beta) and K(beta, -beta) from one coefficient triple
        k = kernel_eval(part, np.stack([part, -part])).real
        k_bb[i:i + _BLOCK], k_bmb[i:i + _BLOCK] = k
    k_bb, k_bmb = k_bb.reshape(b.shape), k_bmb.reshape(b.shape)

    def extremal_eval(x):
        s = k_bb + np.abs(k_bmb)
        eps = np.where(k_bmb >= 0, 1.0, -1.0)
        x = np.asarray(x, dtype=float).astype(complex)
        num = eps * kernel_eval(b, x) + kernel_eval(-b, x)
        return np.real(num) ** 2 / s ** 2

    value = 2.0 / (k_bb + np.abs(k_bmb))
    return TwoDeltaSolution(beta=_out(b), value=_out(value), k_bb=_out(k_bb),
                            k_bmb=_out(k_bmb), extremal_eval=extremal_eval)

