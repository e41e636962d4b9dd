"""Closed forms and identities that check pcx but that pcx itself never
evaluates: the Fourier transforms of the Selberg functions and of the gap
minorant, the constant recombination G = 1/2 of the lattice series, the
lattice series itself at 40 digits, and the reproducing property of the
kernel.  Also generate_zeros, which computed the shipped zero table
with mpmath and is checked against it; rebuild the table with

    PYTHONPATH=src:tests python -c "from oracles import generate_zeros; \
        generate_zeros(10000, 'data/zeta_zeros_1e4.txt')"
"""

import functools
import math

import mpmath
import numpy as np

from pcx import pcbounds as pb
from pcx.beurling import BandlimitedFunction
from pcx.kernel import kernel_eval
from pcx.numerics import (DomainError, NoRoot, find_root,
                          integrate_real_line)
from pcx.special import _out

# factor on the height where the average counting function reaches the
# count asked of generate_zeros, to which its scan runs
T_GUESS_PAD = 1.15


def w_transform_imag(t):
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
    ts = np.pi * t[tiny]
    out[tiny] = (1.0 - np.abs(t[tiny])) * (ts / 3.0 + ts ** 3 / 45.0)
    return out


def ft_W(t):
    """Fourier transform of H0 - sgn: purely imaginary, odd, 0 at t=0."""
    return 1j * w_transform_imag(t)


def ft_r(beta, sign, t):
    """Fourier transform of r_beta(+/-) on [-1, 1]; real-valued.

    DomainError outside the band, where selberg_ft gives 0 instead.
    """
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise DomainError("ft_r defined on |t| <= 1")
    s = np.sin(2.0 * np.pi * beta * t)
    # i*sin(2 pi beta t)*W_hat(t) is real because W_hat is purely imaginary
    return (-s * w_transform_imag(t) + 2.0 * beta * np.sinc(2.0 * beta * t)
            + sign * (1.0 - np.abs(t)) * np.cos(2.0 * np.pi * beta * t))


def selberg_ft(R, t):
    """Transform of a SelbergFunction x -> r_gamma(dilation x), which is
    ft_r(gamma, sign, t / dilation) / dilation on its band and 0 off it."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    band = np.abs(t) <= R.dilation
    out[band] = ft_r(R.gamma, R.sign, t[band] / R.dilation) / R.dilation
    return out


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


def g_of(delta, beta):
    """The unsigned recombination of the lattice series; constant 1/2."""
    b = pb._checked_betas(delta, beta)
    g = np.empty(len(b))
    for rows, n, terms, n_lo, n_hi in pb._windows(delta, b):
        g[rows] = np.sum(terms, axis=1) + pb._series_tails(
            delta, b[rows], n_hi, -n_lo, +1.0, +1.0)
    return _out(g.reshape(np.shape(beta)))


@functools.cache
def _v_lerch_parts(delta, beta):
    """The lattice series of v_lerch at 40 digits, as the sum of every
    term but n = 0 and the n = 0 term, which the sign multiplies."""
    d = mpmath.mpf(delta)
    c = d * mpmath.mpf(beta)
    a = 2 * mpmath.pi / d

    def bracket(u):
        return (-(d - 1) * mpmath.cos(a * u) + (d + 1)
                - mpmath.sin(a * u) * d / (mpmath.pi * u)) / u ** 2

    def tail(m):
        # the sum of bracket(m + k) over k >= 0; z = exp(i a) is taken as
        # expjpi(2 / d), exactly 1 at delta = 1, where lerchphi is the
        # Hurwitz zeta rather than a quadrature (40 times faster, and the
        # same 40 digits)
        z = mpmath.expjpi(2 / d)
        p2, p3 = (mpmath.expjpi(2 * m / d) * mpmath.lerchphi(z, q, m)
                  for q in (2, 3))
        return ((d + 1) * mpmath.zeta(2, m) - (d - 1) * mpmath.re(p2)
                - d / mpmath.pi * mpmath.im(p3))

    n_hi = int(mpmath.floor(c)) + 10
    rest = mpmath.fsum(mpmath.sign(n) * bracket(c - n)
                       for n in range(-10, n_hi + 1) if n)
    return rest + tail(n_hi + 1 - c) - tail(11 + c), bracket(c)


def v_lerch(delta, beta, sign):
    """The signed lattice series of pcbounds._v_at at 40 digits: the
    window [-10, floor(c) + 10], c = delta*beta, summed term by term, and
    each tail past it from a Hurwitz zeta and two Lerch transcendents.
    The window cancels like 1/(c - n)^3 near the resonance, so delta*beta
    must stay clear of integers.  Both signs share one evaluation of the
    window and the tails."""
    with mpmath.workdps(40):
        rest, center = _v_lerch_parts(delta, beta)
        return float((rest + sign * center) / (4 * mpmath.pi ** 2))


def reproduce(f, w):
    """<f, K(w,.)> in the weighted space; equals f(w) for type-pi f.

    f may be a BandlimitedFunction or a plain evaluator accepting real
    ndarrays (possibly returning complex values).  f and K(w,.) have type
    pi and the density type 2 pi, so the integrand's transform vanishes
    outside [-2, 2]; the product of two e^(+/- i pi x) oscillations repeats
    over period 1.
    """
    ev = f.time_eval if isinstance(f, BandlimitedFunction) else f
    w = complex(w)

    def integrand(x):
        kv = kernel_eval(w, x.astype(complex))
        return np.asarray(ev(x)) * np.conj(kv) * pb.pc_density(x)

    return complex(integrate_real_line(integrand, 2.0))


def norm_equivalence_eta():
    """The explicit constant in the two-sided norm sandwich.

    The density exceeds eta^2 off [-1/8, 1/8] with eta^2 = density(1/8);
    combined with the uncertainty bound this yields
    (eta/2) ||f||_2 <= ||f||_mu <= ||f||_2 for f of type pi.
    """
    return math.sqrt(float(pb.pc_density(0.125)))


def generate_zeros(count, path=None):
    """Compute the first `count` ordinates of the critical-line zeros.

    Sign-change scan of the real Riemann-Siegel Z function on a 0.05 grid,
    every bracket refined to width 1e-12 by pcx.numerics.find_root; the scan
    ceiling comes from inverting the average counting function, padded by
    T_GUESS_PAD; NoRoot if the scan finds fewer than `count` zeros.  It
    built the shipped dataset, data/zeta_zeros_1e4.txt; slow (minutes for
    10^4 zeros).  A 1e-10 bracket's midpoint may lie 5e-11 off, enough to
    change the ninth written decimal of 22 of the first 1,000 ordinates;
    1e-12 changes none,
    for 2% more Z evaluations (40,682 against 39,909, most of them the
    scan).  Above t = 8192 the float spacing exceeds 1e-12, and a bracket
    ends when its midpoint rounds to an endpoint.
    """
    # invert N(T) ~ (T/2pi) log(T/2pi e) for a scan ceiling
    t_hi = 10.0
    while t_hi / (2 * math.pi) * (math.log(t_hi / (2 * math.pi)) - 1) < count:
        t_hi *= 1.3
    t_hi *= T_GUESS_PAD

    z = np.vectorize(mpmath.fp.siegelz, otypes=[float])
    zeros = find_root(z, np.arange(14.0, t_hi, 0.05), tol=1e-12)
    if len(zeros) < count:
        raise NoRoot(f"the scan up to T = {t_hi:.1f} found {len(zeros)} of "
                     f"{count} zeros")
    arr = zeros[:count]
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# critical-line zero ordinates, ascending\n")
            fh.write(f"# count={len(arr)}\n")
            for v in arr:
                fh.write(f"{v:.9f}\n")
    return arr
