"""Closed forms and identities that check pcx but that pcx itself never
evaluates: the Fourier transforms of the Selberg functions and of the gap
minorant, the constant recombination G = 1/2 of the lattice series, the
lattice series itself at 40 digits, the reproducing property of the
kernel, the node sums of the tilted spaces and the optimal masses at 30
digits.  Also generate_zeros, which computed the shipped zero table
with mpmath and is checked against it; rebuild the table with

    PYTHONPATH=src:tests python -c "from oracles import generate_zeros; \
        generate_zeros(10000, 'data/zeta_zeros_1e4.txt')"
"""

import functools
import math

import mpmath
import numpy as np

from pcx import debranges as db
from pcx import pcbounds as pb
from pcx.beurling import BandlimitedFunction
from pcx.kernel import kernel_eval
from pcx.numerics import (DomainError, NonConvergence, NoRoot,
                          extrapolate_to_zero, find_root,
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


def tilted_node_sum(F, beta, regime):
    """The node sum of F over the nodes x of debranges.tilt(beta) and their
    mirrors, sum_x F(x) w(x), whose regime must be `regime`.  As for E's
    own nodes in quadrature_check, the sum is extrapolated past the last
    node from its partial sums at the last six nodes, five apart, and
    NonConvergence is raised when that estimate exceeds NODE_TOL.  The
    extrapolation holds at few beta: on sinc(x - 0.4)^2 and beta = 0.3,
    0.67, ..., 59.87 it raises at 129 of the 162 and errs by up to 1.5e-5
    against M(F) at the other 33 (measured), so a test takes it only at a
    beta where it has been seen to hold."""
    t = db.tilt(beta)
    assert t.regime == regime
    nodes, w = t.nodes, t.weights
    pair = np.asarray(F.time_eval(nodes), dtype=float) * w + np.where(
        nodes > 0, np.asarray(F.time_eval(-nodes), dtype=float) * w, 0.0)
    cum = np.cumsum(pair)
    idx = len(cum) - 1 - 5 * np.arange(6)[::-1]
    node_sum, est = extrapolate_to_zero(1.0 / nodes[idx], cum[idx])
    if est > db.NODE_TOL:
        raise NonConvergence(f"node tail may contribute {est:.2e}")
    return node_sum


def lambda_mp(beta):
    """(lambda_+, lambda_-) at the float beta > 0 in 30-digit arithmetic,
    independent of debranges' floats, phase starts and find_root.

    E(z) = 2 pi i (-i - z) K(i, z) / sqrt(4 pi K(i, i)) from the kernel's
    closed form, K(i, z) = a0 sinc(z + i) + a+ sinc(z - Z0) + a- sinc(z +
    Z0).  E(beta) = A - iB gives (p, q) and the node function as
    debranges._tilt_params does: Re((p - iqx) E(x)) on the cells 0, k + 3/4
    when A(beta) B(beta) > 0 or A(beta) = 0, else -Im((p - iqx) E(x)) on 0,
    k + 1/4, with 0 a node.  Each cell below beta gets one mp.findroot,
    beta is the node of its own cell, and each node the weight pi /
    (-Im(E' conj E) + (p/h) (q/h) |E|^2), h = hypot(p, qx), E' from
    mp.diff; the positive nodes count twice, for their mirrors."""
    with mpmath.workdps(30):
        mp = mpmath.mp
        z0 = 1 / (mp.pi * mp.sqrt(2))
        sq = mp.mpf(2) ** -0.5
        u = mp.mpc(0, -mp.pi)  # pi conj(w), w = i
        den = 1 - 2 * u ** 2
        c = (mp.cos(u) - u * mp.sin(u)) / (den * (mp.cos(sq) - sq * mp.sin(sq)))
        d = 2 * u * mp.cos(u) / (den * mp.sqrt(2) * mp.cos(sq))
        a0, a_plus, a_minus = -2 * u ** 2 / den, (c + d) / 2, (c - d) / 2

        def K(z):
            return (a0 * mp.sincpi(z + 1j) + a_plus * mp.sincpi(z - z0)
                    + a_minus * mp.sincpi(z + z0))

        scale = 2j * mp.pi / mp.sqrt(4 * mp.pi * mp.re(K(1j)))

        def E(z):
            return scale * (-1j - z) * K(z)

        b = mp.mpf(beta)
        a_b, b_b = mp.re(E(b)), -mp.im(E(b))
        if a_b * b_b > 0 or a_b == 0:
            p, q, part, offset = b * abs(b_b), abs(a_b), 1, 0.75
        else:
            p, q, part, offset = b * abs(a_b), abs(b_b), 1j, 0.25
        p, q = p / mp.hypot(p, q), q / mp.hypot(p, q)

        def fn(x):
            return mp.re(part * (p - 1j * q * x) * E(x))

        ends = [0.0] + [offset + k for k in range(math.ceil(beta) + 1)]
        nodes = [mp.mpf(0)] if part == 1j else []
        for lo, hi in zip(ends, ends[1:]):
            if hi >= beta:
                break
            if lo or part == 1:
                # at the B-zero b_1 the first node lies at 1.8e-8, which
                # takes some 40 Anderson-Bjorck steps, past mpmath's cap
                nodes.append(mp.findroot(fn, (lo, hi), solver="anderson",
                                         maxsteps=200))
        nodes.append(b)
        mass = []
        for x in nodes:
            e, h = E(x), mp.hypot(p, q * x)
            w = mp.pi / (-mp.im(mp.diff(E, x) * mp.conj(e))
                         + (p / h) * (q / h) * abs(e) ** 2)
            mass.append(w if x == 0 else 2 * w)
        return float(mp.fsum(mass)), float(mp.fsum(mass[:-1]))


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
