"""Shared machinery: integrals over the line, bracketed roots, errors.

Everything here is plain binary64 numpy.  Integrands are expected to accept
real ndarray arguments (all in-package callers do) and may return real or
complex values; root-finding callbacks take and return float ndarrays.

Every integral the package takes is over the whole line, of a function of
exponential type: its Fourier transform vanishes outside [-sigma, sigma].
For such an f, Poisson summation gives h * sum_n f(n h) = sum_k fhat(k/h),
and once h < 1/sigma every term but fhat(0), the integral, lies outside the
band.  So integrate_real_line samples: m = floor(period * sigma) + 1 points
per period of the integrand's oscillation, h = period/m, which makes the
sampling sum exact and lands on the same phases in every period.  Only the
truncation of the sum is left.  Over N whole periods the oscillation
cancels period by period, so the partial sums differ from the integral by
a tail smooth in 1/N; the partial sums at N/32, N/16, ..., N periods are
extrapolated to 1/N = 0 with a Neville table, whose last correction is the
error estimate.  N starts at 256 periods each way and doubles, each level
sampling only its new periods, until the estimate is at most
1e-13 max(1, |value|); a tail centred far out (a bump at +/-beta) is a
series in beta/N, and converges once N is well past beta.  At the cap of
2^16 periods the looser acceptance rule of integrate_real_line decides.
Since every checkpoint is a multiple of 8 periods, an oscillation whose
period is a divisor of 8 periods lines up as well.

Every root the package finds is refined by find_root, which takes all the
sign-change brackets of a grid together, one call of the callback per step.
Its step is the Illinois modified regula falsi: false position, with the
stored value of an endpoint halved each time that endpoint is kept twice
in a row, which converges superlinearly yet never leaves the bracket.  A
guard bisects whenever two steps failed to halve the bracket, so no root
costs more than about three calls per halving of its cell.
"""

from __future__ import annotations

import math

import numpy as np


class NonConvergence(RuntimeError):
    """An iterative scheme stopped with an error estimate above target."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class RootMiss(RuntimeError):
    """A bracket guaranteed by interlacing failed to show a sign change."""


class NoRoot(RuntimeError):
    """No sign change found in the search interval."""


class ParseError(ValueError):
    """Malformed input file; carries a line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MonotonicityError(ValueError):
    """Input sequence violates a required ordering."""


def extrapolate_to_zero(xs, ys):
    """Neville polynomial extrapolation of (xs, ys) to x = 0.

    Returns (value, error_estimate) where the estimate is the last
    correction applied on the table diagonal.
    """
    xs = np.asarray(xs, dtype=float)
    t = 1.0 * np.asarray(ys)  # a float or complex working copy
    n = len(t)
    diag_hist = [t[0]]
    for k in range(1, n):
        t[: n - k] = (
            xs[k:] * t[: n - k] - xs[: n - k] * t[1 : n - k + 1]
        ) / (xs[k:] - xs[: n - k])
        diag_hist.append(t[0])
    if n < 2:
        return diag_hist[-1], np.inf
    return diag_hist[-1], abs(diag_hist[-1] - diag_hist[-2])


# the sampling sum runs over N whole periods on each side of 0, N = 256,
# 512, ..., up to _CAP; at each N the partial sums at N/32, ..., N periods
# are extrapolated in 1/N (in units of 1/N: 32, ..., 1, a scaling that
# leaves the Neville table exact), and the first N whose estimate is at
# most _TARGET max(1, |value|) gives the value
_FIRST = 256
_CAP = 2 ** 16
_TARGET = 1e-13
_INV_N = 2.0 ** np.arange(5, -1, -1)
# the acceptance rule for the tail estimate at the cap:
# 10 (ABS + REL |value|) + 1e-13
_ABS_TOL = 1e-11
_REL_TOL = 1e-10


def integrate_real_line(f, sigma, period=1.0):
    """Integral over the line of f, whose transform vanishes outside
    [-sigma, sigma] (in cycles per unit length) and which repeats its
    oscillation with the given period.

    The sampling sum h * sum f(n h) with m = floor(period*sigma) + 1 samples
    per period (module docstring), over N periods each way and extrapolated
    to infinitely many from the partial sums at N/32, ..., N periods.  N
    starts at 256 and doubles, f seeing only the new samples of each level,
    until the extrapolation's error estimate is at most 1e-13 max(1,
    |value|).  At 2^16 periods, or once the estimate is not finite, the
    acceptance rule 10 (1e-11 + 1e-10 |value|) + 1e-13 applies instead, and
    NonConvergence is raised when the estimate exceeds it.
    """
    if not (0.0 < sigma < math.inf and 0.0 < period < math.inf):
        raise DomainError("sigma and period must be positive and finite")
    m = math.floor(period * sigma) + 1
    h = period / m
    n = _FIRST * m
    y = np.asarray(f(h * np.arange(-n, n + 1, dtype=float)))
    centre = y[n]
    pairs = y[n + 1:] + y[n - 1::-1]
    # each prefix by numpy's pairwise sum: a running sum would leave
    # rounding near 1e-14 that the extrapolation amplifies
    partial = [centre + pairs[:n >> j].sum() for j in range(5, -1, -1)]
    while True:
        value, est = extrapolate_to_zero(_INV_N, partial[-6:])
        value, est = h * value, h * est
        if (est <= _TARGET * max(1.0, abs(value)) or n == _CAP * m
                or not math.isfinite(est)):
            break
        # the next level's samples, h (n + 1) ... 2 h n on both sides
        x = h * np.arange(n + 1, 2 * n + 1, dtype=float)
        y = np.asarray(f(np.concatenate([x, -x])))
        pairs = np.concatenate([pairs, y[:n] + y[n:]])
        n *= 2
        partial.append(centre + pairs.sum())
    if not est <= 10.0 * (_ABS_TOL + _REL_TOL * abs(value)) + 1e-13:
        raise NonConvergence(
            f"sampled tail extrapolation error {est:.2e} above target")
    return value


def find_root(f, xs, tol=1e-12):
    """Every root of f on the ascending grid xs, in ascending order.

    A grid point where f is exactly 0 is a root; so is the one root inside
    each grid cell whose endpoint values have strictly opposite signs.  All
    such brackets are refined together, one call of f per step evaluating
    every open bracket, by the Illinois modified regula falsi (Dowell and
    Jarratt, BIT 11, 1971): false position on stored endpoint values, where
    an endpoint kept on two steps in a row has its stored value halved, so
    that the iterates cannot creep up on the root from one side.  The step
    is clipped to at least tol/2 inside each end, so that the last one lands
    across the root and closes the bracket.  It is replaced by bisection
    when it falls outside the open bracket, or when the bracket has not
    halved over the last two steps; so the worst case costs about three
    calls per halving.  No iterate leaves its cell.

    A bracket is done when its width is at most tol, which must be positive
    and finite, or when its midpoint rounds to an endpoint; its root is that
    midpoint.  NonConvergence if a bracket is still open after 200 steps.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 2 or not np.all(np.diff(xs) > 0):
        raise DomainError("find_root needs an ascending grid of >= 2 points")
    fxs = np.asarray(f(xs), dtype=float)
    cell = np.flatnonzero(np.sign(fxs[:-1]) * np.sign(fxs[1:]) < 0)
    lo, hi = xs[cell], xs[cell + 1]
    flo, fhi = fxs[cell], fxs[cell + 1]
    roots = np.empty(len(cell))
    todo = np.arange(len(cell))
    # the sign of the stored value at lo, which halving keeps; kept_hi
    # (kept_lo): the hi (lo) end was kept on the last step; the widths one
    # and two steps back
    neg = np.signbit(flo)
    kept_hi = kept_lo = np.zeros(len(cell), dtype=bool)
    w1 = w2 = np.full(len(cell), np.inf)
    for it in range(201):
        width, mid = hi - lo, 0.5 * (lo + hi)
        done = (width <= tol) | (mid <= lo) | (mid >= hi)
        # count_nonzero, not any(): the cheaper test on short arrays
        if np.count_nonzero(done):
            roots[todo[done]] = mid[done]
            keep = (~done).nonzero()[0]
            (todo, lo, hi, flo, fhi, neg, kept_hi, kept_lo, w1, w2, width,
             mid) = (v[keep] for v in (todo, lo, hi, flo, fhi, neg, kept_hi,
                                       kept_lo, w1, w2, width, mid))
        if not len(todo):
            break
        if it == 200:
            raise NonConvergence(
                f"{len(todo)} brackets wider than {tol:.1e} after 200 steps")
        # an endpoint value from a pole of f is infinite, and the step
        # from it NaN: the guard below makes it a bisection
        with np.errstate(invalid="ignore"):
            x = hi - fhi * width / (fhi - flo)
        x = np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol)
        bisect = ~((lo < x) & (x < hi)) | (width > 0.5 * w2)
        np.copyto(x, mid, where=bisect)
        fx = np.asarray(f(x), dtype=float)
        # signbit, not > 0: halving may underflow a stored value to a signed 0
        up = np.signbit(fx) == neg
        down = ~up
        # x replaces lo where up, hi elsewhere; the end kept a second time
        # in a row has its stored value halved
        np.multiply(fhi, 0.5, out=fhi, where=up & kept_hi)
        np.multiply(flo, 0.5, out=flo, where=down & kept_lo)
        np.copyto(lo, x, where=up)
        np.copyto(flo, fx, where=up)
        np.copyto(hi, x, where=down)
        np.copyto(fhi, fx, where=down)
        kept_hi, kept_lo, w1, w2 = up, down, width, w1
        hit = fx == 0.0
        if np.count_nonzero(hit):
            roots[todo[hit]] = x[hit]
            keep = (~hit).nonzero()[0]
            todo, lo, hi, flo, fhi, neg, kept_hi, kept_lo, w1, w2 = (
                v[keep] for v in (todo, lo, hi, flo, fhi, neg, kept_hi,
                                  kept_lo, w1, w2))
    return np.sort(np.concatenate([xs[fxs == 0.0], roots]))
