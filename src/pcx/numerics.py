"""Shared machinery: integrals over the line, bracketed roots, errors.

Everything here is plain binary64 numpy.  Integrands are expected to accept
real ndarray arguments (all in-package callers do) and may return real or
complex values; root-finding callbacks take float ndarrays and return
one, or a tuple of two (values and slopes).

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
A callback that returns values alone gets the Illinois modified regula
falsi: false position, with the stored value of an endpoint halved each
time that endpoint is kept twice in a row, which converges superlinearly.
One that also returns the slopes gets Newton steps, which converge
quadratically; debranges' node functions take theirs from the same row
of sinc translates as their values.  Either step is replaced by a
bisection whenever it would leave the bracket or has stopped shrinking, so
no iterate leaves its cell and no root costs more than about three calls
per halving of it.  Both rules keep one bookkeeping and one done test: the
latest iterate x and a step s whose root x - s is accepted once |s| is
within a tolerance, where an exact zero of f at x is the step s = 0.  A
caller that can predict its roots puts the guesses into the grid:
debranges predicts the nodes of a tilt from the phase of E, and Newton
then needs about one step and one confirming call per node.
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


# the offsets of the two ends of a cell, and of the grid points beyond
# them, as columns: cell + _ENDS indexes both ends of every cell at once
_ENDS = np.array([[0], [1]])
_BEYOND = np.array([[-1], [2]])


def find_root(f, xs, tol=1e-12):
    """Every root of f on the ascending grid xs, in ascending order.

    A grid point where f is exactly 0 is a root; so is the one root inside
    each grid cell whose endpoint values have strictly opposite signs.  All
    such brackets are refined together, one call of f per step evaluating
    every open bracket.  f(x) returns the values at x, or a tuple (values,
    slopes), and that picks the step rule:

    - values alone: the Illinois modified regula falsi (Dowell and
      Jarratt, BIT 11, 1971), false position on stored endpoint values,
      where an endpoint kept on two steps in a row has its stored value
      halved, so that the iterates cannot creep up on the root from one
      side.  The step is clipped to at least tol/2 inside each end, so that
      the last one lands across the root and closes the bracket.  It is
      replaced by bisection when it falls outside the open bracket, or when
      the bracket has not halved over the last two steps.
    - with slopes: Newton, the step x - f/f' from the latest iterate.  It
      is replaced by bisection when it falls outside the open bracket, or
      when it is longer than half the move two steps back; a slope that is
      0, infinite or NaN gives no step, so a bisection.

    Both keep one bookkeeping: the bracket, the latest iterate x with a
    step s, a tolerance acc and half the width (Illinois) or move (Newton)
    one and two steps back.  A bracket is done when |s| <= acc, its root
    x - s (kept in the bracket).  Newton's s is f/f' and its acc is
    min(tol/2, a quarter of the move to x) after a Newton move, 0 after a
    bisection: the root then lies well within tol/2 of x - s, while
    without that shrinking, as at a multiple root, it may lie several tol
    off.  Illinois' s is f(x) and its acc 0.  Either way an exact zero at
    x is s = 0, the root x.  Both start up alike, from the grid call: the
    first iterate x is the end of the bracket with the smaller |s|, and
    for Newton it counts as a move to x from the grid point beyond it (no
    move at either end of the grid), with acc capped at tol/16, not tol/2:
    no Newton step led to x, and at a root of multiplicity m, x - s lies
    (m - 1)|s| off, so the cap keeps roots of multiplicity up to 9 within
    tol/2.  So a grid point put near the root, within tol/16 by its own
    step, ends its bracket in the grid call, and one 1e-8 off takes one
    Newton step and one confirming call.  The worst case costs about three
    calls per halving, and no iterate leaves its cell.  A bracket is also done when its width is at most tol, which
    must be positive and finite, or when its midpoint rounds to an end,
    its root that midpoint; that rule is checked after every Illinois
    step, and after a Newton step only if it bisected (a Newton move finer
    than the rounding would leave the open bracket, so it becomes a
    bisection).  NonConvergence if a bracket is still open after 200
    steps.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 2 or not (xs[:-1] < xs[1:]).all():
        raise DomainError("find_root needs an ascending grid of >= 2 points")
    fxs = f(xs)
    newton = isinstance(fxs, tuple)
    if newton:
        fxs, slope = fxs
        fxs = np.asarray(fxs, dtype=float)
        sxs = _newton_step(fxs, np.asarray(slope, dtype=float))
    else:
        fxs = sxs = np.asarray(fxs, dtype=float)
    sign = np.sign(fxs)
    cell = (sign[:-1] * sign[1:] < 0).nonzero()[0]
    # exact zeros at grid points, ascending like the bracket roots
    zeros = xs[sign == 0.0]
    if not len(cell):
        return zeros
    # each bracket's ends, as rows
    ends = cell + _ENDS
    brackets = xs[ends]
    lo, hi = brackets
    # the first iterate is the end with the shorter step
    size_lo, size_hi = np.abs(sxs[ends])
    at_hi = size_hi < size_lo
    end = cell + at_hi
    x, s = xs[end], sxs[end]
    if newton:
        # that end counts as a Newton move to it from the grid point beyond
        # it, none at the ends of the grid: the points beyond lo and hi are
        # at cell - 1 and cell + 2, each clipped to the grid
        move = np.abs(brackets - xs.take(cell + _BEYOND, mode="clip"))
        acc = np.minimum(0.25 * np.where(at_hi, move[1], move[0]), tol / 16)
    else:
        acc = np.zeros(len(cell))
    # per open bracket: its index, its ends, the sign of f (of the stored
    # value, for Illinois) at lo, x, s, acc, g1 and g2 (docstring), and for
    # Illinois the stored values and whether hi (lo) was kept last step
    roots = np.empty(len(cell))
    g = np.full(len(cell), np.inf)
    state = [np.arange(len(cell)), lo, hi, np.signbit(fxs[cell]), x, s, acc,
             g, g]
    if not newton:
        kept = np.zeros(len(cell), dtype=bool)
        state += [*fxs[ends], kept, kept]
    check = True
    for it in range(201):
        todo, lo, hi, neg, x, s, acc, g1, g2 = state[:9]
        size = np.abs(s)
        near = size <= acc
        done = near | (hi - lo <= tol)
        if check:
            mid = 0.5 * (lo + hi)
            done |= (mid <= lo) | (mid >= hi)
        # count_nonzero, not any(): the cheaper test on short arrays
        closed = np.count_nonzero(done)
        if closed:
            # x - s lies in the bracket, but for rounding
            root = np.where(near, np.minimum(np.maximum(x - s, lo), hi),
                            0.5 * (lo + hi))
            # the brackets of a tilt's nodes all close in the same step
            if closed == len(done):
                roots[todo] = root
                break
            roots[todo[done]] = root[done]
            keep = (~done).nonzero()[0]
            state = [v[keep] for v in state]
            todo, lo, hi, neg, x, s, acc, g1, g2 = state[:9]
            size = size[keep]
        if it == 200:
            raise NonConvergence(
                f"{len(todo)} brackets wider than {tol:.1e} after 200 steps")
        if newton:
            # a NaN step (from a slope that is 0, infinite or NaN) fails
            # the bracket test and becomes a bisection
            step = x - s
            take = (lo < step) & (step < hi) & (size <= g2)
            check = np.count_nonzero(take) < len(take)
            # a Newton move is |s| long
            move = size
            if check:
                np.copyto(step, 0.5 * (lo + hi), where=~take)
                move = np.abs(step - x)
            acc = np.minimum(0.25 * move, 0.5 * tol)
            if check:
                acc *= take
            fx, slope = f(step)
            fx = np.asarray(fx, dtype=float)
            s = _newton_step(fx, np.asarray(slope, dtype=float))
        else:
            flo, fhi, kept_hi, kept_lo = state[9:]
            width = hi - lo
            # an endpoint value from a pole of f is infinite, and the step
            # from it NaN: the bracket test makes it a bisection
            with np.errstate(invalid="ignore"):
                step = hi - fhi * width / (fhi - flo)
            step = np.minimum(np.maximum(step, lo + 0.5 * tol),
                              hi - 0.5 * tol)
            take = (lo < step) & (step < hi) & (width <= g2)
            np.copyto(step, 0.5 * (lo + hi), where=~take)
            move = width
            fx = s = np.asarray(f(step), dtype=float)
        state[4:9] = [step, s, acc, 0.5 * move, g1]
        # step replaces lo where up, hi elsewhere; signbit, not > 0: halving
        # may underflow a stored value to a signed 0
        up = np.signbit(fx) == neg
        down = ~up
        if not newton:
            # the end kept a second time in a row has its stored value halved
            np.multiply(fhi, 0.5, out=fhi, where=up & kept_hi)
            np.multiply(flo, 0.5, out=flo, where=down & kept_lo)
            np.copyto(flo, fx, where=up)
            np.copyto(fhi, fx, where=down)
            state[11:] = [up, down]
        np.copyto(lo, step, where=up)
        np.copyto(hi, step, where=down)
    if len(zeros):
        return np.sort(np.concatenate([zeros, roots]))
    # the bracket roots ascend with their cells
    return roots


@np.errstate(divide="ignore", invalid="ignore")
def _newton_step(fx, slope):
    """f/f', NaN where the slope is infinite (there a finite f would give a
    step of 0), with no warning for a slope that is 0 or NaN."""
    s = fx / slope
    np.copyto(s, np.nan, where=np.isinf(slope))
    return s
