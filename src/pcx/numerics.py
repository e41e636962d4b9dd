"""Shared scalar machinery: quadrature, oscillatory tails, roots, derivatives.

Everything here is plain binary64 numpy.  Integrands are expected to accept
real ndarray arguments (all in-package callers do) and may return real or
complex values; the few scalar callbacks (root finding) are called with
floats.

The oscillatory-tail strategy used throughout the package: integrate in
chunks whose length equals the (hinted) oscillation period, so the chunk
sums form a smooth sequence in 1/m, then extrapolate the partial sums to
infinity with a Neville table.  All integrands in this project oscillate
with period 1 (or a rational multiple of it), which makes this exact up to
the smooth power tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonConvergence(RuntimeError):
    """An iterative scheme stopped with an error estimate above target."""


class TailTooFat(ValueError):
    """Semi-infinite integral with decay too slow to converge absolutely."""


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


class TruncationWarning(RuntimeWarning):
    """A truncated node sum or series tail may contribute above target."""


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_depth: int = 40
    oscillation_period: float | None = None

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")
        if self.oscillation_period is not None and self.oscillation_period <= 0:
            raise DomainError("oscillation_period must be positive")


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    f_lo_sign: int
    f_hi_sign: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("bracket requires lo < hi")
        if self.f_lo_sign * self.f_hi_sign != -1:
            raise DomainError("bracket requires opposite endpoint signs")


DEFAULT_SPEC = QuadratureSpec()

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


def _gk15_batch(f, lo, hi):
    """Gauss-Kronrod 15 on a batch of panels.  Returns (integrals, errors)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _XGK[None, :]
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    ik = half * (y @ _WGK)
    ig = half * (y[:, _GAUSS_IDX] @ _WG)
    return ik, np.abs(ik - ig)


def integrate_adaptive(f, a, b, spec=None):
    """Adaptive panel integration of f over [a, b].

    Panels start aligned to spec.oscillation_period when given and are
    bisected wherever the embedded Gauss/Kronrod difference exceeds the
    width-proportional share of the tolerance budget.
    """
    spec = spec or DEFAULT_SPEC
    if not a < b:
        raise DomainError("integrate_adaptive requires a < b")
    if spec.oscillation_period:
        p = spec.oscillation_period
        edges = np.arange(a, b, p)
        edges = np.append(edges, b)
    else:
        edges = np.linspace(a, b, 9)
    if len(edges) > 4097:
        edges = np.linspace(a, b, 4097)
    lo, hi = edges[:-1], edges[1:]

    total_width = b - a
    acc_val = 0.0
    acc_err = 0.0
    for _ in range(spec.max_depth):
        ik, err = _gk15_batch(f, lo, hi)
        running = acc_val + np.sum(ik)
        budget = spec.abs_tol + spec.rel_tol * abs(running)
        share = budget * (hi - lo) / total_width
        done = err <= share
        acc_val += np.sum(ik[done])
        acc_err += float(np.sum(err[done]))
        if np.all(done):
            return acc_val
        lo, hi = lo[~done], hi[~done]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
    ik, err = _gk15_batch(f, lo, hi)
    acc_val += np.sum(ik)
    acc_err += float(np.sum(err))
    if acc_err > 10.0 * (spec.abs_tol + spec.rel_tol * abs(acc_val)):
        raise NonConvergence(
            f"adaptive quadrature error estimate {acc_err:.2e} above target")
    return acc_val


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


def integrate_semi_infinite(f, a, tail_exponent, spec=None):
    """Integral of f over [a, inf) for integrands decaying like x^-p, p >= 2.

    Chunked in units of the oscillation period with Neville extrapolation
    of the partial sums; the extrapolation absorbs the smooth power tail
    left after the periodic part cancels chunk by chunk.
    """
    spec = spec or DEFAULT_SPEC
    if tail_exponent < 2:
        raise TailTooFat("tail exponent below 2: integral too slowly convergent")
    p = spec.oscillation_period or 1.0

    for nchunk, per in ((512, 2), (1024, 4)):
        edges = a + p * np.arange(nchunk + 1)
        sub = np.linspace(edges[:-1], edges[1:], per + 1, axis=1)
        lo = sub[:, :-1].ravel()
        hi = sub[:, 1:].ravel()
        ik, err = _gk15_batch(f, lo, hi)
        chunk = ik.reshape(nchunk, per).sum(axis=1)
        cum = np.cumsum(chunk)
        ms = np.array([nchunk // 32, nchunk // 16, nchunk // 8,
                       nchunk // 4, nchunk // 2, nchunk])
        # the tail is a power series in 1/x at the truncation point x = a + p*m
        value, est = extrapolate_to_zero(p / (abs(a) + p * ms), cum[ms - 1])
        est += float(np.sum(err))
        if est <= 10.0 * (spec.abs_tol + spec.rel_tol * abs(value)) + 1e-13:
            return value
    raise NonConvergence(
        f"semi-infinite tail extrapolation error {est:.2e} above target")


def integrate_real_line(f, spec=None, inner=12.0, tail_exponent=2.0):
    """Integral of f over the whole line: adaptive core plus two tails."""
    spec = spec or DEFAULT_SPEC
    core = integrate_adaptive(f, -inner, inner, spec)
    right = integrate_semi_infinite(f, inner, tail_exponent, spec)
    left = integrate_semi_infinite(lambda x: f(-x), inner, tail_exponent, spec)
    return core + left + right


def bracket_from(f, lo, hi):
    """Build a certified Bracket by evaluating f at the endpoints."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
        raise DomainError("no strict sign change on the proposed bracket")
    s = 1 if flo > 0 else -1
    return Bracket(lo, hi, s, -s)


def find_root(f, bracket, tol=1e-12):
    """Bracketed root via bisection/secant hybrid; never leaves the bracket."""
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise DomainError("bracket endpoints do not straddle a sign change")
    for it in range(200):
        width = hi - lo
        if width <= tol:
            break
        # secant step, demoted to bisection when it stalls near an endpoint
        x = hi - fhi * width / (fhi - flo)
        if not (lo + 0.01 * width < x < hi - 0.01 * width) or it % 3 == 2:
            x = lo + 0.5 * width
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return 0.5 * (lo + hi)


def deriv_central(f, x, h=1e-3):
    """Sixth-order central first derivative; f must accept ndarrays."""
    x = np.asarray(x, dtype=float)
    offs = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]) * h
    w = np.array([-1.0, 9.0, -45.0, 45.0, -9.0, 1.0]) / (60.0 * h)
    pts = x[..., None] + offs
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    return vals @ w
