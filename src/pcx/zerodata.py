"""Zero-ordinate datasets and the empirical pair statistics built on them.

Input files are plain text, one ordinate per line, '#' comments allowed,
ascending.  Pair counts, weighted pair sums, and the normalized
exponential pair sum F(alpha) are computed by direct (chunked) double
summation; everything empirical is compared side by side with the
closed-form bound columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, MonotonicityError, ParseError
from . import pcbounds

_CHUNK = 2048


@dataclass(frozen=True)
class ZeroDataset:
    ordinates: np.ndarray
    source: str
    t_max: float

    def __len__(self):
        return len(self.ordinates)


@dataclass(frozen=True)
class EmpiricalRow:
    beta: float
    n_t_beta: int
    ratio: float
    conjecture: float
    lower: float
    upper: float


def load_zeros(path):
    """Read and validate an ordinate table."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                v = float(line)
            except ValueError:
                raise ParseError(f"not a number: {line!r}", line=lineno)
            if v <= 0:
                raise ParseError("ordinates must be positive", line=lineno)
            if values and v < values[-1]:
                raise MonotonicityError(
                    f"line {lineno}: ordinate {v} below predecessor")
            values.append(v)
    if not values:
        raise ParseError("no ordinates found in file")
    arr = np.array(values)
    return ZeroDataset(ordinates=arr, source=str(path), t_max=float(arr[-1]))


def _window(ds, T):
    if T <= 0 or T > ds.t_max:
        raise DomainError("T must lie in (0, t_max]")
    g = ds.ordinates
    return g[g <= T]


def count_pairs(ds, T, beta):
    """Ordered pairs with 0 < gamma' - gamma <= 2 pi beta / log T."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    g = _window(ds, T)
    w = 2.0 * math.pi * beta / math.log(T)
    hi = np.searchsorted(g, g + w, side="right")
    lo = np.searchsorted(g, g, side="right")
    return int(np.sum(hi - lo))


def count_pairs_brute(ds, T, beta):
    """Chunked O(n^2) oracle for count_pairs."""
    g = _window(ds, T)
    w = 2.0 * math.pi * beta / math.log(T)
    total = 0
    for i in range(0, len(g), _CHUNK):
        d = g[np.newaxis, :] - g[i : i + _CHUNK, np.newaxis]
        total += int(np.sum((d > 0) & (d <= w)))
    return total


def weighted_pair_sum(ds, T, R):
    """Double sum of R over normalized pair gaps, Cauchy-weighted.

    Includes the diagonal (each zero against itself contributes R(0)).
    """
    g = _window(ds, T)
    scale = math.log(T) / (2.0 * math.pi)
    total = 0.0
    for i in range(0, len(g), _CHUNK):
        d = g[np.newaxis, :] - g[i : i + _CHUNK, np.newaxis]
        total += float(np.sum(np.asarray(R.time_eval(d * scale))
                              * 4.0 / (4.0 + d ** 2)))
    return total


def empirical_F(ds, T, alpha):
    """Montgomery-style normalized exponential pair sum at alpha."""
    g = _window(ds, T)
    logT = math.log(T)
    total = 0.0
    for i in range(0, len(g), _CHUNK):
        d = g[np.newaxis, :] - g[i : i + _CHUNK, np.newaxis]
        total += float(np.sum(np.cos(alpha * logT * d) * 4.0 / (4.0 + d ** 2)))
    return 2.0 * math.pi * total / (len(g) * logT)


def empirical_table(ds, T, betas):
    """Empirical ratio rows joined with the theoretical columns."""
    g = _window(ds, T)
    n_t = len(g)
    rows = []
    for beta in betas:
        n = count_pairs(ds, T, beta)
        rows.append(EmpiricalRow(
            beta=float(beta),
            n_t_beta=n,
            ratio=n / n_t,
            conjecture=pcbounds.conjecture_integral(float(beta)),
            lower=pcbounds.m_selberg(float(beta), 1.0, -1).closed_form,
            upper=pcbounds.m_selberg(float(beta), 1.0, +1).closed_form,
        ))
    return rows


def generate_zeros(count, path=None, t_guess_pad=1.15):
    """Compute the first `count` ordinates of the critical-line zeros.

    Sign-change scan of the real Riemann-Siegel Z function with brentq
    refinement; the scan ceiling comes from inverting the average
    counting function with some padding.  Used once to build the shipped
    dataset; slow (minutes for 10^4 zeros).
    """
    import mpmath
    from scipy.optimize import brentq

    # invert N(T) ~ (T/2pi) log(T/2pi e) for a scan ceiling
    t_hi = 10.0
    while t_hi / (2 * math.pi) * (math.log(t_hi / (2 * math.pi)) - 1) / math.pi < count:
        t_hi *= 1.3
    t_hi *= t_guess_pad

    z = mpmath.fp.siegelz
    step = 0.05
    ts = np.arange(14.0, t_hi, step)
    zeros = []
    prev_t, prev_v = ts[0], z(ts[0])
    for t in ts[1:]:
        v = z(t)
        if prev_v == 0.0:
            zeros.append(prev_t)
        elif prev_v * v < 0:
            zeros.append(brentq(z, prev_t, t, xtol=1e-10))
        if len(zeros) >= count:
            break
        prev_t, prev_v = t, v
    arr = np.array(zeros[:count])
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# critical-line zero ordinates, ascending\n")
            fh.write(f"# count={len(arr)}\n")
            for v in arr:
                fh.write(f"{v:.9f}\n")
    return arr
