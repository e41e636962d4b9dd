"""Zero-ordinate datasets and the empirical pair statistics built on them.

Input files are plain text, one ordinate per line, '#' comments allowed,
strictly ascending.  Pair counts come from sorted windows; the brute-force
pair count, the weighted pair sums and the normalized exponential pair sum
F(alpha) are direct sums over the unordered pairs (one chunked loop),
doubled for the even summands; everything empirical is compared side by
side with the closed-form bound columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, MonotonicityError, NoRoot, ParseError
from . import pcbounds

# rows per block of the pair loop: for one F at n = 10^4 on a 2-core x86
# host, 128-512 rows timed alike and 2,048 rows ran about 1.3x slower
_CHUNK = 256


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
            if not math.isfinite(v):
                raise ParseError(f"not a finite number: {line!r}", line=lineno)
            if v <= 0:
                raise ParseError("ordinates must be positive", line=lineno)
            if values and v <= values[-1]:
                raise MonotonicityError(
                    f"line {lineno}: ordinate {v} not above predecessor")
            values.append(v)
    if not values:
        raise ParseError("no ordinates found in file")
    arr = np.array(values)
    return ZeroDataset(ordinates=arr, source=str(path), t_max=float(arr[-1]))


def _window(ds, T):
    # the normalizations divide by log T
    if not 1.0 < T <= ds.t_max:
        raise DomainError("T must lie in (1, t_max]")
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


def _pair_sum(g, fn):
    """Sum of fn(g[j] - g[i]) over the index pairs i < j, a chunk of rows
    at a time; the pairs are chosen by index, so the order of g does not
    matter to which pairs are summed."""
    total = 0
    for i in range(0, len(g), _CHUNK):
        rows = g[i : i + _CHUNK, np.newaxis]
        after = g[np.newaxis, i + _CHUNK :] - rows
        inside = (rows.T - rows)[np.triu_indices(len(rows), 1)]
        total += np.sum(fn(after)) + np.sum(fn(inside))
    return total


def count_pairs_brute(ds, T, beta):
    """O(n^2) oracle for count_pairs: pairs with 0 < |gamma' - gamma| <= w."""
    g = _window(ds, T)
    w = 2.0 * math.pi * beta / math.log(T)
    return int(_pair_sum(g, lambda d: (np.abs(d) > 0) & (np.abs(d) <= w)))


def weighted_pair_sum(ds, T, R):
    """Double sum of R over normalized pair gaps, Cauchy-weighted.

    Includes the diagonal (each zero against itself contributes R(0)).
    R must be even, as every pair-correlation test function is: the
    ordered pairs (i, j) and (j, i) contribute the same term.
    """
    g = _window(ds, T)
    scale = math.log(T) / (2.0 * math.pi)

    def term(d):
        return np.asarray(R.time_eval(d * scale)) * 4.0 / (4.0 + d ** 2)

    return (len(g) * float(term(np.zeros(1))[0])
            + 2.0 * float(_pair_sum(g, term)))


def empirical_F(ds, T, alpha):
    """Montgomery-style normalized exponential pair sum at alpha."""
    g = _window(ds, T)
    logT = math.log(T)
    # the summand is even in d and equals 1 on the diagonal
    pairs = _pair_sum(
        g, lambda d: np.cos(alpha * logT * d) * 4.0 / (4.0 + d ** 2))
    return 2.0 * math.pi * (len(g) + 2.0 * float(pairs)) / (len(g) * logT)


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
    counting function with some padding; NoRoot if the scan ends short of
    `count` zeros.  Used once to build the shipped dataset; slow (minutes
    for 10^4 zeros).
    """
    import mpmath
    from scipy.optimize import brentq

    # invert N(T) ~ (T/2pi) log(T/2pi e) for a scan ceiling
    t_hi = 10.0
    while t_hi / (2 * math.pi) * (math.log(t_hi / (2 * math.pi)) - 1) < count:
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
    if len(zeros) < count:
        raise NoRoot(f"the scan up to T = {t_hi:.1f} found {len(zeros)} of "
                     f"{count} zeros")
    arr = np.array(zeros[:count])
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# critical-line zero ordinates, ascending\n")
            fh.write(f"# count={len(arr)}\n")
            for v in arr:
                fh.write(f"{v:.9f}\n")
    return arr
