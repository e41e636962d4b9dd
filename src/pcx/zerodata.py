"""Zero-ordinate datasets and the empirical pair statistics built on them.

Input files are plain text, one ordinate per line, '#' comments allowed,
strictly ascending; one C-level parse reads a table, and only a table
that breaks a rule is scanned line by line, for the line to report.
Pair counts walk the diagonals j - i = k of the sorted window until one
has no gap inside the largest window, so their cost grows with the pairs
counted: at n = 10^4 a 51-beta grid up to beta = 3 takes 1.3 ms, one
beta = 1 0.22 ms and one beta = 100 12 ms; the parse of the 10^4-line
table takes 1.7 ms against 8.9 for a Python loop (2-core x86 host).  The
normalized exponential pair sum F(alpha) cuts the sorted window into
blocks: pairs in nearby blocks are summed exactly, and pairs farther
apart through a short exponential sum for the Cauchy weight carried
from block to block, so one F costs O(n) rather than O(n^2): about 9 ms
at n = 10^4 and 2.2 ms at n = 2,000 (2-core x86 host).  No cos or
complex exponential of a large argument is taken: each ordinate gets one
unit phase relative to its block's left edge, and a pair's cos(k d) is the
real part of a product of two such phases and one per block pair.  The
far field's block moments split their nodes as a multipole method does
(Greengard-Rokhlin): a node t with t times the widest block at most 1
takes a Taylor series in the block-local offsets, one small matmul of
per-block power moments; only the larger nodes take exponentials.
Working set: no temporary grows as blocks x 16 x nodes or blocks x 16 x
16 except one buffer filled in place: the near field fills one (blocks,
16, 16) array of Cauchy weights per block offset, and the far field
keeps everything it needs in one workspace, two (blocks, nodes, alphas)
complex arrays and a scratch that the Taylor powers and the direct
exponentials take in turn.  One F at n = 10^4 peaks at 4.4 MB (tracemalloc) and, as
the C allocator keeps the one workspace between calls, pages in nothing
new after the first.  F takes an alpha grid in one call: the window, the
blocks and the nodes are set up once, and per chunk of _ALPHAS = 8
alphas the Cauchy weights, the Taylor coefficients, the direct
exponentials, the power moments and the decays, none of which depends on
alpha; only the unit phases, the products with them, the carry and the
final contraction run per alpha, each product taking two float columns
per alpha.  The 7 alphas 0:1.5:0.25 take 4.9 ms at n = 2,000 against
14 ms for seven float calls, and the 61 alphas 0:3:0.05 take 0.13 s at
n = 10^4 against 0.41 s, peaking at 21 MB (2-core x86 host); a float
alpha is the one-alpha case of the same code.  The weighted pair sum of
a Selberg majorant or minorant takes the same blocks: pairs up to
`reach` blocks apart are summed exactly, 64 blocks per call of R, and
past the gap from which both arguments x +/- gamma take the far branch
of pcx.beurling, the summand is the Cauchy weight times a power series
in 1/(d +/- c) and a cosine, which the same far field sums as two
exponential sums, one smooth and one at the cosine's frequency.  That sum costs about 17 ms
at n = 2,000 and 72 ms at n = 10^4 on a 2-core x86 host, against 0.36
and 8.4 s for the direct sum over all pairs; the evaluation of R in the
exact near field is most of it.  The direct loop over the unordered
pairs (one chunked loop, doubled for the even summands) now serves only
the weighted pair sum of any other R and count_pairs_brute, the oracle
of count_pairs.  Everything empirical is compared side by side with the
closed-form bound columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (DomainError, MonotonicityError, NonConvergence,
                       ParseError)
from . import pcbounds
from .beurling import FAR, SelbergFunction, far_series

# rows per block of the direct pair loop, which serves weighted_pair_sum
# of an R other than a Selberg function and count_pairs_brute; measured
# when it still served the beta = 1 Selberg majorant, at n = 2,000 and
# 4,000 on a 2-core x86 host: 64-128 rows timed alike, 256 rows ran about
# 8% slower and 2,048 rows about 1.6x slower
_CHUNK = 128

# ordinates per block of F
_BLOCK = 16
# frequencies per pass of an array F: its far field keeps two (senders,
# nodes, frequencies) complex arrays, 2.1 MB per frequency at n = 10^4, so
# that 0:3:0.05 (61 alphas) there peaks at 21 MB, against 149 MB in one
# pass; the 7 alphas of 0:1.5:0.25 take one pass
_ALPHAS = 8
# blocks per call of R in the exact near field of the weighted pair sum of
# a Selberg function: at most 64 x 256 = 16,384 gaps, on which the R of
# pcx.beurling peaks near 1.9 MB
_NEAR = 64
# F sums a pair exactly unless its blocks lie at least as many blocks apart
# as the first offset at which every gap reaches _REACH (2 on the shipped
# table); beyond, _nodes is within 6.4e-15 of 4/(4+d^2)
_REACH = 8.0
# trapezoid rule in u = log t with step _H, from u = _U_LO (the 2 t^2 cut
# off below it is under 2e-19) to t = _T_TOP / d0, beyond which
# exp(-d0 t) < 3e-33
_H = 0.25
_U_LO = -22.0
_T_TOP = 75.0
# terms of the Taylor series that serves the block moments at nodes with
# t span <= 1: the smallest M whose remainder bound 1/M! lies below half an
# ulp, 2^-53 (19)
_ORDER = next(m for m in range(1, 30) if math.factorial(m) > 2 ** 53)
# least number of terms of the tail series sum_{i>=m} z^i / i! that
# _power_weights sums where |z| <= m: the first term left out is at most
# the product of m / (m + l), l = 1 .. _TAIL, times the first one, which is
# below 2^-53 at the highest power m of far_series (17), and each later one
# is at most a third of the one before (46 terms)
_TOP = max(m for m, _ in far_series(1))
_TAIL = next(j for j in range(1, 200)
             if math.prod(_TOP / (_TOP + l) for l in range(1, j + 1)) < 2 ** -53)


@dataclass(frozen=True)
class ZeroDataset:
    ordinates: np.ndarray
    source: str
    t_max: float

    def __len__(self):
        return len(self.ordinates)


@dataclass(frozen=True)
class EmpiricalTable:
    """The columns of empirical_table, one array each, one entry per beta."""
    beta: np.ndarray
    ratio: np.ndarray
    conjecture: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def load_zeros(path):
    """Read and validate an ordinate table.

    One C-level parse (numpy.loadtxt) reads the whole table; it must hold
    exactly one column, so a lone line "1.0 2.0" is not two ordinates.
    Finiteness, positivity and strict ascent are array passes.  Only when
    one of these fails is the file scanned line by line, to raise the
    error of its first bad line: ParseError (not UTF-8, not a number, not
    finite, not positive, or no ordinates) or MonotonicityError.  The C
    parser takes no digit separators ("1_000") and only ASCII numbers.
    """
    try:
        with warnings.catch_warnings():
            # an empty table warns; it is raised below
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8")
    except ValueError as exc:
        raise _first_fault(path) or ParseError(str(exc))
    arr = table.reshape(-1)
    if table.shape[1] != 1 or not (np.isfinite(arr).all() and (arr > 0).all()
                                   and (np.diff(arr) > 0).all()):
        raise _first_fault(path) or ParseError("not one column of ordinates")
    if not len(arr):
        raise ParseError("no ordinates found in file")
    return ZeroDataset(ordinates=arr, source=str(path), t_max=float(arr[-1]))


def _first_fault(path):
    """The error of the first line of the table that breaks a rule of
    load_zeros, or None if none does; the lines are those of a text-mode
    read (split at \\n, \\r and \\r\\n) and counted from 1."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    last = None
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            return ParseError("not UTF-8 text", line=lineno)
        if not line:
            continue
        try:
            if not line.isascii() or "_" in line:
                raise ValueError(line)
            v = float(line)
        except ValueError:
            return ParseError(f"not a number: {line!r}", line=lineno)
        if not math.isfinite(v):
            return ParseError(f"not a finite number: {line!r}", line=lineno)
        if v <= 0:
            return ParseError("ordinates must be positive", line=lineno)
        if last is not None and v <= last:
            return MonotonicityError(
                f"line {lineno}: ordinate {v} not above predecessor")
        last = v
    return None


def _window(ds, T):
    # the normalizations divide by log T
    if not 1.0 < T <= ds.t_max:
        raise DomainError("T must lie in (1, t_max]")
    g = np.sort(ds.ordinates[ds.ordinates <= T])
    if len(g) == 0:
        raise DomainError("no ordinate lies at or below T")
    return g


def count_pairs(ds, T, beta):
    """Ordered pairs with 0 < gamma' - gamma <= 2 pi beta / log T.

    beta is a float, which gives an int, or an array, which gives an
    array of counts in its shape.  A pair (i, j) of the sorted window g
    counts at w = 2 pi beta / log T when 0 < g_j - g_i <= w, as in
    count_pairs_brute.  The window is walked one diagonal j - i = k at a
    time, and each gap d counted at the first w of the sorted grid with
    d <= w.  On sorted g a gap grows with k, so the walk ends at the
    first diagonal with no gap inside the largest w.
    """
    b = np.asarray(beta, dtype=float)
    if not ((0 < b) & (b < math.inf)).all():
        raise DomainError("beta must be positive and finite")
    g = _window(ds, T)
    w = 2.0 * math.pi * b.reshape(-1) / math.log(T)
    order = np.argsort(w)
    w_sorted = w[order]
    bins = np.zeros(len(w), dtype=np.int64)
    for k in range(1, len(g)):
        d = g[k:] - g[:-k]
        d = d[d <= w_sorted[-1]]
        if not len(d):
            break
        # repeated ordinates give d = 0, which no w counts
        bins += np.bincount(np.searchsorted(w_sorted, d[d > 0]),
                            minlength=len(w))
    counts = np.empty(len(w), dtype=np.int64)
    counts[order] = np.cumsum(bins)
    return int(counts[0]) if b.ndim == 0 else counts.reshape(b.shape)


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
    ordered pairs (i, j) and (j, i) contribute the same term.  A Selberg
    function (pcx.beurling.SelbergFunction) is summed in O(n K) by
    _selberg_pairs, any other R by the direct loop over all pairs.
    """
    g = _window(ds, T)
    scale = math.log(T) / (2.0 * math.pi)

    def term(d):
        return np.asarray(R.time_eval(d * scale)) * 4.0 / (4.0 + d ** 2)

    if isinstance(R, SelbergFunction):
        pairs = _selberg_pairs(g, R, scale, term)
    else:
        pairs = float(_pair_sum(g, term))
    return len(g) * float(term(np.zeros(1))[0]) + 2.0 * pairs


def _blocks(g):
    """The sorted window padded with its last value to whole blocks of
    _BLOCK ordinates, as a (blocks, _BLOCK) array, and the 0/1 mask of
    its real (unpadded) entries."""
    n = len(g)
    nb = -(-n // _BLOCK)
    G = np.concatenate([g, np.full(nb * _BLOCK - n, g[-1])]).reshape(nb, -1)
    return G, (np.arange(G.size) < n).reshape(nb, -1).astype(float)


def _reach(G, lo):
    """The first block offset from 2 on at which every gap between blocks
    that far apart is at least lo; at least the block count if there is
    none, and then no pair is far."""
    reach = 2
    while reach < len(G) and _min_gap(G, reach) < lo:
        reach += 1
    return reach


def _min_gap(G, reach):
    """The smallest gap between blocks `reach` apart."""
    return np.min(G[reach:, 0] - G[:-reach, -1])


def _log_grid(lo):
    """The far field's nodes: the trapezoid rule in u = log t with step
    _H, from u = _U_LO to t = _T_TOP / lo, where lo is the smallest rate
    of decay exp(-lo t) that the sampled transforms share."""
    return np.exp(np.arange(_U_LO, math.log(_T_TOP / lo), _H))


def _nodes(d0):
    """Nodes t_k and real weights w_k with sum_k w_k exp(-t_k d) equal to
    4/(4+d^2) for d >= d0: the trapezoid rule in u = log t applied to
    4/(4+d^2) = 2 int_0^inf exp(-d t) sin(2t) dt."""
    t = _log_grid(d0)
    return t, 2.0 * _H * t * np.sin(2.0 * t)


def _power_weights(t, c, terms, shift):
    """Weights w_j on the nodes t with sum_j w_j exp(-t_j (d - shift))
    equal to C(d) sum_m q_m (d + c)^-m, C(d) = 4/(4+d^2), for every
    d >= shift > -c; terms holds the pairs (m, q_m).

    C(d) = 2 Im 1/(d - 2i), so with b = c + 2i each C(d) (d + c)^-m is the
    Laplace transform of
        2 Im[b^-m exp(-c t) (exp(b t) - sum_{i<m} (b t)^i / i!)],
    which the trapezoid rule of _log_grid samples.  Where |b t| <= m the
    bracket is its tail series, sum_{i>=m} (b t)^i / i!, to at least
    _TAIL terms; elsewhere the difference, with exp(-c t) exp(b t) =
    exp(2i t).  Every m is taken at once, as (terms, nodes) arrays.
    exp(-shift t) is folded into every factor, so that none overflows:
    exp((2i - shift) t) and exp(-(c + shift) t) are at most 1, where
    exp(-c t) alone would overflow for a large gamma, and the partial
    sums grow only as a power of t.
    """
    b = c + 2j
    bt = b * t
    wave = np.exp((2j - shift) * t)
    decay = np.exp(-(c + shift) * t)
    m = np.array([m for m, _ in terms])
    q = np.array([q for _, q in terms])
    top = m.max()
    # (b t)^i / i! as running products of b t / i: for i < top at every
    # node, and on to the last tail term where some m takes the tail
    divisors = np.arange(1, top + _TAIL)[:, np.newaxis]
    powers = np.empty((top, len(t)), dtype=complex)
    powers[0] = 1.0
    np.divide(bt, divisors[:top - 1], out=powers[1:])
    np.multiply.accumulate(powers, axis=0, out=powers)
    z = wave - decay * np.cumsum(powers, axis=0)[m - 1]
    inside = np.flatnonzero(np.abs(bt) <= top)
    if len(inside):
        x = bt[inside]
        series = np.empty((top + _TAIL, len(inside)), dtype=complex)
        series[0] = 1.0
        np.divide(x, divisors, out=series[1:])
        np.multiply.accumulate(series, axis=0, out=series)
        # the tail of every m at once, from (b t)^m / m! to the last term
        # (at least _TAIL terms), as suffix sums added smallest first
        tail = np.cumsum(series[::-1], axis=0)[::-1][m]
        z[:, inside] = np.where(np.abs(x) <= m[:, np.newaxis],
                                decay[inside] * tail, z[:, inside])
    b_m = np.array([b ** -k for k in m])[:, np.newaxis]
    return 2.0 * _H * t * np.sum(q[:, np.newaxis] * np.imag(b_m * z), axis=0)


def _selberg_nodes(R, a, d0):
    """Far-field nodes and weights (t, smooth, oscillating) of the
    Selberg function R at x = a d, for gaps d >= d0 past its far branch,
    shifted by d0 as in _power_weights.

    Past |x| = gamma + FAR both arguments y = x + gamma and y = gamma - x
    of r_gamma take the far branch, and with Q(y) = sum_m q_m y^-m
    (pcx.beurling.far_series) and sin^2 = (1 - cos)/2,
        C(d) R(x) = sum_y C(d) Q(y) (1 - cos 2 pi y) / (4 pi^2),
    where cos 2 pi y = Re(exp(i k d) exp(+/- i theta)), k = 2 pi a and
    theta = 2 pi gamma.  y = +/- a (d +/- c) with c = gamma / a, so each
    C(d) Q(y) is a _power_weights sum, decaying no slower than
    exp(-(d0 - c) t).  The smooth weights give the sum of the 1 parts;
    the oscillating ones, times exp(i k d) and read as a real part, the
    cosine parts (exp(i k d0) is folded in).
    """
    c = R.gamma / a
    t = _log_grid(d0 - c)
    # the phase of gamma mod 1: theta itself would round with 2 pi gamma
    theta = 2.0 * math.pi * (R.gamma - round(R.gamma))
    series = far_series(R.sign)
    smooth = 0.0
    oscillating = 0.0
    for side in (+1, -1):
        w = _power_weights(t, side * c,
                           [(m, q * side ** m / a ** m) for m, q in series],
                           d0)
        smooth = smooth + w
        oscillating = oscillating + np.exp(1j * side * theta) * w
    norm = 1.0 / (4.0 * math.pi ** 2)
    k = 2.0 * math.pi * a
    return t, norm * smooth, -norm * np.exp(1j * k * d0) * oscillating


def _selberg_pairs(g, R, scale, term):
    """Sum of term(d) = R(scale d) C(d) over the unordered pairs of the
    sorted window g, for a Selberg function R.

    On the blocks of F, pairs inside a block and up to `reach` blocks
    apart are summed exactly by term (the padding masked).  reach is the
    first offset at which every gap reaches both _REACH and the gap
    d_far = (gamma + FAR) / (dilation scale) from which R takes its far
    branch.  Every farther pair takes the closed form of _selberg_nodes,
    in one far field at the frequencies 0 and k: the smooth part's weights
    at 0, the oscillating part's at k.
    """
    G, real = _blocks(g)
    nb = len(G)
    a = R.dilation * scale
    reach = _reach(G, max(_REACH, (R.gamma + FAR) / a))
    i, j = np.triu_indices(_BLOCK, 1)
    near = 0.0
    # term takes at most _NEAR blocks at a time, which bounds its
    # temporaries
    for lo in range(0, nb, _NEAR):
        A, a_real = G[lo:lo + _NEAR], real[lo:lo + _NEAR]
        near += np.sum(term(A[:, j] - A[:, i]) * (a_real[:, i] * a_real[:, j]))
        for o in range(1, min(reach, nb - lo)):
            B, b_real = G[lo + o:lo + o + _NEAR], real[lo + o:lo + o + _NEAR]
            d = B[:, np.newaxis, :] - A[:len(B), :, np.newaxis]
            near += np.sum(term(d) * (a_real[:len(B), :, np.newaxis]
                                      * b_real[:, np.newaxis, :]))
    if reach >= nb:
        return float(near)
    d0 = _min_gap(G, reach)
    t, smooth, oscillating = _selberg_nodes(R, a, d0)
    k = np.array([0.0, 2.0 * math.pi * a])
    phase = real[..., np.newaxis] * np.exp(
        1j * k * (G - G[:, :1])[..., np.newaxis])
    far = _far_field(G, phase, reach, k, t,
                     np.stack([smooth, oscillating], axis=1), d0)
    return float(near) + float(far[0]) + float(far[1])


def _taylor(t, span):
    """The Taylor coefficients (-span t)^m / m!, m < _ORDER, of exp(-t x)
    in x / span, for the nodes t with t span <= 1 (the first ones of the
    ascending t): one row per such node, as running products of
    -span t / m."""
    small = np.count_nonzero(t * span <= 1.0)
    steps = np.empty((small, _ORDER))
    steps[:, 0] = 1.0
    np.divide(-span * t[:small, np.newaxis], np.arange(1, _ORDER), out=steps[:, 1:])
    return np.multiply.accumulate(steps, axis=1, out=steps)


def _moments(x, phase, t, span, taylor, out, scratch):
    """Fill out, a (blocks, nodes) or (blocks, nodes, alphas) complex
    array, with sum_i phase_i exp(-t x_i) over each block row of offsets
    0 <= x <= span, for every node t; phase has the shape of x, or of x
    with the trailing alpha axis of out.

    The first len(taylor) nodes, those with t span <= 1, take the Taylor
    series of exp(-t x) in x / span, cut at _ORDER terms (remainder under
    1/_ORDER!), from the per-block power moments P_m = sum_i phase_i
    (x_i / span)^m and the coefficients taylor = _taylor(t, span); the
    other nodes take their exponentials directly.  The exponentials and
    the powers do not depend on the phases, so every alpha shares them.
    Both products write into out through its float view; the powers and
    the exponentials take turns in scratch, a float array of at least
    x.size * max(_ORDER, nodes - len(taylor)) entries."""
    small = len(taylor)
    # the float view of the phases, two real columns per alpha, keeps the
    # products real
    parts = phase.view(float).reshape(x.shape + (-1,))
    columns = out.view(float).reshape(len(x), len(t), -1)
    # node-major, so that each product and exp runs over all offsets at once
    direct = scratch[:(len(t) - small) * x.size].reshape((-1,) + x.shape)
    np.multiply(-t[small:, np.newaxis, np.newaxis], x, out=direct)
    np.exp(direct, out=direct)
    np.matmul(np.swapaxes(direct, 0, 1), parts, out=columns[:, small:])
    # one step per power: numpy's multiply.accumulate gives the same
    # products but runs its inner loop down the powers, 0.93 against
    # 0.15 ms at n = 10^4 (2-core x86 host)
    powers = scratch[:_ORDER * x.size].reshape((_ORDER,) + x.shape)
    powers[0] = 1.0
    np.divide(x, span, out=powers[1])
    for m in range(2, _ORDER):
        np.multiply(powers[m - 1], powers[1], out=powers[m])
    np.matmul(taylor, np.swapaxes(powers, 0, 1) @ parts,
              out=columns[:, :small])
    return out


def _shift(dx, t, k, out, scratch):
    """Fill out, a (gaps, nodes, alphas) complex array, with exp(-(t -
    i k) dx) for every gap dx, node t and frequency k of the array k: a
    real decay, shared by every k, times the gap's unit phase.  The decay
    is taken in the float array scratch (dx.size * nodes entries or
    more).  The products fill the float view of out: for one k, one
    multiply per float column, running down the nodes; for more, einsum's
    outer product, whose inner loop is one row of the 2 len(k) columns.
    At n = 10^4 (2-core x86 host) the columns take 0.16 ms for one k and
    7.5 for eight, einsum 0.56 and 1.3, and a broadcast multiply 1.0 and
    2.3."""
    decay = scratch[:len(dx) * len(t)].reshape(len(dx), len(t))
    np.multiply(-dx[:, np.newaxis], t, out=decay)
    np.exp(decay, out=decay)
    unit = np.exp(1j * k * dx[:, np.newaxis]).view(float)
    columns = out.view(float).reshape(len(dx), len(t), 2 * len(k))
    if len(k) == 1:
        np.multiply(decay, unit[:, :1], out=columns[..., 0])
        np.multiply(decay, unit[:, 1:], out=columns[..., 1])
    else:
        np.einsum("gt,gk->gtk", decay, unit, out=columns)
    return out


def _carry(sums, steps):
    """Turn the rows of sums into running sums in place: row a becomes
    row a + (row a - 1, already summed) * steps[a - 1].  Each row is taken
    flat: numpy's call overhead is lower on one axis than on two."""
    width = sums[0].size
    rows = list(sums.reshape(-1, width))
    for prev, row, step in zip(rows, rows[1:], steps.reshape(-1, width)):
        row += prev * step


def _far_field(G, phase, reach, k, t, w, shift=0.0):
    """Sum of Re(exp(i k d) sum_j w_j exp(-t_j (d - shift))) over the
    pairs `reach` or more blocks apart (fewer than the blocks), for every
    frequency of the array k, given the nodes t, their real or complex
    weights w (one per node, shared by every k, or a (nodes, len(k))
    array, a column per k) and the block-local phases exp(i k (x - left
    edge)) of the ordinates (a contiguous complex (blocks, _BLOCK,
    len(k)) array, zero on padding); with the weights of _nodes it is the
    sum of cos(k d) 4/(4+d^2), one entry per k.  Block a sends its moment
    about its right edge; a running sum of the moments is carried from
    right edge to right edge (steps >= 0) and handed to block a + reach at
    its left edge, so every phase is k times a gap inside a block or
    between block edges.
    A shift up to the smallest hand-off gap keeps every factor at most 1,
    the weights carrying exp(-(t_j - i k) shift).

    Moments are taken only for the blocks that send or receive, and all
    large arrays live in one workspace filled in place: the carried sums,
    one more (blocks, nodes, alphas) array (the steps, then the hand-off
    factors, then the receivers' moments) and the scratch of _moments and
    _shift, which holds only what every k shares.  As one block, the C
    allocator keeps it from call to call (glibc keeps up to twice the
    largest block it has unmapped), where separate arrays of a third of
    its size would go back to the kernel after each call and be paged in
    afresh on the next."""
    senders = len(G) - reach
    left, right = G[:, 0], G[:, -1]
    # any positive scale serves when every block is one repeated value
    span = float(np.max(right - left)) or 1.0
    taylor = _taylor(t, span)
    size = senders * len(t) * len(k)
    per_row = max(len(t), _BLOCK * max(_ORDER, len(t) - len(taylor)))
    work = np.empty(4 * size + senders * per_row)
    carried, other = work[:4 * size].view(complex).reshape(
        2, senders, len(t), len(k))
    scratch = work[4 * size:]
    # exp(i k (right - x)) = conj(exp(i k (x - left))) exp(i k (right - left))
    _moments(right[:senders, np.newaxis] - G[:senders],
             np.conj(phase[:senders])
             * np.exp(1j * k * (right - left)[:senders, np.newaxis])[:, np.newaxis],
             t, span, taylor, carried, scratch)
    _carry(carried, _shift(np.diff(right[:senders]), t, k,
                           other[:senders - 1], scratch))
    # the hand-off factors times the carried sums
    hand = _shift(left[reach:] - right[:senders] - shift, t, k, other, scratch)
    np.multiply(hand, carried, out=carried)
    into = _moments(G[reach:] - left[reach:, np.newaxis], phase[reach:], t,
                    span, taylor, other, scratch)
    into *= carried
    # one row-by-column product per k, each summed as if that k were alone
    w = w.reshape(len(t), -1).T[:, :, np.newaxis]
    return np.real(np.sum(into, axis=0).T[:, np.newaxis] @ w).reshape(-1)


def _near_F(G, phase, reach, k):
    """Sum of cos(k d) 4/(4+d^2) over the pairs inside a block (j > i)
    and up to reach - 1 blocks apart, exactly, for every frequency of the
    array k.  For x_j in block b + o and x_i in block b, cos(k d) =
    Re(e_j conj(e_i) exp(i k (left_{b+o} - left_b))); each offset o fills
    one (blocks, _BLOCK, _BLOCK) buffer with the Cauchy weights in place,
    once for every k, and contracts it as real batched products with two
    columns per k.  At o = 0 the weights of pairs j <= i are zeroed."""
    nb = len(G)
    left = G[:, 0]
    weights = np.empty((nb, _BLOCK, _BLOCK))
    near = np.zeros(len(k))
    for o in range(reach):
        cauchy = weights[:nb - o]
        np.subtract(G[o:, np.newaxis, :], G[:nb - o, :, np.newaxis], out=cauchy)
        np.square(cauchy, out=cauchy)
        cauchy += 4.0
        np.divide(4.0, cauchy, out=cauchy)
        if o == 0:
            cauchy *= np.triu(np.ones((_BLOCK, _BLOCK)), 1)
        hop = phase[o:] * np.exp(
            1j * k * (left[o:] - left[:nb - o])[:, np.newaxis])[:, np.newaxis]
        # Re(conj(e_i) hop_j) against the Cauchy weights, as real products
        # on the float view of hop
        weighted = (cauchy @ hop.view(float).reshape(nb - o, _BLOCK, 2 * len(k))
                    ).reshape(hop.shape + (2,))
        terms = (phase[:nb - o].real * weighted[..., 0]
                 + phase[:nb - o].imag * weighted[..., 1])
        # one contiguous pairwise sum per k, as if each k were alone
        near += np.sum(np.moveaxis(terms, -1, 0).reshape(len(k), -1), axis=1)
    return near


def empirical_F(ds, T, alpha):
    """Montgomery-style normalized exponential pair sum at alpha:
    2 pi / (n log T) times the sum of cos(alpha log T d) 4/(4+d^2) over
    all ordered pairs of the window, d the gap between their ordinates.

    alpha is a float, which gives a float, or an array, which gives an
    array of F in its shape.  F is even in alpha, so each distinct
    |alpha| is summed once.  The window, its blocks and the far field's
    nodes are set up once per call; the Cauchy weights, the Taylor
    coefficients, the direct exponentials, the power moments and the
    decays once per chunk of _ALPHAS frequencies, with one pair of float
    columns per frequency in every product.  A float is the one-alpha
    case of the same sums.  An alpha so large that its phases overflow
    (1e307 over the shipped table) leaves an F that is not finite, and
    NonConvergence names the first such alpha."""
    a = np.asarray(alpha, dtype=float)
    if not np.isfinite(a).all():
        raise DomainError("alpha must be finite")
    logT = math.log(T)
    G, real = _blocks(_window(ds, T))
    n = int(np.count_nonzero(real))
    # the mask of the real entries, kept through every chunk as booleans,
    # an eighth of the 0/1 floats; either gives the same phases
    real = real > 0
    # the far field starts at the first block offset whose gaps reach _REACH
    reach = _reach(G, _REACH)
    nodes = _nodes(_min_gap(G, reach)) if reach < len(G) else None
    # a huge alpha overflows its phases to a value that is not finite,
    # found in F below with no numpy warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        k, where = np.unique(np.abs(a.reshape(-1)) * logT,
                             return_inverse=True)
        pairs = np.empty(len(k))
        for lo in range(0, len(k), _ALPHAS):
            chunk = k[lo:lo + _ALPHAS]
            # block-local unit phases e_i = exp(i k (x_i - left edge)),
            # zero on the padding, one column per k
            phase = np.exp(1j * chunk * (G - G[:, :1])[..., np.newaxis])
            phase *= real[..., np.newaxis]
            pairs[lo:lo + _ALPHAS] = _near_F(G, phase, reach, chunk)
            if nodes is not None:
                pairs[lo:lo + _ALPHAS] += _far_field(G, phase, reach, chunk,
                                                     *nodes)
        # the summand is even in d and equals 1 on the diagonal
        F = (2.0 * math.pi * (n + 2.0 * pairs) / (n * logT))[where]
    bad = ~np.isfinite(F)
    if bad.any():
        raise NonConvergence(f"empirical_F: F is not finite at "
                             f"alpha={a.reshape(-1)[np.argmax(bad)]}")
    if isinstance(alpha, np.ndarray) or np.ndim(alpha):
        return F.reshape(a.shape)
    return float(F[0])


def empirical_table(ds, T, betas):
    """The empirical pair ratio on an ascending beta grid, beside the
    columns of pcbounds.bound_table."""
    n_t = len(_window(ds, T))
    bounds = pcbounds.bound_table(betas)
    return EmpiricalTable(beta=bounds.beta,
                          ratio=count_pairs(ds, T, bounds.beta) / n_t,
                          conjecture=bounds.conjecture, lower=bounds.lower,
                          upper=bounds.upper)
