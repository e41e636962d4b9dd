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
from block to block, so one F costs O(n) rather than O(n^2).  No cos or
complex exponential of a large argument is taken: each ordinate gets one
unit phase relative to its block's left edge, and a pair's cos(k d) is the
real part of a product of two such phases and one per block pair.  The
far field's block moments split their nodes as a multipole method does
(Greengard-Rokhlin): a node t with t times the widest block at most 1
takes a Taylor series in the block-local offsets, one small matmul of
per-block power moments; only the larger nodes take exponentials.  The
weighted pair sum of a Selberg majorant or minorant takes the same
blocks: pairs up to `reach` blocks apart are summed exactly, and past
the gap from which both arguments x +/- gamma take the far branch of
pcx.beurling, the summand is the Cauchy weight times a power series in
1/(d +/- c) and a cosine, which the same far field sums as two exponential sums, one
smooth and one at the cosine's frequency.  That sum costs about 0.03 s
at n = 2,000 and 0.12 s at n = 10^4 on a 2-core x86 host, against 0.36
and 8.4 s for the direct sum over all pairs.  The direct loop over the
unordered pairs (one chunked loop, doubled for the even summands) now
serves only the weighted pair sum of any other R and count_pairs_brute,
the oracle of count_pairs.  Everything empirical is compared side by
side with the closed-form bound columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, MonotonicityError, ParseError
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
# terms of the tail series sum_{i>=m} z^i / i! that _power_weights sums
# where |z| <= m: the first term left out is at most the product of
# m / (m + l), l = 1 .. _TAIL, times the first one, which is below 2^-53 at
# the highest power m of far_series (17), and each later one is at most a
# third of the one before (46 terms)
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
    bracket is its tail series, sum_{i>=m} (b t)^i / i!, to _TAIL terms;
    elsewhere the difference, with exp(-c t) exp(b t) = exp(2i t).
    exp(-shift t) is folded into every factor, so that none overflows:
    exp((2i - shift) t) and exp(-(c + shift) t) are at most 1, where
    exp(-c t) alone would overflow for a large gamma, and the partial
    sums grow only as a power of t.
    """
    b = c + 2j
    bt = b * t
    wave = np.exp((2j - shift) * t)
    decay = np.exp(-(c + shift) * t)
    top = max(m for m, _ in terms)
    # (b t)^i / i! for i < top, and the partial sums of the exponential
    powers = np.empty((top, len(t)), dtype=complex)
    powers[0] = 1.0
    for i in range(1, top):
        powers[i] = powers[i - 1] * bt / i
    partial = np.cumsum(powers, axis=0)
    total = np.zeros(len(t))
    for m, q in terms:
        z = wave - decay * partial[m - 1]
        small = np.abs(bt) <= m
        if small.any():
            x = bt[small]
            step = powers[m - 1][small] * x / m
            tail = step
            for i in range(m + 1, m + _TAIL):
                step = step * x / i
                tail = tail + step
            z[small] = decay[small] * tail
        total += q * np.imag(b ** -m * z)
    return 2.0 * _H * t * total


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
    branch.  Every farther pair takes the closed form of _selberg_nodes:
    one far field at k = 0 for the smooth part and one at k for the
    oscillating part.
    """
    G, real = _blocks(g)
    nb = len(G)
    a = R.dilation * scale
    reach = _reach(G, max(_REACH, (R.gamma + FAR) / a))
    i, j = np.triu_indices(_BLOCK, 1)
    near = np.sum(term(G[:, j] - G[:, i]) * (real[:, i] * real[:, j]))
    for o in range(1, reach):
        d = G[o:, np.newaxis, :] - G[:-o, :, np.newaxis]
        near += np.sum(term(d) * (real[:-o, :, np.newaxis]
                                  * real[o:, np.newaxis, :]))
    if reach >= nb:
        return float(near)
    d0 = _min_gap(G, reach)
    t, smooth, oscillating = _selberg_nodes(R, a, d0)
    k = 2.0 * math.pi * a
    phase = real * np.exp(1j * k * (G - G[:, :1]))
    return (float(near) + _far_field(G, real, reach, 0.0, t, smooth, d0)
            + _far_field(G, phase, reach, k, t, oscillating, d0))


def _moments(x, phase, t, span):
    """sum_i phase_i exp(-t x_i) over each block row of offsets
    0 <= x <= span, for every node t: a (blocks, nodes) complex array.

    A node with t span <= 1 takes the Taylor series of exp(-t x) in
    x / span, cut at _ORDER terms (remainder under 1/_ORDER!), from the
    per-block power moments P_m = sum_i phase_i (x_i / span)^m; the other
    nodes take their exponentials directly."""
    # two real columns keep the products real
    parts = np.stack([phase.real, phase.imag], axis=-1)
    small = np.count_nonzero(t * span <= 1.0)
    u = x / span
    powers = np.empty((_ORDER,) + x.shape)
    powers[0] = 1.0
    for m in range(1, _ORDER):
        np.multiply(powers[m - 1], u, out=powers[m])
    power_moments = np.swapaxes(powers, 0, 1) @ parts
    order = np.arange(_ORDER)
    factorials = np.array([math.factorial(m) for m in order], dtype=float)
    taylor = ((-span * t[:small, np.newaxis]) ** order / factorials
              @ power_moments)
    direct = np.exp(-t[small:, np.newaxis] * x[:, np.newaxis, :]) @ parts
    m = np.concatenate([taylor, direct], axis=1)
    return m[..., 0] + 1j * m[..., 1]


def _shift(dx, t, k):
    """exp(-(t - i k) dx) for every gap dx and node t: a real decay times
    the gap's unit phase."""
    return (np.exp(-dx[:, np.newaxis] * t)
            * np.exp(1j * k * dx)[:, np.newaxis])


def _far_field(G, phase, reach, k, t, w, shift=0.0):
    """Sum of Re(exp(i k d) sum_j w_j exp(-t_j (d - shift))) over the
    pairs `reach` or more blocks apart (fewer than the blocks), given the
    nodes t, their real or complex weights w and the block-local phases
    exp(i k (x - left edge)) of the ordinates (zero on padding); with the
    weights of _nodes it is the sum of cos(k d) 4/(4+d^2).  Block a sends
    its moment about its right edge; a running sum of the moments is
    carried from right edge to right edge (steps >= 0) and handed to
    block a + reach at its left edge, so every phase is k times a gap
    inside a block or between block edges.  A shift up to the smallest
    hand-off gap keeps every factor at most 1, the weights carrying
    exp(-(t_j - i k) shift)."""
    nb = len(G)
    left, right = G[:, 0], G[:, -1]
    gaps = left[reach:] - right[:-reach]
    # any positive scale serves when every block is one repeated value
    span = float(np.max(right - left)) or 1.0
    # exp(i k (right - x)) = conj(exp(i k (x - left))) exp(i k (right - left))
    out_phase = np.conj(phase) * np.exp(1j * k * (right - left))[:, np.newaxis]
    out = _moments(right[:, np.newaxis] - G, out_phase, t, span)
    into = _moments(G - left[:, np.newaxis], phase, t, span)
    step = _shift(np.diff(right), t, k)
    carried = np.empty((nb - reach, len(t)), dtype=complex)
    carried[0] = out[0]
    for a in range(1, nb - reach):
        carried[a] = carried[a - 1] * step[a - 1] + out[a]
    hand = carried * _shift(gaps - shift, t, k)
    return float(np.real(np.sum(into[reach:] * hand, axis=0) @ w))


def empirical_F(ds, T, alpha):
    """Montgomery-style normalized exponential pair sum at alpha:
    2 pi / (n log T) times the sum of cos(alpha log T d) 4/(4+d^2) over
    all ordered pairs of the window, d the gap between their ordinates."""
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    g = _window(ds, T)
    n = len(g)
    logT = math.log(T)
    k = abs(alpha) * logT
    G, real = _blocks(g)
    nb = len(G)
    # the far field starts at the first block offset whose gaps reach _REACH
    reach = _reach(G, _REACH)
    # block-local unit phases e_i = exp(i k (x_i - left edge)), zero on the
    # padding: for x_j in block b + o and x_i in block b,
    # cos(k d) = Re(e_j conj(e_i) exp(i k (left_{b+o} - left_b)))
    left = G[:, 0]
    phase = real * np.exp(1j * k * (G - left[:, np.newaxis]))
    # pairs from block b to block b + o, exactly; within a block, j > i
    i, j = np.triu_indices(_BLOCK, 1)
    d = G[:, j] - G[:, i]
    near = np.sum(np.real(phase[:, j] * np.conj(phase[:, i]))
                  * 4.0 / (4.0 + d ** 2))
    for o in range(1, reach):
        d = G[o:, np.newaxis, :] - G[:nb - o, :, np.newaxis]
        hop = phase[o:] * np.exp(1j * k * (left[o:] - left[:-o]))[:, np.newaxis]
        # Re(conj(e_i) hop_j) against the Cauchy weights, as real products
        weighted = (4.0 / (4.0 + d ** 2)) @ np.stack([hop.real, hop.imag], -1)
        near += np.sum(phase[:-o].real * weighted[..., 0]
                       + phase[:-o].imag * weighted[..., 1])
    pairs = near
    if reach < nb:
        pairs += _far_field(G, phase, reach, k, *_nodes(_min_gap(G, reach)))
    # the summand is even in d and equals 1 on the diagonal
    return 2.0 * math.pi * (n + 2.0 * float(pairs)) / (n * logT)


def empirical_table(ds, T, betas):
    """The empirical pair ratio on an ascending beta grid, beside the
    columns of pcbounds.bound_table."""
    n_t = len(_window(ds, T))
    bounds = pcbounds.bound_table(betas)
    return EmpiricalTable(beta=bounds.beta,
                          ratio=count_pairs(ds, T, bounds.beta) / n_t,
                          conjecture=bounds.conjecture, lower=bounds.lower,
                          upper=bounds.upper)
