"""Zero-ordinate datasets and the empirical pair statistics built on them.

Input files are plain text, one ordinate per line, '#' comments allowed,
strictly ascending; one C-level parse reads a table, and only a table
that breaks a rule is scanned line by line, for the line to report.
Pair counts walk the diagonals j - i = k of the sorted window until one
has no gap inside the largest window, sort each diagonal's gaps inside
it and count them by binary search, so their cost grows with the pairs
counted: at n = 10^4 the 51 betas 0.5:3:0.05 take 0.25 ms, one beta = 1
0.16 ms and one beta = 100 5.9 ms (2-core x86 host); the parse of the
10^4-line table takes 1.7 ms against 8.9 for a Python loop.  The
normalized exponential pair sum F(alpha) cuts the sorted window into
blocks: pairs in nearby blocks are summed exactly, and pairs farther
apart through a short exponential sum for the Cauchy weight carried
from block to block, so one F costs O(n) rather than O(n^2): about 2.4
ms at n = 10^4 and 0.6 ms at n = 2,000 on a window whose plan (below) is
kept, 8.5 and 1.4 ms on a new one (2-core x86 host).  The exponential
sum's nodes are a trapezoid rule in log t, save that those below 1 / the
window's span, whose exponentials no gap of the window tells apart from
a polynomial of degree 11 in t, collapse into the 6-point Gauss rule of
their own weights (Golub-Welsch): 49 nodes in place of 95 on the shipped
table.  No cos or complex exponential of a large argument is taken: each
ordinate gets one unit phase relative to its block's left edge, and a
pair's cos(k d) is the real part of a product of two such phases and one
per block pair.  A block's moment sum_i phase_i exp(-t x_i), x_i the
block-local offsets, is one batched product of the phases with the
exponentials exp(-t x) at every node.  What F needs that no alpha
changes is its plan, built once per window: the blocks and their mask,
reach, the nodes and weights, the near field's Cauchy weights (one
(blocks, 16, 16) array per block offset below reach), the far field's
decays exp(-t gap) of its carry steps and hand-offs, and the
exponentials exp(-t x) of its block moments, once for the senders and
once for the receivers.  Two slots keep the plans of the last two
windows F or the Selberg pair sum (below) was taken on, keyed by the
window's content, so F again on either table, at another alpha or
another T with the same window, builds none of it, also when one call
on the other table came between; on the shipped table a plan holds 11.0
MB, 7.8 MB of it the exponentials, at n = 2,000 2.0 MB (tracemalloc).
Working set: beyond the plan, no temporary grows as blocks x 16 x nodes
or blocks x 16 x 16: the far field keeps everything else in one
workspace, two (blocks, nodes, alphas) complex arrays.  One F at n =
10^4 on the table of the plan peaks at 1.6 MB (tracemalloc) and, as the
C allocator keeps the one workspace between calls, pages in nothing
new; the call that builds the plan peaks at 12.6 MB.  F takes an alpha
grid in one call: the plan is taken once per window, and only the unit
phases, the products with them, the carry and the final contraction run
per alpha, _ALPHAS = 8 alphas at a time, each product taking two float
columns per alpha.  The
7 alphas 0:1.5:0.25 take about 1.5 ms at n = 2,000 against 3.9 ms for
seven float calls, and the 61 alphas 0:3:0.05 about 75 ms at n = 10^4
against 0.15 s, peaking at 11.9 MB (2-core x86 host); a float alpha is
the one-alpha case of the same code.  The weighted pair sum of a
Selberg majorant or minorant takes F's plan of the window, from the
same memo: pairs up to `reach` blocks apart are summed exactly, and
past the gap from which both arguments x +/- gamma take the far branch
of pcx.beurling, the summand is the Cauchy weight times a power series
in 1/(d +/- c) and a cosine, which the same far field sums as two
exponential sums, one smooth and one at the cosine's frequency.  It
takes them on F's nodes, its Gauss rule included, with the plan's kept
decays and exponentials, and on the few (at most 6 seen) trapezoid
nodes above F's top that its sums, decaying more slowly than F's, still
need: a window has one node rule for both.  The exact part takes R,
piece by piece (up to 64 x 256 gaps each), from pcx.beurling's one
assembly of r_gamma, which alone knows its switch and sign rule; each
gap's two squared sines come from unit phases, as F's near field takes
its cosines, and only a piece's arguments below the switch take a sine
of their own, in the closed form.  That sum costs about 6.5 ms at n =
2,000 and 30 ms at n = 10^4 on a window whose plan is kept, 7 and 37 ms
on a new one (2-core x86 host), against 0.36 and 8.4 s for the direct
sum over all pairs, and peaks at 1.7 and 3.4 MB (tracemalloc); on a new
window it builds F's plan, keeps it in the memo and peaks at 3.7 and
14.4 MB.  weighted_pair_sum sums Selberg functions alone and raises
DomainError for any other R, which it has no fast sum for; the one
direct loop over the pairs left here is count_pairs_brute's, the oracle
of count_pairs.  pcx.cli sets the pair ratio beside the closed-form
bound columns, so nothing here reads pcx.pcbounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import (DomainError, MonotonicityError, NonConvergence,
                       ParseError)
from .beurling import FAR, SelbergFunction, _r_gamma, far_series

# rows per chunk of count_pairs_brute's direct loop over the pairs; its
# count does not depend on them.  At n = 2,000 and 4,000, beta = 1 (2-core
# x86 host): 64 rows 7.2 and 22 ms, 128 rows 8.7 and 27 ms, 256 rows 10
# and 28 ms, 2,048 rows 48 and 102 ms
_CHUNK = 128

# ordinates per block of F
_BLOCK = 16
# frequencies per pass of an array F: its far field keeps two (senders,
# nodes, frequencies) complex arrays, 1.0 MB per frequency at n = 10^4, so
# that 0:3:0.05 (61 alphas) there peaks at 11.9 MB, against 92 MB in one
# pass; the 7 alphas of 0:1.5:0.25 take one pass
_ALPHAS = 8
# blocks per piece of the exact near field of the weighted pair sum of a
# Selberg function, up to 64 x 256 = 16,384 gaps, each summed as one array
_NEAR = 64
# F sums a pair exactly unless its blocks lie at least as many blocks apart
# as the first offset at which every gap reaches _REACH (2 on the shipped
# table); beyond, up to the window's span, _nodes is within 6.4e-15 of
# 4/(4+d^2)
_REACH = 8.0
# trapezoid rule in u = log t with step _H, from u = _U_LO (the 2 t^2 cut
# off below it is under 2e-19) to t = _T_TOP / d0, beyond which
# exp(-d0 t) < 3e-33
_H = 0.25
_U_LO = -22.0
_T_TOP = 75.0
# nodes of the Gauss rule that takes the place of the trapezoid nodes with
# t times the window's span below 1, whose exponentials no gap tells apart
# from a polynomial of degree 11
_GAUSS = 6
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
    time: its gaps up to the largest w are sorted, and each w counts
    those up to it less those up to 0, by two binary searches per w.  On
    sorted g a gap grows with k, so the walk ends at the first diagonal
    with no gap inside the largest w.
    """
    b = np.asarray(beta, dtype=float)
    if not ((0 < b) & (b < math.inf)).all():
        raise DomainError("beta must be positive and finite")
    g = _window(ds, T)
    w = 2.0 * math.pi * b.reshape(-1) / math.log(T)
    # an empty grid ends the walk at k = 1
    top = w.max(initial=0.0)
    counts = np.zeros(len(w), dtype=np.int64)
    for k in range(1, len(g)):
        d = g[k:] - g[:-k]
        d = d[d <= top]
        if not len(d):
            break
        d.sort()
        # repeated ordinates give d = 0, which no w counts
        counts += np.searchsorted(d, w, "right") - np.searchsorted(d, 0.0, "right")
    return int(counts[0]) if b.ndim == 0 else counts.reshape(b.shape)


def count_pairs_brute(ds, T, beta):
    """O(n^2) oracle for count_pairs: pairs with 0 < |gamma' - gamma| <= w,
    by the direct loop over the index pairs i < j, a chunk of rows at a
    time.  beta is a float, positive and finite as count_pairs requires."""
    if not 0 < beta < math.inf:
        raise DomainError("beta must be positive and finite")
    g = _window(ds, T)
    w = 2.0 * math.pi * beta / math.log(T)
    count = 0
    for i in range(0, len(g), _CHUNK):
        rows = g[i : i + _CHUNK, np.newaxis]
        after = g[np.newaxis, i + _CHUNK :] - rows
        inside = (rows.T - rows)[np.triu_indices(len(rows), 1)]
        for d in (after, inside):
            count += np.count_nonzero((np.abs(d) > 0) & (np.abs(d) <= w))
    return count


def weighted_pair_sum(ds, T, R):
    """Double sum of R(scale d) C(d), C(d) = 4/(4+d^2) and scale = log T /
    2 pi, over the ordered pairs of the window, d their gap, for a Selberg
    function R (pcx.beurling.SelbergFunction); any other R raises
    DomainError.

    The diagonal contributes R(0) per ordinate.  R is even, so each
    unordered pair counts twice.  On the blocks of F's plan of the window
    (from the memo of _plan, built if F has not seen it), pairs inside a
    block and up to `reach` blocks apart are summed exactly by
    _selberg_near.  reach is the first offset at which every gap reaches
    both _REACH and the gap d_far = (gamma + FAR) / (dilation scale) from
    which R takes its far branch, so it is never below F's.  Every farther
    pair takes the closed form of _selberg_nodes, in one far field at the
    frequencies 0 and k: the smooth part's weights at 0, the oscillating
    part's at k.  Its nodes are F's, then the few of _log_grid(d0 - c)
    above F's top node, where the pair sum decays more slowly than F (0 to
    6 of them on the shipped table's prefixes, beta in [0.01, 200], delta
    in [1, 2]).  On F's nodes the far field reads the plan's step decays
    and exponentials and builds only its hand-off decays, shifted by its
    own d0; the weights of _selberg_nodes there are scaled by F's weight
    over the trapezoid weight 2 _H t sin 2t, exactly 1 on a trapezoid
    node, so that on F's Gauss nodes they take F's Gauss rule of the
    smooth ratio of the two.  The nodes above F's top take a _FarPlan of
    their own.
    """
    if not isinstance(R, SelbergFunction):
        raise DomainError("weighted_pair_sum takes a Selberg function")
    g = _window(ds, T)
    scale = math.log(T) / (2.0 * math.pi)
    diagonal = len(g) * float(R.time_eval(np.zeros(1))[0])
    plan = _plan(g)
    G, real, far = plan.G, plan.real, plan.far
    nb = len(G)
    a = R.dilation * scale
    reach = _reach(G, max(_REACH, (R.gamma + FAR) / a))
    near = _selberg_near(G, real, R, scale, reach)
    if reach >= nb:
        return diagonal + 2.0 * float(near)
    d0 = _min_gap(G, reach)
    t = far.t
    grid = _log_grid(d0 - R.gamma / a)
    top = grid[grid > t[-1]]
    k = np.array([0.0, 2.0 * math.pi * a])
    phase = real[..., np.newaxis] * np.exp(
        1j * k * (G - G[:, :1])[..., np.newaxis])
    hand = G[reach:, 0] - G[:nb - reach, -1] - d0
    w = (_selberg_nodes(R, a, d0, t)
         * (far.w / (2.0 * _H * t * np.sin(2.0 * t)))[:, np.newaxis])
    total = _far_field(G, phase, reach, k, far._replace(
        w=w, hand_gaps=hand, hand_decays=_decay(hand, t)))
    if len(top):
        total += _far_field(G, phase, reach, k, _far_plan(
            G, reach, top, _selberg_nodes(R, a, d0, top), d0))
    return diagonal + 2.0 * (float(near) + float(total[0]) + float(total[1]))


def _blocks(g):
    """The sorted window padded with its last value to whole blocks of
    _BLOCK ordinates, as a (blocks, _BLOCK) array, and the boolean mask
    of its real (unpadded) entries."""
    n = len(g)
    nb = -(-n // _BLOCK)
    G = np.concatenate([g, np.full(nb * _BLOCK - n, g[-1])]).reshape(nb, -1)
    return G, (np.arange(G.size) < n).reshape(nb, -1)


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


def _nodes(d0, span):
    """Nodes t_k and real weights w_k with sum_k w_k exp(-t_k d) equal to
    4/(4+d^2) for d0 <= d <= span: the trapezoid rule in u = log t applied
    to 4/(4+d^2) = 2 int_0^inf exp(-d t) sin(2t) dt, with its nodes below
    1 / span collapsed into the _GAUSS-point Gauss rule of their own
    weights w_k = 2 _H t_k sin(2 t_k) > 0.  On those nodes exp(-t d),
    t d < 1, lies within (t d)^12 / 12! of a polynomial of degree 11 in t,
    which the Gauss rule sums as they do; when at most _GAUSS nodes lie
    below the cut the trapezoid rule is kept whole."""
    t = _log_grid(d0)
    w = 2.0 * _H * t * np.sin(2.0 * t)
    below = np.count_nonzero(t * span < 1.0)
    if below <= _GAUSS:
        return t, w
    low, weights = _gauss(t[:below], w[:below])
    return (np.concatenate([low, t[below:]]),
            np.concatenate([weights, w[below:]]))


def _gauss(t, w):
    """The _GAUSS-point Gauss rule of the discrete measure sum_k w_k
    delta(t - t_k), w_k > 0, on more than _GAUSS ascending nodes: nodes
    inside (t_0, t_-1) and positive weights that sum every polynomial of
    degree below 2 _GAUSS as the measure does.  Stieltjes's procedure on
    s = t / t_-1 gives the recurrence of the measure's orthonormal
    polynomials, and the eigenvalues of their Jacobi matrix and the first
    components of its eigenvectors give the rule (Golub and Welsch)."""
    top = t[-1]
    s = t / top
    mass = np.sum(w)
    diag, off = np.empty(_GAUSS), np.empty(_GAUSS - 1)
    # p_j / sqrt(mass), orthonormal under w / mass
    prev, p = np.zeros_like(s), np.ones_like(s)
    for j in range(_GAUSS):
        diag[j] = np.sum(w * s * p * p) / mass
        nxt = (s - diag[j]) * p - (off[j - 1] * prev if j else 0.0)
        if j < _GAUSS - 1:
            off[j] = math.sqrt(np.sum(w * nxt * nxt) / mass)
            prev, p = p, nxt / off[j]
    roots, vectors = np.linalg.eigh(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return top * roots, mass * vectors[0] ** 2


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


def _selberg_nodes(R, a, d0, t):
    """Far-field weights of the Selberg function R at x = a d on the nodes
    t, for gaps d >= d0 past its far branch, shifted by d0 as in
    _power_weights: a (nodes, 2) array, a column of smooth and one of
    oscillating weights.

    Past |x| = gamma + FAR both arguments y = x + gamma and y = gamma - x
    of r_gamma take the far branch, and with Q(y) = sum_m q_m y^-m
    (pcx.beurling.far_series) and sin^2 = (1 - cos)/2,
        C(d) R(x) = sum_y C(d) Q(y) (1 - cos 2 pi y) / (4 pi^2),
    where cos 2 pi y = Re(exp(i k d) exp(+/- i theta)), k = 2 pi a and
    theta = 2 pi gamma.  y = +/- a (d +/- c) with c = gamma / a, so each
    C(d) Q(y) is a _power_weights sum, decaying no slower than
    exp(-(d0 - c) t): its trapezoid rule runs on the nodes of
    _log_grid(d0 - c).  The smooth weights give the sum of the 1 parts;
    the oscillating ones, times exp(i k d) and read as a real part, the
    cosine parts (exp(i k d0) is folded in).
    """
    c = R.gamma / a
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
    return np.stack([norm * smooth, -norm * np.exp(1j * k * d0) * oscillating],
                    axis=1)


def _near_pieces(G, real, a, reach):
    """The pairs of the blocks G inside a block (j > i) and up to reach - 1
    blocks apart, one piece per run of up to _NEAR blocks and offset, as
    (d, mask, ei, ej): the gaps d, the product of the boolean masks of
    their ends, and factors whose product conj(ei) ej is exp(i pi a d).
    ei is the unit phase exp(i pi a (x - left edge)) of the lower end; ej
    that of the upper end, times one hop exp(i pi a (left_{b+o} - left_b))
    per block pair when the ends lie in blocks b and b + o.  So no phase of
    a large argument is taken, and apart from inside a block (i and j of
    the upper triangle) the factors are per ordinate, broadcast against
    each other."""
    nb = len(G)
    left = G[:, 0]
    phase = np.exp(1j * math.pi * a * (G - left[:, np.newaxis]))
    i, j = np.triu_indices(_BLOCK, 1)
    for lo in range(0, nb, _NEAR):
        A, a_real, e = G[lo:lo + _NEAR], real[lo:lo + _NEAR], phase[lo:lo + _NEAR]
        yield (A[:, j] - A[:, i], a_real[:, i] * a_real[:, j], e[:, i], e[:, j])
        for o in range(1, min(reach, nb - lo)):
            B, b_real = G[lo + o:lo + o + _NEAR], real[lo + o:lo + o + _NEAR]
            m = len(B)
            hop = np.exp(1j * math.pi * a * (B[:, 0] - A[:m, 0]))
            yield (B[:, np.newaxis, :] - A[:m, :, np.newaxis],
                   a_real[:m, :, np.newaxis] * b_real[:, np.newaxis, :],
                   e[:m, :, np.newaxis],
                   (phase[lo + o:lo + o + m] * hop[:, np.newaxis])[:, np.newaxis, :])


def _unit_sin2(ei, f):
    """(Im(conj(ei) f))^2, f a product of unit phases times 1 / pi."""
    s = ei.real * f.imag
    s -= ei.imag * f.real
    s *= s
    return s


def _selberg_values(d, ei, ej, R, scale):
    """R(scale d) at the gaps d of a piece of _near_pieces: r_gamma of
    pcx.beurling at x = dilation scale d, whose two arguments u = x +
    gamma and v = gamma - x take their squared sines from the factors
    conj(ei) ej = exp(i pi x) of the piece and e = exp(i pi (gamma - rint
    gamma)): sin(pi u) = Im(conj(ei) ej e) and sin(pi v) = -Im(conj(ei)
    ej conj(e)), in place of a sine per argument."""
    # e / pi, which the squares of the sines take as 1 / pi^2
    e = np.exp(1j * math.pi * (R.gamma - round(R.gamma))) / math.pi
    return _r_gamma(R.dilation * (d * scale), R.gamma, R.sign,
                    _unit_sin2(ei, ej * e), _unit_sin2(ei, ej * np.conj(e)))


def _selberg_near(G, real, R, scale, reach):
    """The exact part of weighted_pair_sum: sum of R(scale d) C(d) over the
    pairs of _near_pieces, the padding masked, each piece summed on its
    own and in order, with R from _selberg_values."""
    near = 0.0
    for d, mask, ei, ej in _near_pieces(G, real, R.dilation * scale, reach):
        near += np.sum(_selberg_values(d, ei, ej, R, scale)
                       * 4.0 / (4.0 + d ** 2) * mask)
    return near


def _exponentials(x, t):
    """exp(-t x) for every node t and offset x of a (blocks, _BLOCK)
    array, node-major, (nodes, blocks, _BLOCK), so that the product and
    the exp each run over all offsets at once."""
    e = np.multiply(-t[:, np.newaxis, np.newaxis], x)
    return np.exp(e, out=e)


def _moments(direct, phase, out):
    """Fill out, a (blocks, nodes) or (blocks, nodes, alphas) complex
    array, with sum_i phase_i exp(-t x_i) over each block row of the
    offsets x, for every node t, given direct = _exponentials(x, t);
    phase has the shape of x, or of x with the trailing alpha axis of
    out.  One batched product runs here, on the float views of the phases
    and of out, two real columns per alpha."""
    blocks = direct.shape[1:]
    parts = phase.view(float).reshape(blocks + (-1,))
    columns = out.view(float).reshape(blocks[0], len(direct), -1)
    np.matmul(np.swapaxes(direct, 0, 1), parts, out=columns)
    return out


def _shift(dx, decay, k, out):
    """Fill out, a (gaps, nodes, alphas) complex array, with exp(-(t -
    i k) dx) for every gap dx, node t and frequency k of the array k: the
    real decay exp(-t dx), a (gaps, nodes) array of the plan that every k
    shares, times the gap's unit phase.  The products fill the float view
    of out: for one k, one multiply per float column, running down the
    nodes; for more, einsum's outer product, whose inner loop is one row
    of the 2 len(k) columns.  At n = 10^4 (2-core x86 host) the columns
    take 0.16 ms for one k and 7.5 for eight, einsum 0.56 and 1.3, and a
    broadcast multiply 1.0 and 2.3."""
    unit = np.exp(1j * k * dx[:, np.newaxis]).view(float)
    columns = out.view(float).reshape(len(dx), decay.shape[1], 2 * len(k))
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


def _decay(dx, t):
    """exp(-t dx) for every gap dx and node t, a (gaps, nodes) array."""
    decay = np.multiply(-dx[:, np.newaxis], t)
    return np.exp(decay, out=decay)


class _FarPlan(NamedTuple):
    """What the far field of one window takes that no frequency changes:
    the nodes t and weights w, the gaps and decays exp(-t gap) of the
    carry steps (right edge to right edge of the senders) and of the
    hand-offs (sender's right edge to the left edge of the block `reach`
    on, less the shift), and the _exponentials of _moments for the
    senders' offsets right - x and for the receivers' offsets x - left.
    F's _Plan keeps one per window; the Selberg pair sum reads it with its
    own weights and hand-offs (a reach at least F's, and a shift), and
    _far_field takes as many of its senders' and receivers' blocks as a
    far field of that reach has."""
    t: np.ndarray
    w: np.ndarray
    step_gaps: np.ndarray
    step_decays: np.ndarray
    hand_gaps: np.ndarray
    hand_decays: np.ndarray
    send: np.ndarray
    receive: np.ndarray


def _far_plan(G, reach, t, w, shift=0.0):
    """The _FarPlan of the blocks G with receivers `reach` blocks on
    (fewer than the blocks), nodes t, weights w and a shift up to the
    smallest hand-off gap."""
    senders = len(G) - reach
    left, right = G[:, 0], G[:, -1]
    steps = np.diff(right[:senders])
    hand = left[reach:] - right[:senders] - shift
    return _FarPlan(
        t, w, steps, _decay(steps, t), hand, _decay(hand, t),
        _exponentials(right[:senders, np.newaxis] - G[:senders], t),
        _exponentials(G[reach:] - left[reach:, np.newaxis], t))


def _far_field(G, phase, reach, k, far):
    """Sum of Re(exp(i k d) sum_j w_j exp(-t_j (d - shift))) over the
    pairs `reach` or more blocks apart (fewer than the blocks), for every
    frequency of the array k, given the _FarPlan far of G (nodes t, their
    real or complex weights w, one per node, shared by every k, or a
    (nodes, len(k)) array, a column per k, the decays and the
    exponentials of the moments) and the block-local phases exp(i k (x -
    left edge)) of the ordinates (a contiguous complex (blocks, _BLOCK,
    len(k)) array, zero on padding); with the weights of _nodes it is the
    sum of cos(k d) 4/(4+d^2), one entry per k.  Block a sends its moment
    about its right edge; a running sum of the moments is carried from
    right edge to right edge (steps >= 0) and handed to block a + reach at
    its left edge, so every phase is k times a gap inside a block or
    between block edges.  A shift up to the smallest hand-off gap keeps
    every factor at most 1, the weights carrying exp(-(t_j - i k) shift).
    The plan may be one of a smaller reach, as F's plan is to the Selberg
    pair sum, whose hand-offs, shifted by its own d0, replace the plan's:
    of the kept steps and exponentials the call reads those of its first
    `senders` blocks and of its last `senders` receivers, as views, and
    writes into none.

    Moments are taken only for the blocks that send or receive, and the
    large arrays of a call live in one workspace filled in place: the
    carried sums and one more (blocks, nodes, alphas) array (the steps,
    then the hand-off factors, then the receivers' moments).  As one
    block, the C allocator keeps it from call to call (glibc keeps up to
    twice the largest block it has unmapped), where separate arrays of
    half its size would go back to the kernel after each call and be
    paged in afresh on the next."""
    t = far.t
    senders = len(G) - reach
    left, right = G[:, 0], G[:, -1]
    carried, other = np.empty((2, senders, len(t), len(k)), dtype=complex)
    # exp(i k (right - x)) = conj(exp(i k (x - left))) exp(i k (right - left))
    _moments(far.send[:, :senders],
             np.conj(phase[:senders])
             * np.exp(1j * k * (right - left)[:senders, np.newaxis])[:, np.newaxis],
             carried)
    _carry(carried, _shift(far.step_gaps[:senders - 1],
                           far.step_decays[:senders - 1], k,
                           other[:senders - 1]))
    # the hand-off factors times the carried sums
    hand = _shift(far.hand_gaps, far.hand_decays, k, other)
    np.multiply(hand, carried, out=carried)
    into = _moments(far.receive[:, -senders:], phase[reach:], other)
    into *= carried
    # one row-by-column product per k, each summed as if that k were alone
    w = far.w.reshape(len(t), -1).T[:, :, np.newaxis]
    return np.real(np.sum(into, axis=0).T[:, np.newaxis] @ w).reshape(-1)


def _cauchy_weights(G, reach):
    """The near field's Cauchy weights 4/(4+d^2): for each block offset
    o < reach, a (blocks - o, _BLOCK, _BLOCK) array of the gaps from
    block b to block b + o, zeroed at o = 0 where j <= i."""
    nb = len(G)
    weights = []
    for o in range(reach):
        cauchy = np.subtract(G[o:, np.newaxis, :], G[:nb - o, :, np.newaxis])
        np.square(cauchy, out=cauchy)
        cauchy += 4.0
        np.divide(4.0, cauchy, out=cauchy)
        if o == 0:
            cauchy *= np.triu(np.ones((_BLOCK, _BLOCK)), 1)
        weights.append(cauchy)
    return weights


def _near_F(G, phase, weights, k):
    """Sum of cos(k d) 4/(4+d^2) over the pairs inside a block (j > i)
    and up to len(weights) - 1 blocks apart, exactly, for every frequency
    of the array k, given the Cauchy weights of _cauchy_weights.  For x_j
    in block b + o and x_i in block b, cos(k d) = Re(e_j conj(e_i) exp(i k
    (left_{b+o} - left_b))); each offset o contracts its weights with these
    phases as real batched products with two columns per k."""
    nb = len(G)
    left = G[:, 0]
    near = np.zeros(len(k))
    for o, cauchy in enumerate(weights):
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


class _Plan(NamedTuple):
    """F's alpha-independent state of one sorted window: its blocks G and
    their boolean mask, the near field's reach and Cauchy weights, and the
    _FarPlan of the pairs farther apart (None when no pair is that far)."""
    G: np.ndarray
    real: np.ndarray
    reach: int
    weights: list
    far: _FarPlan | None


# the last two windows F or the Selberg pair sum was taken on, each with
# its _Plan, most recent first: so either on a table just seen builds no
# weight, decay or exponential of the plan also after one call on another
# table between.  It is replaced by one tuple assignment, so no reader
# sees a window with another's plan
_memo = ()


def _plan(g):
    """The _Plan of the sorted window g, from the memo when g equals one
    of its windows entry for entry, else built; either way g's entry goes
    first in the memo, and the other kept one second."""
    global _memo
    for i, (window, plan) in enumerate(_memo):
        if np.array_equal(window, g):
            if i:
                _memo = (_memo[i], _memo[0])
            return plan
    G, real = _blocks(g)
    # the far field starts at the first block offset whose gaps reach _REACH
    reach = _reach(G, _REACH)
    # no far gap exceeds the window's span
    span = G[-1, -1] - G[0, 0]
    far = (_far_plan(G, reach, *_nodes(_min_gap(G, reach), span))
           if reach < len(G) else None)
    plan = _Plan(G, real, reach, _cauchy_weights(G, reach), far)
    _memo = ((g, plan),) + _memo[:1]
    return plan


def empirical_F(ds, T, alpha):
    """Montgomery-style normalized exponential pair sum at alpha:
    2 pi / (n log T) times the sum of cos(alpha log T d) 4/(4+d^2) over
    all ordered pairs of the window, d the gap between their ordinates.

    alpha is a float, which gives a float, or an array, which gives an
    array of F in its shape.  F is even in alpha, so each distinct
    |alpha| is summed once.  The window's plan (blocks, reach, nodes,
    Cauchy weights, decays and the exponentials of the block moments)
    comes from the memo of _plan, built only when the window differs
    from the last two; what runs per alpha takes _ALPHAS frequencies at a
    time, with one pair of float columns per frequency in every product.
    A float is the one-alpha case of the same sums.  A T outside (1,
    t_max] raises DomainError.
    An alpha so large that its phases overflow (1e307 over the shipped
    table) leaves an F that is not finite, and NonConvergence names the
    first such alpha."""
    a = np.asarray(alpha, dtype=float)
    if not np.isfinite(a).all():
        raise DomainError("alpha must be finite")
    g = _window(ds, T)
    plan = _plan(g)
    logT = math.log(T)
    G, n = plan.G, len(g)
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
            phase *= plan.real[..., np.newaxis]
            pairs[lo:lo + _ALPHAS] = _near_F(G, phase, plan.weights, chunk)
            if plan.far is not None:
                pairs[lo:lo + _ALPHAS] += _far_field(G, phase, plan.reach,
                                                     chunk, plan.far)
        # the summand is even in d and equals 1 on the diagonal
        F = (2.0 * math.pi * (n + 2.0 * pairs) / (n * logT))[where]
    bad = ~np.isfinite(F)
    if bad.any():
        raise NonConvergence(f"empirical_F: F is not finite at "
                             f"alpha={a.reshape(-1)[np.argmax(bad)]}")
    if isinstance(alpha, np.ndarray) or np.ndim(alpha):
        return F.reshape(a.shape)
    return float(F[0])

