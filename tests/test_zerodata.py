import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import generate_zeros
from pcx import cli, debranges, pcbounds
from pcx import zerodata as zd
from pcx.beurling import FAR, far_series, make_selberg_pair
from pcx.numerics import (DomainError, MonotonicityError, NoRoot,
                          NonConvergence, ParseError)


@pytest.fixture()
def small(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("# header\n10.0\n10.5  # inline comment\n11.0\n12.0\n20.0\n")
    return zd.load_zeros(p)


def test_load_zeros(small):
    assert len(small) == 5
    assert small.t_max == 20.0
    assert small.ordinates[1] == 10.5


def test_load_zeros_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nxyz\n")
    with pytest.raises(ParseError) as exc:
        zd.load_zeros(bad)
    assert exc.value.line == 2
    bad.write_text("3.0\n2.0\n")
    with pytest.raises(MonotonicityError):
        zd.load_zeros(bad)
    bad.write_text("-1.0\n")
    with pytest.raises(ParseError):
        zd.load_zeros(bad)
    bad.write_text("# only comments\n")
    with pytest.raises(ParseError):
        zd.load_zeros(bad)
    for value in ("nan", "inf"):
        bad.write_text(f"1.0\n{value}\n")
        with pytest.raises(ParseError) as exc:
            zd.load_zeros(bad)
        assert exc.value.line == 2
    bad.write_text("1.0\n2.0\n2.0\n")
    with pytest.raises(MonotonicityError):
        zd.load_zeros(bad)


@pytest.mark.parametrize("text, line", [
    ("1.0 2.0\n", 1),            # one row of two columns, not two ordinates
    ("1.0\n2.0 3.0\n", 2),
    ("1.0\n1_000\n", 2),         # no digit separators
    ("# \u00e9\n\u0661\n", 2),  # no digits but ASCII ones
])
def test_load_zeros_one_ascii_column(tmp_path, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        zd.load_zeros(bad)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: not a number")


def test_load_zeros_not_utf8(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe1\x00.\x000\x00\n")
    with pytest.raises(ParseError) as exc:
        zd.load_zeros(bad)
    assert exc.value.line == 1
    # a bad byte in a comment counts too; lines end at \n, \r and \r\n
    bad.write_bytes(b"1.0\r2.0\r\n# caf\xe9\n3.0\n")
    with pytest.raises(ParseError) as exc:
        zd.load_zeros(bad)
    assert exc.value.line == 3


def test_load_zeros_matches_line_parse(zeros_path, tmp_path):
    # the one C-level parse gives bitwise the values of float() on each
    # line, on the shipped table and on its first 2,000 ordinates
    lines = zeros_path.read_text(encoding="utf-8").splitlines()
    prefix = tmp_path / "zeros2000.txt"
    prefix.write_text("\n".join(lines[:2002]) + "\n", encoding="utf-8")
    for path in (zeros_path, prefix):
        want = np.array([float(l) for l in path.read_text().splitlines()
                         if not l.startswith("#")])
        got = zd.load_zeros(path).ordinates
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_count_pairs_hand_example(small):
    # window width 2 pi 0.5 / log 20 = 1.0486: pairs (10,10.5), (10,11),
    # (10.5,11), (11,12)
    assert zd.count_pairs(small, 20.0, 0.5) == 4
    assert zd.count_pairs(small, 20.0, 0.5) == zd.count_pairs_brute(
        small, 20.0, 0.5)


def test_count_pairs_domain(small):
    with pytest.raises(DomainError):
        zd.count_pairs(small, 0.0, 1.0)
    # a T at or below 0 is checked before its logarithm is taken
    for T in (0.0, -5.0):
        with pytest.raises(DomainError, match="T must lie"):
            zd.empirical_F(small, T, 1.0)
        with pytest.raises(DomainError, match="T must lie"):
            zd.weighted_pair_sum(small, T, make_selberg_pair(1.0).majorant)
    with pytest.raises(DomainError):
        zd.count_pairs(small, 1.0, 1.0)
    with pytest.raises(DomainError):
        zd.count_pairs(small, 100.0, 1.0)
    for beta in (-1.0, 0.0):
        for count in (zd.count_pairs, zd.count_pairs_brute):
            with pytest.raises(DomainError, match="beta"):
                count(small, 20.0, beta)
    # T between 1 and the first ordinate leaves an empty window
    with pytest.raises(DomainError):
        zd.count_pairs(small, 5.0, 1.0)
    with pytest.raises(DomainError):
        zd.empirical_F(small, 5.0, 1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_count_pairs_rejects_non_finite_beta(dataset, beta):
    # a NaN window would compare false everywhere and count every pair,
    # or none; an infinite one would count every pair
    for count in (zd.count_pairs, zd.count_pairs_brute):
        with pytest.raises(DomainError):
            count(dataset, 1000.0, beta)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_empirical_F_rejects_non_finite_alpha(dataset, alpha):
    with pytest.raises(DomainError):
        zd.empirical_F(dataset, 1000.0, alpha)


def test_count_pairs_shuffled_table(dataset):
    g = dataset.ordinates[:300]
    ds = zd.ZeroDataset(ordinates=np.random.default_rng(5).permutation(g),
                        source="shuffled", t_max=float(g[-1]))
    assert zd.count_pairs(ds, ds.t_max, 1.0) == 46
    for beta in (0.3, 1.0, 2.5):
        assert zd.count_pairs(ds, ds.t_max, beta) == zd.count_pairs_brute(
            ds, ds.t_max, beta)


def test_count_pairs_beta_array(dataset):
    # an array of beta gives the counts of one float beta at a time, in
    # its shape; a float gives an int
    T = float(dataset.ordinates[2999])
    betas = np.array([[0.05, 0.5], [1.0, 3.7]])
    counts = zd.count_pairs(dataset, T, betas)
    assert counts.shape == betas.shape
    for b, c in zip(betas.ravel(), counts.ravel()):
        assert c == zd.count_pairs(dataset, T, float(b))
    assert type(zd.count_pairs(dataset, T, 1.0)) is int
    with pytest.raises(DomainError):
        zd.count_pairs(dataset, T, [1.0, math.nan])
    # up to beta = 60 the window holds about 60 pairs per ordinate, so the
    # walk runs over many diagonals
    betas = np.arange(0.02, 60.0, 0.02)[::-1]
    counts = zd.count_pairs(dataset, T, betas)
    assert counts.tolist() == [zd.count_pairs(dataset, T, float(b))
                               for b in betas]


@st.composite
def beta_arrays(draw):
    """beta for count_pairs: unsorted, with repeats, as a float, a 0-d, a
    1-d or a 2-d array, and at times spread wide, a beta in (0.01, 0.1)
    next to one in (50, 200)."""
    # below beta = 2 the walk ends after a few diagonals, with several
    # beta binned on each
    top = draw(st.sampled_from([2.0, 10.0]))
    values = draw(st.lists(st.floats(0.01, top), min_size=2, max_size=8))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(values)))
            values[at:at] = [draw(st.floats(0.01, 0.1)),
                             draw(st.floats(50.0, 200.0))]
    values += draw(st.lists(st.sampled_from(values), max_size=3))
    shape = draw(st.sampled_from(["float", "0-d", "1-d", "2-d"]))
    if shape == "float":
        return values[0]
    if shape == "0-d":
        return np.array(values[0])
    if shape == "2-d":
        values += values[: len(values) % 2]
        return np.array(values).reshape(2, -1)
    return np.array(values)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(300, 2000), beta=beta_arrays(),
       repeats=st.lists(st.integers(0, 10 ** 6), max_size=30),
       seed=st.none() | st.integers(0, 2 ** 32 - 1))
def test_count_pairs_diagonals_match_brute(dataset, n, beta, repeats, seed):
    # the walk over the diagonals gives each beta the count of the direct
    # loop, in beta's shape; a float or a 0-d array gives an int.  A
    # hand-built table may repeat ordinates and come in any order: a
    # repeat is no pair, as in the direct loop
    g = dataset.ordinates[:n]
    g = np.concatenate([g, g[np.array(repeats, dtype=int) % n]])
    if seed is not None:
        g = np.random.default_rng(seed).permutation(g)
    ds = zd.ZeroDataset(ordinates=g, source="hand-built", t_max=float(g.max()))
    got = zd.count_pairs(ds, ds.t_max, beta)
    if np.ndim(beta) == 0:
        assert type(got) is int
        assert got == zd.count_pairs_brute(ds, ds.t_max, float(beta))
        return
    assert got.shape == beta.shape and got.dtype == np.int64
    for b, c in zip(beta.ravel(), got.ravel()):
        assert c == zd.count_pairs_brute(ds, ds.t_max, float(b))


def test_count_pairs_diagonal_ties(dataset):
    # beta whose window w is exactly a gap g_j - g_i, so that g_i + w is
    # g_j itself, and the float below it, where g_i + w may still round
    # to g_j: in a grid each counts as it does alone, and as
    # count_pairs_brute counts it
    g = dataset.ordinates[:2000]
    ds = zd.ZeroDataset(ordinates=g, source="prefix", t_max=float(g[-1]))
    scale = 2.0 * math.pi / math.log(ds.t_max)
    ties = []
    for i, o in [(5, 1), (40, 2), (700, 1), (1500, 3), (1990, 2)]:
        d = g[i + o] - g[i]
        b = d / scale
        for _ in range(8):
            if scale * b != d:
                b = np.nextafter(b, math.inf if scale * b < d else 0.0)
        if scale * b == d:
            ties += [b, np.nextafter(b, 0.0)]
    assert len(ties) >= 6
    betas = np.concatenate([ties, np.arange(0.05, 2.5, 0.05)])
    got = zd.count_pairs(ds, ds.t_max, betas)
    assert got.tolist() == [zd.count_pairs(ds, ds.t_max, float(b))
                            for b in betas]
    assert got[:len(ties)].tolist() == [
        zd.count_pairs_brute(ds, ds.t_max, float(b)) for b in ties]
    # g_1 - g_0 and g_0 + w both round at a tie, so g_0 + w rounds down
    # off g_1, yet the pair counts: the rounded gap is w = 2.5
    g = np.array([0.5 + 2.0 ** -52, 3.0 + 2.0 ** -51, 3.5])
    ds = zd.ZeroDataset(ordinates=g, source="ties", t_max=3.5)
    beta = 0.4984585473962854
    assert 2.0 * math.pi * beta / math.log(3.5) == 2.5 == g[1] - g[0]
    assert zd.count_pairs(ds, 3.5, beta) == zd.count_pairs_brute(ds, 3.5, beta) == 2


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.1, 50.0), min_size=2, max_size=60),
       st.floats(0.2, 3.0))
def test_count_pairs_matches_brute(raw, beta):
    g = sorted(set(round(v, 6) for v in raw))
    if len(g) < 2 or g[-1] <= 1.0:
        return
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write("\n".join(f"{v:.6f}" for v in g))
        p = fh.name
    try:
        ds = zd.load_zeros(p)
        T = ds.t_max
        assert zd.count_pairs(ds, T, beta) == zd.count_pairs_brute(ds, T, beta)
    finally:
        os.unlink(p)


def test_empirical_F_symmetric_real(small, dataset):
    for a in (0.2, 0.7, 1.5):
        v = zd.empirical_F(small, 20.0, a)
        assert v == zd.empirical_F(small, 20.0, -a)
        assert isinstance(v, float)
    # 300 ordinates have a far field
    T = float(dataset.ordinates[299])
    for a in (0.05, 0.7, 1.5, 2.9):
        v = zd.empirical_F(dataset, T, a)
        assert v == zd.empirical_F(dataset, T, -a)
        assert isinstance(v, float)


def _dense_F(g, T, alpha):
    """The oracle for the fast F: the direct O(n^2) sum, n on the diagonal
    plus twice the sum over the unordered pairs."""
    L = math.log(T)
    pairs = oracles.pair_sum(
        np.sort(g), lambda d: np.cos(alpha * L * d) * 4.0 / (4.0 + d ** 2))
    return 2 * math.pi * (len(g) + 2.0 * float(pairs)) / (len(g) * L)


def _explicit_F(g, alpha):
    # the n x n double sum over the ordered pairs, diagonal included
    T = float(np.max(g))
    L = math.log(T)
    d = g[np.newaxis, :] - g[:, np.newaxis]
    return T, 2 * math.pi * np.sum(
        np.cos(alpha * L * d) * 4.0 / (4.0 + d ** 2)) / (len(g) * L)


def test_empirical_F_full_table_against_dense(dataset):
    T = dataset.t_max
    for alpha in (0.0, 0.05, 1.0, 3.0):
        want = _dense_F(dataset.ordinates, T, alpha)
        assert abs(zd.empirical_F(dataset, T, alpha) - want) <= 1e-12 * abs(want)


B = zd._BLOCK


@pytest.mark.parametrize("n", [1, 2, B - 1, B, 2 * B, 2 * B + 1, 3 * B + 1, 300])
def test_empirical_F_block_edges(dataset, n):
    # tables ending inside, at and just past block boundaries, as shipped
    # and shuffled, against the explicit double sum
    g = dataset.ordinates[:n]
    for ords in (g, np.random.default_rng(n).permutation(g)):
        for alpha in (0.0, 0.6, 1.7, 3.0):
            T, want = _explicit_F(ords, alpha)
            ds = zd.ZeroDataset(ordinates=ords, source="oracle", t_max=T)
            assert abs(zd.empirical_F(ds, T, alpha) - want) <= 1e-13 * abs(want)


def _dense_tables(dataset):
    """Ordinates so close that blocks two apart sit nearer than the
    exponential sum serves, so that the exact near field has to widen."""
    rng = np.random.default_rng(11)
    # blocks spanning up to 3.5e5, so that t x reaches past 1 at most
    # far-field nodes ...
    wide = np.geomspace(10.0, 1e6, 300)
    # ... and clusters of 16 within 0.05, 20 apart, where it stays below 1
    # at every one
    tight = np.sort(100.0 + 20.0 * np.arange(25)[:, np.newaxis]
                    + rng.uniform(0.0, 0.05, (25, B)), axis=None)
    return [
        1000.0 + 0.05 * dataset.ordinates[:600],
        np.sort(rng.uniform(50.0, 51.0, 200)),
        np.sort(np.concatenate([dataset.ordinates[:300],
                                rng.uniform(400.0, 402.0, 100)])),
        wide,
        tight,
        # every block one repeated value: the blocks have no width
        np.repeat(10.0 + 20.0 * np.arange(6), B),
    ]


def test_empirical_F_dense_tables(dataset):
    for g in _dense_tables(dataset):
        # F(0), the sum of the summands' magnitudes, sets the scale: on the
        # first table F(0.6) is 1,600 times smaller
        T, scale = _explicit_F(g, 0.0)
        ds = zd.ZeroDataset(ordinates=g, source="dense", t_max=T)
        for alpha in (0.0, 0.6, 1.7):
            want = _explicit_F(g, alpha)[1]
            assert abs(zd.empirical_F(ds, T, alpha) - want) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_empirical_F_nonnegative(dataset, seed):
    # 4/(4+d^2) is the transform of pi exp(-2|t|) > 0, so the Cauchy-weighted
    # sum of cos(k d) over all ordered pairs is a quadratic form with a
    # positive definite kernel and F(alpha) >= 0 at every alpha.  Checked
    # to 1e-13 of F(0) at 100 alphas up to 2,000 on a random table: a dense
    # table of F, a run of the shipped table, or random ordinates with
    # repeats (least F / F(0) measured 1.1e-4 over 40 tables)
    rng = np.random.default_rng(seed)
    kind = rng.integers(3)
    if kind == 0:
        g = _dense_tables(dataset)[rng.integers(6)]
    elif kind == 1:
        start = rng.integers(0, 9000)
        g = dataset.ordinates[start:start + rng.integers(1, 1000)]
    else:
        n = rng.integers(1, 400)
        g = np.sort(rng.uniform(10.0, 10.0 + 10.0 ** rng.uniform(0.0, 4.0), n))
        g = np.repeat(g, rng.integers(1, 4, n))
    T = float(g[-1])
    ds = zd.ZeroDataset(ordinates=g, source="random", t_max=T)
    F = zd.empirical_F(ds, T, np.concatenate([[0.0],
                                              rng.uniform(0.0, 2000.0, 99)]))
    assert np.min(F) >= -1e-13 * F[0]


# F on the shipped table at alpha = 0, 0.25, ..., 3, to be kept to 1e-15
# by any change to the blocks, the far field or its working set
F_SHIPPED = [4.481505806468494, 0.25803951381095985, 0.47126073548295866,
             0.6865132451943385, 0.7033637483777285, 0.6878459431909832,
             0.697577724219723, 0.6622683794869207, 0.6972252223935654,
             0.6830441780186447, 0.6855785209592721, 0.669026111897167,
             0.6924332612348]


def test_empirical_F_shipped_values(dataset):
    for i, want in enumerate(F_SHIPPED):
        got = zd.empirical_F(dataset, dataset.t_max, 0.25 * i)
        assert abs(got - want) <= 1e-15 * abs(want)


def _prefix(dataset, n):
    """The first n ordinates of the shipped table, windowed at the last."""
    return zd.ZeroDataset(ordinates=dataset.ordinates[:n], source="prefix",
                          t_max=float(dataset.ordinates[n - 1]))


@pytest.mark.parametrize("n, grid", [(10000, (0.0, 3.0, 0.05)),
                                     (2000, (0.0, 1.5, 0.25))])
def test_empirical_F_array_matches_float_calls(dataset, n, grid):
    # one array call against a float call per alpha, alpha = 0 included;
    # the alphas share products with 2 columns per alpha, whose sums BLAS
    # may order otherwise than with 2 (measured 2.5e-15 and 1.3e-15)
    ds = _prefix(dataset, n)
    lo, hi, step = grid
    alphas = lo + step * np.arange(round((hi - lo) / step) + 1)
    got = zd.empirical_F(ds, ds.t_max, alphas)
    assert got.shape == alphas.shape
    for a, f in zip(alphas, got):
        want = zd.empirical_F(ds, ds.t_max, float(a))
        assert abs(f - want) <= 4e-15 * abs(want)


def test_empirical_F_array_even_and_chunked(dataset):
    # a grid of more than one chunk, with every alpha also negated and the
    # order scrambled: F(-alpha) is F(alpha) to the bit inside one array
    ds = _prefix(dataset, 300)
    alphas = 0.1 * np.arange(3 * zd._ALPHAS + 1)
    assert len(alphas) > zd._ALPHAS
    both = np.random.default_rng(3).permutation(np.concatenate([alphas,
                                                                -alphas]))
    got = zd.empirical_F(ds, ds.t_max, both)
    for a, f in zip(both, got):
        assert f == got[both == -a][0]
        want = zd.empirical_F(ds, ds.t_max, float(a))
        assert abs(f - want) <= 4e-15 * abs(want)
    # the shape of alpha is kept
    grid = zd.empirical_F(ds, ds.t_max, alphas[:6].reshape(2, 3))
    assert grid.shape == (2, 3)
    assert np.array_equal(grid.reshape(-1),
                          zd.empirical_F(ds, ds.t_max, alphas[:6]))


def test_empirical_F_return_types(dataset):
    ds = _prefix(dataset, 300)
    f = zd.empirical_F(ds, ds.t_max, 0.5)
    assert type(f) is float
    assert type(zd.empirical_F(ds, ds.t_max, np.float64(0.5))) is float
    zero_d = zd.empirical_F(ds, ds.t_max, np.array(0.5))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == () and zero_d == f
    empty = zd.empirical_F(ds, ds.t_max, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    listed = zd.empirical_F(ds, ds.t_max, [0.5, 1.0])
    assert isinstance(listed, np.ndarray) and listed.shape == (2,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_F_array_rejects_non_finite_alpha(dataset, bad):
    for alphas in (np.array([0.5, bad, 1.0]), np.array([bad]),
                   np.array([[0.5], [bad]])):
        with pytest.raises(DomainError):
            zd.empirical_F(dataset, 1000.0, alphas)


@pytest.mark.filterwarnings("error")
def test_empirical_F_refuses_overflowed_phases(dataset):
    # a huge alpha overflows the phases: F is refused, naming the first
    # alpha whose F is not finite, with no numpy warning on the way, and
    # a finite F just below keeps its value
    got = zd.empirical_F(dataset, dataset.t_max, 1e305)
    assert abs(got - 0.6898306085556627) <= 1e-15
    for alpha, first in ((1e307, "1e+307"), (1e308, "1e+308"),
                         (np.array([1.0, 1e305, 1e308, -1e307]), "1e+308")):
        with pytest.raises(NonConvergence) as exc:
            zd.empirical_F(dataset, dataset.t_max, alpha)
        assert str(exc.value).endswith(f"not finite at alpha={first}")


def _cold_F(ds, T, alpha):
    """empirical_F with the plan memo emptied first."""
    zd._memo = ()
    return zd.empirical_F(ds, T, alpha)


def _bits(F):
    return np.asarray(F).tobytes()


def test_F_plan_memo_table_sequence(dataset):
    # the tables A, B, A: each call on a table puts its plan first in the
    # memo, each repeat reuses it, and every F, float or a grid of more
    # than one chunk of alphas, is the cold F to the bit
    tables = {"A": _prefix(dataset, 2000), "B": _prefix(dataset, 3000)}
    alphas = 0.1 * np.arange(2 * zd._ALPHAS + 3)
    assert len(alphas) > zd._ALPHAS
    cold = {name: (_bits(_cold_F(ds, ds.t_max, 1.1)),
                   _bits(_cold_F(ds, ds.t_max, alphas)))
            for name, ds in tables.items()}
    zd._memo = ()
    for name in "ABA":
        ds = tables[name]
        plan = None
        for _ in range(2):
            assert _bits(zd.empirical_F(ds, ds.t_max, 1.1)) == cold[name][0]
            assert _bits(zd.empirical_F(ds, ds.t_max, alphas)) == cold[name][1]
            assert plan is None or zd._memo[0][1] is plan
            plan = zd._memo[0][1]
        assert np.array_equal(zd._memo[0][0], ds.ordinates)


def test_F_plan_memo_keeps_two_windows(dataset, monkeypatch):
    # A, B, A: the third call builds nothing (no Cauchy weights) and is
    # the cold F to the bit; a third table C evicts the older of the two
    built = []
    weights = zd._cauchy_weights
    monkeypatch.setattr(zd, "_cauchy_weights",
                        lambda G, reach: built.append(len(G)) or weights(G, reach))
    A, B, C = (_prefix(dataset, n) for n in (2000, 3000, 1000))
    cold = _bits(_cold_F(A, A.t_max, 1.3))
    zd._memo = ()
    built.clear()
    zd.empirical_F(A, A.t_max, 0.8)
    plan_A = zd._memo[0][1]
    zd.empirical_F(B, B.t_max, 0.8)
    assert len(built) == 2
    assert _bits(zd.empirical_F(A, A.t_max, 1.3)) == cold
    assert len(built) == 2 and zd._memo[0][1] is plan_A
    assert [len(w) for w, _ in zd._memo] == [2000, 3000]
    zd.empirical_F(C, C.t_max, 0.8)
    assert len(built) == 3
    assert [len(w) for w, _ in zd._memo] == [1000, 2000]


def test_F_plan_memo_sees_ordinates_changed_in_place(dataset):
    # the memo is keyed by the window's content, not by the dataset
    ords = dataset.ordinates[:2000].copy()
    ds = zd.ZeroDataset(ordinates=ords, source="mutable",
                        t_max=float(ords[-1]))
    before = zd.empirical_F(ds, ds.t_max, 0.7)
    ords[500] = 0.5 * (ords[500] + ords[501])
    warm = zd.empirical_F(ds, ds.t_max, 0.7)
    assert warm != before
    assert _bits(warm) == _bits(_cold_F(ds, ds.t_max, 0.7))


def test_F_plan_memo_two_T_one_window(dataset):
    # two T with the same window share one plan, and each gives its own F
    g = dataset.ordinates
    T1, T2 = float(g[1999]), 0.5 * float(g[1999] + g[2000])
    f1 = zd.empirical_F(dataset, T1, 0.9)
    plan = zd._memo[0][1]
    assert plan is not None
    f2 = zd.empirical_F(dataset, T2, 0.9)
    assert zd._memo[0][1] is plan
    assert f1 != f2
    assert _bits(f1) == _bits(_cold_F(dataset, T1, 0.9))
    assert _bits(f2) == _bits(_cold_F(dataset, T2, 0.9))


def test_F_plan_keeps_the_moment_factors(dataset, monkeypatch):
    # a cold F builds the exponentials of the moments twice, for the
    # senders and for the receivers, and keeps them in its plan; F at three
    # more alphas, on an alpha array and at another T with the same window
    # builds none.  The kept arrays are exp(-t x) at every node,
    # recomputed here from plan.G.  Only the _decay calls that build the
    # (nodes, blocks, 16) exponentials count, not the (gaps, nodes) decays
    built = []
    decay = zd._decay
    monkeypatch.setattr(zd, "_decay", lambda t, x: (
        np.ndim(x) == 2 and built.append(t)) or decay(t, x))
    g = dataset.ordinates
    T1, T2 = float(g[1999]), 0.5 * float(g[1999] + g[2000])
    zd.empirical_F(dataset, T1, 1.0)
    assert len(built) == 2
    for alpha in (0.3, 1.7, 2.9):
        zd.empirical_F(dataset, T1, alpha)
    zd.empirical_F(dataset, T1, 0.25 * np.arange(7))
    zd.empirical_F(dataset, T2, 1.0)
    assert len(built) == 2
    ((_, plan),) = zd._memo
    G, far = plan.G, plan.far
    senders = len(G) - plan.reach
    for x, kept in ((G[:senders, -1:] - G[:senders], far.send),
                    (G[plan.reach:] - G[plan.reach:, :1], far.receive)):
        assert _bits(kept) == _bits(
            np.exp(-far.t[:, np.newaxis, np.newaxis] * x))


def _plan_digest(plan):
    """A SHA-256 over every array of a _Plan."""
    digest = hashlib.sha256()
    for a in (plan.G, plan.real, *plan.weights, *plan.far):
        digest.update(a.tobytes())
    return digest.hexdigest()


def test_selberg_pairs_read_the_kept_plan(dataset, monkeypatch):
    # after F on the first 2,000 zeros the beta = 1 majorant and minorant
    # take F's kept plan: they build no Cauchy weight, and exponentials of
    # the moments only at the one node of their grid above F's top node,
    # for its senders and its receivers (95 nodes each when the pair sum
    # built a plan of its own).  They write nothing into the plan, and F
    # afterwards is the cold F to the bit.  A pair sum on a window F has
    # not seen builds its plan and puts it first in the memo, and F there
    # then builds nothing
    A, B = _prefix(dataset, 2000), _prefix(dataset, 3000)
    cold_A, cold_B = (_bits(_cold_F(ds, ds.t_max, 1.0)) for ds in (A, B))
    zd._memo = ()
    zd.empirical_F(A, A.t_max, 1.0)
    ((_, plan),) = zd._memo
    kept = _plan_digest(plan)
    # the exponentials are the _decay calls on (blocks, 16) offsets
    nodes, weights = [], []
    decay, cauchy = zd._decay, zd._cauchy_weights
    monkeypatch.setattr(zd, "_decay", lambda t, x: (
        np.ndim(x) == 2 and nodes.append(t)) or decay(t, x))
    monkeypatch.setattr(zd, "_cauchy_weights",
                        lambda G, reach: weights.append(reach) or cauchy(G, reach))
    pair = make_selberg_pair(1.0)
    for R in (pair.majorant, pair.minorant):
        nodes.clear()
        zd.weighted_pair_sum(A, A.t_max, R)
        assert [len(t) for t in nodes] == [1, 1]
        assert all(t[0] > plan.far.t[-1] for t in nodes)
    assert not weights
    assert zd._memo[0][1] is plan and _plan_digest(plan) == kept
    assert _bits(zd.empirical_F(A, A.t_max, 1.0)) == cold_A
    zd.weighted_pair_sum(B, B.t_max, pair.majorant)
    assert len(weights) == 1
    assert np.array_equal(zd._memo[0][0], B.ordinates)
    assert zd._memo[1][1] is plan
    nodes.clear()
    assert _bits(zd.empirical_F(B, B.t_max, 1.0)) == cold_B
    assert len(weights) == 1 and not nodes


def test_selberg_far_weights_take_one_call(dataset, monkeypatch):
    # the beta = 1 pair sum on the first 2,000 zeros samples its far
    # weights once, on F's nodes and its one node above F's top together:
    # one _power_weights call per side of the argument
    A = _prefix(dataset, 2000)
    zd.empirical_F(A, A.t_max, 1.0)
    t_F = zd._plan(A.ordinates).far.t
    sampled, powers = [], []
    selberg_nodes, power_weights = zd._selberg_nodes, zd._power_weights
    monkeypatch.setattr(zd, "_selberg_nodes", lambda R, a, d0, t: (
        sampled.append(t) or selberg_nodes(R, a, d0, t)))
    monkeypatch.setattr(zd, "_power_weights", lambda *args: (
        powers.append(args) or power_weights(*args)))
    zd.weighted_pair_sum(A, A.t_max, make_selberg_pair(1.0).majorant)
    (t,) = sampled
    assert len(t) == len(t_F) + 1 and np.array_equal(t[:-1], t_F)
    assert t[-1] > t_F[-1]
    assert len(powers) == 2


def _retained_bytes(fn):
    """What one call of fn, with the plan memo emptied first, leaves
    traced by tracemalloc, and its peak, both above what was traced
    before it."""
    zd._memo = ()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
        return current - before, peak - before
    finally:
        if started:
            tracemalloc.stop()


def test_F_plan_retained_memory(dataset):
    # a cold F over the shipped table keeps its plan in the memo, 11.05 MB
    # (tracemalloc): the Cauchy weights of offsets 0 and 1 (2.56 MB), the
    # carry and hand-off decays on 49 nodes (0.49 MB), and the senders'
    # and receivers' exponentials of the moments on the same 49 nodes
    # (7.81 MB).  The call peaks at 12.65 MB, the plan and then the 1.60
    # MB of a warm call; the bounds lie 9% and 15% above.  A cold beta = 1
    # majorant pair sum there builds and keeps the same plan, which its far
    # field reads, and keeps nothing else
    current, peak = _retained_bytes(
        lambda: zd.empirical_F(dataset, dataset.t_max, 1.0))
    assert current <= 12.0e6
    assert peak <= 14.5e6
    R = make_selberg_pair(1.0).majorant
    current, _ = _retained_bytes(
        lambda: zd.weighted_pair_sum(dataset, dataset.t_max, R))
    assert current <= 12.0e6


def _peak_bytes(fn):
    """tracemalloc's peak over one call of fn, above what was traced
    before it, after a warm-up call; tracemalloc sees numpy's buffers."""
    fn()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_pair_sums_working_set(dataset):
    # the warm-up call fills F's plan memo, so the F measured is a warm
    # one: over the shipped table it peaks at 1.60 MB, its plan holding
    # every exponential of the moments.  The beta = 1 majorant's pair sum
    # over the first 2,000 zeros reads the plan its warm-up call kept, and
    # builds exponentials only at the one node of its grid above the plan's
    # top node: it peaks at 1.68 MB (4.23 MB when it built a far plan of
    # its own on all 95 nodes of its grid each call), its exact near field
    # alone at 1.66 MB, taking every gap of a piece through r_gamma at
    # once.  With whole (blocks, 16, nodes) and (blocks, 16, 16)
    # temporaries F took 9.40 MB.  The bounds lie 37%, 19% and 20% above
    # the measured peaks; the last is below the 2.05 MB of a near field
    # that holds its pieces until enough gaps gather for R
    T = dataset.t_max
    assert _peak_bytes(lambda: zd.empirical_F(dataset, T, 1.0)) <= 2.2e6
    sub = zd.ZeroDataset(ordinates=dataset.ordinates[:2000],
                         source=dataset.source,
                         t_max=float(dataset.ordinates[1999]))
    R = make_selberg_pair(1.0).majorant
    assert _peak_bytes(lambda: zd.weighted_pair_sum(sub, sub.t_max, R)) <= 2.0e6
    G, real = zd._blocks(sub.ordinates)
    scale = math.log(sub.t_max) / (2.0 * math.pi)
    reach = zd._reach(
        G, max(zd._REACH, (R.gamma + zd.FAR) / (R.dilation * scale)))
    assert _peak_bytes(
        lambda: zd._selberg_near(G, real, R, scale, reach)) <= 2.0e6


def test_alpha_grid_working_set(dataset):
    # the warm-up call fills F's plan memo, so each grid measured is a
    # warm one: the 7-alpha grid of the benchmark at n = 2,000, one chunk,
    # peaks at 2.00 MB; the 61-alpha grid 0:3:0.05 at n = 10^4 at 11.9 MB,
    # its far field taken _ALPHAS = 8 alphas at a time (in one pass, 92
    # MB).  The bounds lie 40% and 78% above the measured peaks
    sub = zd.ZeroDataset(ordinates=dataset.ordinates[:2000],
                         source=dataset.source,
                         t_max=float(dataset.ordinates[1999]))
    seven = 0.25 * np.arange(7)
    assert len(seven) <= zd._ALPHAS
    assert _peak_bytes(lambda: zd.empirical_F(sub, sub.t_max, seven)) <= 2.8e6
    grid = 0.05 * np.arange(61)
    assert _peak_bytes(
        lambda: zd.empirical_F(dataset, dataset.t_max, grid)) <= 21.2e6


def test_exponential_sum_nodes(dataset):
    # the node set against 4/(4+d^2) on every gap the far field sees, up
    # to the window's span: from the smallest gap two blocks apart in the
    # shipped table, and from _REACH, the smallest gap it is ever given
    # (measured 3.9e-16, 6.4e-15)
    g = dataset.ordinates
    G = g.reshape(-1, B)
    d0 = np.min(G[2:, 0] - G[:-2, -1])
    span = g[-1] - g[0]
    for lo, bound in ((d0, 1e-15), (zd._REACH, 1e-14)):
        t, w = zd._nodes(lo, span)
        d = np.geomspace(lo, span, 20_001)
        err = np.exp(-np.outer(d, t)) @ w - 4.0 / (4.0 + d ** 2)
        assert np.max(np.abs(err)) <= bound


def test_far_field_node_count(dataset):
    # the shipped table's plan keeps 49 far-field nodes where the whole
    # trapezoid rule has 95: the 46 nodes below 1 / span collapse into
    # zd._GAUSS; a plan on the whole rule would fail here
    zd.empirical_F(dataset, dataset.t_max, 1.0)
    ((_, plan),) = zd._memo
    assert len(zd._log_grid(zd._min_gap(plan.G, plan.reach))) == 95
    assert len(plan.far.t) == len(plan.far.w) <= 50


@settings(max_examples=40, deadline=None)
@given(st.floats(2.0, 7.0), st.floats(0.0, 1.0))
def test_gauss_collapse_against_trapezoid(log_span, where):
    # the Gauss nodes of zd._nodes against the trapezoid nodes of
    # zd._log_grid that they replace, those below 1 / span, on [d0, span]
    # for a span in [1e2, 1e7] and d0 between _REACH and it: positive
    # nodes below the cut and positive weights, the moments sum_k w_k
    # t_k^j, j < 2 _GAUSS, to a few ulps (measured 4.1e-15), and the
    # exponential sums to 1e-19 absolute (measured 5.1e-20).  The sums are
    # taken in long double where the platform has one: in double their
    # own rounding, about 2e-20 where the weights sum to 2e-4 (span 1e2),
    # would take a fifth of the bound
    span = 10.0 ** log_span
    d0 = zd._REACH * (span / zd._REACH) ** where
    t, w = zd._nodes(d0, span)
    grid = zd._log_grid(d0)
    below = np.count_nonzero(grid * span < 1.0)
    ref_t = grid[:below]
    ref_w = 2.0 * zd._H * ref_t * np.sin(2.0 * ref_t)
    n = zd._GAUSS
    assert below > n
    assert np.array_equal(t[n:], grid[below:])
    assert np.array_equal(w[n:], 2.0 * zd._H * t[n:] * np.sin(2.0 * t[n:]))
    assert np.all(t[:n] > 0) and np.all(t[:n] * span < 1.0)
    assert np.all(np.diff(t) > 0) and np.all(w[:n] > 0)
    for j in range(2 * n):
        want = np.sum(ref_w * ref_t ** j)
        assert abs(np.sum(w[:n] * t[:n] ** j) - want) <= 1e-14 * want
    wide = np.longdouble
    d = np.geomspace(d0, span, 2001).astype(wide)[:, np.newaxis]
    got = np.sum(np.exp(-d * t[:n].astype(wide)) * w[:n].astype(wide), axis=1)
    want = np.sum(np.exp(-d * ref_t.astype(wide)) * ref_w.astype(wide), axis=1)
    assert np.max(np.abs(got - want)) <= 1e-19


def test_weighted_pair_sum_diagonal(small, dataset):
    # a one-ordinate table has the diagonal alone: exactly R(0)
    one = zd.ZeroDataset(ordinates=np.array([10.0]), source="one", t_max=10.0)
    pair = make_selberg_pair(1.0)
    for R in (pair.majorant, pair.minorant):
        assert zd.weighted_pair_sum(one, 10.0, R) == R.time_eval(np.zeros(1))[0]
    # with R = 1 the diagonal contributes exactly n, and the whole sum is
    # n log T / (2 pi) F(0): the direct pair loop against the fast F,
    # whose far field 300 ordinates reach
    sub = zd.ZeroDataset(ordinates=dataset.ordinates[:300], source="prefix",
                         t_max=float(dataset.ordinates[299]))
    for ds, T in ((small, 20.0), (sub, sub.t_max)):
        total = len(ds) + 2.0 * oracles.pair_sum(
            ds.ordinates, lambda d: 4.0 / (4.0 + d ** 2))
        assert total > len(ds)
        want = len(ds) * math.log(T) / (2 * math.pi) * zd.empirical_F(ds, T, 0.0)
        assert abs(total - want) <= 1e-13 * want


def test_weighted_pair_sum_takes_selberg_functions_alone(small):
    # an R with no fast pair sum raises, whether or not it is band-limited
    class One:
        @staticmethod
        def time_eval(x):
            return np.ones_like(np.asarray(x, dtype=float))

    for R in (One, debranges.case3_majorant(0.5)):
        with pytest.raises(DomainError, match="Selberg function"):
            zd.weighted_pair_sum(small, 20.0, R)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_block_moments_against_exponentials(seed):
    # zd._moments against the direct sum sum_i p_i exp(-t x_i), on random
    # blocks of offsets in [0, span] and the node set of a random
    # far-field gap and window span, to 1e-15 of sum_i |p_i|
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(1, 9))
    span = 10.0 ** rng.uniform(-2.0, 5.0)
    x = rng.uniform(0.0, span, (nb, B))
    x[:, 0], x[0, -1] = 0.0, span
    p = rng.normal(size=(nb, B)) + 1j * rng.normal(size=(nb, B))
    d0 = 10.0 ** rng.uniform(math.log10(zd._REACH), 4.0)
    window = 10.0 ** rng.uniform(math.log10(max(d0, span)), 7.0)
    t, _ = zd._nodes(d0, window)
    parts = np.stack([p.real, p.imag], axis=-1)
    want = np.exp(-t[:, np.newaxis] * x[:, np.newaxis, :]) @ parts
    got = zd._moments(zd._decay(t, x), p,
                      np.empty((nb, len(t)), dtype=complex))
    err = np.abs(got - (want[..., 0] + 1j * want[..., 1]))
    assert np.all(err <= 1e-15 * np.sum(np.abs(p), axis=1)[:, np.newaxis])


def test_pair_sums_against_dense_oracle(dataset):
    # the unordered-pair sums against explicit n x n double sums, on the
    # table as shipped and on a ZeroDataset whose ordinates are shuffled
    g = dataset.ordinates[:300]
    T = float(g[-1])
    L = math.log(T)
    pair = make_selberg_pair(1.0)
    rng = np.random.default_rng(3)
    for ords in (g, rng.permutation(g)):
        ds = zd.ZeroDataset(ordinates=ords, source="oracle", t_max=T)
        d = ords[np.newaxis, :] - ords[:, np.newaxis]
        cauchy = 4.0 / (4.0 + d ** 2)
        for alpha in (0.0, 0.6, 1.7):
            want = 2 * math.pi * np.sum(np.cos(alpha * L * d) * cauchy) / (len(g) * L)
            assert abs(zd.empirical_F(ds, T, alpha) - want) <= 1e-13 * abs(want)
        for R in (pair.majorant, pair.minorant):
            want = np.sum(R.time_eval(d * L / (2 * math.pi)) * cauchy)
            assert abs(zd.weighted_pair_sum(ds, T, R) - want) <= 1e-13 * abs(want)
        for beta in (0.3, 1.0, 2.5):
            w = 2 * math.pi * beta / L
            assert zd.count_pairs_brute(ds, T, beta) == np.count_nonzero(
                (d > 0) & (d <= w))


def _direct_pair_sum(g, T, R):
    """The oracle of the fast Selberg sum: weighted_pair_sum by the direct
    loop over all pairs, and the same sum over the magnitudes of its
    summands, which sets the scale of its rounding (the imaginary part
    carries it through the same loop)."""
    scale = math.log(T) / (2 * math.pi)

    def term(d):
        v = R.time_eval(d * scale) * 4.0 / (4.0 + d ** 2)
        return v + 1j * np.abs(v)

    total = len(g) * term(np.zeros(1))[0] + 2.0 * oracles.pair_sum(np.sort(g), term)
    return total.real, total.imag


def _wps_table(dataset, name):
    if name == "shuffled":
        return np.random.default_rng(7).permutation(dataset.ordinates[:300])
    if name.startswith("dense"):
        return _dense_tables(dataset)[int(name[len("dense"):])]
    return dataset.ordinates[:int(name)]


@pytest.mark.parametrize("table", ["1", "15", "16", "17", "33", "300", "2000",
                                   "shuffled"]
                         + [f"dense{i}" for i in range(6)])
@settings(max_examples=8, deadline=None)
@given(st.floats(0.01, 200.0), st.floats(1.0, 2.0), st.sampled_from([1, -1]))
@example(18.922357127197234, 2.0, 1)
@example(18.922357127197234, 2.0, -1)
@example(15.514545035292223, 2.0, 1)
@example(15.514545035292223, 2.0, -1)
def test_selberg_pair_sum_against_direct_loop(dataset, table, beta, delta,
                                              sign):
    # the near blocks and far field of a Selberg function against the
    # direct loop, on shipped prefixes across block edges, shuffled
    # ordinates and the dense tables of F, to 1e-13 of the sum of the
    # summands' magnitudes (the sum itself crosses 0 for the minorant).
    # The examples take six far-field nodes above the top node of F's
    # plan, the most seen, the first on table "300", the second on "2000"
    g = _wps_table(dataset, table)
    T = float(np.max(g))
    ds = zd.ZeroDataset(ordinates=g, source="oracle", t_max=T)
    pair = make_selberg_pair(beta, delta)
    R = pair.majorant if sign > 0 else pair.minorant
    with np.errstate(over="raise", invalid="raise"):
        got = zd.weighted_pair_sum(ds, T, R)
    want, scale = _direct_pair_sum(g, T, R)
    assert abs(got - want) <= 1e-13 * scale


def test_pair_sums_on_the_whole_trapezoid_rule(monkeypatch):
    # 160 + 160 ordinates with gaps U(1, 12), the second cluster from 1e9:
    # the gap between them falls on a block boundary, and at a span past
    # 8e8 no more than _GAUSS trapezoid nodes lie below 1 / span, so
    # _nodes keeps its trapezoid rule whole and never calls _gauss.  F
    # against the explicit double sum and both Selberg signs against the
    # direct loop, to the bounds of the dense tables (measured 8.3e-16 and
    # 0).  Kept out of _dense_tables, whose pair sums tests/test_pins.py pins
    def no_gauss(t, w):
        raise AssertionError("_nodes collapsed its low nodes")

    monkeypatch.setattr(zd, "_gauss", no_gauss)
    monkeypatch.setattr(zd, "_memo", ())
    rng = np.random.default_rng(5)
    g = np.concatenate([10.0 + np.cumsum(rng.uniform(1.0, 12.0, 10 * B)),
                        1e9 + np.cumsum(rng.uniform(1.0, 12.0, 10 * B))])
    T, scale = _explicit_F(g, 0.0)
    ds = zd.ZeroDataset(ordinates=g, source="two clusters", t_max=T)
    for alpha in (0.0, 0.7, 1.9):
        want = _explicit_F(g, alpha)[1]
        assert abs(zd.empirical_F(ds, T, alpha) - want) <= 1e-13 * scale
    assert zd._plan(g).far is not None
    pair = make_selberg_pair(1.0)
    for R in (pair.majorant, pair.minorant):
        want, size = _direct_pair_sum(g, T, R)
        assert abs(zd.weighted_pair_sum(ds, T, R) - want) <= 1e-13 * size


def test_selberg_pair_sum_reference(dataset):
    # the first 2,000 zeros against the direct loop's sum at beta = 1
    sub = zd.ZeroDataset(ordinates=dataset.ordinates[:2000],
                         source=dataset.source,
                         t_max=float(dataset.ordinates[1999]))
    pair = make_selberg_pair(1.0)
    got = zd.weighted_pair_sum(sub, sub.t_max, pair.majorant)
    assert abs(got - 3647.626965240294) <= 1e-13 * 3647.626965240294
    # and both sums bit for bit, so that a rewrite of the Selberg function's
    # evaluation that means to keep every bit shows it here
    assert got.hex() == "0x1.c7f4101968596p+11"
    got = zd.weighted_pair_sum(sub, sub.t_max, pair.minorant)
    assert got.hex() == "0x1.00d7ce64119e8p+11"


def test_montgomery_identity_ties_the_pair_engines(dataset):
    # Montgomery's identity: with x = (log T / 2 pi) d, the weighted pair
    # sum over all ordered pairs, sum R(x) C(d), equals (n log T / 2 pi)
    # times the integral of R^(alpha) F(alpha) over the band, R^ the
    # transform of the tests' oracle.  weighted_pair_sum and empirical_F
    # share the plan of the window, blocks, nodes and far field, but not
    # the near field, the weights or the summands; the direct loop of
    # test_selberg_pair_sum_against_direct_loop, which shares none of it,
    # stays the independent oracle.  One F array on 40-node Gauss-Legendre
    # panels of width 1/160 over [0, 1.25] serves every case, with panel
    # edges at 1 and 1.25, where R^ ends; both integrands are even.  The
    # worst measured error is 2.4e-14 of the sum (1.2e-11 with 140 panels
    # per unit, 8.6e-15 with 216)
    n = 2000
    sub = zd.ZeroDataset(ordinates=dataset.ordinates[:n], source=dataset.source,
                         t_max=float(dataset.ordinates[n - 1]))
    T = sub.t_max
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(0.0, 1.25, 201)
    half = 0.5 * np.diff(edges)[:, np.newaxis]
    alpha = (edges[:-1, np.newaxis] + half * (nodes + 1.0)).reshape(-1)
    weight = (half * weights).reshape(-1)
    F = zd.empirical_F(sub, T, alpha)
    for beta, delta in ((1.0, 1.0), (2.2, 1.0), (2.2, 1.25)):
        pair = make_selberg_pair(beta, delta)
        for R in (pair.majorant, pair.minorant):
            want = zd.weighted_pair_sum(sub, T, R)
            got = (n * math.log(T) / math.pi
                   * np.sum(weight * oracles.selberg_ft(R, alpha) * F))
            assert abs(got - want) <= 1e-12 * abs(want)


def _near_field_window(dataset, R, start):
    """The blocks of the shipped table from ordinate `start` on, as many
    as reach two blocks past the first offset whose gaps are all past R's
    switch, with the scale and that offset, as _selberg_pairs takes them."""
    for n in B * 2 ** np.arange(2, 8):
        g = dataset.ordinates[start:start + n]
        scale = math.log(g[-1]) / (2 * math.pi)
        G, real = zd._blocks(g)
        reach = zd._reach(G, max(zd._REACH,
                                 (R.gamma + FAR) / (R.dilation * scale)))
        if reach + 2 <= len(G):
            return G, real, scale, reach
    raise AssertionError("no window of up to 2,048 ordinates reaches")


def _near_field_against_time_eval(dataset, R, start):
    """R from the near field's unit phases at every gap of its pieces,
    against R.time_eval to 1e-15, on the window of _near_field_window: bit
    for bit where both arguments of r_gamma lie below the far branch's
    switch, where neither sine is read.  Returns the set of the numbers
    of far arguments (0, 1 or 2) seen."""
    G, real, scale, reach = _near_field_window(dataset, R, start)
    kinds = set()
    for d, _, ei, ej in zd._near_pieces(G, real, R.dilation * scale, reach):
        got = zd._selberg_values(d, ei, ej, R, scale)
        want = R.time_eval(d * scale)
        assert got.shape == d.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        x = R.dilation * (d * scale)
        far = ((np.abs(x + R.gamma) >= FAR).astype(int)
               + (np.abs(R.gamma - x) >= FAR))
        assert np.array_equal(got[far == 0], want[far == 0])
        kinds.update(np.unique(far).tolist())
    return kinds


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 200.0), st.floats(1.0, 2.0), st.sampled_from([1, -1]),
       st.integers(0, 8000))
def test_selberg_near_field_far_branch(dataset, beta, delta, sign, start):
    # every gap of the near field on the block spans of the shipped table
    # from a random start; the window reaches past the far branch, so
    # gaps with both arguments far and others both occur
    pair = make_selberg_pair(beta, delta)
    R = pair.majorant if sign > 0 else pair.minorant
    kinds = _near_field_against_time_eval(dataset, R, start)
    assert 2 in kinds and len(kinds) >= 2


@pytest.mark.parametrize("beta, delta, kinds", [
    (1.0, 1.0, {0, 1, 2}), (0.37, 1.0, {0, 1, 2}), (2.6, 1.5, {0, 1, 2}),
    (47.3, 1.7, {1, 2})])
def test_selberg_near_field_every_kind_of_gap(dataset, beta, delta, kinds):
    # the same check where gaps with no, one and two far arguments all
    # occur (for gamma >= FAR every gap has u = x + gamma far)
    pair = make_selberg_pair(beta, delta)
    for R in (pair.majorant, pair.minorant):
        assert _near_field_against_time_eval(dataset, R, 0) == kinds


@pytest.mark.parametrize("beta", [0.01, 1.0, 47.3, 1000.0])
def test_selberg_far_field_weights(dataset, beta):
    # C(d) Q(y) for both arguments y = +/- a (d +/- c) of r_gamma, as
    # exponential sums on the far field's nodes, against the power series
    # of far_series on [d0, span] of the shipped table; d0 is the smallest
    # far gap a sum can have, where both arguments reach FAR.  Nothing
    # overflows, and the worst measured error is 2.5e-12
    g = dataset.ordinates
    d_span = g[-1] - g[0]
    for delta in (1.0, 1.5, 2.0):
        a = delta * math.log(g[-1]) / (2 * math.pi)
        gamma = delta * beta
        c = gamma / a
        d0 = max(zd._REACH, (gamma + FAR) / a)
        t = zd._log_grid(d0 - c)
        d = np.geomspace(d0, d_span, 2001)
        for sign in (1, -1):
            series = far_series(sign)
            for side in (1, -1):
                terms = [(m, q * side ** m / a ** m) for m, q in series]
                with np.errstate(over="raise", invalid="raise"):
                    w = zd._power_weights(t, side * c, terms, d0)
                    got = np.exp(-np.outer(d - d0, t)) @ w
                y = side * a * (d + side * c)
                want = 4.0 / (4.0 + d ** 2) * sum(q * y ** -float(m)
                                                  for m, q in series)
                assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


def test_empirical_table_columns(small, capsys):
    # pcx empirical sets count_pairs / n, over the whole table (T = t_max),
    # beside bound_table's columns; JSON holds each number as its text
    # shows it
    betas = np.array([0.5, 1.0, 1.5, 2.0])
    assert cli.main(["empirical", "--zeros", small.source,
                     "--beta", "0.5:2:0.5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    want = dict(vars(pcbounds.bound_table(betas)),
                ratio=zd.count_pairs(small, small.t_max, betas) / len(small))
    for column in ("beta", "ratio", "conjecture", "lower", "upper"):
        assert [row[column] for row in rows] == [
            float(f"{v:.10g}") for v in want[column]]
    for row in rows:
        assert row["lower"] < row["conjecture"] < row["upper"]
        assert 0.0 < row["ratio"]


def test_empty_beta_grid(small, dataset):
    # an empty grid gives empty columns, as bound_table and empirical_F do
    for ds in (small, dataset):
        counts = zd.count_pairs(ds, ds.t_max, np.array([]))
        assert counts.dtype == np.int64 and counts.shape == (0,)
    assert zd.count_pairs(small, 20.0, np.empty((0, 3))).shape == (0, 3)
    for column in vars(pcbounds.bound_table([])).values():
        assert column.shape == (0,)


def test_shipped_dataset(dataset):
    assert len(dataset) == 10_000
    first = dataset.ordinates[:3]
    assert np.allclose(first, [14.134725142, 21.022039639, 25.010857580],
                       atol=1e-6)
    # mean density on [0, T]: (log(T/2pi) - 1) / 2pi zeros per unit height
    T = dataset.t_max
    dens = (math.log(T / (2 * math.pi)) - 1.0) / (2 * math.pi)
    assert len(dataset) / T == pytest.approx(dens, rel=0.01)


def _chi_pair_sum(g, T, beta):
    """weighted_pair_sum of the indicator of [-beta, beta] from sorted
    windows: at each offset o the pairs g[i], g[i + o] that pass the
    indicator's own test |d scale| <= beta, until an offset has none
    (the gaps grow with o, so no later one has any)."""
    g = np.sort(g)
    scale = math.log(T) / (2 * math.pi)
    total = 0.0
    for o in range(1, len(g)):
        d = g[o:] - g[:-o]
        d = d[np.abs(d * scale) <= beta]
        if not len(d):
            break
        total += np.sum(4.0 / (4.0 + d ** 2))
    return len(g) + 2.0 * total


def test_shipped_dataset_majorant_inequality(dataset):
    # the averaged majorant count sandwiches the true pair count, on all
    # 10^4 zeros; the sums of the Selberg majorant and minorant are the
    # fast ones, the indicator's comes from sorted windows
    beta = 1.0
    # the windowed indicator sum against the direct loop
    g = dataset.ordinates[:300]
    scale = math.log(g[-1]) / (2 * math.pi)
    want = len(g) + 2.0 * oracles.pair_sum(
        g, lambda d: (np.abs(d * scale) <= beta) * 4.0 / (4.0 + d ** 2))
    assert abs(_chi_pair_sum(g, g[-1], beta) - want) <= 1e-13 * want
    T = dataset.t_max
    pair = make_selberg_pair(beta)
    chi_sum = _chi_pair_sum(dataset.ordinates, T, beta)
    hi = zd.weighted_pair_sum(dataset, T, pair.majorant)
    lo = zd.weighted_pair_sum(dataset, T, pair.minorant)
    assert lo <= chi_sum <= hi


def test_generate_zeros_matches_shipped_table(dataset):
    assert np.max(np.abs(generate_zeros(30) - dataset.ordinates[:30])) < 1e-9


def test_generate_zeros_short_scan_raises(monkeypatch):
    # a padding of 0.5 stops the scan near T = 53, where 11 of the 30 zeros
    # asked for lie
    monkeypatch.setattr(oracles, "T_GUESS_PAD", 0.5)
    with pytest.raises(NoRoot):
        generate_zeros(30)
