import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcx import numerics as nm


def test_complex_integrands():
    # the transform of sinc^2(x - 0.3) is (1 - |t|) e(-0.3 t) on [-1, 1];
    # e^{i pi x/2} = e(x/4) moves it to [-1.25, 0.75] and repeats every 4
    v = nm.integrate_real_line(
        lambda x: np.sinc(x - 0.3) ** 2 * np.exp(0.5j * np.pi * x), 1.25, 4.0)
    assert abs(v - 0.75 * np.exp(0.15j * np.pi)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.0, 100.0))
def test_integrate_real_line_far_bump(c):
    # the tail of a bump c away is a series in c/N: the levels double until
    # N is well past c, and the value is exact to the tight target
    v = nm.integrate_real_line(lambda x: np.sinc(x - c) ** 2, 1.0)
    assert abs(v - 1.0) < 1e-13


def test_integrate_real_line_samples_only_what_it_needs():
    # sinc^2 meets the target at 1,024 periods each way, sampled 2 per
    # period; each level's call of f holds only its new samples
    sizes = []

    def counting(x):
        sizes.append(np.size(x))
        return np.sinc(x) ** 2
    assert abs(nm.integrate_real_line(counting, 1.0) - 1.0) < 1e-13
    assert sizes == [2 * 256 * 2 + 1, 2 * 256 * 2, 2 * 512 * 2]


def test_integrate_real_line_past_the_cap():
    # a bump 10^4 away is still far outside 2^16 periods' reach of the
    # extrapolation: NonConvergence, never a wrong value
    with pytest.raises(nm.NonConvergence):
        nm.integrate_real_line(lambda x: np.sinc(x - 1e4) ** 2, 1.0)
    # nor a NaN: a non-finite estimate ends the doubling at once
    sizes = []

    def nan_at_zero(x):
        sizes.append(np.size(x))
        return np.where(x == 0.0, np.nan, np.sinc(x) ** 2)
    with pytest.raises(nm.NonConvergence):
        nm.integrate_real_line(nan_at_zero, 1.0)
    assert sizes == [2 * 256 * 2 + 1]


def test_extrapolate_to_zero_linear():
    xs = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    ys = 3.0 + 2.0 * xs
    val, err = nm.extrapolate_to_zero(xs, ys)
    assert abs(val - 3.0) < 1e-12
    assert err < 1e-10


def test_integrate_real_line_gaussian():
    # exp(-x^2) is band-limited to rounding: its transform at the first
    # alias, t = 3, is sqrt(pi) exp(-9 pi^2) ~ 1e-39
    v = nm.integrate_real_line(lambda x: np.exp(-x ** 2), 2.0)
    assert abs(v - math.sqrt(math.pi)) < 1e-13
    # sinc^4 has transform support [-2, 2] and integral 2/3
    v = nm.integrate_real_line(lambda x: np.sinc(x) ** 4, 2.0)
    assert abs(v - 2.0 / 3.0) < 1e-13


def test_bracket_requires_sign_change():
    # no strict sign change on the grid: no roots
    roots = nm.find_root(lambda x: x * x + 1.0, np.linspace(-1.0, 1.0, 9))
    assert roots.shape == (0,)
    for bad in ([0.0], [0.0, 1.0, 1.0], [1.0, 0.0], [[0.0, 1.0]]):
        with pytest.raises(nm.DomainError):
            nm.find_root(np.cos, bad)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_find_root_rejects_bad_tol(tol):
    # a NaN tol would end every bracket at once, at its cell's midpoint
    with pytest.raises(nm.DomainError):
        nm.find_root(np.cos, np.linspace(0.0, 3.0, 7), tol)


def _counted(f):
    """f and the list of the arguments of its calls, one entry per call."""
    calls = []

    def counting(x):
        calls.append(x)
        return f(x)

    return counting, calls


def test_find_root_simple():
    f, calls = _counted(np.cos)
    r = nm.find_root(f, [1.0, 2.0], 1e-14)
    assert r.shape == (1,) and abs(r[0] - math.pi / 2) < 1e-12
    assert len(calls) <= 10
    # an exact zero on a grid point is returned once, as it is
    assert nm.find_root(lambda x: x - 0.5, np.linspace(0.0, 1.0, 5)).tolist() \
        == [0.5]
    # a sign change between values whose product underflows is still found
    r = nm.find_root(lambda x: 1e-200 * (x - 1.0 / 3.0), [0.0, 0.25, 0.5, 1.0])
    assert r.shape == (1,) and abs(r[0] - 1.0 / 3.0) < 1e-12


def test_find_root_exact_zero_at_an_iterate():
    # f = x - 0.375 on [0, 1]: the first step of either rule lands on the
    # root exactly, f is 0 there, and that ends the bracket with the root
    # as it is, after the grid call and that one step
    for g in (lambda x: x - 0.375, lambda x: (x - 0.375, np.ones_like(x))):
        f, calls = _counted(g)
        assert nm.find_root(f, [0.0, 1.0]).tolist() == [0.375]
        assert len(calls) == 2


def _one_bracket(f, lo, hi, tol):
    """Scalar reference for one bracket: the same Illinois false-position
    step, clipped tol/2 inside the ends and replaced by bisection outside
    the open bracket or when the width has not halved over two steps."""
    flo, fhi = f(lo), f(hi)
    kept, w1, w2 = 0.0, math.inf, math.inf
    for it in range(201):
        width, mid = hi - lo, 0.5 * (lo + hi)
        if width <= tol or mid <= lo or mid >= hi:
            return mid
        if it == 200:
            raise nm.NonConvergence("bracket still open after 200 steps")
        x = hi - fhi * width / (fhi - flo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi or width > 0.5 * w2:
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x
        up = math.copysign(1.0, fx) == math.copysign(1.0, flo)
        side = 1.0 if up else -1.0
        scale = 0.5 if side == kept else 1.0
        if up:
            lo, flo, fhi = x, fx, scale * fhi
        else:
            hi, fhi, flo = x, fx, scale * flo
        kept, w1, w2 = side, width, w1


def _iterates_in_cells(xs, calls):
    """Every iterate after the grid call lies strictly inside a cell of
    xs, the open brackets in ascending order, one iterate each."""
    for x in calls[1:]:
        cells = np.searchsorted(xs, x)
        assert np.all(np.diff(cells) > 0)
        assert np.all((xs[cells - 1] < x) & (x < xs[cells]))


@settings(max_examples=40, deadline=None)
@given(shift=st.floats(-0.9, 0.9), period=st.floats(0.3, 2.0),
       frac=st.floats(0.05, 0.95), cube=st.floats(0.1, 5.0))
def test_find_root_stays_in_bracket(shift, period, frac, cube):
    # 15 roots at shift + k*period, each strictly inside one cell of width
    # period/4, at relative position 1 - frac
    xs = shift + period * (np.arange(-30, 31) + frac) / 4.0
    want = shift + period * np.arange(-7, 8)

    def f(x):
        s = np.sin(np.pi * (x - shift) / period)
        return cube * s ** 3 + s

    got = nm.find_root(f, xs, 1e-12)
    assert len(got) == len(want)
    assert np.all(np.abs(got - want) <= 1e-12)
    cell = np.searchsorted(xs, want)
    assert np.all((xs[cell - 1] <= got) & (got <= xs[cell]))
    # refining the brackets together leaves each one's iterates unchanged
    scalar = lambda x: float(f(np.array([x]))[0])
    assert got.tolist() == [_one_bracket(scalar, xs[k - 1], xs[k], 1e-12)
                            for k in cell]
    # with the slope, the Newton steps find the same roots, never leaving
    # a cell
    def f_slope(x):
        u = np.pi * (x - shift) / period
        s = np.sin(u)
        return cube * s ** 3 + s, (3.0 * cube * s ** 2 + 1.0) * np.cos(u) \
            * np.pi / period

    f_slope, calls = _counted(f_slope)
    newton = nm.find_root(f_slope, xs, 1e-12)
    assert len(newton) == len(want)
    assert np.all(np.abs(newton - got) <= 1e-12)
    assert np.all((xs[cell - 1] <= newton) & (newton <= xs[cell]))
    _iterates_in_cells(xs, calls)


@settings(max_examples=60, deadline=None)
@given(shift=st.floats(-0.9, 0.9), period=st.floats(0.3, 2.0),
       frac=st.floats(0.05, 0.95), kinds=st.lists(
           st.sampled_from(["near", "anywhere", "outside", "nan"]),
           min_size=60, max_size=60), err=st.floats(-1e-6, 1e-6))
def test_find_root_starts(shift, period, frac, kinds, err):
    # the family of test_find_root_stays_in_bracket, with a start per cell
    # of each kind: near its root, anywhere in the cell, outside it (the
    # next cell's midpoint) or NaN.  Those strictly inside their cells
    # join the grid: both rules find the start-less roots within tol, the
    # first call takes the merged grid, and no later iterate leaves its
    # cell of it
    xs = shift + period * (np.arange(-30, 31) + frac) / 4.0
    width = period / 4.0
    mid = 0.5 * (xs[:-1] + xs[1:])
    root = shift + period * np.round((mid - shift) / period)
    has = (xs[:-1] < root) & (root < xs[1:])
    starts = np.select(
        [np.array(kinds) == k for k in ("near", "anywhere", "outside")],
        [np.where(has, root + err * width, mid),
         xs[:-1] + width * (0.5 + 0.49 * np.sin(np.arange(60.0))),
         mid + width], np.nan)

    def f(x):
        s = np.sin(np.pi * (x - shift) / period)
        return s ** 3 + s

    def f_slope(x):
        u = np.pi * (x - shift) / period
        s = np.sin(u)
        return s ** 3 + s, (3.0 * s ** 2 + 1.0) * np.cos(u) * np.pi / period

    inside = (xs[:-1] < starts) & (starts < xs[1:])
    merged = np.sort(np.concatenate([xs, starts[inside]]))
    for g in (f, f_slope):
        plain = nm.find_root(g, xs, 1e-12)
        g, calls = _counted(g)
        got = nm.find_root(g, merged, 1e-12)
        assert len(got) == len(plain) == 15
        assert np.all(np.abs(got - plain) <= 1e-12)
        assert np.array_equal(calls[0], merged)
        _iterates_in_cells(merged, calls)


def test_find_root_start_on_a_root():
    # a grid point on an exact zero is returned after the one grid call,
    # for either rule
    for g in (lambda x: x - 0.375, lambda x: (x - 0.375, np.ones_like(x))):
        f, calls = _counted(g)
        assert nm.find_root(f, [0.0, 0.375, 0.5, 1.0], 1e-12).tolist() \
            == [0.375]
        assert len(calls) == 1
    # a grid point whose Newton step is within tol/16 counts as a Newton
    # move from the grid point beyond it, so it too ends in the grid call
    f, calls = _counted(lambda x: (x - 0.375, np.ones_like(x)))
    assert nm.find_root(f, [0.0, 0.375 + 1e-14, 0.5, 1.0], 1e-12).tolist() \
        == [0.375]
    assert len(calls) == 1


def test_find_root_start_up_at_a_zero_slope():
    # f = cos x - 1/2 on [0, 2]: f'(0) = -sin 0 is exactly 0, so the step
    # at 0 is -inf, and an infinite step is never the shorter one: the
    # first iterate is the end 2, and Newton from there closes in 5 calls.
    # Were the step at 0 NaN, it would not compare as longer, the start-up
    # would take 0 and bisect, and the root would end 1.0471975511965979
    f, calls = _counted(lambda x: (np.cos(x) - 0.5, -np.sin(x)))
    assert nm.find_root(f, [0.0, 2.0]).tolist() == [1.0471975511965976]
    assert len(calls) == 5
    assert calls[1].tolist() == [2.0 - (math.cos(2.0) - 0.5) / -math.sin(2.0)]


def _pole(r):
    """1/(x - r), inf without a warning where an iterate lands on r."""
    def f(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - r)

    return f


def _pole_slope(r):
    """1/(x - r) and its slope; at r itself inf and -inf, so a NaN step."""
    def f(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - r), -1.0 / (x - r) ** 2

    return f


def _tanh_slope(r):
    """The near-step and its slope, which underflows to 0 a few 1e-7 off
    r, where the step f/f' is infinite."""
    def f(x):
        t = np.tanh(1e8 * (x - r))
        return t, 1e8 * (1.0 - t * t)

    return f


_HARD = {
    "ninth_power": (lambda r: lambda x: (x - r) ** 9,
                    lambda r: lambda x: ((x - r) ** 9, 9.0 * (x - r) ** 8)),
    "pole": (_pole, _pole_slope),
    "steep_tanh": (lambda r: lambda x: np.tanh(1e8 * (x - r)), _tanh_slope),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_HARD)), r=st.floats(0.001, 0.999),
       cells=st.integers(1, 20), tol_exp=st.floats(-13.0, -3.0))
# the grid point 0.6875 lies 5.7e-4 below the root, and its own Newton step
# (x - r)/9 is 6.3e-5, within tol/2 = 1.6e-4: a start-up that accepted it
# would return a root 4.9e-4 off, more than tol
@example(kind="ninth_power", r=0.6880702686455532, cells=16, tol_exp=-3.5)
def test_find_root_hard_brackets(kind, r, cells, tol_exp):
    # a flat ninth-order root, a pole and a near-step: false position alone
    # crawls on all three, so the halving guard must hold the cost to about
    # three calls per halving of the cell.  Given the slope, Newton crawls
    # on the first (its x - f/f' is 8 |f/f'| off), steps away from the
    # second and has no step far from the third: the same guards hold it,
    # and the roots agree within tol
    xs = np.linspace(0.0, 1.0, cells + 1)
    assume(r not in xs)
    tol = 10.0 ** tol_exp
    k = int(np.searchsorted(xs, r))
    cell = xs[k] - xs[k - 1]
    plain, with_slope = _HARD[kind]
    f, calls = _counted(plain(r))
    got = nm.find_root(f, xs, tol)
    assert len(got) == 1 and xs[k - 1] <= got[0] <= xs[k]
    assert abs(got[0] - r) <= 0.5 * tol
    assert len(calls) <= 3 * math.ceil(math.log2(cell / tol)) + 3
    g, calls = _counted(with_slope(r))
    newton = nm.find_root(g, xs, tol)
    assert len(newton) == 1 and xs[k - 1] <= newton[0] <= xs[k]
    assert abs(newton[0] - got[0]) <= tol
    assert len(calls) <= 3 * math.ceil(math.log2(cell / tol)) + 3
    _iterates_in_cells(xs, calls)


@pytest.mark.parametrize("r, cells, tol, root", [
    (0.5, 1, 1e-3, 0.49951171875),
    (0.5, 1, 1e-12, 0.49999999999954525),
    (0.25, 2, 1e-9, 0.2499999995343387),
    (0.75, 2, 1e-6, 0.7499995231628418),
])
def test_find_root_pole_without_warning(r, cells, tol, root):
    # the "pole" bracket of test_find_root_hard_brackets where an iterate
    # lands on r itself: f stores an infinite endpoint value, the false
    # position step from it is NaN and becomes bisection, and no warning
    # reaches the caller; the roots are those find_root gave before the
    # warning was silenced.  With a slope the Newton step from r is
    # inf/-inf, and a slope of 0, inf or NaN everywhere gives no step at
    # all: each falls back to bisection, again without a warning, and the
    # root lies within tol of the slope-less one
    xs = np.linspace(0.0, 1.0, cells + 1)
    k = int(np.searchsorted(xs, r))
    for slope in (None, "true", 0.0, math.inf, math.nan):
        hits = []

        def f(x):
            hits.append(bool(np.any(x == r)))
            with np.errstate(divide="ignore"):
                v = 1.0 / (x - r)
                if slope is None:
                    return v
                if slope == "true":
                    return v, -1.0 / (x - r) ** 2
            return v, np.full_like(x, slope)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nm.find_root(f, xs, tol)
        assert any(hits)
        if slope is None:
            assert got.tolist() == [root]
        assert abs(got[0] - root) <= tol
        assert xs[k - 1] <= got[0] <= xs[k]
    assert abs(root - r) <= 0.5 * tol


def test_find_root_spacing_and_step_cap():
    # near 1e4 the float spacing is 1.8e-12, above tol: the bracket ends
    # when its midpoint rounds to an endpoint, well before the step cap
    f, calls = _counted(lambda x: x - 10000.1)
    got = nm.find_root(f, [9999.0, 10001.0], 1e-13)
    assert abs(got[0] - 10000.1) <= 2e-12
    assert len(calls) <= 3 * math.ceil(math.log2(2.0 / 1.8e-12)) + 3
    # a ninth-order root in a cell 1e42 tolerances wide takes more than the
    # 200 steps: no silent midpoint
    with pytest.raises(nm.NonConvergence):
        nm.find_root(lambda x: (x - 1.0 / 3.0) ** 9, [0.0, 1e30], 1e-12)


def test_nonconvergence_raised():
    # 1/(1 + |x|) is not integrable: the partial sums grow like log N
    with pytest.raises(nm.NonConvergence):
        nm.integrate_real_line(lambda x: 1.0 / (1.0 + np.abs(x)), 1.0)
    with pytest.raises(nm.DomainError):
        nm.integrate_real_line(np.sinc, 0.0)
