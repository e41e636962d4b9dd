import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import ft_r, ft_W, selberg_ft
from pcx import beurling as bs
from pcx.numerics import DomainError, integrate_real_line
from pcx.special import trigamma


def test_h0_against_partial_fraction_oracle():
    # the defining interpolation series, summed to high precision:
    # H(x) = (sin pi x / pi)^2 (sum_{n>=0} (x-n)^-2 - sum_{n>=1} (x+n)^-2
    #        + 2/x) majorizes sgn; the odd part is H - sinc^2
    import mpmath
    for x in (0.3, 1.2, 2.7, 5.5):
        xm = mpmath.mpf(x)
        series = (mpmath.nsum(lambda n: (xm - n) ** -2, [0, mpmath.inf])
                  - mpmath.nsum(lambda n: (xm + n) ** -2, [1, mpmath.inf])
                  + 2 / xm)
        ref = float((mpmath.sinpi(xm) / mpmath.pi) ** 2 * series
                    - mpmath.sincpi(xm) ** 2)
        assert abs(bs.eval_H0(np.array([x]))[0] - ref) < 1e-12


def test_h0_odd():
    xs = np.array([0.3, 1.2, 2.7, 5.5])
    assert np.max(np.abs(bs.eval_H0(xs) + bs.eval_H0(-xs))) < 1e-14


def test_h0_integer_interpolation():
    # H0 interpolates sgn at nonzero integers and vanishes at 0
    xs = np.array([0.0, 1.0, 2.0, 5.0, -1.0, -3.0])
    expect = np.array([0.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    assert np.max(np.abs(bs.eval_H0(xs) - expect)) < 1e-12


def test_h1_is_fejer():
    # the H1 that the closed form takes from its one sine is sinc^2
    xs = np.linspace(-4, 4, 101)
    assert np.max(np.abs(bs._h0_near(xs)[1] - np.sinc(xs) ** 2)) < 1e-15


def test_majorant_minorant_sandwich_sgn():
    xs = np.linspace(-60, 60, 40001)
    hp = bs.eval_H0(xs) + np.sinc(xs) ** 2
    hm = bs.eval_H0(xs) - np.sinc(xs) ** 2
    sgn = np.sign(xs)
    assert np.all(hp >= sgn - 1e-12)
    assert np.all(hm <= sgn + 1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.1, 6.0), delta=st.floats(1.0, 2.0),
       x=st.floats(-1e4, 1e4))
def test_interval_sandwich(beta, delta, x):
    # the dilated pair s(x) = r_{delta beta}(delta x) still sandwiches
    # chi_[-beta, beta]; delta = 1 is r_beta itself
    chi = 1.0 if abs(x) <= beta else 0.0
    pair = bs.make_selberg_pair(beta, delta)
    lo = pair.minorant.time_eval(np.array([x]))[0]
    hi = pair.majorant.time_eval(np.array([x]))[0]
    assert lo <= chi + 1e-10
    assert hi >= chi - 1e-10


def _single_formula_H0(x, trigamma=trigamma):
    """The oracle for the two-branch H0: the trigamma closed form on every
    argument, which the near branch must match bit for bit."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    s2 = np.sinc(ax) ** 2
    sin2 = (np.sin(np.pi * ax) / np.pi) ** 2
    val = 1.0 - s2 + 2.0 * ax * s2 - 2.0 * sin2 * trigamma(1.0 + ax)
    return np.sign(x) * val


def _mp_H(y, sign):
    """H0(y) + sign*H1(y) from the closed form at the working precision."""
    import mpmath
    y = mpmath.mpf(y)
    if y == 0:
        return mpmath.mpf(sign)
    a = abs(y)
    s2 = mpmath.sincpi(a) ** 2
    h0 = (1 - s2 + 2 * a * s2
          - 2 * (mpmath.sinpi(a) / mpmath.pi) ** 2 * mpmath.psi(1, 1 + a))
    return mpmath.sign(y) * h0 + sign * s2


def _mp_r(beta, sign, x):
    import mpmath
    with mpmath.workdps(40):
        b, x = mpmath.mpf(beta), mpmath.mpf(x)
        return float((_mp_H(x + b, sign) + _mp_H(b - x, sign)) / 2)


def test_near_branch_bitwise():
    # below |x +/- beta| = 10 the single formula is used unchanged
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 2001),
                         np.arange(-9.5, 10.0, 0.5),
                         np.nextafter(10.0, 0.0) * np.array([-1.0, 1.0])])
    assert np.array_equal(bs.eval_H0(xs), _single_formula_H0(xs))
    for beta in (0.3, 1.0, 4.2):
        for sign in (+1, -1):
            u, v = xs + beta, beta - xs
            both = (np.abs(u) < 10) & (np.abs(v) < 10)
            old = 0.5 * ((_single_formula_H0(u) + sign * np.sinc(u) ** 2)
                         + (_single_formula_H0(v) + sign * np.sinc(v) ** 2))
            assert np.array_equal(bs.eval_r(beta, sign, xs)[both], old[both])


def test_near_branch_against_mpmath():
    # the near branch with the package's trigamma is at least as accurate
    # as the same closed form with scipy's polygamma, which it replaced
    import mpmath
    from scipy.special import polygamma
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 400), np.arange(-9.75, 10.0, 0.5)])
    with mpmath.workdps(40):
        ref = np.array([float(_mp_H(x, 0)) for x in xs])
    err = np.max(np.abs(bs.eval_H0(xs) - ref))
    err_scipy = np.max(np.abs(_single_formula_H0(xs, lambda a: polygamma(1, a)) - ref))
    assert err <= err_scipy
    assert err < 1e-15


def test_far_branch_against_mpmath():
    # 40-digit references on 12 <= |x| <= 2e4; the single formula misses
    # 1e-9 there (by 4.6e-7 on these points), because it cancels O(1/x)
    # terms inside H0 and then H(x + beta) against H(beta - x); a sine of
    # the rounded x + beta misses 1e-12 too (by 1.6e-11 here), the sine of
    # the argument reduced mod 1 before adding errs by 2.4e-13
    rng = np.random.default_rng(7)
    xs = (np.exp(rng.uniform(math.log(12.0), math.log(2e4), 60))
          * rng.choice([-1.0, 1.0], 60))
    for beta in (0.35, 1.0, 2.7):
        for sign in (+1, -1):
            got = bs.eval_r(beta, sign, xs)
            ref = np.array([_mp_r(beta, sign, x) for x in xs])
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12


def _sin2(frac):
    """(sin(pi y)/pi)^2 from frac = y less an integer, as one flat array."""
    return (np.sin(np.pi * np.ravel(frac)) / np.pi) ** 2


def _h_split_masked(y, sign, sin2):
    """The reference for _h_split: each branch run on its own points
    alone, the far remainder on the far points and the closed form on the
    near ones, the latter with a sine each for sinc^2, (sin(pi y)/pi)^2
    and H1, which the one sine of _h0_near must match bit for bit."""
    near = np.abs(y) < bs.FAR
    far = ~near
    whole = np.where(near, 0.0, np.sign(y))
    rest = np.empty(np.shape(y))
    rest[far] = bs._far_rest(y[far], sin2.reshape(np.shape(y))[far], sign)
    yn = y[near]
    rest[near] = _single_formula_H0(yn) + sign * np.sinc(yn) ** 2
    return whole, rest


@settings(max_examples=80, deadline=None)
@given(ys=st.lists(st.one_of(st.floats(-40.0, 40.0),
                             st.sampled_from([bs.FAR, -bs.FAR, 0.0])),
                   min_size=1, max_size=70),
       beta=st.floats(0.01, 20.0), sign=st.sampled_from([0, 1, -1]))
def test_h_split_runs_each_branch_on_its_own_points(ys, beta, sign):
    # one far pass over every point, overwritten by the closed form at
    # the near points, keeps every bit that each branch gives on its own
    # points: of the split, in arrays of any length and on a 0-d y, and of
    # eval_r built on it
    y = np.array(ys)
    for arg in (y, y[0]):
        sin2 = _sin2(arg - np.rint(arg))
        for got, want in zip(bs._h_split(arg, sign, sin2),
                             _h_split_masked(arg, sign, sin2)):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if sign:
        fx, fb = y - np.rint(y), beta - np.rint(beta)
        wu, ru = _h_split_masked(y + beta, sign, _sin2(fx + fb))
        wv, rv = _h_split_masked(beta - y, sign, _sin2(fb - fx))
        want = 0.5 * ((wu + wv) + (ru + rv))
        assert bs.eval_r(beta, sign, y).tobytes() == want.tobytes()


def test_far_remainder_series():
    # H0 - sgn just past the switch, where the dropped Bernoulli terms
    # weigh most: eight terms leave 3.3e-14 of q at |x| = 10 (measured
    # 2.8e-14 here), seven would leave 2.7e-13
    import mpmath
    ys = np.concatenate([np.arange(10.25, 14.0, 0.5), np.arange(10.4, 14.0, 0.5)])
    ys = np.concatenate([ys, -ys])
    rest = bs._h_split(ys, 0, _sin2(ys - np.rint(ys)))[1]
    with mpmath.workdps(40):
        ref = np.array([float(_mp_H(y, 0) - mpmath.sign(y)) for y in ys])
    assert np.max(np.abs(rest - ref) / np.abs(ref)) < 1e-13


def test_branches_meet_at_ten():
    # H0 on both sides of the switch, and r(+/-) where x + beta or
    # beta - x crosses it, agree with 40-digit references to rounding
    import mpmath
    ys = np.array([np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0)])
    ys = np.concatenate([ys, -ys])
    with mpmath.workdps(40):
        ref = np.array([float(_mp_H(y, 0)) for y in ys])
    h = bs.eval_H0(ys)
    assert np.max(np.abs(h - ref)) < 4.5e-16
    assert abs(h[0] - h[1]) < 1e-15 and abs(h[3] - h[4]) < 1e-15
    for beta in (0.5, 2.25):
        edge = 10.0 - beta
        xs = edge + np.arange(-4, 5) * 1e-13
        xs = np.concatenate([xs, -xs])
        for sign in (+1, -1):
            got = bs.eval_r(beta, sign, xs)
            ref = np.array([_mp_r(beta, sign, x) for x in xs])
            assert np.max(np.abs(got - ref)) < 1e-15
            assert np.max(np.abs(np.diff(got[:9]))) < 1e-14


def test_transform_at_zero():
    for beta in (0.4, 1.0, 2.3):
        assert abs(ft_r(beta, +1, np.array([0.0]))[0] - (2 * beta + 1)) < 1e-12
        assert abs(ft_r(beta, -1, np.array([0.0]))[0] - (2 * beta - 1)) < 1e-12


def test_transform_band_limit():
    with pytest.raises(DomainError):
        ft_r(1.0, +1, np.array([1.5]))


def test_transform_small_t_series_continuity():
    # the series branch must join the closed form smoothly across the
    # 1e-6 cutover: the local slope there is pi/3
    t = np.array([0.99e-6, 1.01e-6])
    v = ft_W(t).imag
    assert abs((v[1] - v[0]) - (math.pi / 3) * (t[1] - t[0])) < 1e-10
    assert np.all(np.isfinite(ft_W(np.array([0.0, 1e-9, 1e-3, 0.5, 1.0])).imag))


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.05, 20.0), sign=st.sampled_from([1, -1]),
       delta=st.sampled_from([1.0, 2.0]), k=st.integers(-16, 16))
@example(beta=0.8, sign=1, delta=1.0, k=1)
@example(beta=0.8, sign=-1, delta=1.0, k=1)
def test_transform_matches_numerical_fourier(beta, sign, delta, k):
    # hat R(t) = int R(x) e(-xt) dx of a Selberg function R by the sampling
    # sum alone: 0 past its band [-delta, delta], the oracle inside.  The
    # cosine moves the band out to delta + |t|; at t = k/4 the integrand
    # repeats every 4
    t = k / 4.0
    assume(abs(t) != delta)
    pair = bs.make_selberg_pair(beta, delta)
    R = pair.majorant if sign > 0 else pair.minorant
    num = integrate_real_line(
        lambda x: R.time_eval(x) * np.cos(2.0 * math.pi * t * x),
        delta + abs(t), 4.0)
    assert abs(num - selberg_ft(R, np.array([t]))[0]) <= 1e-10


def test_selberg_pair_dilation():
    pair = bs.make_selberg_pair(0.7, 2.0)
    assert pair.majorant.delta == pytest.approx(2.0)
    x = np.linspace(-3, 3, 301)
    chi = (np.abs(x) <= 0.7).astype(float)
    assert np.all(pair.majorant.time_eval(x) >= chi - 1e-10)
    assert np.all(pair.minorant.time_eval(x) <= chi + 1e-10)
    # transform vanishes outside the widened band
    assert selberg_ft(pair.majorant, np.array([2.5]))[0] == 0.0


def test_far_series_is_the_far_branch():
    # the power series of far_series against the far branch it expands,
    # and the parameters a Selberg function carries against its values
    y = np.concatenate([np.geomspace(bs.FAR, 1e4, 400) + 0.37, [bs.FAR + 0.5]])
    for sign in (+1, -1):
        for yy in (y, -y):
            frac = yy - np.rint(yy)
            series = sum(q * yy ** -float(m) for m, q in bs.far_series(sign))
            want = bs._far_rest(yy, (np.sin(np.pi * frac) / np.pi) ** 2, sign)
            got = (np.sin(np.pi * frac) / np.pi) ** 2 * series
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
    pair = bs.make_selberg_pair(0.7, 1.5)
    x = np.linspace(-30.0, 30.0, 601)
    for sign, R in ((+1, pair.majorant), (-1, pair.minorant)):
        assert (R.gamma, R.sign, R.dilation) == (1.5 * 0.7, sign, 1.5)
        assert np.array_equal(R.time_eval(x),
                              bs.eval_r(R.gamma, sign, R.dilation * x))


def test_selberg_pair_domain():
    with pytest.raises(DomainError):
        bs.make_selberg_pair(-1.0)
    with pytest.raises(DomainError):
        bs.make_selberg_pair(1.0, 0.5)
