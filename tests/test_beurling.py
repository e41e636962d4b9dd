import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcx import beurling as bs
from pcx.numerics import DomainError


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
    xs = np.linspace(-4, 4, 101)
    assert np.max(np.abs(bs.eval_H1(xs) - np.sinc(xs) ** 2)) < 1e-15


def test_majorant_minorant_sandwich_sgn():
    xs = np.linspace(-6, 6, 4001)
    hp = bs._h_signed(xs, +1)
    hm = bs._h_signed(xs, -1)
    sgn = np.sign(xs)
    assert np.all(hp >= sgn - 1e-12)
    assert np.all(hm <= sgn + 1e-12)


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.1, 6.0), x=st.floats(-10.0, 10.0))
def test_interval_sandwich(beta, x):
    chi = 1.0 if abs(x) <= beta else 0.0
    lo = bs.eval_r(beta, -1, np.array([x]))[0]
    hi = bs.eval_r(beta, +1, np.array([x]))[0]
    assert lo <= chi + 1e-10
    assert hi >= chi - 1e-10


def test_transform_at_zero():
    for beta in (0.4, 1.0, 2.3):
        assert abs(bs.ft_r(beta, +1, np.array([0.0]))[0] - (2 * beta + 1)) < 1e-12
        assert abs(bs.ft_r(beta, -1, np.array([0.0]))[0] - (2 * beta - 1)) < 1e-12


def test_transform_band_limit():
    with pytest.raises(DomainError):
        bs.ft_r(1.0, +1, np.array([1.5]))


def test_transform_small_t_series_continuity():
    # the series branch must join the closed form smoothly across the
    # 1e-6 cutover: the local slope there is pi/3
    t = np.array([0.99e-6, 1.01e-6])
    v = bs.ft_W(t).imag
    assert abs((v[1] - v[0]) - (math.pi / 3) * (t[1] - t[0])) < 1e-10
    assert np.all(np.isfinite(bs.ft_W(np.array([0.0, 1e-9, 1e-3, 0.5, 1.0])).imag))


def test_transform_matches_numerical_fourier():
    # hat r(t) = int r(x) e(-xt) dx, checked by direct slow quadrature
    from pcx.numerics import QuadratureSpec, integrate_real_line
    beta, t = 0.8, 0.25
    for sign in (+1, -1):
        def integrand(x):
            return bs.eval_r(beta, sign, x) * np.cos(2 * math.pi * t * x)
        num = integrate_real_line(integrand,
                                  QuadratureSpec(oscillation_period=4.0),
                                  inner=32.0)
        assert abs(num - bs.ft_r(beta, sign, np.array([t]))[0]) < 1e-10


def test_selberg_pair_dilation():
    pair = bs.make_selberg_pair(0.7, 2.0)
    assert pair.majorant.delta == pytest.approx(2.0)
    x = np.linspace(-3, 3, 301)
    chi = (np.abs(x) <= 0.7).astype(float)
    assert np.all(pair.majorant.time_eval(x) >= chi - 1e-10)
    assert np.all(pair.minorant.time_eval(x) <= chi + 1e-10)
    # transform vanishes outside the widened band
    assert pair.majorant.freq_eval(np.array([2.5]))[0] == 0.0


def test_selberg_pair_domain():
    with pytest.raises(DomainError):
        bs.make_selberg_pair(-1.0)
    with pytest.raises(DomainError):
        bs.make_selberg_pair(1.0, 0.5)
