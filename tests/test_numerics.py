import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcx import numerics as nm


def test_gk15_polynomial_exact():
    # Gauss-Kronrod 15 integrates degree <= 22 polynomials exactly
    val, err = nm._gk15_batch(lambda x: x ** 10, np.array([0.0]), np.array([1.0]))
    assert abs(val[0] - 1.0 / 11.0) < 1e-15


def test_integrate_adaptive_smooth():
    v = nm.integrate_adaptive(np.exp, 0.0, 1.0, nm.QuadratureSpec())
    assert abs(v - (math.e - 1.0)) < 1e-13


def test_integrate_adaptive_oscillatory():
    v = nm.integrate_adaptive(lambda x: np.sin(50.0 * x), 0.0, math.pi,
                              nm.QuadratureSpec(oscillation_period=2 * math.pi / 50))
    exact = (1.0 - math.cos(50.0 * math.pi)) / 50.0
    assert abs(v - exact) < 1e-12


def test_complex_integrands():
    from scipy.special import sici
    v = nm.integrate_adaptive(lambda x: np.exp(1j * np.pi * x), 0.0, 1.0)
    assert abs(v - 2j / math.pi) < 1e-13
    # int_1^inf e^{2 pi i x}/x^2 dx, by parts against Si and Ci
    si, ci = sici(2.0 * math.pi)
    ref = complex(1.0 - 2.0 * math.pi * (math.pi / 2 - si),
                  -2.0 * math.pi * ci)
    v = nm.integrate_semi_infinite(lambda x: np.exp(2j * np.pi * x) / x ** 2,
                                   1.0,
                                   nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - ref) < 1e-10


def test_extrapolate_to_zero_linear():
    xs = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    ys = 3.0 + 2.0 * xs
    val, err = nm.extrapolate_to_zero(xs, ys)
    assert abs(val - 3.0) < 1e-12
    assert err < 1e-10


def test_integrate_semi_infinite_power_tail():
    v = nm.integrate_semi_infinite(lambda x: 1.0 / x ** 2, 1.0,
                                   nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - 1.0) < 1e-10


def test_integrate_semi_infinite_oscillatory_sinc2():
    from scipy.special import sici
    a = 5.0
    f = lambda x: np.sinc(x) ** 2
    # closed form: (1/pi) * (pi/2 + sin^2(pi a)/(pi a) - Si(2 pi a))
    c = math.pi * a
    ref = (math.pi / 2 + math.sin(c) ** 2 / c - sici(2 * c)[0]) / math.pi
    v = nm.integrate_semi_infinite(f, a,
                                   nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - ref) < 1e-10


def test_integrate_real_line_gaussian():
    v = nm.integrate_real_line(lambda x: np.exp(-x ** 2),
                               nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - math.sqrt(math.pi)) < 1e-11


def test_bracket_requires_sign_change():
    # no strict sign change on the grid: no roots
    roots = nm.find_root(lambda x: x * x + 1.0, np.linspace(-1.0, 1.0, 9))
    assert roots.shape == (0,)
    for bad in ([0.0], [0.0, 1.0, 1.0], [1.0, 0.0], [[0.0, 1.0]]):
        with pytest.raises(nm.DomainError):
            nm.find_root(np.cos, bad)


def test_find_root_simple():
    r = nm.find_root(np.cos, [1.0, 2.0], 1e-14)
    assert r.shape == (1,) and abs(r[0] - math.pi / 2) < 1e-12
    # an exact zero on a grid point is returned once, as it is
    assert nm.find_root(lambda x: x - 0.5, np.linspace(0.0, 1.0, 5)).tolist() \
        == [0.5]
    # a sign change between values whose product underflows is still found
    r = nm.find_root(lambda x: 1e-200 * (x - 1.0 / 3.0), [0.0, 0.25, 0.5, 1.0])
    assert r.shape == (1,) and abs(r[0] - 1.0 / 3.0) < 1e-12


def _one_bracket(f, lo, hi, tol):
    """Scalar reference for one bracket: the same secant step, demoted to
    bisection near an endpoint and on every third step."""
    flo, fhi = f(lo), f(hi)
    for it in range(200):
        width = hi - lo
        if width <= tol:
            break
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


def test_nonconvergence_raised():
    # a discontinuous integrand with an absurd tolerance cannot converge
    f = lambda x: np.where(np.sin(1.0 / (x + 1e-30)) > 0, 1.0, 0.0)
    with pytest.raises(nm.NonConvergence):
        nm.integrate_adaptive(f, 0.0, 1.0,
                              nm.QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15,
                                                max_depth=6))
