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
                                   1.0, 2.0,
                                   nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - ref) < 1e-10


def test_extrapolate_to_zero_linear():
    xs = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    ys = 3.0 + 2.0 * xs
    val, err = nm.extrapolate_to_zero(xs, ys)
    assert abs(val - 3.0) < 1e-12
    assert err < 1e-10


def test_integrate_semi_infinite_power_tail():
    v = nm.integrate_semi_infinite(lambda x: 1.0 / x ** 2, 1.0, 2.0,
                                   nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - 1.0) < 1e-10


def test_integrate_semi_infinite_oscillatory_sinc2():
    from scipy.special import sici
    a = 5.0
    f = lambda x: np.sinc(x) ** 2
    # closed form: (1/pi) * (pi/2 + sin^2(pi a)/(pi a) - Si(2 pi a))
    c = math.pi * a
    ref = (math.pi / 2 + math.sin(c) ** 2 / c - sici(2 * c)[0]) / math.pi
    v = nm.integrate_semi_infinite(f, a, 2.0,
                                   nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - ref) < 1e-10


def test_integrate_real_line_gaussian():
    v = nm.integrate_real_line(lambda x: np.exp(-x ** 2),
                               nm.QuadratureSpec(oscillation_period=1.0))
    assert abs(v - math.sqrt(math.pi)) < 1e-11


def test_bracket_requires_sign_change():
    with pytest.raises(nm.DomainError):
        nm.bracket_from(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_simple():
    b = nm.bracket_from(math.cos, 1.0, 2.0)
    r = nm.find_root(math.cos, b, 1e-14)
    assert abs(r - math.pi / 2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(shift=st.floats(-0.9, 0.9), cube=st.floats(0.1, 5.0))
def test_find_root_stays_in_bracket(shift, cube):
    f = lambda x: cube * (x - shift) ** 3 + (x - shift)
    b = nm.bracket_from(f, -1.0, 1.0)
    r = nm.find_root(f, b, 1e-12)
    assert b.lo <= r <= b.hi
    assert abs(r - shift) < 1e-9


def test_semi_infinite_rejects_fat_tail():
    with pytest.raises(nm.TailTooFat):
        nm.integrate_semi_infinite(lambda x: 1.0 / x, 1.0, 1.0,
                                   nm.QuadratureSpec(oscillation_period=1.0))


def test_deriv_central_sixth_order():
    d = nm.deriv_central(np.sin, np.array([0.3, 1.1]))
    assert np.max(np.abs(d - np.cos([0.3, 1.1]))) < 1e-12


def test_nonconvergence_raised():
    # a discontinuous integrand with an absurd tolerance cannot converge
    f = lambda x: np.where(np.sin(1.0 / (x + 1e-30)) > 0, 1.0, 0.0)
    with pytest.raises(nm.NonConvergence):
        nm.integrate_adaptive(f, 0.0, 1.0,
                              nm.QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15,
                                                max_depth=6))
