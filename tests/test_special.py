import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcx import special as sp
from pcx.numerics import DomainError


def _grid():
    # log-uniform over [10, 2e5] plus a dense stretch on [10, 12], where
    # the series is weakest; the 3,000 uniform points make one array
    # longer than 1,024 arguments
    rng = np.random.default_rng(17)
    return np.concatenate([np.exp(rng.uniform(math.log(10.0), math.log(2e5), 300)),
                           np.linspace(10.0, 12.0, 241), [10.0, 2e5],
                           rng.uniform(10.0, 12.0, 3000)])


def _mp_psi(m, xs):
    with mpmath.workdps(40):
        return np.array([float(mpmath.psi(m, mpmath.mpf(x))) for x in xs])


def tetragamma(x):
    # psi2 as the library takes it, from the powers it shares with psi1
    return sp.trigamma_tetragamma(x)[1]


@pytest.mark.parametrize("m, fn, tol", [(1, sp.trigamma, 1e-15),
                                        (2, tetragamma, 1.5e-15)])
def test_polygamma_against_mpmath(m, fn, tol):
    xs = _grid()
    ref = _mp_psi(m, xs)
    arr = fn(xs)
    scalar = np.array([fn(float(x)) for x in xs])
    assert np.max(np.abs(arr - ref) / np.abs(ref)) <= tol
    # the float loop and the array path do the same arithmetic
    assert np.array_equal(arr, scalar)


def test_sine_integral_against_mpmath():
    rng = np.random.default_rng(5)
    betas = np.concatenate([np.exp(rng.uniform(math.log(0.05), math.log(1e3), 300)),
                            np.linspace(0.05, 3.0, 119), [4 / (2 * math.pi)]])
    # both sides of the switch from the power series at 4
    xs = np.concatenate([2.0 * math.pi * betas,
                         4.0 + np.array([-1e-12, -1e-13, 1e-13, 1e-12])])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.si(mpmath.mpf(x))) for x in xs])
    got = np.array([sp._si(np.array([x]))[0] for x in xs])
    assert np.max(np.abs(got - ref)) <= 2e-15
    # an array gives each point the bits it gets alone
    assert np.array_equal(sp._si(xs), got)
    assert sp._si(np.array([0.0]))[0] == 0.0


def test_sine_integral_relative_error():
    # the auxiliary functions' rule on log-uniform t in [4, 1e15], just
    # above the switch and far out, against 50-digit mpmath
    rng = np.random.default_rng(2000)
    ts = np.concatenate([10.0 ** rng.uniform(math.log10(4.0), 15.0, 2000),
                         4.0 + np.array([0.0, 1e-13, 1e-12, 1e-6]),
                         [1e20, 1e154, 1e300]])
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.si(mpmath.mpf(t))) for t in ts])
    assert np.max(np.abs(sp._si(ts) - ref) / ref) <= 3e-16
    # both rules at the switch
    four = np.array([4.0])
    assert abs(sp._si_series(four)[0] - sp._si_auxiliary(four)[0]) <= (
        2.0 * np.spacing(sp._si_series(four)[0]))


def test_sine_integral_takes_no_exponential(monkeypatch):
    # the rule's exponentials are module constants: Si on the 1,873
    # points 2 pi beta >= 4 of beta = 0.05:10:0.005 calls no np.exp
    x = 2.0 * math.pi * (0.05 + 0.005 * np.arange(1991))
    x = x[x >= 4.0]
    assert len(x) == 1873
    expected = sp._si(x)

    def no_exp(*args, **kwargs):
        raise AssertionError("np.exp called")

    monkeypatch.setattr(np, "exp", no_exp)
    assert np.array_equal(sp._si(x), expected)


@pytest.mark.filterwarnings("error")
def test_sine_integral_huge_arguments():
    # q = v/t, never t^2, so no t up to the largest double overflows
    x = np.array([3.4e306, 1e308, np.finfo(float).max])
    assert np.array_equal(sp._si(x), np.full(3, 0.5 * math.pi))
    for one in x:
        assert sp._si(np.array([one]))[0] == 0.5 * math.pi


@settings(max_examples=200, deadline=None)
@given(x=st.floats(10.0, 1e4))
def test_trigamma_recurrence(x):
    lhs = sp.trigamma(x) - sp.trigamma(x + 1.0)
    # the terms of the difference carry rounding of size eps * psi1(x)
    assert abs(lhs - 1.0 / x ** 2) <= 4e-16 * (sp.trigamma(x) + 1.0 / x ** 2)


def test_bad_arguments():
    # psi1 and psi2 are taken from their series at x >= SHIFT only
    for fn in (sp.trigamma, tetragamma):
        for bad in (9.999999999999998, 1.0, 1e-320, 0.0, -1.5, math.nan):
            with pytest.raises(DomainError, match="argument"):
                fn(bad)
        with pytest.raises(DomainError):
            fn(np.array([12.0, 0.0]))
        assert fn(math.inf) == 0.0
        assert math.isfinite(fn(sp.SHIFT))
