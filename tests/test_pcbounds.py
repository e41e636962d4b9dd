import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcx import beurling
from pcx import pcbounds as pb
from pcx.numerics import DomainError, QuadratureSpec, integrate_adaptive


def _v_brute(delta, beta, sign, terms=4_000_000):
    """Huge-window oracle: naive truncation instead of the analytic tails.

    Exercises the accelerated tail machinery; truncation of the 1/u^2
    pieces leaves an error of order 1e-7 at this window size.
    """
    n = np.arange(-terms, terms + 1, dtype=float)
    u = delta * beta - n
    a = 2.0 * math.pi / delta
    bracket = (-(delta - 1.0) * np.cos(a * u) + (delta + 1.0)
               - np.sin(a * u) * delta / (math.pi * u)) / u ** 2
    sgn = np.sign(n)
    sgn[n == 0] = float(sign)
    return float(np.sum(sgn * bracket)) / (4.0 * math.pi ** 2)


def _lattice_wide(delta, beta, sign=None, margin=200_000):
    """Wide-window oracle for v_series (sign +/-1) or g_of (sign None).

    Direct sum over [-margin, floor(c) + margin] plus the exact tails, whose
    Abel remainder at that distance is far below rounding for every delta
    tested; delta*beta must stay clear of integers.
    """
    c = delta * beta
    n_lo, n_hi = -margin, math.floor(c) + margin
    n = np.arange(n_lo, n_hi + 1, dtype=float)
    u = c - n
    a = 2.0 * math.pi / delta
    bracket = (-(delta - 1.0) * np.cos(a * u) + (delta + 1.0)
               - np.sin(a * u) * delta / (math.pi * u)) / u ** 2
    if sign is None:
        sgn, s_left = np.ones_like(n), 1.0
    else:
        sgn, s_left = np.where(n == 0, float(sign), np.sign(n)), -1.0
    window = float(np.sum(sgn * bracket)) / (4.0 * math.pi ** 2)
    return window + pb._series_tails(delta, beta, n_hi, -n_lo, 1.0, s_left)


def test_pc_density_values():
    assert pb.pc_density(np.array([0.0]))[0] == pytest.approx(0.0)
    assert pb.pc_density(np.array([1.0]))[0] == pytest.approx(1.0)
    x = np.array([0.5])
    assert pb.pc_density(x)[0] == pytest.approx(1.0 - (2.0 / math.pi) ** 2)


def test_v_series_against_window_oracle():
    # non-resonant parameters only: the naive oracle divides by u
    for delta, beta, sign in [(1.0, 0.7, 1), (1.0, 0.7, -1), (2.0, 1.3, 1),
                              (1.5, 2.1, -1), (2.0, 1.25, 1)]:
        brute = _v_brute(delta, beta, sign)
        fast = pb.v_series(delta, beta, sign)
        assert abs(fast - brute) < 5e-7  # oracle truncation dominates


def test_lattice_window_against_wide_oracle():
    # close to delta = 1 the Abel tails converge slowly (the remainder grows
    # like |1 - exp(2 pi i/delta)|^-6), so the window must widen there; a
    # fixed +/-200 window is off by ~1e-4 at delta = 1.001.  The same factor
    # amplifies rounding in the tail differences: ~1e-14 in binary64, a few
    # ulps where long double carries extended precision.
    tol = 2e-15 if np.finfo(np.longdouble).eps < 1e-18 else 1e-13
    for delta in (1.001, 1.01, 1.1):
        for beta in (0.07, 0.61, 2.3, 17.3):  # delta*beta clear of integers
            for sign in (+1, -1):
                want = _lattice_wide(delta, beta, sign)
                assert abs(pb.v_series(delta, beta, sign) - want) < tol
            assert abs(pb.g_of(delta, beta) - _lattice_wide(delta, beta)) < tol


def test_g_constant_half():
    for delta, beta in [(1.0, 1.7), (1.5, 3.3), (2.0, 1.5), (2.0, 12.345)]:
        assert abs(pb.g_of(delta, beta) - 0.5) < 1e-9


def test_m_selberg_closed_vs_quadrature():
    for beta in (0.6, 1.0, 2.3):
        for sign in (1, -1):
            ev = pb.m_selberg(beta, 1.0, sign, with_quadrature=True)
            assert abs(ev.closed_form - ev.quadrature_check) < 1e-9


def test_m_plancherel_form_at_delta_one():
    # for a band [-1, 1] function M(R) = hat R(0) - int hat R(t)(1 - |t|) dt
    for beta in (0.6, 1.0, 2.3):
        pair = beurling.make_selberg_pair(beta, 1.0)
        for fn in (pair.majorant, pair.minorant):
            rhat0 = float(fn.freq_eval(np.array([0.0]))[0])
            tri = integrate_adaptive(
                lambda t: fn.freq_eval(t) * (1.0 - np.abs(t)), -1.0, 1.0,
                QuadratureSpec())
            assert abs((rhat0 - tri) - pb.m_of(fn)) < 1e-11


def test_m_selberg_frozen_values():
    # reference values frozen after cross-validation against quadrature
    assert pb.m_selberg(0.5, 1.0, -1).closed_form == pytest.approx(
        -0.1013211836, abs=1e-9)
    assert pb.m_selberg(0.5, 1.0, +1).closed_form == pytest.approx(
        0.4933940818, abs=1e-9)
    assert pb.m_selberg(1.0, 1.0, -1).closed_form == pytest.approx(
        0.1160060748, abs=1e-9)
    assert pb.m_selberg(1.0, 1.0, +1).closed_form == pytest.approx(
        1.014684891, abs=1e-8)


def test_m_selberg_domain():
    with pytest.raises(DomainError):
        pb.m_selberg(-1.0)
    with pytest.raises(DomainError):
        pb.m_selberg(1.0, 0.9)
    with pytest.raises(DomainError):
        pb.m_selberg(1.0, 1.0, 2)


def test_conjecture_integral():
    assert pb.conjecture_integral(0.0) == 0.0
    assert pb.conjecture_integral(1.0) == pytest.approx(0.5485883332, abs=1e-9)
    # density integrates to beta - 1/2 + 1/(2 pi^2 beta) + O(1/beta^2)
    beta = 30.0
    assert pb.conjecture_integral(beta) == pytest.approx(
        beta - 0.5 + 1.0 / (2.0 * math.pi ** 2 * beta), abs=1e-4)


def test_conjecture_integral_against_mpmath():
    for beta in (1e-6, 1e-3, 0.005, 0.5, 1.0, 10.0, 80.0):
        with mpmath.workdps(30):
            edges = mpmath.linspace(0, beta, int(beta) + 2)
            ref = mpmath.quad(lambda x: 1 - mpmath.sincpi(x) ** 2, edges)
        assert abs(pb.conjecture_integral(beta) - ref) <= 1e-12 * ref


def test_bound_table_structure():
    rows = pb.bound_table([0.5, 1.0, 2.0], nstar_ratio=4.0 / 3.0)
    assert [r.beta for r in rows] == [0.5, 1.0, 2.0]
    for r in rows:
        assert r.lower < r.upper
        assert r.lower_adjusted == pytest.approx(r.lower - 1.0 / 6.0)
        assert r.upper_adjusted == pytest.approx(r.upper - 1.0 / 6.0)


def test_bound_table_validation():
    with pytest.raises(DomainError):
        pb.bound_table([1.0, 0.5])
    with pytest.raises(DomainError):
        pb.bound_table([-1.0])
    with pytest.raises(DomainError):
        pb.bound_table([1.0], nstar_ratio=2.0)


def test_q_aspect_tightens_bounds():
    lo1 = pb.m_selberg(1.0, 1.0, -1).closed_form
    hi1 = pb.m_selberg(1.0, 1.0, +1).closed_form
    lo2, hi2 = pb.q_aspect_bounds(1.0, 1e-3)
    assert lo1 < lo2 < hi2 < hi1


def test_positivity_threshold():
    assert pb.positivity_threshold(1e-8) == pytest.approx(0.8164312266,
                                                          abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.3, 20.0))
def test_sandwich_order_and_asymptotic(beta):
    lo = pb.m_selberg(beta, 1.0, -1)
    hi = pb.m_selberg(beta, 1.0, +1)
    assert lo.closed_form < hi.closed_form
    # the closed form approaches its asymptote like O(1/beta^2)
    assert abs(hi.closed_form - hi.asymptotic) < 1.0 / beta ** 2
