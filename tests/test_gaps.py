import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import g_hat
from pcx import cli, gaps
from pcx.numerics import DomainError, NoRoot


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(-5.0, 5.0))
@example(alpha=1.0)
@example(alpha=-1.0)
def test_g_hat_nonnegative_even_compact(alpha):
    v = float(g_hat(np.array([alpha]))[0])
    assert v >= 0.0
    assert v == pytest.approx(float(g_hat(np.array([-alpha]))[0]))
    if abs(alpha) > 1.0:
        assert v == 0.0


def test_g_hat_endpoints():
    assert g_hat(np.array([0.0]))[0] == pytest.approx(1.0)
    assert g_hat(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)


def test_goldston_lower_values():
    assert gaps.goldston_lower(np.array([1.0]))[0] == pytest.approx(-1.0 / 6.0)
    # positive exactly beyond the critical abscissa
    x = gaps.XI_CRIT
    assert gaps.goldston_lower(np.array([x]))[0] == pytest.approx(0.0, abs=1e-14)
    assert gaps.goldston_lower(np.array([x + 0.1]))[0] > 0
    with pytest.raises(DomainError):
        gaps.goldston_lower(np.array([0.5]))


@pytest.mark.filterwarnings("error")
def test_goldston_lower_non_finite_raises():
    # NaN fails no comparison with 1 by itself, and inf would give inf - inf
    for xi in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            gaps.goldston_lower(xi)
        with pytest.raises(DomainError, match="finite"):
            gaps.goldston_lower(np.array([2.0, xi]))


def test_base_term_matches_quadrature():
    from scipy.integrate import quad
    for beta in np.arange(0.5, 1.0 + 1e-9, 0.01):
        closed = gaps._base_term(beta)
        integral = quad(lambda a: float(g_hat(beta * a)) * a, 0.0, 1.0)[0]
        assert abs(closed - (beta - 1.0 + 2.0 * beta * integral)) < 1e-12


def test_correction_against_mpmath():
    import mpmath as mp
    with mp.workdps(40):
        for beta in (0.5, 0.55, 0.6, 0.61, 0.63):
            b = mp.mpf(beta)
            k = 2 * mp.pi * b
            integral = mp.quad(
                lambda a: mp.sin(k * a) * (a * a / 2 - a + mp.mpf(1) / 3),
                [1 + 1 / mp.sqrt(3), 1 / b])
            want = float(-4 * mp.pi * b ** 3 * integral)
            assert abs(gaps._correction(beta) - want) < 1e-15


def test_correction_vanishes_when_range_empty():
    # 1/beta <= 1 + 1/sqrt(3) means no correction range
    assert gaps.lower_bound_profile(0.6).correction != 0.0
    assert gaps.lower_bound_profile(0.99).correction == 0.0


def test_profile_total_and_domain():
    p = gaps.lower_bound_profile(0.61)
    assert p.total == pytest.approx(p.base_term + p.correction)
    with pytest.raises(DomainError):
        gaps.lower_bound_profile(0.4)
    with pytest.raises(DomainError):
        gaps.lower_bound_profile(1.2)


def _scalar_profile(beta):
    """(base_term, correction) at one beta in [1/2, 1], in math-module
    floats: the closed forms of gaps, one beta at a time."""
    c = 2.0 * math.pi * beta
    sine_part = (math.sin(c) - c * math.cos(c)) / (2.0 * math.pi * c ** 2)
    base = beta - 1.0 + 2.0 * beta * (0.5 - beta / 3.0 + sine_part)
    if 1.0 / beta <= gaps.XI_CRIT:
        return base, 0.0

    def antiderivative(a):
        p = a * a / 2.0 - a + 1.0 / 3.0
        return (-math.cos(c * a) * p / c
                + math.sin(c * a) * (a - 1.0) / c ** 2
                + math.cos(c * a) / c ** 3)

    return base, -4.0 * math.pi * beta ** 3 * (
        antiderivative(1.0 / beta) - antiderivative(gaps.XI_CRIT))


def test_profile_array_matches_scalar_forms():
    # the array form agrees with float calls and with the math-module form
    # to 2e-16, on both sides of 1/beta = XI_CRIT, in the shape of beta
    betas = np.linspace(0.5, 1.0, 2001)
    prof = gaps.lower_bound_profile(betas.reshape(3, -1))
    assert prof.base_term.shape == prof.correction.shape == (3, 667)
    base, corr = prof.base_term.reshape(-1), prof.correction.reshape(-1)
    for i, beta in enumerate(betas.tolist()):
        one = gaps.lower_bound_profile(beta)
        assert isinstance(one.base_term, float)
        want_base, want_corr = _scalar_profile(beta)
        for got, want in ((base[i], one.base_term), (corr[i], one.correction),
                          (base[i], want_base), (corr[i], want_corr)):
            assert abs(got - want) <= 2e-16
    assert (corr[1.0 / betas <= gaps.XI_CRIT] == 0.0).all()
    assert (corr[1.0 / betas > gaps.XI_CRIT] != 0.0).all()
    with pytest.raises(DomainError):
        gaps.lower_bound_profile(np.array([0.7, 1.2]))


def test_thresholds_match_scalar_forms():
    # the array profile fed to find_root lands where the math-module form
    # fed one beta at a time lands
    from pcx.numerics import find_root
    for use, pick in ((True, lambda b, c: b + c), (False, lambda b, c: b)):
        def f(xs):
            return np.array([pick(*_scalar_profile(x))
                             for x in xs.tolist()])

        for tol in (1e-6, 1e-8, 1e-12):
            want = find_root(f, np.linspace(0.5, 1.0, 51), tol)[0]
            assert abs(gaps.solve_threshold(use, tol) - want) <= 1e-12


def test_thresholds_frozen():
    # the tol=1e-12 roots; a tol=1e-8 solve lands within 1e-8 of the sign change
    for use, root in ((True, 0.6068935594), (False, 0.6072859172)):
        r = gaps.solve_threshold(use, 1e-8)
        assert r == pytest.approx(root, abs=2e-8)
        assert gaps.solve_threshold(use, 1e-12) == pytest.approx(root, abs=1e-10)
        lo, hi = (gaps.lower_bound_profile(b) for b in (r - 1e-8, r + 1e-8))
        if use:
            assert lo.total < 0.0 < hi.total
        else:
            assert lo.base_term < 0.0 < hi.base_term
    # the correction can only help: threshold with it is smaller
    assert gaps.solve_threshold(True) < gaps.solve_threshold(False)


def test_threshold_without_sign_change_raises_noroot(monkeypatch, capsys):
    # a profile positive on the whole grid leaves no sign change: NoRoot,
    # which pcx gaps reports as a numerical failure (exit 3) on one line
    def positive(beta):
        beta = np.asarray(beta, dtype=float)
        return gaps.GapBoundProfile(beta=beta, base_term=1.0 + beta,
                                    correction=np.zeros_like(beta))

    monkeypatch.setattr(gaps, "lower_bound_profile", positive)
    for use in (True, False):
        with pytest.raises(NoRoot):
            gaps.solve_threshold(use)
    assert cli.main(["gaps"]) == cli.EXIT_NUMERICS
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pcx: numerical failure: "
                   "no sign change of the gap bound in [1/2, 1]\n")
