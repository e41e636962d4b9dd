import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _v_lerch_parts, g_of, selberg_ft, v_lerch
from pcx import beurling, cli
from pcx import pcbounds as pb
from pcx import special
from pcx.debranges import lambda_values
from pcx.kernel import two_delta
from pcx.numerics import DomainError, NoRoot


def _lattice_wide(delta, beta, sign=None, margin=200_000):
    """Wide-window oracle for the lattice series (sign +/-1) or g_of
    (sign None).

    Direct sum over [-margin, floor(c) + margin] plus the tails of pcbounds
    taken that far out, where each is below 1e-5; delta*beta must stay
    clear of integers.
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


def _v(delta, beta, sign):
    """The signed lattice series V of pcbounds at sign, for a float or an
    array of beta."""
    b = np.array(beta, dtype=float, ndmin=1)
    x = 2.0 * math.pi * b
    v = pb._series(delta, b, x, np.sin(x))[1][(sign + 1) // 2]
    return v if np.ndim(beta) else float(v[0])


def test_pc_density_values():
    assert pb.pc_density(np.array([0.0]))[0] == pytest.approx(0.0)
    assert pb.pc_density(np.array([1.0]))[0] == pytest.approx(1.0)
    x = np.array([0.5])
    assert pb.pc_density(x)[0] == pytest.approx(1.0 - (2.0 / math.pi) ** 2)


def test_v_series_against_window_oracle():
    for delta, beta, sign in [(1.0, 0.7, 1), (1.0, 0.7, -1), (2.0, 1.3, 1),
                              (1.5, 2.1, -1), (2.0, 1.25, 1)]:
        assert abs(_v(delta, beta, sign)
                   - v_lerch(delta, beta, sign)) <= 1e-14


@pytest.mark.parametrize("delta", [1.0 + 2.0 ** -52, 1.0 + 1e-10,
                                   1.0 + 1e-8, 1.0 + 1e-6, 1.00001, 1.0001,
                                   1.001, 1.01, 1.25, 1.5, 1.999, 2.0, 3.0])
def test_v_series_to_rounding_near_delta_one(delta):
    # the oscillatory tails are Lerch sums whose z = exp(2 pi i/delta)
    # tends to 1 as delta -> 1+; the Laplace integral of each is exact to
    # rounding there, with no wider window (delta*beta clear of integers)
    for beta in (0.61, 17.3):
        for sign in (+1, -1):
            assert abs(_v(delta, beta, sign)
                       - v_lerch(delta, beta, sign)) <= 1e-14


def test_lattice_window_against_wide_oracle():
    # the window of the lattice series holds 10 terms past 0 and the
    # resonance for every delta; a window of 200,000 gives the same sum to
    # rounding
    for delta in (1.001, 1.01, 1.1):
        for beta in (0.07, 0.61, 2.3, 17.3):  # delta*beta clear of integers
            for sign in (+1, -1):
                want = _lattice_wide(delta, beta, sign)
                assert abs(_v(delta, beta, sign) - want) < 2e-15
            assert abs(g_of(delta, beta) - _lattice_wide(delta, beta)) < 2e-15


def test_g_constant_half():
    for delta, beta in [(1.0, 1.7), (1.5, 3.3), (2.0, 1.5), (2.0, 12.345)]:
        assert abs(g_of(delta, beta) - 0.5) < 1e-9


def test_m_selberg_closed_vs_quadrature():
    for beta in (0.6, 1.0, 2.3):
        pair = beurling.make_selberg_pair(beta, 1.0)
        for sign, fn in ((1, pair.majorant), (-1, pair.minorant)):
            quad = 0.5 * pb.m_of(fn)
            assert abs(pb.m_selberg(beta, 1.0, sign).closed_form - quad) < 1e-11


def test_m_of_at_large_beta():
    # the tail of R centred +/-beta away is a series in beta/N, and the
    # sampling sum doubles N until its extrapolation meets 1e-13: at
    # beta = 80 that is 32,768 periods each way
    for beta in (10.0, 20.0, 40.0, 60.0, 80.0):
        for delta in (1.0, 2.0):
            pair = beurling.make_selberg_pair(beta, delta)
            for sign, fn in ((1, pair.majorant), (-1, pair.minorant)):
                quad = 0.5 * pb.m_of(fn)
                closed = pb.m_selberg(beta, delta, sign).closed_form
                assert abs(closed - quad) < 1e-12


def test_m_of_needs_a_common_period():
    # delta = sqrt 2 has no integer ell <= 16 with delta ell an integer, so
    # the sampling sum's partial sums would not cancel period by period:
    # with a period of 1 the majorant's mass comes out 5.4e-11 off twice
    # its closed form and the minorant's does not converge
    pair = beurling.make_selberg_pair(0.7, math.sqrt(2.0))
    for fn in (pair.majorant, pair.minorant):
        with pytest.raises(DomainError, match="period"):
            pb.m_of(fn)


def test_m_plancherel_form_at_delta_one():
    from scipy.integrate import quad
    # for a band [-1, 1] function M(R) = hat R(0) - int hat R(t)(1 - |t|) dt
    for beta in (0.6, 1.0, 2.3):
        pair = beurling.make_selberg_pair(beta, 1.0)
        for fn in (pair.majorant, pair.minorant):
            rhat0 = float(selberg_ft(fn, np.array([0.0]))[0])
            tri = quad(
                lambda t: float(selberg_ft(fn, np.array([t]))[0]) * (1.0 - abs(t)),
                -1.0, 1.0, epsabs=1e-13)[0]
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_and_delta_rejected(bad):
    calls = [lambda: pb.m_selberg(bad), lambda: pb.m_selberg(1.0, bad),
             lambda: pb.bound_table([bad]), lambda: two_delta(bad),
             lambda: beurling.make_selberg_pair(bad),
             lambda: beurling.make_selberg_pair(1.0, bad),
             lambda: lambda_values(bad)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_m_selberg_as_beta_vanishes():
    # the interval shrinks to a point: half of M tends to +/-1/(6 delta^2),
    # at 0.30 beta for delta = 1, and to rounding down to beta = 1e-300,
    # where the closed form's two 1/beta terms would cancel
    betas = [1e-3, 1e-4, 1e-5] + np.logspace(-6, -300, 50).tolist()
    for delta in (1.0, 1.5, 2.0):
        for beta in betas:
            for sign in (+1, -1):
                value = pb.m_selberg(beta, delta, sign).closed_form
                assert abs(value - sign / (6.0 * delta ** 2)) <= beta + 1e-15


def test_bound_table_continuous_at_delta_two():
    # the widest band delta = 2 - eps tends to delta = 2, at most 0.123 eps
    for beta in (0.7, 2.3):
        edge = pb.bound_table([beta], delta=2.0)
        for eps in (1e-3, 1e-6, 1e-9):
            row = pb.bound_table([beta], delta=2.0 - eps)
            for got, want in ((row.lower, edge.lower), (row.upper, edge.upper)):
                assert abs(got[0] - want[0]) <= 0.2 * eps + 1e-12


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
    # the closed form beta - Si(2 pi beta)/pi + sin^2(pi beta)/(pi^2 beta)
    # to 4e-16 (1 + beta), on log-uniform betas and the grid of pcx bounds
    # --beta 0.05:10:0.005, against the same form at 50 digits
    rng = np.random.default_rng(600)
    betas = np.concatenate([np.exp(rng.uniform(math.log(0.05), math.log(1e3), 600)),
                            0.05 + 0.005 * np.arange(1991)])
    with mpmath.workdps(50):
        ref = np.array([float(b - mpmath.si(2 * mpmath.pi * b) / mpmath.pi
                              + mpmath.sin(mpmath.pi * b) ** 2 / (mpmath.pi ** 2 * b))
                        for b in map(mpmath.mpf, betas)])
    assert np.all(np.abs(pb.conjecture_integral(betas) - ref) <= 4e-16 * (1.0 + betas))


def test_bound_table_structure():
    t = pb.bound_table([0.5, 1.0, 2.0], nstar_ratio=4.0 / 3.0)
    assert t.beta.tolist() == [0.5, 1.0, 2.0]
    for i in range(3):
        assert t.lower[i] < t.upper[i]
        assert t.lower_adjusted[i] == pytest.approx(t.lower[i] - 1.0 / 6.0)
        assert t.upper_adjusted[i] == pytest.approx(t.upper[i] - 1.0 / 6.0)


def test_bound_table_empty_grid():
    # at delta > 1 an empty grid gives the lattice window no rows
    table = pb.bound_table([], delta=1.5)
    for column in vars(table).values():
        assert column.shape == (0,)


def test_bound_table_validation():
    with pytest.raises(DomainError):
        pb.bound_table([1.0, 0.5])
    with pytest.raises(DomainError):
        pb.bound_table([-1.0])
    with pytest.raises(DomainError):
        pb.bound_table([1.0], nstar_ratio=2.0)


def _bad_inputs():
    """(call, word) pairs: each call must raise DomainError whose message
    holds word, the name of the argument at fault."""
    nan, inf = math.nan, math.inf
    grids = {"nan-first": [nan, 1.0, 2.0], "nan-middle": [0.5, nan, 2.0],
             "nan-last": [0.5, 1.0, nan], "inf": [inf], "-inf": [-inf],
             "negative": [-0.5, 1.0]}
    positive = dict(grids, zero=[0.0])
    cases = {}
    for name, g in positive.items():
        cases[f"bound_table-{name}"] = (lambda g=g: pb.bound_table(g), "beta")
        cases[f"m_selberg-{name}"] = (lambda g=g: pb.m_selberg(g), "beta")
        if name == "inf":
            continue  # psi1 and psi2 of +inf are 0
        for fn in (special.trigamma, special.trigamma_tetragamma):
            cases[f"{fn.__name__}-{name}"] = (
                lambda g=g, fn=fn: fn(np.array(g)), "argument")
    for name, g in grids.items():
        cases[f"conjecture_integral-{name}"] = (
            lambda g=g: pb.conjecture_integral(np.array(g)), "beta")
    # 2 pi beta overflows, and so would delta*beta at delta = 2
    cases["conjecture_integral-huge"] = (
        lambda: pb.conjecture_integral(1e308), "beta")
    for name, fn in (("bound_table", pb.bound_table),
                     ("m_selberg", pb.m_selberg)):
        for delta, g in ((1.0, [1.0, 2e7]), (2.0, [1e308]), (1.5, [7e6])):
            cases[f"{name}-max-c-{delta}-{g[-1]}"] = (
                lambda fn=fn, delta=delta, g=g: fn(g, delta=delta),
                "delta*beta")
        for delta in (nan, inf, 0.5):
            cases[f"{name}-delta-{delta}"] = (
                lambda fn=fn, delta=delta: fn([1.0], delta=delta), "delta")
    cases["bound_table-unsorted"] = (
        lambda: pb.bound_table([2.0, 1.0, 3.0]), "beta")
    # the rows of a 2-D grid would meet the two signs row by row
    cases["bound_table-2d"] = (
        lambda: pb.bound_table([[1.0, 2.0], [3.0, 4.0]]), "beta")
    for nstar in (nan, 0.5, 2.0):
        cases[f"bound_table-nstar-{nstar}"] = (
            lambda nstar=nstar: pb.bound_table([1.0], nstar), "nstar_ratio")
    for sign in (0, 2, np.array([1, 0])):
        cases[f"m_selberg-sign-{sign}"] = (
            lambda sign=sign: pb.m_selberg([1.0, 2.0], 1.0, sign), "sign")
    return cases


_BAD = _bad_inputs()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(_BAD))
def test_bad_input_raises_domain_error(case):
    call, word = _BAD[case]
    with pytest.raises(DomainError, match=re.escape(word)):
        call()


def test_q_aspect_tightens_bounds():
    lo1 = pb.m_selberg(1.0, 1.0, -1).closed_form
    hi1 = pb.m_selberg(1.0, 1.0, +1).closed_form
    row = pb.bound_table([1.0], delta=2.0 - 1e-3)
    [lo2], [hi2] = row.lower, row.upper
    assert lo1 < lo2 < hi2 < hi1


def test_positivity_threshold():
    # the tol=1e-12 root; a tol=1e-8 solve lands within 1e-8 of the sign change
    r = pb.positivity_threshold(1e-8)
    assert r == pytest.approx(0.8164308093, abs=2e-8)
    assert pb.positivity_threshold(1e-12) == pytest.approx(0.8164308093,
                                                           abs=1e-10)
    lower = lambda b: pb.m_selberg(b, 1.0, -1).closed_form
    assert lower(r - 1e-8) < 0.0 < lower(r + 1e-8)


def test_positivity_threshold_without_sign_change_raises_noroot(monkeypatch,
                                                                capsys):
    # a minorant mass positive on the whole grid leaves no sign change:
    # NoRoot, which pcx gaps reports as a numerical failure (exit 3) on
    # one line
    def positive(beta, delta=1.0, sign=+1):
        beta = np.asarray(beta, dtype=float)
        return pb.MEvaluation(beta=beta, delta=delta, sign=sign,
                              closed_form=1.0 + beta)

    monkeypatch.setattr(pb, "m_selberg", positive)
    with pytest.raises(NoRoot):
        pb.positivity_threshold()
    assert cli.main(["gaps"]) == cli.EXIT_NUMERICS
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pcx: numerical failure: "
                   "no positivity crossing located in [0.5, 1.2]\n")


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.3, 20.0))
def test_sandwich_order_and_asymptotic(beta):
    lo = pb.m_selberg(beta, 1.0, -1)
    hi = pb.m_selberg(beta, 1.0, +1)
    assert lo.closed_form < hi.closed_form
    # the closed form approaches its asymptote beta + 1/(2 pi^2 beta) like
    # O(1/beta^2)
    asymptotic = beta + 1.0 / (2.0 * math.pi ** 2 * beta)
    assert abs(hi.closed_form - asymptotic) < 1.0 / beta ** 2


def _grid_betas(delta):
    """Ascending beta grids that reach the branches of the row code: plain
    points, integers, points within 1e-5 of an integer c = delta*beta (the
    |u| < 1e-4 expansion of the window) and both sides of beta = 0.05 (the
    Taylor switch of conjecture_integral)."""
    near = st.builds(lambda k, e: (k + e) / delta, st.integers(1, 12),
                     st.floats(-1e-5, 1e-5))
    pick = st.one_of(st.floats(1e-3, 12.0), st.integers(1, 12).map(float),
                     near, st.floats(0.049, 0.051))
    return st.lists(pick, min_size=1, max_size=12).map(sorted)


def _row(table, i):
    """Row i of a bound table, as a mapping from column to value."""
    return {c: v[i] for c, v in vars(table).items()}


@pytest.mark.parametrize("delta", [1.0, 1.5, 1.999, 2.0])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bound_rows_do_not_depend_on_the_grid(delta, data):
    grid = data.draw(_grid_betas(delta))
    table = pb.bound_table(grid, delta=delta)
    for i, beta in enumerate(grid):
        row = _row(table, i)
        assert row == _row(pb.bound_table([beta], delta=delta), 0)
        assert row["lower"] == pb.m_selberg(beta, delta, -1).closed_form
        assert row["upper"] == pb.m_selberg(beta, delta, +1).closed_form
        assert row["conjecture"] == pb.conjecture_integral(beta)


def test_m_selberg_broadcasts_beta_against_sign():
    betas = np.array([0.3, 1.0, 2.7])
    both = pb.m_selberg(betas, 1.5, np.array([[-1], [1]]))
    assert both.closed_form.shape == (2, 3)
    for i, sign in enumerate((-1, 1)):
        one = pb.m_selberg(betas, 1.5, sign)
        assert np.array_equal(one.closed_form, both.closed_form[i])
        assert np.array_equal(_v(1.5, betas, sign),
                              [_v(1.5, b, sign) for b in betas])
    with pytest.raises(DomainError):
        pb.m_selberg(betas, 1.0, np.array([1, 0, -1]))


def test_bound_table_memory_near_delta_one():
    # blocks of rows keep the temporaries of the windows and of the tails'
    # 676 nodes per row near _BLOCK entries; the bound is twice the 1.42 MB
    # peak that summing one beta at a time took, with a window of 18,000
    # terms, at delta = 1.0001 on 0.05:2:0.005
    import tracemalloc
    grid = [0.05 + 0.005 * i for i in range(391)]
    tracemalloc.start()
    try:
        table = pb.bound_table(grid, delta=1.0001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.beta) == 391
    assert peak <= 2 * 1.42e6


def test_tails_take_no_shift_step(monkeypatch):
    # the window reaches far enough, and the closed form of delta = 1
    # takes its ten steps itself, so that every polygamma argument is past
    # special.SHIFT, where the asymptotic series is summed without a step
    # of the recurrence
    seen = []

    def recording(fn):
        def wrapped(x):
            seen.append(np.array(x, dtype=float))
            return fn(x)
        return wrapped

    for name in ("trigamma", "trigamma_tetragamma"):
        monkeypatch.setattr(pb, name, recording(getattr(special, name)))
    grid = 0.05 + 0.005 * np.arange(1991)
    for delta in (1.0, 1.5, 1.999):
        pb.bound_table(grid, delta=delta)
        for beta in (0.05, 0.5, 1.0, 2.0, 3.7, 10.0):
            pb.bound_table([beta], delta=delta)
    assert seen
    assert min(float(x.min()) for x in seen) >= special.SHIFT


def _rest_40(beta):
    """rest = (x - sin x)/(pi x^2), x = 2 pi beta, at 40 digits."""
    with mpmath.workdps(40):
        x = 2 * mpmath.pi * mpmath.mpf(beta)
        return (x - mpmath.sin(x)) / (mpmath.pi * x ** 2)


def test_delta_one_closed_form_against_lerch_oracle():
    # m = beta + s/2 - rest - V at 40 digits, with V from the lattice
    # series of v_lerch; beta within 1e-4 of an integer or of 0 is where
    # the window's direct formula cancelled (3.5e-10 off at 2.0001);
    # v_lerch divides by zero at an integer beta
    rng = np.random.default_rng(33)
    betas = np.concatenate([
        rng.uniform(0.05, 50.0, 40),
        [k + e for k in range(1, 6) for e in (-1e-4, 1e-4, -7e-5, 7e-5)],
        [2e-4, 1e-3, 0.049, 0.051]])
    for beta in betas:
        beta = float(beta)
        with mpmath.workdps(40):
            # one 40-digit evaluation of the lattice series serves both
            # signs, as in v_lerch
            series, center = _v_lerch_parts(1.0, beta)
            base = beta - _rest_40(beta)
            for sign in (+1, -1):
                v = (series + sign * center) / (4 * mpmath.pi ** 2)
                want = float(base + mpmath.mpf(sign) / 2 - v)
                got = pb.m_selberg(beta, 1.0, sign).closed_form
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 7.0, 50.0])
def test_gallagher_masses_at_half_integers(beta):
    # at beta in N/2, sin(2 pi beta) = 0 leaves Gallagher's
    # m+ = beta - 1/(2 pi^2 beta) + psi1(beta + 1)/pi^2, and
    # m- = m+ - 1 + 1/(pi^2 beta^2)
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        plus = (b - 1 / (2 * mpmath.pi ** 2 * b)
                + mpmath.psi(1, b + 1) / mpmath.pi ** 2)
        minus = plus - 1 + 1 / (mpmath.pi ** 2 * b ** 2)
    for sign, want in ((+1, float(plus)), (-1, float(minus))):
        got = pb.m_selberg(beta, 1.0, sign).closed_form
        assert abs(got - want) <= 1e-15 * abs(want)


def test_delta_one_needs_no_window(monkeypatch):
    # the closed form of delta = 1 sums no lattice window and no tail
    def refuse(*args, **kwargs):
        raise AssertionError("lattice window used at delta = 1")

    for name in ("_windows", "_series_tails", "_lattice_sum"):
        monkeypatch.setattr(pb, name, refuse)
    grid = 0.05 + 0.005 * np.arange(1991)
    table = pb.bound_table(grid)
    assert np.isfinite(table.lower).all() and np.isfinite(table.upper).all()
    assert pb.positivity_threshold(1e-8) == pytest.approx(0.8164308093,
                                                          abs=2e-8)
