import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcx import debranges as db
from pcx import kernel
from pcx.beurling import BandlimitedFunction
from pcx.kernel import kernel_eval, two_delta
from pcx.numerics import DomainError, NonConvergence, RootMiss
from pcx.pcbounds import m_selberg


def test_build_E_basic(E):
    e0 = complex(E.E_eval(np.array([0.0]))[0])
    assert e0.real == pytest.approx(2.22803734, abs=1e-7)
    assert abs(e0.imag) < 1e-12
    # A = Re E, B = -Im E on the real axis
    x = np.linspace(-3, 3, 61)
    ev = E.E_eval(x.astype(complex))
    assert np.max(np.abs(np.real(E.E_eval(x)) - ev.real)) < 1e-13
    assert np.max(np.abs(-np.imag(E.E_eval(x)) + ev.imag)) < 1e-13


def test_E_is_the_kernel_at_i(E):
    # E(z) = 2 pi i (-i - z) K(i, z) / sqrt(l), l = 4 pi K(i, i), on the real
    # window and off the axis; an array call gives the bits of scalar calls
    rng = np.random.default_rng(11)
    root_l = math.sqrt(4.0 * math.pi * kernel_eval(1j, 1j).real)
    x = np.linspace(-60.0, 60.0, 2401)
    z = rng.uniform(-60.0, 60.0, 800) + 1j * rng.uniform(-3.0, 3.0, 800)
    for pts in (x, z):
        got = E.E_eval(pts)
        want = 2j * math.pi * (-1j - pts) * kernel_eval(1j, pts + 0j) / root_l
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15
        assert np.array_equal(got, [complex(E.E_eval(v)) for v in pts])


def test_structure_function_kernel_identity(E):
    # E(z) E*(conj w) - E*(z) E(conj w) = 2 pi i (conj w - z) K(w, z)
    rng = np.random.default_rng(7)

    def estar(z):
        return np.conj(E.E_eval(np.conj(z)))

    for _ in range(50):
        w = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
        z = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
        lhs = complex(E.E_eval(z) * estar(np.conj(w))
                      - estar(z) * E.E_eval(np.conj(w)))
        rhs = complex(2.0j * math.pi * (np.conj(w) - z) * kernel_eval(w, z))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_companion_zeros_pinned(E):
    # the first eight zeros of A and of B, bit for bit: the node function
    # and find_root's Newton steps that give them must not move a bit
    assert [float(v).hex() for v in E.zeros_A[:8]] == [
        "0x1.6a476413951d7p-1", "0x1.954fce85d77abp+0",
        "0x1.467f2a2f48c2dp+1", "0x1.c4a91dc253c2ep+1",
        "0x1.21d0ceb105ff0p+2", "0x1.617ca2723f51bp+2",
        "0x1.a1423d491006fp+2", "0x1.e1175cfc13c1fp+2"]
    assert [float(v).hex() for v in E.zeros_B[:8]] == [
        "0x0.0p+0", "0x1.0ea9ca42a75fcp+0",
        "0x1.03d940b949358p+1", "0x1.82975286acc2ep+1",
        "0x1.00f99ec47d48dp+2", "0x1.40c805f1c27b3p+2",
        "0x1.80a6d5b6dc957p+2", "0x1.c08f141226924p+2"]


def test_lambda_values_pinned(E, monkeypatch):
    # lambda_+/- bit for bit, and two calls of the node function each: the
    # grid with the starts from E's phase, then one Newton step; at b_2
    # and just left of it the tilt degenerates, at 1e-150 A_beta's first
    # node comes from the Taylor series at 0
    calls = []
    node_function = db._node_function

    def counting(*args):
        fn = node_function(*args)

        def counted(x):
            calls.append(1)
            return fn(x)
        return counted

    monkeypatch.setattr(db, "_node_function", counting)
    b2 = float(E.zeros_B[2])
    pinned = {
        0.3: ("0x1.b9e0d485964bap-2", "0x0.0p+0"),
        2.2: ("0x1.17b3819ca7648p+2", "0x1.453d50e116d3ep+1"),
        18.0034: ("0x1.2018c232cb3b0p+5", "0x1.101a2c154f877p+5"),
        b2 - 1e-11: ("0x1.05995d07299b6p+2", "0x1.12038d552d656p+1"),
        b2: ("0x1.05995d073079ep+2", "0x1.12038d55355acp+1"),
        1e-150: ("0x1.4f5bf9bca3c75p-2", "0x0.0p+0"),
    }
    for beta, want in pinned.items():
        calls.clear()
        assert tuple(v.hex() for v in db.lambda_values(beta)) == want
        assert len(calls) == 2


@settings(max_examples=20, deadline=None)
@given(kinds=st.lists(st.sampled_from(["near", "anywhere", "outside",
                                       "grid", "nan"]),
                      min_size=12, max_size=12),
       err=st.floats(-1e-3, 1e-3))
def test_nodes_take_starts_into_the_grid(E, kinds, err):
    # starts inside their cells (near the node or anywhere), outside them,
    # on a grid point or NaN: the A-zeros on the 12 cells of [0, 11.75]
    # come out one per cell of the grid, within 1e-13 of the start-free
    # solve, and the first call is the grid with the starts inside
    fn = db._node_function(E.E_slope_eval, 1.0, 0.0, 1.0)
    grid = np.concatenate([[0.0], 0.75 + np.arange(12.0)])
    plain = db._nodes(fn, 0.75, 11.0)
    starts = np.select(
        [np.array(kinds) == k for k in ("near", "anywhere", "outside",
                                         "grid")],
        [plain * (1.0 + err), grid[:-1] + 0.3 * np.diff(grid), grid[1:] + 0.5,
         grid[1:]], np.nan)
    first = []

    def recording(x):
        first.append(np.array(x))
        return fn(x)

    got = db._nodes(recording, 0.75, 11.0, starts)
    assert len(got) == 12
    assert np.all(np.abs(got - plain) <= 1e-13)
    inside = (grid[:-1] < starts) & (starts < grid[1:])
    assert np.array_equal(first[0],
                          np.sort(np.concatenate([grid, starts[inside]])))


@settings(max_examples=5, deadline=None)
@given(x_max=st.floats(10.0, 200.0))
@example(x_max=137.79)
@example(x_max=1000.0)
def test_zero_interlacing(E, x_max):
    # the cell rule on any range; build_E() is the range X_MAX
    assert E.x_max == db.X_MAX
    F = db._hermite_biehler(x_max)
    a, b = F.zeros_A, F.zeros_B
    assert b[0] == 0.0
    assert len(b) == len(a) + 1
    # strict interlacing 0 = b_0 < a_1 < b_1 < a_2 < ..., with no zero
    # skipped: neighbours lie 0.35 to 0.71 apart, and the last A-zero
    # (a_k is just above k - 1/2) lies within 1 below x_max; at 137.79 the
    # A-zero near 137.5 lies past the last B-zero below x_max
    merged = np.empty(len(a) + len(b))
    merged[0::2], merged[1::2] = b, a
    assert np.all(np.diff(merged) > 0)
    assert np.all(np.diff(merged) < 0.75) and b[-1] > x_max - 1.0
    assert 0.0 <= x_max - a[-1] < 1.0
    # the zeros do not depend on how far the cell grid runs
    n = min(len(a), len(E.zeros_A))
    assert np.max(np.abs(a[:n] - E.zeros_A[:n])) <= 1e-13
    assert np.max(np.abs(b[:n + 1] - E.zeros_B[:n + 1])) <= 1e-13
    assert a[0] == pytest.approx(0.7075759195, abs=1e-7)
    assert b[1] == pytest.approx(1.057278291, abs=1e-7)


def deriv_central(f, x, h=1e-3):
    """Sixth-order central first derivative; f must accept ndarrays."""
    x = np.asarray(x, dtype=float)
    offs = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]) * h
    w = np.array([-1.0, 9.0, -45.0, 45.0, -9.0, 1.0]) / (60.0 * h)
    pts = x[..., None] + offs
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    return vals @ w


def test_deriv_central_sixth_order():
    d = deriv_central(np.sin, np.array([0.3, 1.1]))
    assert np.max(np.abs(d - np.cos([0.3, 1.1]))) < 1e-12


def _wronskian(A, B, x):
    """(B'A - A'B)/pi with sixth-order central derivatives."""
    return (deriv_central(B, x) * A(x) - deriv_central(A, x) * B(x)) / math.pi


def test_k_diag_matches_kernel(E):
    # the diagonal K(x,x) from one array call equals the scalar calls and
    # is the Wronskian of the companions A and B
    xs = np.concatenate([[0.0, 0.5, 1.3, 2.7], E.zeros_A[:5], E.zeros_B[:5]])
    kd = kernel_eval(xs, xs).real
    assert np.array_equal(kd, [kernel_eval(x, x).real for x in xs])
    wronskian = _wronskian(*_companions(E.E_eval), xs)
    assert np.max(np.abs(kd - wronskian)) < 1e-11 * np.max(kd)


def test_slope_row_gives_the_kernel_diagonal(E):
    # K(x,x) = (B'A - A'B)/pi = -Im(E'(x) conj E(x))/pi with E and E' from
    # one row of three sinc translates, on a dense grid of [0, 60] and at
    # +/-Z0 and points up to 1e-5 off it, where sinc' of a translate comes
    # from its Taylor polynomial; the values are E_eval's, to the bit away
    # from those small translates
    z0 = kernel._Z0
    near = np.array([z0 + d for d in (0.0, 1e-7, -1e-7, 1e-6, -1e-6, 1e-5,
                                       -1e-5)])
    x = np.concatenate([np.linspace(0.0, 60.0, 60001), near, -near])
    e, de = E.E_slope_eval(x)
    diag = -np.imag(de * np.conj(e)) / math.pi
    assert np.max(np.abs(diag / kernel_eval(x, x).real - 1.0)) <= 1e-13
    far = np.abs(np.abs(x) - z0) >= 1e-3
    assert np.array_equal(e[far], E.E_eval(x[far]))
    assert np.max(np.abs(e - E.E_eval(x)) / np.abs(e)) <= 1e-15


def _companions(e_eval):
    """x -> Re e_eval(x) and x -> -Im e_eval(x): A and B for E_eval."""
    return (lambda x: np.real(e_eval(x))), (lambda x: -np.imag(e_eval(x)))


def _E_beta_eval(t):
    """E_beta(x) = (p - iqx) E(x) of the tilt t."""
    E_eval = db.build_E().E_eval
    return lambda x: (t.p - 1j * t.q * x) * E_eval(x)


def _node_function(t):
    """Re E_beta in regime case_bk_ak1, -Im E_beta in case_ak_bk."""
    a_beta, b_beta = _companions(_E_beta_eval(t))
    return a_beta if t.regime == "case_bk_ak1" else b_beta


def test_tilted_diag_matches_wronskian(E):
    a1, b1 = float(E.zeros_A[0]), float(E.zeros_B[1])
    for beta in (0.5 * a1, 0.5 * (a1 + b1), 2.2, 4.7):  # two per regime
        t = db.tilt(beta)
        assert t.regime in ("case_bk_ak1", "case_ak_bk")
        assert t.p > 0 and t.q > 0 and t.p ** 2 + t.q ** 2 == pytest.approx(1)
        xs = np.concatenate([t.nodes[:6], [0.1, 0.37, 3.3]])
        # K_beta(x,x) from the weights is the Wronskian of Re and -Im E_beta
        diag = (t.p ** 2 + (t.q * xs) ** 2) / db._weights(xs, t.p, t.q)
        want = _wronskian(*_companions(_E_beta_eval(t)), xs)
        assert np.max(np.abs(diag - want)) < 1e-11 * np.max(np.abs(want))
    # untilted, the weights are pi / -Im(E' conj E) from the slope row, which
    # is 1/K(x,x)
    xs = E.zeros_A[:5]
    e, de = E.E_slope_eval(xs)
    w = db._weights(xs, 1.0, 0.0)
    assert np.array_equal(w, math.pi / -np.imag(de * np.conj(e)))
    k_inv = 1.0 / kernel_eval(xs, xs).real
    assert np.max(np.abs(w / k_inv - 1.0)) <= 1e-14


def test_cross_module_identity(E):
    # K(beta, -beta) = A(beta) B(beta) / (pi beta)
    for beta in (0.3, 0.9, 1.7, 3.2):
        lhs = kernel_eval(beta, -beta).real
        e = complex(E.E_eval(np.array([beta]))[0])
        rhs = e.real * -e.imag / (math.pi * beta)
        assert abs(lhs - rhs) < 1e-12


def test_tilt_regimes(E):
    # strictly inside (b_k, a_k+1) the node function is A_beta = Re E_beta,
    # even and nonzero at 0; inside (a_k, b_k) it is B_beta = -Im E_beta,
    # odd, so 0 is a node
    a, b = E.zeros_A, E.zeros_B
    for k in (0, 1, 5, 40):
        t = db.tilt(0.5 * (b[k] + a[k]))
        assert t.regime == "case_bk_ak1"
        assert t.nodes[0] > 0
        t = db.tilt(0.5 * (a[k] + b[k + 1]))
        assert t.regime == "case_ak_bk"
        assert t.nodes[0] == 0.0
    with pytest.raises(DomainError):
        db.tilt(-1.0)
    # beta at the end of the resolved zero range is an ordinary node
    t = db.tilt(E.x_max)
    assert E.x_max in t.nodes
    assert len(t.nodes) == math.ceil(E.x_max) + 1
    delta = two_delta(E.x_max).value
    assert abs((t.lambda_plus - t.lambda_minus) - delta) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.05, 200.0, exclude_min=True, exclude_max=True))
@example(beta=0.7075759195236333)  # a_1
@example(beta=2.0300675301281785)  # b_2
@example(beta=2.0300676301281784)  # b_2 + 1e-7
@example(beta=150.3)
@example(beta=990.0)
def test_tilt_one_node_per_cell(E, beta):
    # the cells of _nodes hold one node each on [0, max(x_max, beta)], beta
    # is one of them, and the masses differ by Delta(beta) past x_max too
    t = db.tilt(beta)
    assert len(t.nodes) == math.ceil(max(E.x_max, beta)) + 1
    assert beta in t.nodes
    delta = two_delta(beta).value
    assert abs((t.lambda_plus - t.lambda_minus) - delta) <= 1e-12


def test_masses_match_two_delta_to_rounding():
    # past x_max, lambda_+/- ~ 2 beta and the rounding of lambda_+ alone sets
    # how well lambda_+ - lambda_- can match Delta(beta)
    for beta in (150.3, 990.3, 5000.3, 10000.3):
        t = db.tilt(beta)
        gap = (t.lambda_plus - t.lambda_minus) - two_delta(beta).value
        assert abs(gap) <= 2.0 * math.ulp(t.lambda_plus)


def test_nodes_cell_rule():
    # one root per cell is found; two roots in one cell leave it without a
    # sign change, and the cell rule refuses the grid
    a_type = db._nodes(lambda x: np.cos(np.pi * x), 0.75, 3.0)
    b_type = db._nodes(lambda x: np.sin(np.pi * x), 0.25, 3.0)
    assert np.max(np.abs(a_type - [0.5, 1.5, 2.5, 3.5])) < 1e-13
    assert np.max(np.abs(b_type - [0.0, 1.0, 2.0, 3.0])) < 1e-13
    with pytest.raises(RootMiss):
        db._nodes(lambda x: (x - 0.3) * (x - 0.5) * (x - 2.0), 0.75, 3.0)


def test_masses_on_a_zero_match_two_delta(E):
    # beta on an A- or B-zero needs no case of its own: the sign of the
    # zero's rounding picks the regime, p or q comes out near 0, the masses
    # are those of the untilted node system on that zero set, and they
    # still differ by Delta(beta).  With p near 0 the node 0 splits into
    # +/-x0, x0 ~ 4e-7, whose 1e-13 root tolerance moves its mass by 3e-8.
    for zeros in (E.zeros_A, E.zeros_B):
        weights = 1.0 / kernel_eval(zeros, zeros).real
        for beta in zeros[(zeros > 0) & (zeros < 56.0)]:
            t = db.tilt(float(beta))
            assert min(t.p, t.q) < 1e-10
            inside = zeros <= beta
            untilted = (np.sum(weights[inside])
                        + np.sum(weights[inside & (zeros > 0)]))
            assert abs(t.lambda_plus - untilted) < 1e-7
            delta = two_delta(float(beta)).value
            assert abs((t.lambda_plus - t.lambda_minus) - delta) <= 1e-12


def test_tilted_companions_vanish_at_beta():
    for beta in (0.5, 0.9, 2.2, 4.7):  # both regimes
        t = db.tilt(beta)
        assert abs(float(_node_function(t)(np.array([beta]))[0])) < 1e-9
        assert beta in t.nodes
        # and every node is a root of it
        assert np.all(np.abs(_node_function(t)(t.nodes)) < 1e-9)


def test_tilt_kernel_calls(E, monkeypatch):
    # one evaluation of E, or of E and E' from the slope row, per call:
    # E(beta), the node function on the cell grid and at each Newton step,
    # and the slope row at the weights stay within 12; the kernel itself is
    # not called.  lambda_values calls the slope row at most 3 times: the
    # grid with the starts from E's phase, one Newton step and the weights
    # (from the cell ends alone the Newton steps took about 6 calls).  So
    # it does at tiny beta and just right of b_2, where A_beta's first node
    # near 0 starts from the Taylor series at 0 (there it took 21 to 44)
    e_calls, slope_calls, k_calls = [], [], []

    def counting_E(z):
        e_calls.append(1)
        return E.E_eval(z)

    def counting_slope(z):
        slope_calls.append(1)
        return E.E_slope_eval(z)

    def counting_kernel(*args):
        k_calls.append(1)
        return kernel_eval(*args)

    monkeypatch.setattr(db, "kernel_eval", counting_kernel)
    F = dataclasses.replace(E, E_eval=counting_E, E_slope_eval=counting_slope)
    monkeypatch.setattr(db, "build_E", lambda: F)
    for beta in (0.3, 1.3, 2.2, 30.1):
        e_calls.clear()
        slope_calls.clear()
        k_calls.clear()
        db.tilt(beta)
        assert len(e_calls) + len(slope_calls) <= 12
        assert len(k_calls) == 0
    for beta in (0.3, 2.2, 7.9, 1e-150, 1e-12, 2.0300675301281785 + 1e-11):
        slope_calls.clear()
        db.lambda_values(beta)
        assert len(slope_calls) <= 3


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(1e-150, 70.0))
@example(beta=0.7075759195236333)  # a_1
@example(beta=2.0300675301281785)  # b_2
@example(beta=0.225)  # in the patch disc around Z0
@example(beta=60.0)  # X_MAX
def test_lambda_values_are_the_tilt_masses(E, beta):
    # the nodes up to beta alone give the bits of the full node system
    t = db.tilt(beta)
    assert db.lambda_values(beta) == (t.lambda_plus, t.lambda_minus)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(log_beta=st.floats(-150.0, math.log10(70.0)))
@example(log_beta=-150.0)
@example(log_beta=math.log10(db.B_SERIES_TOP))  # the series' switch
@example(log_beta=-3.0000000001)
@example(log_beta=-8.0)
@example(log_beta=-20.0)
def test_masses_match_two_delta_down_to_tiny_beta(log_beta):
    # lambda_+ - lambda_- = Delta(beta) for beta log-uniform on [1e-150, 70]:
    # below B_SERIES_TOP the tilt takes B(beta) from its odd series, and
    # the weight forms pq / (p^2 + q^2 x^2) with no square that underflows
    beta = 10.0 ** log_beta
    lp, lm = db.lambda_values(beta)
    assert abs((lp - lm) - two_delta(beta).value) <= 1e-12


def test_B_series_matches_the_closed_form(E):
    # the odd series of B against B = -Im E where the cancellation in
    # Re r(beta) costs little, and its first coefficient against a
    # central difference of B at 0
    x = np.array([1e-3, 3e-3, 1e-2])
    b1, b3, b5, b7 = E.B_odd
    series = x * (b1 + x ** 2 * (b3 + x ** 2 * (b5 + x ** 2 * b7)))
    B_eval = _companions(E.E_eval)[1]
    assert np.max(np.abs(series / B_eval(x) - 1.0)) <= 1e-12
    h = 1e-4
    slope = (B_eval(h) - B_eval(-h)) / (2 * h)
    assert abs(b1 - slope) <= 1e-7 * b1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [7e-155, 1e-200, 5e-324])
def test_lambda_values_refuse_tiny_beta(beta):
    # below 7.19e-155, p = beta |B(beta)| of the tilt is no normal float:
    # DomainError names the bound, with no NaN mass and no warning
    with pytest.raises(DomainError, match="at least 7.19e-155"):
        db.lambda_values(beta)
    with pytest.raises(DomainError, match="at least 7.19e-155"):
        db.tilt(beta)


def test_lambda_and_case3_solve_only_what_they_read(monkeypatch):
    # lambda_values solves the ceil(beta) + 1 cells up to beta, and
    # case3_majorant no node at all
    cells = []
    nodes = db._nodes

    def recording(fn, offset, x_hi, starts=None):
        cells.append(math.ceil(x_hi) + 1)
        return nodes(fn, offset, x_hi, starts)

    monkeypatch.setattr(db, "_nodes", recording)
    for beta in (0.3, 2.5, 7.9):
        cells.clear()
        db.lambda_values(beta)
        assert cells == [math.ceil(beta) + 1]
    cells.clear()
    db.case3_majorant(0.25)
    assert cells == []


def test_lambda_monotone_across_zeros(E):
    # crossing an A- or B-zero, lambda_+/- jump by nothing and do not fall;
    # a node set that skips the A_beta root near 0 right of a B-zero loses
    # the node 0's mass 1/K(0,0) = 0.3275 there.  On the zero the tilt
    # degenerates (p or q near 0), and right of a B-zero that root x0 ~
    # 2 sqrt(beta - z) needs relative precision for its weight: the Newton
    # steps give it, so lambda_+/- at z and 1e-11 either side agree within
    # 1e-10 (the bracket widths of the Illinois steps left 2.5e-8 at b_2)
    zeros = np.concatenate([E.zeros_A, E.zeros_B[1:]])
    for z in zeros[zeros < 56.0]:
        z = float(z)
        wide = [db.lambda_values(z + d) for d in (-1e-4, 1e-4)]
        assert wide[1][0] >= wide[0][0] and wide[1][1] >= wide[0][1]
        near = [db.lambda_values(z + d) for d in (-1e-7, 1e-7)]
        for before, after in zip(*near):
            assert 0.0 <= after - before <= 1e-5
        at = db.lambda_values(z)
        for d in (-1e-11, 1e-11):
            side = db.lambda_values(z + d)
            assert max(abs(side[0] - at[0]), abs(side[1] - at[1])) <= 1e-10


def test_lambda_consistency_with_two_delta():
    for beta in (0.45, 0.9, 1.6, 2.8):
        lp, lm = db.lambda_values(beta)
        assert lp > lm > 0 or (lm == 0.0 and lp > 0)
        assert lp - lm == pytest.approx(two_delta(beta).value, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.05, 56.0))
def test_optimal_pair_matches_two_delta(E, beta):
    # lambda_+ - lambda_- = Delta(beta), and 0 < Delta <= 2 because
    # K(beta, beta) >= 1: the weight 1 - sinc^2 is at most 1
    zeros = np.concatenate([E.zeros_A, E.zeros_B])
    assume(np.min(np.abs(zeros - beta)) >= 1e-3)
    lp, lm = db.lambda_values(beta)
    delta = two_delta(beta).value
    assert 0.0 < delta <= 2.0
    assert abs((lp - lm) - delta) <= 1e-12


def _inside_selberg(beta, tol):
    # the Selberg pair is admissible, so its masses 2 m_selberg bound the
    # optimal ones from outside
    lp, lm = db.lambda_values(beta)
    assert 2.0 * m_selberg(beta, 1.0, -1).closed_form <= lm + tol
    assert lp <= 2.0 * m_selberg(beta, 1.0, +1).closed_form + tol


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(1e-150, 56.0))
@example(beta=1e-6)
@example(beta=1e-3)
def test_optimal_interval_inside_selberg(beta):
    # from near the smallest beta lambda_values takes (7.19e-155) to 56,
    # up to the A- and B-zeros, where lambda_+- are continuous
    _inside_selberg(beta, 1e-12)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(math.log(56.0), math.log(1000.0)).map(math.exp))
def test_optimal_interval_inside_selberg_large_beta(beta):
    # log-uniform on [56, 1000]; the margins measured here are at least
    # 7e-11 max(1, beta), least at the integers, where the gain over
    # Gallagher's functions is O(1/beta^2)
    _inside_selberg(beta, 1e-13 * max(1.0, beta))


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(0.05, 55.0), step=st.floats(1e-6, 1.0))
def test_lambda_nondecreasing(beta, step):
    # a wider window admits every majorant and minorant of a narrower one
    lp, lm = db.lambda_values(beta)
    lp2, lm2 = db.lambda_values(beta + step)
    assert lp2 >= lp - 1e-12 and lm2 >= lm - 1e-12


def test_quadrature_check_fejer(E, monkeypatch):
    F = BandlimitedFunction(2 * math.pi, lambda x: np.sinc(np.asarray(x)) ** 2)
    for which in ("A_nodes", "B_nodes"):
        integral, nodesum = db.quadrature_check(F, which, E=E)
        assert abs(integral - nodesum) < 1e-9
    with pytest.raises(DomainError):
        db.quadrature_check(F, "C_nodes")
    with pytest.raises(DomainError):
        db.quadrature_check(F, "A_beta_nodes")  # beta missing
    with pytest.raises(DomainError):  # E is build_E() or nothing
        db.quadrature_check(F, "A_nodes", E=db._hermite_biehler(20.0))
    # the node tail beyond x_max is estimated at 2.1e-10 on the A-nodes
    monkeypatch.setattr(db, "NODE_TOL", 1e-15)
    with pytest.raises(NonConvergence):
        db.quadrature_check(F, "A_nodes")


def test_quadrature_check_fejer_sample_count(E):
    # m_of(F) meets its target at 1,024 periods each way, 3 samples a
    # period: a quarter of the 2 * 4096 * 3 + 1 points of a fixed
    # 4,096-period sum; the node sum adds F at each node and its negative
    points = []

    def counting(x):
        points.append(np.size(x))
        return np.sinc(np.asarray(x)) ** 2
    F = BandlimitedFunction(2 * math.pi, counting)
    db.quadrature_check(F, "A_nodes", E=E)
    assert sum(points) <= 2 * 4096 * 3 // 4 + 1 + 2 * len(E.zeros_A)


# a shifted Fejer kernel, whose mass the tilted node sums must reproduce
SHIFTED_FEJER = BandlimitedFunction(
    2 * math.pi, lambda x: np.sinc(np.asarray(x) - 0.4) ** 2)


def test_quadrature_check_tilted(E):
    beta_a = 0.5 * float(E.zeros_A[0])  # case_bk_ak1
    integral, nodesum = db.quadrature_check(SHIFTED_FEJER, "A_beta_nodes", beta=beta_a)
    assert abs(integral - nodesum) < 1e-9
    beta_b = 0.5 * float(E.zeros_A[0] + E.zeros_B[1])  # case_ak_bk
    integral, nodesum = db.quadrature_check(SHIFTED_FEJER, "B_beta_nodes", beta=beta_b)
    assert abs(integral - nodesum) < 1e-9
    # asking for the wrong tilted system is a domain error
    with pytest.raises(DomainError):
        db.quadrature_check(SHIFTED_FEJER, "B_beta_nodes", beta=beta_a)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadrature_check_right_of_b_zero(E, k):
    # just right of b_k the A_beta root nearest 0 lies below 0.05; the node
    # sum holds its mass
    beta = float(E.zeros_B[k]) + 1e-4
    integral, nodesum = db.quadrature_check(SHIFTED_FEJER, "A_beta_nodes", beta=beta)
    assert abs(integral - nodesum) < 1e-9


def test_case3_majorant_properties():
    beta = 0.25
    Q = db.case3_majorant(beta)
    xs = np.linspace(-8, 8, 2001)
    chi = (np.abs(xs) <= beta).astype(float)
    vals = Q.time_eval(xs)
    assert np.all(vals >= chi - 1e-10)
    assert Q.time_eval(np.array([beta]))[0] == pytest.approx(1.0, abs=1e-9)
    assert Q.time_eval(np.array([-beta]))[0] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        db.case3_majorant(0.9)


def test_case3_mass_equals_lambda_plus():
    beta = 0.25
    Q = db.case3_majorant(beta)
    lp, _ = db.lambda_values(beta)
    integral, nodesum = db.quadrature_check(Q, "A_beta_nodes", beta=beta)
    assert abs(integral - lp) < 1e-8
    assert abs(nodesum - lp) < 1e-8


def test_patch_disc_beta():
    # beta = 0.225 lies in the +/-Z0 patch disc of the kernel, so lambda and
    # the case-3 slope read the patched diagonal from scalar calls; they
    # agree with a Richardson mean of unpatched neighbours
    from pcx.kernel import _Z0, _near
    beta = 0.225
    assert _near(beta, _Z0)
    assert not any(_near(beta + d, _Z0) for d in (2e-4, -2e-4, 4e-4, -4e-4))
    lam = {d: db.lambda_values(beta + d)[0] for d in (0, 2e-4, -2e-4, 4e-4, -4e-4)}
    mean = (4 * (lam[2e-4] + lam[-2e-4]) - (lam[4e-4] + lam[-4e-4])) / 6
    assert abs(lam[0] - mean) < 1e-9
    Q = db.case3_majorant(beta)
    assert abs(float(Q.time_eval(beta)) - 1.0) < 1e-11
    assert abs(float(Q.time_eval(-beta)) - 1.0) < 1e-11


def test_lambda_minus_zero_below_first_a_zero():
    _, lm = db.lambda_values(0.2)
    assert lm == 0.0


def test_verify_hb():
    report = db.verify_hb(samples=200)
    assert report["ok"]
    assert not report["modulus_violations"]
    assert not report["imag_axis_violations"]
