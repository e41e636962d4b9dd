import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcx import debranges as db
from pcx.beurling import BandlimitedFunction
from pcx.kernel import csinc, kernel_eval, two_delta
from pcx.numerics import DomainError, NonConvergence


def test_build_E_basic(E):
    e0 = complex(E.E_eval(np.array([0.0]))[0])
    assert e0.real == pytest.approx(2.22803734, abs=1e-7)
    assert abs(e0.imag) < 1e-12
    # A = Re E, B = -Im E on the real axis
    x = np.linspace(-3, 3, 61)
    ev = E.E_eval(x.astype(complex))
    assert np.max(np.abs(E.A_eval(x) - ev.real)) < 1e-13
    assert np.max(np.abs(E.B_eval(x) + ev.imag)) < 1e-13


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


def test_zero_interlacing(E):
    a, b = E.zeros_A, E.zeros_B
    assert b[0] == 0.0
    assert len(b) == len(a) + 1
    # strict interlacing b_k < a_k < b_{k+1}
    assert np.all(b[:-1] < a)
    assert np.all(a < b[1:])
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
    wronskian = _wronskian(E.A_eval, E.B_eval, xs)
    assert np.max(np.abs(kd - wronskian)) < 1e-11 * np.max(kd)


def test_tilted_diag_matches_wronskian(E):
    a1, b1 = float(E.zeros_A[0]), float(E.zeros_B[1])
    for beta in (0.5 * a1, 0.5 * (a1 + b1), 2.2, 4.7):  # two per regime
        t = db.tilt(beta, E)
        assert t.regime in ("case_bk_ak1", "case_ak_bk")
        xs = np.concatenate([t.nodes[:6], [0.1, 0.37, 3.3]])
        diag = db._tilted_diag(xs, t.gamma_beta, E)
        want = _wronskian(t.A_beta_eval, t.B_beta_eval, xs)
        assert np.max(np.abs(diag - want)) < 1e-11 * np.max(np.abs(want))


def test_cross_module_identity(E):
    # K(beta, -beta) = A(beta) B(beta) / (pi beta)
    for beta in (0.3, 0.9, 1.7, 3.2):
        lhs = kernel_eval(beta, -beta).real
        rhs = (float(E.A_eval(np.array([beta]))[0])
               * float(E.B_eval(np.array([beta]))[0]) / (math.pi * beta))
        assert abs(lhs - rhs) < 1e-12


def test_tilt_regimes(E):
    a1 = E.zeros_A[0]
    b1 = E.zeros_B[1]
    t_low = db.tilt(0.5 * a1, E)
    assert t_low.regime == "case_bk_ak1"
    t_mid = db.tilt(0.5 * (a1 + b1), E)
    assert t_mid.regime == "case_ak_bk"
    t_at_a = db.tilt(float(a1), E)
    assert t_at_a.regime == "case_a_zero"
    t_at_b = db.tilt(float(b1), E)
    assert t_at_b.regime == "case_b_zero"
    with pytest.raises(DomainError):
        db.tilt(-1.0, E)
    with pytest.raises(DomainError):
        db.tilt(E.x_max, E)


def test_masses_on_a_zero_match_two_delta(E):
    # beta on an A- or B-zero takes the untilted node system; the masses
    # still differ by Delta(beta)
    for beta, regime in ((float(E.zeros_A[2]), "case_a_zero"),
                         (float(E.zeros_B[3]), "case_b_zero")):
        t = db.tilt(beta, E)
        assert t.regime == regime
        delta = two_delta(beta).value
        assert abs((t.lambda_plus - t.lambda_minus) - delta) <= 1e-12


def test_tilted_companions_vanish_at_beta(E):
    beta = 0.9
    t = db.tilt(beta, E)
    node_fn = (t.A_beta_eval if t.regime == "case_bk_ak1"
               else t.B_beta_eval)
    assert abs(float(node_fn(np.array([beta]))[0])) < 1e-9
    assert beta in t.nodes


def test_lambda_consistency_with_two_delta(E):
    for beta in (0.45, 0.9, 1.6, 2.8):
        lp, lm = db.lambda_values(beta, E)
        assert lp > lm > 0 or (lm == 0.0 and lp > 0)
        assert lp - lm == pytest.approx(two_delta(beta).value, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(0.05, 56.0))
def test_optimal_pair_matches_two_delta(E, beta):
    # lambda_+ - lambda_- = Delta(beta), and 0 < Delta <= 2 because
    # K(beta, beta) >= 1: the weight 1 - sinc^2 is at most 1
    zeros = np.concatenate([E.zeros_A, E.zeros_B])
    assume(np.min(np.abs(zeros - beta)) >= 1e-3)
    lp, lm = db.lambda_values(beta, E)
    delta = two_delta(beta).value
    assert 0.0 < delta <= 2.0
    assert abs((lp - lm) - delta) <= 1e-12


def test_quadrature_check_fejer(E):
    F = BandlimitedFunction(type_bound=2 * math.pi,
                            time_eval=lambda x: np.sinc(np.asarray(x)) ** 2,
                            freq_eval=None, label="fejer")
    for which in ("A_nodes", "B_nodes"):
        integral, nodesum = db.quadrature_check(F, which, E=E)
        assert abs(integral - nodesum) < 1e-9
    with pytest.raises(DomainError):
        db.quadrature_check(F, "C_nodes", E=E)
    with pytest.raises(DomainError):
        db.quadrature_check(F, "A_beta_nodes", E=E)  # beta missing
    # the node tail beyond x_max is estimated at 2.1e-10 on the A-nodes
    with pytest.raises(NonConvergence):
        db.quadrature_check(F, "A_nodes", E=E, node_tol=1e-15)


def test_quadrature_check_tilted(E):
    F = BandlimitedFunction(type_bound=2 * math.pi,
                            time_eval=lambda x: np.sinc(np.asarray(x) - 0.4)
                            * np.sinc(np.asarray(x) + 0.4),
                            freq_eval=None, label="shifted")

    def sq(x):
        return np.sinc(np.asarray(x) - 0.4) ** 2

    Fsq = BandlimitedFunction(type_bound=2 * math.pi, time_eval=sq,
                              freq_eval=None, label="shifted-sq")
    beta_a = 0.5 * float(E.zeros_A[0])  # case_bk_ak1
    integral, nodesum = db.quadrature_check(Fsq, "A_beta_nodes", beta=beta_a, E=E)
    assert abs(integral - nodesum) < 1e-9
    beta_b = 0.5 * float(E.zeros_A[0] + E.zeros_B[1])  # case_ak_bk
    integral, nodesum = db.quadrature_check(Fsq, "B_beta_nodes", beta=beta_b, E=E)
    assert abs(integral - nodesum) < 1e-9
    # asking for the wrong tilted system is a domain error
    with pytest.raises(DomainError):
        db.quadrature_check(Fsq, "B_beta_nodes", beta=beta_a, E=E)


def test_case3_majorant_properties(E):
    beta = 0.25
    Q = db.case3_majorant(beta, E)
    xs = np.linspace(-8, 8, 2001)
    chi = (np.abs(xs) <= beta).astype(float)
    vals = Q.time_eval(xs)
    assert np.all(vals >= chi - 1e-10)
    assert Q.time_eval(np.array([beta]))[0] == pytest.approx(1.0, abs=1e-9)
    assert Q.time_eval(np.array([-beta]))[0] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        db.case3_majorant(0.9, E)


def test_case3_mass_equals_lambda_plus(E):
    beta = 0.25
    Q = db.case3_majorant(beta, E)
    lp, _ = db.lambda_values(beta, E)
    integral, nodesum = db.quadrature_check(Q, "A_beta_nodes", beta=beta, E=E)
    assert abs(integral - lp) < 1e-8
    assert abs(nodesum - lp) < 1e-8


def test_patch_disc_beta(E):
    # beta = 0.225 lies in the +/-Z0 patch disc of the kernel, so lambda and
    # the case-3 slope read the patched diagonal from scalar calls; they
    # agree with a Richardson mean of unpatched neighbours
    from pcx.kernel import _Z0, _near
    beta = 0.225
    assert _near(beta, _Z0)
    assert not any(_near(beta + d, _Z0) for d in (2e-4, -2e-4, 4e-4, -4e-4))
    lam = {d: db.lambda_values(beta + d, E)[0] for d in (0, 2e-4, -2e-4, 4e-4, -4e-4)}
    mean = (4 * (lam[2e-4] + lam[-2e-4]) - (lam[4e-4] + lam[-4e-4])) / 6
    assert abs(lam[0] - mean) < 1e-9
    Q = db.case3_majorant(beta, E)
    assert abs(float(Q.time_eval(beta)) - 1.0) < 1e-11
    assert abs(float(Q.time_eval(-beta)) - 1.0) < 1e-11


def test_lambda_minus_zero_below_first_a_zero(E):
    _, lm = db.lambda_values(0.2, E)
    assert lm == 0.0


def test_verify_hb(E):
    report = db.verify_hb(E, samples=200)
    assert report["ok"]
    assert not report["modulus_violations"]
    assert not report["imag_axis_violations"]
