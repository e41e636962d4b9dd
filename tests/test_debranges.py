import math

import numpy as np
import pytest

from pcx import debranges as db
from pcx.beurling import BandlimitedFunction
from pcx.kernel import csinc, kernel_eval
from pcx.numerics import DomainError, deriv_central


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


def _wronskian(A, B, x):
    """(B'A - A'B)/pi with sixth-order central derivatives."""
    return (deriv_central(B, x) * A(x) - deriv_central(A, x) * B(x)) / math.pi


def test_k_diag_matches_kernel(E):
    # K(x,x) is the Wronskian of the companions A and B
    xs = np.concatenate([[0.0, 0.5, 1.3, 2.7], E.zeros_A[:5], E.zeros_B[:5]])
    kd = db.k_diag(xs)
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


def test_tilted_companions_vanish_at_beta(E):
    beta = 0.9
    t = db.tilt(beta, E)
    node_fn = (t.A_beta_eval if t.regime == "case_bk_ak1"
               else t.B_beta_eval)
    assert abs(float(node_fn(np.array([beta]))[0])) < 1e-9
    assert beta in t.nodes


def test_lambda_consistency_with_two_delta(E):
    from pcx.kernel import two_delta
    for beta in (0.45, 0.9, 1.6, 2.8):
        lp, lm = db.lambda_values(beta, E)
        assert lp > lm > 0 or (lm == 0.0 and lp > 0)
        assert lp - lm == pytest.approx(two_delta(beta).value, abs=1e-9)


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


def test_lambda_minus_zero_below_first_a_zero(E):
    _, lm = db.lambda_values(0.2, E)
    assert lm == 0.0


def test_verify_hb(E):
    report = db.verify_hb(E, samples=200)
    assert report["ok"]
    assert not report["modulus_violations"]
    assert not report["imag_axis_violations"]
