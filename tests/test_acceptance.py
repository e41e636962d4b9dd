"""End-to-end acceptance checks; one test per shipped guarantee.

Each test prints a single PASS line with the measured quantity so that
`pytest -v` doubles as an acceptance report.
"""

import math
import time

import numpy as np
import pytest

from oracles import g_of, reproduce
from pcx import cli, debranges, gaps, kernel, pcbounds, zerodata
from pcx.beurling import BandlimitedFunction, make_selberg_pair
from pcx.kernel import kernel_eval


def test_c01_one_delta_constant():
    t0 = time.perf_counter()
    value, _ = kernel.one_delta()
    elapsed = time.perf_counter() - t0
    assert abs(value - 0.3274992) < 1e-6
    assert elapsed < 1.0
    print(f"PASS one-delta = {value:.10f} ({elapsed:.3f}s)")


def test_c02_small_gap_thresholds():
    t0 = time.perf_counter()
    with_corr = gaps.solve_threshold(True, 1e-8)
    without = gaps.solve_threshold(False, 1e-8)
    elapsed = time.perf_counter() - t0
    assert abs(with_corr - 0.606894) < 1e-4
    assert abs(without - 0.607286) < 1e-4
    assert elapsed < 5.0
    print(f"PASS thresholds = {with_corr:.7f} / {without:.7f} ({elapsed:.3f}s)")


def test_c03_minorant_positivity_threshold():
    t0 = time.perf_counter()
    b = pcbounds.positivity_threshold(1e-8)
    elapsed = time.perf_counter() - t0
    assert abs(b - 0.8163) < 5e-4
    assert elapsed < 10.0
    print(f"PASS positivity threshold = {b:.7f} ({elapsed:.3f}s)")


def test_c04_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.4, 0.9, 1.0, 1.5, 2.7, 5.0):
        for delta in (1.0, 2.0):
            pair = make_selberg_pair(beta, delta)
            for sign, fn in ((+1, pair.majorant), (-1, pair.minorant)):
                quad = 0.5 * pcbounds.m_of(fn)
                closed = pcbounds.m_selberg(beta, delta, sign).closed_form
                worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-11
    assert elapsed < 120.0
    print(f"PASS closed vs quadrature, worst |diff| = {worst:.2e} "
          f"({elapsed:.1f}s)")


def test_c05_asymptotic_residual_decay():
    betas = np.array([10.0, 20.0, 40.0, 80.0])
    for sign in (+1, -1):
        res = []
        for b in betas:
            ev = pcbounds.m_selberg(b, 1.0, sign)
            res.append(abs(ev.closed_form - ev.asymptotic))
        res = np.array(res)
        assert np.all(res * betas ** 2 < 1.0)
        slope = np.polyfit(np.log(betas), np.log(res), 1)[0]
        assert -2.3 <= slope <= -1.7
        print(f"PASS sign {sign:+d}: residual slope = {slope:.3f}, "
              f"max res*beta^2 = {np.max(res * betas ** 2):.3f}")


def test_c06_lattice_recombination_constant():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for delta in (1.0, 1.5, 2.0):
        for b in rng.uniform(1.0, 50.0, 20):
            worst = max(worst, abs(g_of(delta, float(b)) - 0.5))
    assert worst <= 1e-7
    print(f"PASS lattice constancy, worst |G - 1/2| = {worst:.2e}")


def test_c07_reproducing_property():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        a = rng.uniform(-1.5, 1.5)
        scale = rng.choice([1.0, 0.5])

        def f(x, a=a, scale=scale):
            return np.sinc(scale * (np.asarray(x) - a)).real

        if rng.uniform() < 0.3:
            w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
        else:
            w = complex(rng.uniform(-1.5, 1.5), 0.0)
        got = reproduce(f, w)
        want = complex(np.sinc(np.array([scale * (w - a)]))[0])
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6
    print(f"PASS reproducing property, worst error = {worst:.2e}")


def test_c08_kernel_symmetries():
    rng = np.random.default_rng(11)
    worst_h = worst_c = 0.0
    for _ in range(60):
        w = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        kwz = complex(kernel_eval(w, z))
        worst_h = max(worst_h, abs(kwz - np.conj(kernel_eval(z, w)))
                      / max(1.0, abs(kwz)))
        worst_c = max(worst_c, abs(np.conj(kwz)
                                   - kernel_eval(np.conj(w), np.conj(z)))
                      / max(1.0, abs(kwz)))
    xs = np.linspace(-12, 12, 1001)
    diag = kernel_eval(xs, xs).real
    assert worst_h <= 1e-12
    assert worst_c <= 1e-12
    assert np.all(diag > 0)
    print(f"PASS symmetries: hermitian {worst_h:.2e}, "
          f"conjugation {worst_c:.2e}, diagonal > 0 on 1001 points")


def test_c09_two_delta_consistency(E):
    rng = np.random.default_rng(5)
    boundaries = np.concatenate([E.zeros_A, E.zeros_B])
    worst = 0.0
    n = 0
    while n < 10:
        b = float(rng.uniform(0.3, 8.0))
        if np.min(np.abs(boundaries - b)) < 1e-3:
            continue
        lp, lm = debranges.lambda_values(b)
        delta_b = kernel.two_delta(b).value
        worst = max(worst, abs((lp - lm) - delta_b))
        n += 1
    assert worst <= 1e-8
    env_worst = 0.0
    for b in (10.0, 20.0, 40.0):
        delta_b = kernel.two_delta(b).value
        env = 2.0 * (1.0 - abs(math.sin(2 * math.pi * b) / (2 * math.pi * b)))
        env_worst = max(env_worst, abs(delta_b - env) * b ** 2)
    assert env_worst < 2.0
    print(f"PASS two-delta: worst |(L+ - L-) - Delta| = {worst:.2e}, "
          f"envelope residual * beta^2 <= {env_worst:.3f}")


def test_c10_cross_module_kernel_identity(E):
    rng = np.random.default_rng(3)
    worst = 0.0
    for b in rng.uniform(0.1, 10.0, 20):
        b = float(b)
        lhs = kernel_eval(b, -b).real
        e = complex(E.E_eval(np.array([b]))[0])
        rhs = e.real * -e.imag / (math.pi * b)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    print(f"PASS K(b,-b) identity, worst |diff| = {worst:.2e}")


def test_c11_node_sum_quadrature_identities():
    tests = [  # the Fejer kernel, shifted, and a half-band cosine product
        BandlimitedFunction(2 * math.pi, lambda x: np.sinc(np.asarray(x)) ** 2),
        BandlimitedFunction(2 * math.pi,
                            lambda x: np.sinc(np.asarray(x) - 0.3) ** 2),
        BandlimitedFunction(2 * math.pi,
                            lambda x: (np.sinc(0.5 * np.asarray(x)) ** 2
                                       * np.cos(np.pi * 0.5 * np.asarray(x)) ** 2)),
    ]
    worst = 0.0
    for F in tests:
        for which in ("A_nodes", "B_nodes"):
            integral, nodesum = debranges.quadrature_check(F, which)
            worst = max(worst, abs(integral - nodesum))
    assert worst <= 1e-6
    print(f"PASS node-sum identities, worst |diff| = {worst:.2e}")


def test_c12_case3_majorant():
    for beta in (0.1, 0.25, 0.4):
        Q = debranges.case3_majorant(beta)
        xs = np.linspace(-30.0, 30.0, 10_000)
        chi = (np.abs(xs) <= beta).astype(float)
        assert np.all(Q.time_eval(xs) >= chi - 1e-10)
        assert abs(Q.time_eval(np.array([beta]))[0] - 1.0) <= 1e-9
        assert abs(Q.time_eval(np.array([-beta]))[0] - 1.0) <= 1e-9
        lp, _ = debranges.lambda_values(beta)
        integral, _ = debranges.quadrature_check(Q, "A_beta_nodes", beta=beta)
        assert abs(integral - lp) <= 1e-6
        print(f"PASS case-3 beta={beta}: majorizes, Q(+/-beta)=1, "
              f"mass matches node value to {abs(integral - lp):.2e}")


def test_c13_hermite_biehler():
    report = debranges.verify_hb(samples=1000)
    assert report["ok"]
    assert report["samples"] == 1000
    print("PASS structure function: modulus inequality on 1000 points, "
          "imaginary-axis reality to 1e-12")


def test_c14_empirical_pipeline(dataset):
    T = dataset.t_max
    # exact agreement with the O(n^2) oracle
    for beta in (0.5, 1.0, 2.0):
        assert zerodata.count_pairs(dataset, T, beta) == \
            zerodata.count_pairs_brute(dataset, T, beta)
    # F nonnegative and even
    worst_sym = 0.0
    for a in (0.2, 0.5, 0.9, 1.3):
        v = zerodata.empirical_F(dataset, T, a)
        assert v >= 0.0
        worst_sym = max(worst_sym,
                        abs(v - zerodata.empirical_F(dataset, T, -a)))
    assert worst_sym <= 1e-12
    # ratio against the theoretical bands with slack 0.1; the bands are
    # limit statements, so finite-height deviations are reported, not failed
    betas = np.arange(0.5, 3.0 + 1e-9, 0.25)
    t = zerodata.empirical_table(dataset, T, betas)
    rows = list(zip(t.beta.tolist(), t.ratio.tolist(), t.lower.tolist(),
                    t.upper.tolist()))
    outside = [(beta, round(ratio, 4), round(lower, 4), round(upper, 4))
               for beta, ratio, lower, upper in rows
               if not (lower - 0.1 <= ratio <= upper + 0.1)]
    inside = len(rows) - len(outside)
    print(f"PASS empirical: oracle exact, F even/nonneg "
          f"(sym {worst_sym:.1e}); bands hold at {inside}/{len(rows)} "
          f"grid points" + (f"; finite-height deviations at {outside}"
                            if outside else ""))


def test_c15_cli_determinism(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv", "r3.csv"):
        target = tmp_path / name
        assert cli.main(["bounds", "--beta", "0.2:2:0.2",
                         "--out", str(target)]) == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    print("PASS CLI determinism: three runs byte-identical "
          f"({len(outs[0])} bytes)")
