import math
import re

import numpy as np
import pytest

from oracles import norm_equivalence_eta, reproduce
from pcx import kernel as kn
from pcx.beurling import BandlimitedFunction
from pcx.numerics import DomainError, NonConvergence, integrate_real_line

RNG = np.random.default_rng(42)


def test_csinc_stability():
    z = np.array([0.0, 1e-9, 1e-7, 0.5, 1.0 + 0.3j])
    v = np.sinc(z)
    assert v[0] == pytest.approx(1.0)
    assert abs(v[1] - 1.0) < 1e-15
    assert v[3] == pytest.approx(2.0 / math.pi)
    zc = 1.0 + 0.3j
    assert v[4] == pytest.approx(np.sin(np.pi * zc) / (np.pi * zc))


def _mp_kernel_pieces(mp):
    """The raw quotients of the kernel in mpmath arithmetic, where the
    removable points cost no accuracy."""
    sq = mp.mpf(2) ** -0.5

    def den(z):
        return 1 - 2 * mp.pi ** 2 * z ** 2

    def g(z):
        return (mp.sqrt(2) * mp.sin(sq) * mp.cos(mp.pi * z)
                - 2 * mp.pi * z * mp.cos(sq) * mp.sin(mp.pi * z)) / den(z)

    def h(z):
        return (2 * mp.pi * z * mp.sin(sq) * mp.cos(mp.pi * z)
                - mp.sqrt(2) * mp.cos(sq) * mp.sin(mp.pi * z)) / den(z)

    def coefficients(wb):
        # the sinc block's prefactor and the coefficients c, d of g and h
        c = (mp.cos(mp.pi * wb) - mp.pi * wb * mp.sin(mp.pi * wb)) / (
            den(wb) * (mp.cos(sq) - sq * mp.sin(sq)))
        d = 2 * mp.pi * wb * mp.cos(mp.pi * wb) / (
            den(wb) * mp.sqrt(2) * mp.cos(sq))
        return -2 * mp.pi ** 2 * wb ** 2 / den(wb), c, d

    def K(w, z):
        wb = mp.conj(w)
        pref, c, d = coefficients(wb)
        sinc = mp.sin(mp.pi * (z - wb)) / (mp.pi * (z - wb)) if z != wb else 1
        return pref * sinc + c * g(z) + d * h(z)

    return g, h, coefficients, K


# g and h as rows of the kernel: the half-sum and half-difference of the
# sinc translates sinc(z -/+ Z0), with no sinc(z - conj(w)) term
ROW_G, ROW_H = (0.0, 0.5, 0.5), (0.0, 0.5, -0.5)


def test_removable_point_patch():
    # the rows g, h and the patched w-branch of K at and around +/-Z0
    # against the raw quotients in 50-digit arithmetic (a float point near
    # both poles costs the reference about 34 digits)
    import mpmath as mp

    offsets = np.array([0.0, 1e-6, -3e-5, 9e-5, -9.9e-5])
    z = np.concatenate([kn._Z0 + offsets, -kn._Z0 + offsets])
    assert np.all(kn._near(z, kn._Z0))
    with mp.workdps(50):
        g, h, _, K = _mp_kernel_pieces(mp)
        for row, ref in ((ROW_G, g), (ROW_H, h)):
            got = kn._row(row, 0.0, z.astype(complex))
            want = [float(ref(mp.mpf(v))) for v in z]
            assert np.max(np.abs(got.real - want)) < 1e-15
            assert np.max(np.abs(got.imag)) == 0.0
        zs = np.array([0.0, 0.4, -1.7 + 0.6j, 2.3 - 1j, 1j, kn._Z0 + 3e-5,
                       -kn._Z0, -kn._Z0 + 2e-5j])
        for w in (kn._Z0, -kn._Z0 + 3e-5, kn._Z0 + 2e-5j):
            got = kn.kernel_eval(w, zs)
            want = [complex(K(mp.mpc(w), mp.mpc(v))) for v in zs]
            assert np.max(np.abs(got - want)) < 1e-12


def test_coefficients_against_mpmath():
    # (a0, a+, a-) against the prefactor and (c +/- d)/2 of the raw
    # quotients in 40-digit arithmetic, at w off the patch discs, relative
    # to the largest of the three; a scalar conj(w) gives the bits of a
    # one-element array
    import mpmath as mp

    ws = np.concatenate([np.linspace(-30.0, 30.0, 61) + 0.13, [1j, -1j],
                         np.linspace(-5.0, 5.0, 21) + 0.6j,
                         np.linspace(-5.0, 5.0, 21) - 2.3j])
    assert not np.any(kn._near(ws, kn._Z0))
    got = np.array(kn._coefficients(ws))
    with mp.workdps(40):
        coefficients = _mp_kernel_pieces(mp)[2]
        for w, triple in zip(ws, got.T):
            pref, c, d = coefficients(mp.mpc(w))
            want = np.array([complex(v) for v in (pref, (c + d) / 2,
                                                  (c - d) / 2)])
            scale = np.max(np.abs(want))
            assert np.max(np.abs(triple - want)) <= 2e-15 * scale
    for w in (0.0, 0.4, -1.7, 4.2, kn._Z0 + 3e-4, -1j):
        assert ([complex(v) for v in kn._coefficients(w)]
                == [v[0] for v in kn._coefficients(np.array([w]))])


def test_kernel_just_outside_patch_discs():
    # w outside the +/-Z0 discs but close enough that the pole terms of
    # f, c and d cancel to about 4 digits; the z-side pieces are entire
    # sinc translates, so z anywhere, inside the discs too, costs nothing
    import mpmath as mp

    z0 = kn._Z0
    zs = np.concatenate([np.linspace(-3.0, 3.0, 401),
                         z0 + np.array([0.0, 3e-5, -7e-5]),
                         -z0 + np.array([0.0, 5e-5, -2e-5])])
    ws = (z0 + 2e-4, z0 - 3e-4, -z0 + 2e-4)
    assert not np.any(kn._near(np.array(ws), z0))
    with mp.workdps(50):
        K = _mp_kernel_pieces(mp)[3]
        for w in ws:
            got = kn.kernel_eval(w, zs.astype(complex))
            want = [complex(K(mp.mpc(w), mp.mpc(v))) for v in zs]
            assert np.max(np.abs(got - want)) < 1e-12


def test_patch_at_scalar_points():
    # 0-d inputs inside a patch disc take the patched path too, and agree
    # with the array path and with a Richardson mean of unpatched neighbours
    z0 = kn._Z0
    assert (complex(kn._row(ROW_G, 0.0, complex(z0)))
            == kn._row(ROW_G, 0.0, np.array([z0 + 0j]))[0])
    assert complex(kn.kernel_eval(z0, z0)) == kn.kernel_eval(z0, np.array([z0]))[0]

    def neighbours(fn, d=2e-4):
        m1 = 0.5 * (fn(z0 + d) + fn(z0 - d))
        m2 = 0.5 * (fn(z0 + 2 * d) + fn(z0 - 2 * d))
        return (4 * m1 - m2) / 3

    for fn in (lambda x: complex(kn._row(ROW_G, 0.0, complex(x))),
               lambda x: complex(kn._row(ROW_H, 0.0, complex(x))),
               lambda x: complex(kn.kernel_eval(x, x)),
               lambda x: kn.two_delta(x).value):
        assert abs(fn(z0) - neighbours(fn)) < 1e-9
    assert abs(kn.two_delta(0.225).value - 0.3824568637886) < 1e-12


def test_kernel_hermitian_symmetry():
    for _ in range(20):
        w = complex(RNG.uniform(-3, 3), RNG.uniform(-2, 2))
        z = complex(RNG.uniform(-3, 3), RNG.uniform(-2, 2))
        kwz = complex(kn.kernel_eval(w, z))
        kzw = complex(kn.kernel_eval(z, w))
        assert abs(kwz - np.conj(kzw)) < 1e-12 * max(1.0, abs(kwz))


def test_kernel_conjugation_symmetry():
    for _ in range(20):
        w = complex(RNG.uniform(-3, 3), RNG.uniform(-2, 2))
        z = complex(RNG.uniform(-3, 3), RNG.uniform(-2, 2))
        a = complex(kn.kernel_eval(np.conj(w), np.conj(z)))
        b = complex(kn.kernel_eval(w, z))
        assert abs(a - np.conj(b)) < 1e-12 * max(1.0, abs(b))


def test_kernel_diagonal_positive():
    xs = np.linspace(-10, 10, 401)
    assert np.all(kn.kernel_eval(xs, xs).real > 0)


def test_kernel_eval_broadcasts():
    # array calls agree with a loop of scalar calls: bitwise for real w, to
    # 1e-12 for complex w (the patch then sums in another order); both sets
    # mix points inside and outside the +/-Z0 discs in one array
    z0 = kn._Z0
    w_real = np.array([0.0, 0.3, -1.7, 4.2, z0, -z0, z0 + 3e-5, z0 + 2e-4])
    w_complex = np.array([1j, 0.4 + 0.6j, 2.5 - 1.1j, z0 + 2e-5j,
                          -z0 - 1e-5 + 1e-5j])
    z = np.array([0.0, 0.5, -2.2, 1.3 - 0.7j, 3.1 + 1.2j, z0, -z0 + 4e-5,
                  z0 + 3e-5j])
    assert np.any(kn._near(w_real, z0)) and not np.all(kn._near(w_real, z0))
    for w, exact in ((w_real, True), (w_complex, False)):
        loop = np.array([[complex(kn.kernel_eval(wi, zj)) for zj in z]
                         for wi in w])
        outer = kn.kernel_eval(w[:, np.newaxis], z)  # (n,1) x (m,)
        rows = np.array([kn.kernel_eval(wi, z) for wi in w])  # scalar w
        flat = kn.kernel_eval(np.repeat(w, len(z)), np.tile(z, len(w)))
        assert outer.shape == loop.shape
        for got in (outer, rows, flat.reshape(loop.shape)):
            if exact:
                assert np.array_equal(got, loop)
            else:
                assert np.max(np.abs(got - loop)) < 1e-12
    # the diagonal at real points, the patched ones included
    x = np.concatenate([w_real, [0.225]])
    assert np.array_equal(kn.kernel_eval(x, x),
                          [complex(kn.kernel_eval(v, v)) for v in x])


def test_reproduce_sinc_translates():
    # f(z) = sinc(z - a) has type pi and lies in the space
    for a in (0.0, 0.7, -1.3):
        f = lambda x, a=a: np.sinc(np.asarray(x) - a).real
        for w in (0.0, 0.4, 1.7):
            got = reproduce(f, w)
            assert abs(got - np.sinc(np.array([w - a]))[0]) < 1e-8


def test_reproduce_complex_point():
    f = lambda x: np.sinc(np.asarray(x) - 0.5).real
    w = 0.3 + 0.6j
    got = reproduce(f, w)
    assert abs(got - complex(np.sinc(np.array([w - 0.5]))[0])) < 1e-8


def test_reproduce_accepts_bandlimited_wrapper():
    f = BandlimitedFunction(math.pi, lambda x: np.sinc(np.asarray(x)).real)
    assert abs(reproduce(f, 0.25)
               - np.sinc(np.array([0.25]))[0]) < 1e-8


def test_one_delta_value_and_extremal():
    value, extremal = kn.one_delta()
    closed = 2.0 ** -0.5 / math.tan(2.0 ** -0.5) - 0.5
    assert abs(value - closed) < 1e-14
    assert extremal(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(-5, 5, 201)
    assert np.all(extremal(xs) >= 0.0)


def test_two_delta_constraints_and_value():
    for beta in (0.5, 1.0, 2.0, 3.7):
        sol = kn.two_delta(beta)
        # the extremal meets both constraints with equality
        assert sol.extremal_eval(np.array([beta]))[0] == pytest.approx(
            1.0, abs=1e-9)
        assert sol.extremal_eval(np.array([-beta]))[0] == pytest.approx(
            1.0, abs=1e-9)
        assert sol.value == pytest.approx(2.0 / (sol.k_bb + abs(sol.k_bmb)))
        assert sol.value > 0
    with pytest.raises(DomainError):
        kn.two_delta(0.0)


def test_two_delta_array_matches_scalar_calls(monkeypatch):
    # one code path: an array of beta gives, entry by entry, the bits of
    # the float calls, in the shape of the array, across the patch disc
    # around Z0 and far out; blocks of any size give the same bits
    betas = np.concatenate([np.geomspace(0.01, 1e4, 400),
                            RNG.uniform(0.01, 50.0, 200),
                            kn._Z0 + np.linspace(-2e-4, 2e-4, 9)])
    sol = kn.two_delta(betas.reshape(3, -1))
    assert sol.value.shape == sol.k_bb.shape == sol.k_bmb.shape == (3, 203)
    for i, beta in enumerate(betas.tolist()):
        one = kn.two_delta(beta)
        assert isinstance(one.value, float) and isinstance(one.k_bb, float)
        assert (one.value, one.k_bb, one.k_bmb) == (
            sol.value.flat[i], sol.k_bb.flat[i], sol.k_bmb.flat[i])
    monkeypatch.setattr(kn, "_BLOCK", 7)
    small = kn.two_delta(betas)
    for field in ("value", "k_bb", "k_bmb"):
        assert np.array_equal(getattr(small, field),
                              getattr(sol, field).reshape(-1))
    # the extremal of an array broadcasts x against beta
    x = np.stack([betas, -betas])
    assert np.allclose(small.extremal_eval(x), 1.0, rtol=0, atol=1e-9)
    with pytest.raises(DomainError):
        kn.two_delta(np.array([1.0, np.nan]))


@pytest.mark.filterwarnings("error")
def test_two_delta_refuses_overflow():
    # past 2.9e153 the coefficients' (1 - 2 (pi beta)^2) _DEN_D overflows:
    # beta up to _BETA_MAX still gives a number, beyond it NonConvergence
    # names the first such beta, and no numpy warning escapes
    assert math.isfinite(kn.two_delta(kn._BETA_MAX).value)
    for beta, named in ((1e300, "beta=1e+300"), (2.9e153, "beta=2.9e+153"),
                        (np.array([[0.5, 5e299], [1e300, 1.0]]), "beta=5e+299")):
        with pytest.raises(NonConvergence, match=named.replace("+", r"\+")):
            kn.two_delta(beta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w, z, overflows", [
    # |w| past _BETA_MAX: the coefficients' (1 - 2 (pi w)^2) _DEN_D; a
    # finite w stays a numerics error, not a domain one
    (1e153, 0.5, False), (1.1e153, 0.5, True), (3e153, 0.5, True),
    (1e154, 0.0, True),
    # |Im w| + |Im z| past about 224 to 226: the sines
    (200j, 0.5, False), (226j, 0.5, True),
    (5.0, 223j, False), (5.0, 230j, True),
    (100j, 100j, False), (120j, 120j, True),
])
def test_kernel_eval_refuses_overflow(w, z, overflows):
    # a finite K, or NonConvergence naming the point, never NaN with a
    # numpy warning
    if not overflows:
        assert np.isfinite(kn.kernel_eval(w, z))
        return
    with pytest.raises(NonConvergence, match=re.escape(f"w={w}, z={z}")):
        kn.kernel_eval(w, z)
    # in an array, the first such point is named
    with pytest.raises(NonConvergence, match=re.escape(f"w={w}, z={z}")):
        kn.kernel_eval(np.array([0.5, w, 0.3]), np.array([0.1, z, z]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, complex(math.inf, 0.0),
    complex(0.0, -math.inf), complex(math.nan, 1.0), complex(1.0, math.nan),
])
def test_kernel_eval_non_finite_raises(bad):
    # input that is not finite is bad input, not an overflow of K, in w
    # and in z, alone or in an array
    for w, z in ((bad, 0.0), (0.0, bad), (np.array([0.5, bad]), 0.3),
                 (0.5, np.array([0.3, bad]))):
        with pytest.raises(DomainError, match="must be finite"):
            kn.kernel_eval(w, z)


@pytest.mark.filterwarnings("error")
def test_kernel_at_subnormal_points():
    # np.sinc of a subnormal complex overflows; the translate z - conj(w)
    # is flushed to 0 below 1e-20, where sinc is 1.0 to rounding, so K at
    # subnormal w and z is its limit K(0, 0), and so is two_delta's
    k00 = complex(kn.kernel_eval(0.0, 0.0))
    for w in (5e-324, 1e-310):
        got = kn.kernel_eval(w, np.array([w, -w, 0.0]))
        assert np.all(got == k00)
        assert kn.two_delta(w).value == kn.two_delta(1e-300).value
    assert kn.two_delta(np.array([5e-324, 1e-310, 2.2e-308])).value.tolist() \
        == [0.3274992963205882] * 3


def test_two_delta_frozen_value():
    assert kn.two_delta(2.0).value == pytest.approx(1.91528938, abs=1e-7)


def test_two_delta_large_beta_envelope():
    # Delta(beta) -> 2(1 - |sinc(2 beta)|) + O(beta^-2)
    for beta in (10.0, 25.0):
        sol = kn.two_delta(beta)
        env = 2.0 * (1.0 - abs(math.sin(2 * math.pi * beta)
                               / (2 * math.pi * beta)))
        assert abs(sol.value - env) < 2.0 / beta ** 2


def test_norm_equivalence_eta():
    # the sandwich (eta/2) ||f||_2 <= ||f||_mu <= ||f||_2 on f = K(0, .):
    # ||f||_mu^2 = K(0, 0) by the reproducing property, and f^2 has type
    # 2 pi, its oscillation repeating over period 1
    from pcx.pcbounds import pc_density
    eta = norm_equivalence_eta()
    assert eta == pytest.approx(math.sqrt(float(pc_density(np.array([0.125]))[0])))
    assert 0.2 < eta < 0.25
    norm_mu = math.sqrt(kn.kernel_eval(0.0, 0.0).real)
    norm_2 = math.sqrt(integrate_real_line(
        lambda x: kn.kernel_eval(0.0, x).real ** 2, 1.0))
    assert 0.5 * eta * norm_2 <= norm_mu <= norm_2
