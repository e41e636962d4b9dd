"""Bitwise pins: a SHA-256 over lambda_values on a seeded set of betas,
one over find_root's roots and callback counts on seeded random grids for
both step rules, one over the dilated Selberg masses, one over the
delta = 1 bound tables and one over their conjecture column alone, one
over the delta = 1 Selberg masses and their asymptotic forms, one over
trigamma and tetragamma, and one over the sine integral.  A change that is meant to keep every bit (a speed-up, a
refactor) keeps the digests; one that moves a bit on purpose recomputes
them and says why."""

import hashlib

import numpy as np

from pcx import cli
from pcx import debranges as db
from pcx import numerics as nm
from pcx import pcbounds as pb
from pcx import special as sp


def _lambda_betas(E):
    """400 betas: 178 seeded ones in (1e-3, 70), half log-uniform and half
    uniform on (0.3, 70), and the 111 A- and B-zeros in (0, 56) at -1e-11
    and +1e-11, where the tilt turns from one regime to the other."""
    rng = np.random.default_rng(20261019)
    zeros = np.concatenate([E.zeros_A, E.zeros_B])
    zeros = np.sort(zeros[(zeros > 0) & (zeros < 56.0)])
    return np.concatenate([
        10.0 ** rng.uniform(-3.0, np.log10(70.0), 89),
        rng.uniform(0.3, 70.0, 89),
        zeros - 1e-11, zeros + 1e-11])


def test_lambda_values_digest(E):
    betas = _lambda_betas(E)
    assert len(betas) == 400
    lam = np.array([db.lambda_values(float(b)) for b in betas])
    assert hashlib.sha256(lam.tobytes()).hexdigest() == (
        "e3140e10f0194ed13335822c5fb2bcd6306e77fff125c58209bcd2ea3d6863ab")


def _problems(rng):
    """One random root problem: a grid, a tol, and f with its slope.

    The kinds: a sine on a grid that may hold one of its zeros exactly,
    a cubic whose dyadic roots may sit on grid points, a ninth power
    (a flat root, where Newton crawls and the guards decide), and cos x
    - 1/2 on a grid from 0, whose slope there is exactly 0."""
    kind = rng.choice(4, p=[0.3, 0.3, 0.1, 0.3])
    n = int(rng.integers(2, 9))
    tol = 10.0 ** rng.uniform(-13.0, -4.0)
    if kind == 0:
        w, c = rng.uniform(0.5, 6.0), rng.uniform(-3.0, 3.0)
        xs = rng.uniform(-3.0, 3.0, n)
        if rng.integers(2):
            xs[0] = -c / w

        def f(x):
            return np.sin(w * x + c), w * np.cos(w * x + c)
    elif kind == 1:
        r = np.round(rng.uniform(-2.0, 2.0, 3) * 64.0) / 64.0
        xs = np.round(rng.uniform(-2.5, 2.5, n) * 64.0) / 64.0
        if rng.integers(2):
            xs[0] = r[0]

        def f(x):
            d = x[:, None] - r
            return (np.prod(d, axis=1),
                    d[:, 1] * d[:, 2] + d[:, 0] * d[:, 2] + d[:, 0] * d[:, 1])
    elif kind == 2:
        r = rng.uniform(0.0, 1.0)
        xs = rng.uniform(-0.5, 1.5, n)
        tol = 10.0 ** rng.uniform(-6.0, -3.0)

        def f(x):
            return (x - r) ** 9, 9.0 * (x - r) ** 8
    else:
        xs = np.concatenate([[0.0], rng.uniform(0.0, 7.0, n - 1)])

        def f(x):
            return np.cos(x) - 0.5, -np.sin(x)
    xs = np.unique(xs)
    if len(xs) < 2:
        xs = np.append(xs, xs[0] + 1.0)
    return xs, tol, f


def test_find_root_digest():
    rng = np.random.default_rng(32)
    digest = hashlib.sha256()
    for _ in range(500):
        xs, tol, f = _problems(rng)
        calls = [0, 0]

        def newton(x):
            calls[0] += 1
            return f(x)

        def illinois(x):
            calls[1] += 1
            return f(x)[0]

        for g in (newton, illinois):
            digest.update(nm.find_root(g, xs, tol).tobytes())
        digest.update(np.array(calls).tobytes())
    assert digest.hexdigest() == (
        "27f40dcbb2183495a7e9165d6bf6943d59ddb5e79d72e4ef8b7f72b9dc66e934")


def test_dilated_selberg_digest():
    # the lattice window of delta > 1, both signs, on the grid of
    # pcx bounds --beta 0.05:10:0.005
    grid = 0.05 + 0.005 * np.arange(1991)
    digest = hashlib.sha256()
    for delta in (1.0 + 2.0 ** -52, 1.001, 1.5, 1.999, 3.0):
        for sign in (-1, 1):
            digest.update(pb.m_selberg(grid, delta, sign).closed_form.tobytes())
    assert digest.hexdigest() == (
        "f156ab66b21bec959935c6c82549beac9cd2ea3c27323982c63d61eae430e3bf")


def _bound_grids():
    """The beta grids of the delta = 1 pins: 0.05:10:0.005, the default
    0.1:3:0.1 of pcx bounds, and 2,000 seeded log-uniform betas in
    [1e-300, 1e7], sorted, which reach the Taylor branch below 0.05."""
    rng = np.random.default_rng(34)
    return [0.05 + 0.005 * np.arange(1991), cli._parse_beta("0.1:3:0.1"),
            np.sort(10.0 ** rng.uniform(-300.0, 7.0, 2000))]


def _bound_table_digests():
    """SHA-256 over every column of the delta = 1 bound tables but the
    conjecture, and over the conjecture column alone: Si sets only the
    latter, so a change to Si's bits moves it and not the former."""
    bounds, conjecture = hashlib.sha256(), hashlib.sha256()
    for grid in _bound_grids():
        for nstar in (1.0, 4.0 / 3.0):
            for name, column in vars(pb.bound_table(grid, nstar)).items():
                (conjecture if name == "conjecture" else bounds).update(
                    column.tobytes())
    return bounds.hexdigest(), conjecture.hexdigest()


def test_bound_table_digest():
    assert _bound_table_digests()[0] == (
        "4fff8e07b8795d1d083f1f014d5b09d7ba513cfd0f353ad134e7b6a80b7bb312")


def test_conjecture_column_digest():
    assert _bound_table_digests()[1] == (
        "5497e661e3b7a90bdd6010a7637d29914e10e64691bfd476021c889d34a320f2")


def test_delta_one_selberg_digest():
    digest = hashlib.sha256()
    for grid in _bound_grids():
        for sign in (-1, 1):
            m = pb.m_selberg(grid, 1.0, sign)
            digest.update(m.closed_form.tobytes())
            digest.update(m.asymptotic.tobytes())
    assert digest.hexdigest() == (
        "8f9440b78c3c8092c355dbcc5bf3c2dc190fadb0619c3d974873b38e4830624e")


def test_special_functions_digest():
    # log-uniform arguments and every shift step count of the recurrence
    # (uniform on (0, 12)); psi2 of x below about 2.2e-103 overflows a
    # double, so trigamma_tetragamma takes the part of them above 1e-100
    rng = np.random.default_rng(341)
    x = np.concatenate([10.0 ** rng.uniform(-150.0, 6.0, 2000),
                        rng.uniform(0.0, 12.0, 2000)])
    digest = hashlib.sha256()
    digest.update(sp.trigamma(x).tobytes())
    for psi in sp.trigamma_tetragamma(x[x > 1e-100]):
        digest.update(psi.tobytes())
    assert digest.hexdigest() == (
        "6a3e08bfa03078e59357cdb1afc48b490bc3f8ac6b910da3da5a5ead2e286ead")


def test_sine_integral_digest():
    # Si on 0..60 and on both sides of its switch at 4, from the same
    # seeded stream as the polygamma pin, whose 4,000 draws come first
    rng = np.random.default_rng(341)
    rng.uniform(size=4000)
    t = np.concatenate([rng.uniform(0.0, 60.0, 2000),
                        4.0 + rng.uniform(-1e-3, 1e-3, 200)])
    digest = hashlib.sha256()
    digest.update(sp.sine_integral(t).tobytes())
    digest.update(sp.sine_integral(-t).tobytes())
    assert digest.hexdigest() == (
        "7ddadc1cb64cdd76e0a7a55a2d37831a1017bd7317787727105de9d15b93a1e0")
