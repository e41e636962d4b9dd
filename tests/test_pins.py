"""Bitwise pins: a SHA-256 over lambda_values on a seeded set of betas,
one over find_root's roots and callback counts on seeded random grids for
both step rules, and one over the dilated Selberg masses.  A change that
is meant to keep every bit (a speed-up, a refactor) keeps the digests;
one that moves a bit on purpose recomputes them and says why."""

import hashlib

import numpy as np

from pcx import debranges as db
from pcx import numerics as nm
from pcx import pcbounds as pb


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
