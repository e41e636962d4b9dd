"""Bitwise pins: a SHA-256 over lambda_values on a seeded set of betas,
one over find_root's roots and callback counts on seeded random grids for
both step rules, one over the dilated Selberg masses, one over the
delta = 1 bound tables and one over their conjecture column alone, one
over the delta = 1 Selberg masses and their asymptotic forms, one over
trigamma and tetragamma, one over the sine integral and its odd
extension, one over the Selberg functions, one over the pair counts of
the shipped table, one over its Selberg-weighted pair sums, one over the
Selberg-weighted pair sums of prefixes and dense tables whose far fields
run past F's nodes, one over its F(alpha) and one over the structure
function's companion zeros, phase table and Fejer node sums.  The
asymptotic forms and Si's odd extension are computed here, from their
formulas, as pcx itself takes neither.  A change that is meant to keep
every bit (a speed-up, a refactor) keeps the digests; one that moves a
bit on purpose recomputes them and says why."""

import hashlib

import numpy as np

from pcx import cli
from pcx import debranges as db
from pcx import numerics as nm
from pcx import pcbounds as pb
from pcx import special as sp
from pcx.beurling import (FAR, BandlimitedFunction, eval_H0, eval_r,
                          make_selberg_pair)
from pcx.zerodata import (ZeroDataset, count_pairs, empirical_F,
                          weighted_pair_sum)
from test_zerodata import _dense_tables


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
            # beta - 1/2 + sign/(2 delta) + 1/(2 pi^2 beta)
            asymptotic = grid - 0.5 + sign / 2.0 + 1.0 / (pb.TWO_PI_SQ * grid)
            digest.update(asymptotic.tobytes())
    assert digest.hexdigest() == (
        "8f9440b78c3c8092c355dbcc5bf3c2dc190fadb0619c3d974873b38e4830624e")


def test_special_functions_digest():
    # psi1 and psi2 from their series, which pcx.special takes at x >=
    # SHIFT = 10 only: the log-uniform draws that reach 10, and 2,000
    # uniform on [10, 12), where the series is weakest.  Recomputed when
    # the polygammas stopped taking arguments below 10; the same values
    # gave this digest before, as no value at x >= 10 moved
    rng = np.random.default_rng(341)
    x = 10.0 ** rng.uniform(-150.0, 6.0, 2000)
    x = np.concatenate([x[x >= 10.0], rng.uniform(10.0, 12.0, 2000)])
    digest = hashlib.sha256()
    digest.update(sp.trigamma(x).tobytes())
    for psi in sp.trigamma_tetragamma(x):
        digest.update(psi.tobytes())
    assert digest.hexdigest() == (
        "1d336efdff28d434ec2584e152735da1a3cfd923524916bb4b90f7aaeae9e8fe")


def test_sine_integral_digest():
    # Si on 0..60 and on both sides of its switch at 4, from the same
    # seeded stream as the polygamma pin, whose 4,000 draws come first;
    # Si is odd, and no draw is 0, so -Si(t) is Si(-t)
    rng = np.random.default_rng(341)
    rng.uniform(size=4000)
    t = np.concatenate([rng.uniform(0.0, 60.0, 2000),
                        4.0 + rng.uniform(-1e-3, 1e-3, 200)])
    digest = hashlib.sha256()
    digest.update(sp._si(t).tobytes())
    digest.update((-sp._si(t)).tobytes())
    assert digest.hexdigest() == (
        "7ddadc1cb64cdd76e0a7a55a2d37831a1017bd7317787727105de9d15b93a1e0")


def _beurling_grid(beta):
    """40,076 points for eval_r at beta, or eval_H0 at beta = 0: 0 and
    +/-5e-324, the integers of [-30, 30], 20,000 seeded points uniform on
    (-30, 30), 10,000 log-uniform in magnitude on 1e-8..1e5 with random
    signs, and where an argument x +/- beta of eval_r (x itself for H0)
    crosses +/-FAR, each crossing with its two neighbouring doubles and
    2,500 seeded points within 1e-3 of it."""
    rng = np.random.default_rng(36)
    edges = np.array([s * FAR + t * beta for s in (1, -1) for t in (1, -1)])
    return np.concatenate([
        [0.0, 5e-324, -5e-324], np.arange(-30.0, 31.0),
        rng.uniform(-30.0, 30.0, 20000),
        10.0 ** rng.uniform(-8.0, 5.0, 10000) * rng.choice([-1.0, 1.0], 10000),
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        (edges[:, np.newaxis] + rng.uniform(-1e-3, 1e-3, (4, 2500))).ravel()])


def test_selberg_functions_digest():
    # recomputed when H0's closed form began to take psi1(1 + |x|) as
    # psi1(11 + |x|) plus ten steps of the recurrence: 1,808 of the 440,836
    # values moved, by at most 4.4e-16 absolute, 101 of them in H0, each
    # by at most one ulp
    digest = hashlib.sha256()
    digest.update(eval_H0(_beurling_grid(0.0)).tobytes())
    for beta in (0.37, 1.0, 2.6, 7.3, 10.0):
        for sign in (1, -1):
            digest.update(eval_r(beta, sign, _beurling_grid(beta)).tobytes())
    assert digest.hexdigest() == (
        "b3afdb27fc7233052730fb549b6fc15922bd72019e2b99abde2d75aec3a45730")


def test_count_pairs_digest(dataset):
    # the shipped table up to its last ordinate, on the grid 0.5:3:0.05 and
    # at three single betas
    T = dataset.t_max
    digest = hashlib.sha256()
    digest.update(count_pairs(dataset, T, cli._parse_beta("0.5:3:0.05")).tobytes())
    digest.update(np.array([count_pairs(dataset, T, b)
                            for b in (1.0, 10.0, 100.0)]).tobytes())
    assert digest.hexdigest() == (
        "a3bb3f823302d24ff575f46957dfba4fc5354bd1b08845e19751dcfe5706f65a")


def test_weighted_pair_sum_digest(dataset):
    # both sides of the Selberg pair at seven (beta, delta) over the first
    # 2,000 shipped ordinates, which reach the far field at every one, and
    # the beta = 1 pair over the whole table
    sub = ZeroDataset(ordinates=dataset.ordinates[:2000], source=dataset.source,
                      t_max=float(dataset.ordinates[1999]))
    cases = [(sub, beta, delta) for beta, delta in (
        (1.0, 1.0), (0.37, 1.0), (7.3, 1.0), (2.6, 1.5), (47.3, 1.7),
        (200.0, 2.0), (0.01, 1.0))] + [(dataset, 1.0, 1.0)]
    pairs = [(ds, make_selberg_pair(beta, delta)) for ds, beta, delta in cases]
    sums = [weighted_pair_sum(ds, ds.t_max, R)
            for ds, pair in pairs for R in (pair.majorant, pair.minorant)]
    # recomputed when the near field's gaps with one argument past the far
    # switch began to read its sine from unit phases: the (0.37, 1)
    # majorant and the (2.6, 1.5) minorant moved by 1.5e-16 and 1.8e-16
    # relative, the other fourteen sums kept every bit
    assert hashlib.sha256(np.array(sums).tobytes()).hexdigest() == (
        "02d435749af4553668e042c2eb60dcaebe8fae1485474b9d36ecadfc9ec179a9")


def test_selberg_far_nodes_digest(dataset):
    # both sides of the Selberg pair where its far field needs the most
    # nodes above the top node of F's plan on the same window (six): beta =
    # 18.922357127197234, delta = 2 over the first 300 shipped ordinates and
    # beta = 15.514545035292223, delta = 2 over the first 2,000; and at beta
    # = 1 and 47.3 on the six dense tables of test_zerodata, whose blocks
    # take the widened near field, Gauss nodes and zero-width blocks
    cases = [(dataset.ordinates[:300], 18.922357127197234, 2.0),
             (dataset.ordinates[:2000], 15.514545035292223, 2.0)]
    cases += [(g, beta, 1.0) for g in _dense_tables(dataset)
              for beta in (1.0, 47.3)]
    sums = []
    for g, beta, delta in cases:
        ds = ZeroDataset(ordinates=g, source="pin", t_max=float(g[-1]))
        pair = make_selberg_pair(beta, delta)
        sums += [weighted_pair_sum(ds, ds.t_max, R)
                 for R in (pair.majorant, pair.minorant)]
    assert len(sums) == 28
    assert hashlib.sha256(np.array(sums).tobytes()).hexdigest() == (
        "fbdaeb9b8b7cc601621caec55e3d0077aeb43d131c9bc52d84d54b801572404b")


def test_empirical_F_digest(dataset):
    # F over the shipped table on the grid 0:3:0.05 of pcx empirical
    # --falpha and at the 13 float alphas 0, 0.25, ..., 3, and the grid
    # 0:1.5:0.25 over the first 2,000 shipped ordinates
    T = dataset.t_max
    sub = ZeroDataset(ordinates=dataset.ordinates[:2000], source=dataset.source,
                      t_max=float(dataset.ordinates[1999]))
    digest = hashlib.sha256()
    digest.update(empirical_F(dataset, T, cli._parse_beta("0:3:0.05")).tobytes())
    digest.update(np.array([empirical_F(dataset, T, 0.25 * i)
                            for i in range(13)]).tobytes())
    digest.update(empirical_F(sub, sub.t_max,
                              cli._parse_beta("0:1.5:0.25")).tobytes())
    assert digest.hexdigest() == (
        "ce7369d4cd99a949a13cc71e152a0e554edb5f427da8a1d0461e905c8cdc894f")


def test_structure_function_digest(E):
    # build_E()'s companion zeros, phase table and Taylor coefficients at
    # 0, and the Fejer kernel's (integral, node sum) on the A and B nodes
    digest = hashlib.sha256()
    for a in (E.zeros_A, E.zeros_B, *E.phase):
        digest.update(a.tobytes())
    digest.update(np.array(E.B_odd + E.A_even).tobytes())
    fejer = BandlimitedFunction(2.0 * np.pi,
                                lambda x: np.sinc(np.asarray(x)) ** 2)
    for which in ("A_nodes", "B_nodes"):
        digest.update(np.array(db.quadrature_check(fejer, which)).tobytes())
    assert digest.hexdigest() == (
        "ebc07fb177a47633e690eb43cf929bf3bac1725100ba77c34f0d6f941dc6feed")
