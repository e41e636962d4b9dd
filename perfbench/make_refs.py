"""Regenerate `perfbench/refs.json`, the references the benchmark checks.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_refs.py

It evaluates `pcx` itself at full precision (a few minutes: 61 direct
O(n^2) pair sums over 10^4 zeros), so it records what the code computes at
the commit it runs on.  Regenerate only when a change is meant to alter
results, and say so.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def main():
    from pcx import debranges, gaps, kernel, pcbounds, zerodata
    from pcx.beurling import make_selberg_pair

    refs = {}

    def bound_rows(betas, delta=1.0):
        rows = {"beta": [], "lower": [], "upper": [], "conjecture": []}
        for b in betas:
            rows["beta"].append(b)
            rows["lower"].append(pcbounds.m_selberg(b, delta, -1).closed_form)
            rows["upper"].append(pcbounds.m_selberg(b, delta, +1).closed_form)
            rows["conjecture"].append(pcbounds.conjecture_integral(b))
        return rows

    refs["bounds"] = bound_rows(W.grid(W.SCALES["full"]["bounds"]))
    # single-beta queries sit between the script's grid points
    refs["bounds_query"] = bound_rows([(41 + 4 * k) / 400 for k in range(990)])
    refs["qaspect"] = bound_rows(W.grid("0.1:3:0.1"), delta=2.0 - 0.001)

    td = {"beta": [], "two_delta": [], "cap": [], "k_bb": [], "k_bmb": []}
    for b in W.grid(W.SCALES["full"]["twodelta"]):
        sol = kernel.two_delta(b)
        for key, val in (("beta", b), ("two_delta", sol.value),
                         ("cap", 0.5 * sol.value), ("k_bb", sol.k_bb),
                         ("k_bmb", sol.k_bmb)):
            td[key].append(val)
    refs["twodelta"] = td

    gp = {"beta": [], "base_term": [], "correction": [], "total": []}
    for b in W.grid("0.55:0.75:0.005"):
        p = gaps.lower_bound_profile(b)
        for key, val in (("beta", b), ("base_term", p.base_term),
                         ("correction", p.correction), ("total", p.total)):
            gp[key].append(val)
    refs["gaps_profile"] = gp

    E = debranges.build_E()
    refs["zeros_A"] = E.zeros_A.tolist()
    refs["zeros_B"] = E.zeros_B.tolist()
    integral, _ = debranges.quadrature_check(W.fejer(), "A_nodes", E=E)
    refs["quadrature_integral"] = integral

    ds = zerodata.load_zeros(W.SHIPPED)
    T = ds.t_max
    emp = bound_rows(W.grid("0.5:3:0.05"))
    emp["count"] = [zerodata.count_pairs_brute(ds, T, b) for b in emp["beta"]]
    emp["n"] = len(ds)
    refs["empirical"] = emp

    alphas = [k / 20 for k in range(61)]
    refs["F_full"] = {"alpha": alphas,
                      "value": [zerodata.empirical_F(ds, T, a) for a in alphas]}

    with tempfile.TemporaryDirectory() as tmp:
        sets = {}
        for n in (2000, 500):
            path = Path(tmp) / f"zeros_{n}.txt"
            W.write_prefix(W.SHIPPED, path, n)
            sets[n] = zerodata.load_zeros(path)
    d2 = sets[2000]
    falpha = W.grid(W.SCALES["full"]["falpha"])
    refs["F_2000"] = {"alpha": falpha,
                      "value": [zerodata.empirical_F(d2, d2.t_max, a) for a in falpha]}
    majorant = make_selberg_pair(1.0).majorant
    refs["wps"] = {str(n): zerodata.weighted_pair_sum(d, d.t_max, majorant)
                   for n, d in sets.items()}

    for key, val in refs.items():
        if isinstance(val, dict):
            for col in val.values():
                if isinstance(col, list) and not all(map(math.isfinite, col)):
                    raise SystemExit(f"non-finite reference in {key}")
    with open(W.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
