"""Workload plans, operation executors and correctness checks.

A plan is a JSON-serialisable list of operations generated from a seed;
the worker process executes it against `pcx` and checks each result
against `refs.json` after the timed region.  Planning needs neither numpy
nor `pcx`; executing and checking import `pcx` lazily, after the worker
has timed its own set-up.

Every operation is either part of the workload's fixed script (`wall_s`)
or a single-point query (`query_p50_ms`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
SHIPPED = "data/zeta_zeros_1e4.txt"

WORKLOADS = {
    "analytic": "closed-form core: 6 CLI script ops + 200 single-beta "
                "`pcx bounds` queries per worker; pcbounds lattice series "
                "dominates, no zerodata or debranges work",
    "nodes": "de Branges node systems: 15 script ops (debranges CLI, 8 "
             "lambda_values + two_delta, 3 case3, 2 quadrature_check, "
             "verify_hb) + 4 lambda_values queries per worker",
    "pairs": "empirical pair sums: 6 script ops (empirical CLI, 3 full-n F, "
             "--falpha and weighted_pair_sum at n=2000) + 3 full-n F "
             "queries per worker; dense O(n^2) sums dominate",
}

# Sizes of one worker's share of a workload.  "tiny" exists for the
# benchmark's own tests; its CLI grids are prefixes of the full ones so the
# same references apply.
SCALES = {
    "full": {
        "bounds": "0.05:10:0.005", "twodelta": "0.5:40:0.5",
        "queries": {"analytic": 200, "nodes": 4, "pairs": 3},
        "n_lambda": 8, "n_case3": 3, "hb_samples": 1000,
        "n_F": 3, "F_n": 10000, "falpha": "0:1.5:0.25", "wps_n": 2000,
        "min_setups": 5,
    },
    "tiny": {
        "bounds": "0.05:0.5:0.005", "twodelta": "0.5:5:0.5",
        "queries": {"analytic": 5, "nodes": 1, "pairs": 1},
        "n_lambda": 1, "n_case3": 1, "hb_samples": 50,
        "n_F": 1, "F_n": 2000, "falpha": "0:0.5:0.25", "wps_n": 500,
        "min_setups": 1,
    },
}

# Tolerances.  The analytic columns and F(alpha) leave room for the planned
# closed-form and fast-summation rewrites; the named constants are the
# paper's published digits.
RTOL_ANALYTIC = 1e-9
ATOL_ANALYTIC = 1e-12
RTOL_F = 1e-10
RTOL_WPS = 1e-9
RTOL_QUAD = 1e-8
ONE_DELTA = (0.3274992, 1e-6)
THRESHOLDS = {"with_correction": (0.606894, 1e-4),
              "base_only": (0.607286, 1e-4),
              "interval_minorant": (0.8163, 5e-4)}
LAMBDA_TOL = 1e-8
ZEROS_TOL = 1e-12
NODE_SUM_TOL = 1e-6


def grid(spec):
    """The floats `pcx` builds for an a:b:step argument (same formula)."""
    a, b, step = (float(p) for p in spec.split(":"))
    n = int(round((b - a) / step))
    return [a + i * step for i in range(n + 1) if a + i * step <= b + step * 1e-9]


def load_refs(path=REFS_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_prefix(src, dst, n):
    """Copy the header and the first n ordinate lines of a zero table."""
    kept = 0
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for line in fin:
            if line.split("#", 1)[0].strip():
                if kept == n:
                    break
                kept += 1
            fout.write(line)
    if kept != n:
        raise ValueError(f"{src} holds fewer than {n} ordinates")


def calibration(workload):
    """A fixed numpy loop shaped like the workload's dominant work.

    It calls no `pcx` code, so its time measures only how fast the host
    runs that kind of work at the moment.  On a shared host that speed
    drifts by +/-25% within seconds, and the workload's own operations
    drift with it; dividing by the calibration time measured around each
    operation removes most of that drift (see run.py)."""
    import numpy as np
    if workload == "analytic":      # vector math on 20,001-term lattice windows
        u = np.linspace(-200.0, 200.0, 20_001) + 0.25

        def run():
            for _ in range(8):
                phi = 2.0 * np.pi * u
                np.sum((np.cos(phi) + 2.0 - np.sin(phi) / (np.pi * u)) / u ** 2)
    elif workload == "nodes":       # one-point complex evaluations, as in roots
        one = np.array([0.3 + 0.1j])

        def run():
            for _ in range(300):
                z = one * 1.0001
                np.sin(np.pi * z) / (np.pi * z) + np.cos(np.pi * z) / (1.0 - z ** 2)
    elif workload == "pairs":       # dense cosine pair sums over a chunk
        g = np.linspace(0.0, 3000.0, 2000)

        def run():
            d = g[np.newaxis, :] - g[:1024, np.newaxis]
            np.sum(np.cos(9.1 * d) * 4.0 / (4.0 + d ** 2))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return run


# --------------------------------------------------------------- planning

def _spaced_betas(rng, count, lo, hi, avoid, gap):
    out = []
    while len(out) < count:
        b = rng.uniform(lo, hi)
        if all(abs(b - z) >= gap for z in avoid):
            out.append(b)
    return out


def plan(workload, seed, index, scale, refs):
    """Operations for worker `index` of a run; same arguments, same plan."""
    sc = SCALES[scale]
    rng = random.Random(f"{seed}:{workload}:{index}")
    nq = sc["queries"][workload]
    ops = []

    def op(phase, name, **params):
        ops.append({"phase": phase, "name": name, **params})

    if workload == "analytic":
        op("script", "bounds_table", argv=["bounds", "--beta", sc["bounds"]])
        op("script", "qaspect_table",
           argv=["bounds", "--delta", "2", "--epsilon", "0.001"])
        op("script", "one_delta", argv=["twodelta", "--one-delta"])
        op("script", "twodelta_table", argv=["twodelta", "--beta", sc["twodelta"]])
        op("script", "gaps_thresholds", argv=["gaps", "--tol", "1e-8"])
        op("script", "gaps_profile", argv=["gaps", "--profile"])
        qbetas = refs["bounds_query"]["beta"]
        for k in rng.sample(range(len(qbetas)), nq):
            op("query", "bounds_point", argv=["bounds", "--beta", repr(qbetas[k])],
               ref=k)
    elif workload == "nodes":
        avoid = refs["zeros_A"] + refs["zeros_B"]
        op("script", "debranges_cli", argv=["debranges"])
        for b in _spaced_betas(rng, sc["n_lambda"], 0.3, 8.0, avoid, 1e-3):
            op("script", "lambda_two_delta", beta=b)
        a1 = refs["zeros_A"][0]
        for b in sorted(rng.uniform(0.05, a1 - 0.02) for _ in range(sc["n_case3"])):
            op("script", "case3", beta=b)
        op("script", "quadrature_check", which="A_nodes")
        op("script", "quadrature_check", which="B_nodes")
        op("script", "verify_hb", samples=sc["hb_samples"])
        for b in _spaced_betas(rng, nq, 0.3, 8.0, avoid, 1e-3):
            op("query", "lambda_values", beta=b)
    elif workload == "pairs":
        op("script", "empirical_table", n=10000,
           argv=["empirical", "--zeros", "{zeros}", "--beta", "0.5:3:0.05"])
        fkey = "F_full" if sc["F_n"] == 10000 else "F_2000"
        # below alpha = 0.5 the cosines are cheap (up to 2x faster at 0), so
        # seeded alphas there would move the timings rather than the values
        pool = [k for k, a in enumerate(refs[fkey]["alpha"]) if a >= 0.5]
        picks = rng.sample(pool, sc["n_F"] + nq)
        for k in picks[:sc["n_F"]]:
            op("script", "empirical_F", n=sc["F_n"], ref=[fkey, k])
        op("script", "falpha", n=2000,
           argv=["empirical", "--zeros", "{zeros}", "--falpha", sc["falpha"]])
        op("script", "weighted_pair_sum", n=sc["wps_n"])
        for k in picks[sc["n_F"]:]:
            op("query", "empirical_F", n=sc["F_n"], ref=[fkey, k])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def prefix_sizes(ops):
    """Zero-table prefixes (other than the shipped table) a plan reads."""
    return sorted({o["n"] for o in ops if "n" in o} - {10000})


# -------------------------------------------------------------- execution

class Context:
    """Per-worker state shared by executors and checks: references,
    zero-table paths and the datasets loaded from them."""

    def __init__(self, files, refs, shipped):
        self.files = files
        self.refs = refs
        self.datasets = {10000: shipped}

    def dataset(self, n):
        from pcx import zerodata
        if n not in self.datasets:
            self.datasets[n] = zerodata.load_zeros(self.files[str(n)])
        return self.datasets[n]

    def argv(self, op):
        path = self.files[str(op.get("n", 10000))]
        return [a.format(zeros=path) for a in op["argv"]]


def fejer():
    import numpy as np
    from pcx.beurling import BandlimitedFunction
    return BandlimitedFunction(2 * math.pi, lambda x: np.sinc(np.asarray(x)) ** 2,
                               None, "fejer")


def execute(op, ctx):
    """Run one operation; the return value is what the check inspects."""
    from pcx import cli, debranges, kernel, zerodata
    from pcx.beurling import make_selberg_pair

    name = op["name"]
    if "argv" in op:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(ctx.argv(op))
        return rc, buf.getvalue()
    if name == "lambda_two_delta":
        lp, lm = debranges.lambda_values(op["beta"])
        return lp, lm, kernel.two_delta(op["beta"]).value
    if name == "lambda_values":
        return debranges.lambda_values(op["beta"])
    if name == "case3":
        return debranges.case3_majorant(op["beta"])
    if name == "quadrature_check":
        return debranges.quadrature_check(fejer(), op["which"])
    if name == "verify_hb":
        return debranges.verify_hb(samples=op["samples"])
    if name == "empirical_F":
        ds = ctx.dataset(op["n"])
        table, k = op["ref"]
        return zerodata.empirical_F(ds, ds.t_max, ctx.refs[table]["alpha"][k])
    if name == "weighted_pair_sum":
        ds = ctx.dataset(op["n"])
        return zerodata.weighted_pair_sum(ds, ds.t_max, make_selberg_pair(1.0).majorant)
    raise ValueError(f"unknown operation {name!r}")


# ----------------------------------------------------------------- checks

def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= rtol * abs(want) + atol


def _printed_close(got, want, rtol, atol=ATOL_ANALYTIC):
    """`pcx` prints 10 significant digits: allow one unit in the last one."""
    ulp = 10.0 ** (math.floor(math.log10(abs(want))) - 9) if want else 0.0
    return _close(got, want, rtol, atol + ulp)


def _csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]
            if ln and not ln.startswith("#")]
    notes = [ln[2:] for ln in lines if ln.startswith("# ")]
    return rows, notes


def _table(rows, ref, n, columns, rtol=RTOL_ANALYTIC):
    """Compare printed rows to the first n reference rows, column by column."""
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}"
    for i, row in enumerate(rows):
        for col, ref_col in columns.items():
            got, want = float(row[col]), ref[ref_col][i]
            if not _printed_close(got, want, rtol):
                return f"row {i} {col}: {got!r} vs reference {want!r}"
    return None


def check(op, result, refs):
    """None when the result matches its reference, else a reason."""
    name = op["name"]
    if "argv" in op:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        rows, notes = _csv(text)
    if name == "bounds_table":
        n = len(grid(op["argv"][2]))
        return _table(rows, refs["bounds"], n,
                      {"beta": "beta", "lower": "lower", "upper": "upper",
                       "lower_adjusted": "lower", "upper_adjusted": "upper",
                       "conjecture": "conjecture"})
    if name == "bounds_point":
        ref = refs["bounds_query"]
        one = {c: [ref[c][op["ref"]]] for c in ref}
        return _table(rows, one, 1,
                      {"beta": "beta", "lower": "lower", "upper": "upper",
                       "lower_adjusted": "lower", "upper_adjusted": "upper",
                       "conjecture": "conjecture"})
    if name == "qaspect_table":
        ref = refs["qaspect"]
        return _table(rows, ref, len(ref["beta"]),
                      {c: c for c in ("beta", "lower", "upper", "conjecture")})
    if name == "twodelta_table":
        n = len(grid(op["argv"][2]))
        return _table(rows, refs["twodelta"], n,
                      {c: c for c in ("beta", "two_delta", "cap", "k_bb", "k_bmb")})
    if name == "gaps_profile":
        ref = refs["gaps_profile"]
        return _table(rows, ref, len(ref["beta"]),
                      {c: c for c in ("beta", "base_term", "correction", "total")})
    if name == "one_delta":
        want, tol = ONE_DELTA
        got = float(rows[0]["one_delta"])
        return None if abs(got - want) <= tol else f"one-delta {got!r}"
    if name == "gaps_thresholds":
        got = {r["method"]: float(r["threshold"]) for r in rows}
        for method, (want, tol) in THRESHOLDS.items():
            if method not in got or abs(got[method] - want) > tol:
                return f"threshold {method}: {got.get(method)!r}"
        return None
    if name == "debranges_cli":
        n = len(refs["zeros_A"])
        ref = {"index": list(range(1, n + 1)), "a_zero": refs["zeros_A"],
               "b_zero": refs["zeros_B"][1:]}
        if "structure checks ok = True" not in notes:
            return "structure checks not ok"
        bad = _table(rows, ref, n, {c: c for c in ref}, rtol=0.0)
        return bad or _check_zeros(refs)
    if name == "empirical_table":
        ref = refs["empirical"]
        bad = _table(rows, ref, len(ref["beta"]),
                     {c: c for c in ("beta", "conjecture", "lower", "upper")})
        if bad:
            return bad
        for row, count in zip(rows, ref["count"]):
            if round(float(row["ratio"]) * ref["n"]) != count:
                return f"beta {row['beta']}: ratio {row['ratio']} vs count {count}"
        return None
    if name == "falpha":
        ref = refs["F_2000"]
        n = len(grid(op["argv"][4]))
        return _table(rows, {"alpha": ref["alpha"], "f_alpha": ref["value"]}, n,
                      {"alpha": "alpha", "f_alpha": "f_alpha"}, rtol=RTOL_F)
    if name == "empirical_F":
        table, k = op["ref"]
        want = refs[table]["value"][k]
        return None if _close(result, want, RTOL_F) else f"F = {result!r} vs {want!r}"
    if name == "weighted_pair_sum":
        want = refs["wps"][str(op["n"])]
        return None if _close(result, want, RTOL_WPS) else f"sum {result!r} vs {want!r}"
    if name in ("lambda_two_delta", "lambda_values"):
        if name == "lambda_values":
            from pcx import kernel
            lp, lm = result
            delta = kernel.two_delta(op["beta"]).value
        else:
            lp, lm, delta = result
        err = abs((lp - lm) - delta)
        return None if err <= LAMBDA_TOL else f"|(l+ - l-) - Delta| = {err:.2e}"
    if name == "case3":
        return _check_case3(op["beta"], result)
    if name == "quadrature_check":
        integral, node_sum = result
        if abs(integral - node_sum) > NODE_SUM_TOL:
            return f"integral {integral!r} vs node sum {node_sum!r}"
        want = refs["quadrature_integral"]
        return None if _close(integral, want, RTOL_QUAD) else f"integral {integral!r}"
    if name == "verify_hb":
        ok = result["ok"] and result["samples"] == op["samples"]
        return None if ok else "structure-function inequalities violated"
    raise ValueError(f"no check for {name!r}")


def _check_zeros(refs):
    """The cached structure function's companion zeros, full precision."""
    import numpy as np
    from pcx import debranges
    E = debranges.build_E()
    for got, key in ((E.zeros_A, "zeros_A"), (E.zeros_B, "zeros_B")):
        want = np.array(refs[key])
        if got.shape != want.shape or np.max(np.abs(got - want)) > ZEROS_TOL:
            return f"{key} differ from the reference by more than {ZEROS_TOL}"
    return None


def _check_case3(beta, Q):
    """Q(+/-beta) = 1 and Q majorizes the indicator of [-beta, beta]."""
    import numpy as np
    ends = Q.time_eval(np.array([beta, -beta]))
    if np.max(np.abs(ends - 1.0)) > 1e-9:
        return f"Q(+/-beta) = {ends.tolist()}"
    xs = np.linspace(-30.0, 30.0, 4001)
    chi = (np.abs(xs) <= beta).astype(float)
    if not np.all(Q.time_eval(xs) >= chi - 1e-10):
        return "Q does not majorize the indicator"
    return None
