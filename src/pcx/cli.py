"""Command-line surface: bound tables, kernel queries, thresholds, data.

Output is deterministic: identical configuration produces byte-identical
text.  Every CSV carries a header row and a '#'-prefixed provenance
footer echoing the version and the parsed configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, gaps, kernel, pcbounds, zerodata
from . import debranges
from .numerics import (DomainError, MonotonicityError, NoRoot, NonConvergence,
                       ParseError, RootMiss)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


def _json_cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(_fmt(x))


def _parse_beta(text):
    """Either a single value or an inclusive a:b:step grid."""
    if text is None:
        return None
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError("--beta range must look like a:b:step")
        a, b, step = (float(p) for p in parts)
        if step <= 0 or not a < b:
            raise DomainError("--beta range needs a < b and step > 0")
        n = int(round((b - a) / step))
        grid = [a + i * step for i in range(n + 1) if a + i * step <= b + step * 1e-9]
        return grid
    return [float(text)]


def _emit(args, command, columns, rows, footer_notes=()):
    config = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "plot") and v is not None)
    if args.format == "json":
        payload = {
            "command": command,
            "version": __version__,
            "config": config,
            "notes": list(footer_notes),
            "rows": [{c: _json_cell(r[c]) for c in columns} for r in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        cells = [columns] + [[_fmt(r[c]) for c in columns] for r in rows]
        if args.format == "csv":
            lines = [",".join(row) for row in cells]
        else:
            widths = [max(len(row[i]) for row in cells)
                      for i in range(len(columns))]
            lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths))
                     for row in cells]
        lines += [f"# {note}" for note in footer_notes]
        lines += [f"# pcx {__version__}", f"# config: {command} {config}"]
        text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if getattr(args, "plot", None):
        _emit_plot(args, command, columns)
    return EXIT_OK


def _emit_plot(args, command, columns):
    if not args.out or args.format != "csv":
        raise DomainError("--plot needs --out together with --format csv")
    data = os.path.basename(args.out)
    ycols = [c for c in columns if c != columns[0]]
    plots = ", \\\n  ".join(
        f"'{data}' using 1:{i + 2} with lines title '{c}'"
        for i, c in enumerate(ycols))
    script = (
        "set datafile separator ','\n"
        f"set xlabel '{columns[0]}'\n"
        f"set title 'pcx {command}'\n"
        "set key left top\n"
        f"plot {plots}\n"
    )
    with open(args.plot, "w", encoding="utf-8") as fh:
        fh.write(script)


def cmd_bounds(args):
    betas = _parse_beta(args.beta) or _parse_beta("0.1:3:0.1")
    if args.delta != 1.0 or args.epsilon is not None:
        eps = args.epsilon if args.epsilon is not None else 0.0
        delta = args.delta - eps
        rows = []
        for b in betas:
            lo = pcbounds.m_selberg(b, delta, -1).closed_form
            hi = pcbounds.m_selberg(b, delta, +1).closed_form
            rows.append({"beta": b, "lower": lo, "upper": hi,
                         "conjecture": pcbounds.conjecture_integral(b)})
        return _emit(args, "bounds", ["beta", "lower", "upper", "conjecture"],
                     rows, [f"dilation delta={delta:.10g}"])
    table = pcbounds.bound_table(betas, args.nstar)
    rows = [{
        "beta": r.beta, "lower": r.lower, "upper": r.upper,
        "lower_adjusted": r.lower_adjusted, "upper_adjusted": r.upper_adjusted,
        "conjecture": r.conjecture,
    } for r in table]
    return _emit(args, "bounds",
                 ["beta", "lower", "upper", "lower_adjusted",
                  "upper_adjusted", "conjecture"], rows)


def cmd_twodelta(args):
    if args.one_delta:
        value, _ = kernel.one_delta()
        return _emit(args, "twodelta", ["one_delta"], [{"one_delta": value}])
    betas = _parse_beta(args.beta)
    if not betas:
        raise DomainError("twodelta needs --beta")
    rows = []
    for b in betas:
        sol = kernel.two_delta(b)
        rows.append({"beta": b, "two_delta": sol.value,
                     "cap": 0.5 * sol.value, "k_bb": sol.k_bb,
                     "k_bmb": sol.k_bmb})
    return _emit(args, "twodelta",
                 ["beta", "two_delta", "cap", "k_bb", "k_bmb"], rows)


def cmd_gaps(args):
    tol = args.tol or 1e-6
    if args.profile:
        betas = _parse_beta(args.beta) or _parse_beta("0.55:0.75:0.005")
        rows = []
        for b in betas:
            p = gaps.lower_bound_profile(b)
            rows.append({"beta": b, "base_term": p.base_term,
                         "correction": p.correction, "total": p.total})
        return _emit(args, "gaps",
                     ["beta", "base_term", "correction", "total"], rows)
    rows = [
        {"method": "with_correction",
         "threshold": gaps.solve_threshold(True, tol)},
        {"method": "base_only",
         "threshold": gaps.solve_threshold(False, tol)},
        {"method": "interval_minorant",
         "threshold": gaps.selberg_threshold(tol)},
    ]
    return _emit(args, "gaps", ["method", "threshold"], rows)


def cmd_empirical(args):
    if not args.zeros:
        raise DomainError("empirical needs --zeros")
    ds = zerodata.load_zeros(args.zeros)
    if args.falpha:
        alphas = [float(a) for a in _parse_beta(args.falpha)]
        T = ds.t_max
        rows = [{"alpha": a, "f_alpha": zerodata.empirical_F(ds, T, a)}
                for a in alphas]
        sym = max(abs(zerodata.empirical_F(ds, T, a)
                      - zerodata.empirical_F(ds, T, -a))
                  for a in alphas) if alphas else 0.0
        return _emit(args, "empirical", ["alpha", "f_alpha"], rows,
                     [f"symmetry max |F(a)-F(-a)| = {sym:.3e}"])
    betas = _parse_beta(args.beta) or _parse_beta("0.5:2:0.1")
    rows_raw = zerodata.empirical_table(ds, ds.t_max, betas)
    rows = [{"beta": r.beta, "ratio": r.ratio, "conjecture": r.conjecture,
             "lower": r.lower, "upper": r.upper} for r in rows_raw]
    return _emit(args, "empirical",
                 ["beta", "ratio", "conjecture", "lower", "upper"], rows,
                 [f"zeros={len(ds)} t_max={ds.t_max:.6f}"])


def cmd_debranges(args):
    E = debranges.build_E()
    rows = [{"index": i + 1, "a_zero": a, "b_zero": b}
            for i, (a, b) in enumerate(zip(E.zeros_A, E.zeros_B[1:]))]
    report = debranges.verify_hb(E, samples=200)
    notes = [
        f"E(0) = {complex(E.E_eval(np.array([0.0]))[0]).real:.10g}",
        f"structure checks ok = {report['ok']}",
    ]
    return _emit(args, "debranges", ["index", "a_zero", "b_zero"], rows, notes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcx",
        description="Band-limited extremal bounds for pair correlation "
                    "statistics of critical-line zeros.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--beta", help="value or a:b:step grid")
        p.add_argument("--delta", type=float, default=1.0)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--nstar", type=float, default=1.0)
        p.add_argument("--zeros", help="ordinate table path")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json", "table"),
                       default="csv")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--plot", help="write a gnuplot script here")

    p = sub.add_parser("bounds", help="bound tables on a beta grid")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("twodelta", help="two-point extremal values")
    common(p)
    p.add_argument("--one-delta", action="store_true", dest="one_delta")
    p.set_defaults(func=cmd_twodelta)

    p = sub.add_parser("gaps", help="small-gap thresholds")
    common(p)
    p.add_argument("--profile", action="store_true")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("empirical", help="empirical statistics from data")
    common(p)
    p.add_argument("--falpha", help="alpha grid a:b:step for the pair sum")
    p.set_defaults(func=cmd_empirical)

    p = sub.add_parser("debranges", help="structure-function diagnostics")
    common(p)
    p.set_defaults(func=cmd_debranges)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        if isinstance(exc, (ParseError, MonotonicityError)):
            sys.stderr.write(f"pcx: data error: {exc}\n")
            return EXIT_IO
        sys.stderr.write(f"pcx: config error: {exc}\n")
        return EXIT_CONFIG
    except (NonConvergence, NoRoot, RootMiss) as exc:
        sys.stderr.write(f"pcx: numerical failure: {exc}\n")
        return EXIT_NUMERICS
    except OSError as exc:
        sys.stderr.write(f"pcx: i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
