"""Command-line surface: bound tables, kernel queries, thresholds, data.

Output is deterministic: identical configuration produces byte-identical
text.  Every CSV carries a header row and a '#'-prefixed provenance
footer echoing the version and the parsed configuration.

Each table subcommand computes its columns in one array pass over its
grid (pcbounds.bound_table, kernel.two_delta, gaps.lower_bound_profile,
zerodata.empirical_table) and hands them to the one emitter, _emit, as a
mapping from column name to column; the emitter builds the row tuples
once, with one zip of the columns' lists.  On the 1,991 rows of six cells
of `pcx bounds --beta 0.05:10:0.005` that takes 0.3 ms, and the %.10g
formatting of the cells about 5 ms (2-core x86 host).

The argument parser is built once per process, on the first call of main,
and reused: building it costs more than a one-beta `pcx bounds` itself.
It holds no command function; main looks up cmd_<subcommand> by name at
each call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
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

# longest a:b:step grid accepted; a longer one is a typo, not a table
MAX_GRID_STEPS = 10 ** 6


@functools.cache
def _spec(kind):
    """The %-format of a cell of this type: a str as it is, an int or a
    numpy integer as an integer, anything else as a float to 10
    significant digits."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.10g"


@functools.cache
def _row_format(kinds):
    """One %-format for a CSV row whose cells have these types."""
    return ",".join(map(_spec, kinds))


def _fmt(x):
    return _spec(type(x)) % x


def _json_cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(_fmt(x))


def _parse_beta(text, option="--beta"):
    """Either a single value or an inclusive a:b:step grid, all finite."""
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise DomainError(f"{option} range must look like a:b:step")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{option} must hold finite numbers")
    if len(values) == 1:
        return values
    a, b, step = values
    if step <= 0 or not a < b:
        raise DomainError(f"{option} range needs a < b and step > 0")
    steps = (b - a) / step
    if not steps <= MAX_GRID_STEPS:
        raise DomainError(f"{option} range has more than {MAX_GRID_STEPS} steps")
    n = int(round(steps))
    return [a + i * step for i in range(n + 1) if a + i * step <= b + step * 1e-9]


def _check_finite(columns, values):
    """NonConvergence naming the column and row of the first number that
    is not finite; str cells are skipped.  A table of numbers alone takes
    one C-level pass (0.35 ms on 1,991 rows of six cells, 2-core x86
    host)."""
    try:
        if all(map(math.isfinite, itertools.chain.from_iterable(values))):
            return
    except TypeError:  # a str cell: look at each cell
        pass
    for i, row in enumerate(values, start=1):
        for column, v in zip(columns, row):
            if not (isinstance(v, str) or math.isfinite(v)):
                raise NonConvergence(f"column {column} is {v} in row {i} "
                                     f"({columns[0]}={_fmt(row[0])})")


def _emit(args, command, columns, table, footer_notes=()):
    """Write the columns of table, a mapping from each name in columns to
    the sequence of its cells (an array or a list), in args.format."""
    values = list(zip(*[table[c].tolist() if isinstance(table[c], np.ndarray)
                        else table[c] for c in columns]))
    _check_finite(columns, values)
    config = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items())
        if k not in ("out", "plot") and v is not None)
    if args.format == "json":
        payload = {
            "command": command,
            "version": __version__,
            "config": config,
            "notes": list(footer_notes),
            "rows": [{c: _json_cell(v) for c, v in zip(columns, row)}
                     for row in values],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        if args.format == "csv":
            lines = [",".join(columns)] + [
                _row_format(tuple(map(type, v))) % v for v in values]
        else:
            cells = [columns] + [list(map(_fmt, v)) for v in values]
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
    for option, value in (("--delta", args.delta), ("--epsilon", args.epsilon)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{option} must be finite")
    dilated = args.delta != 1.0 or args.epsilon is not None
    if dilated and args.nstar != 1.0:
        raise DomainError("--nstar excludes --delta and --epsilon")
    betas = _parse_beta(args.beta) or _parse_beta("0.1:3:0.1")
    delta = args.delta - (args.epsilon or 0.0)
    table = vars(pcbounds.bound_table(betas, args.nstar, delta))
    if dilated:
        return _emit(args, "bounds", ["beta", "lower", "upper", "conjecture"],
                     table, [f"dilation delta={delta:.10g}"])
    return _emit(args, "bounds",
                 ["beta", "lower", "upper", "lower_adjusted",
                  "upper_adjusted", "conjecture"], table)


def cmd_twodelta(args):
    if args.one_delta and args.beta is not None:
        raise DomainError("--one-delta and --beta exclude each other")
    if args.one_delta:
        value, _ = kernel.one_delta()
        return _emit(args, "twodelta", ["one_delta"], {"one_delta": [value]})
    betas = _parse_beta(args.beta)
    if not betas:
        raise DomainError("twodelta needs --beta")
    sol = kernel.two_delta(np.array(betas))
    return _emit(args, "twodelta",
                 ["beta", "two_delta", "cap", "k_bb", "k_bmb"],
                 {"beta": betas, "two_delta": sol.value,
                  "cap": 0.5 * sol.value, "k_bb": sol.k_bb,
                  "k_bmb": sol.k_bmb})


def cmd_gaps(args):
    if args.profile and args.tol is not None:
        raise DomainError("--profile and --tol exclude each other")
    if not args.profile and args.beta is not None:
        raise DomainError("--beta needs --profile")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise DomainError("--tol must be a positive finite number")
    tol = 1e-6 if args.tol is None else args.tol
    if args.profile:
        betas = _parse_beta(args.beta) or _parse_beta("0.55:0.75:0.005")
        p = gaps.lower_bound_profile(np.array(betas))
        return _emit(args, "gaps",
                     ["beta", "base_term", "correction", "total"],
                     {"beta": betas, "base_term": p.base_term,
                      "correction": p.correction, "total": p.total})
    return _emit(args, "gaps", ["method", "threshold"], {
        "method": ["with_correction", "base_only", "interval_minorant"],
        "threshold": [gaps.solve_threshold(True, tol),
                      gaps.solve_threshold(False, tol),
                      pcbounds.positivity_threshold(tol)]})


def cmd_empirical(args):
    if args.falpha is not None and args.beta is not None:
        raise DomainError("--falpha and --beta exclude each other")
    if not args.zeros:
        raise DomainError("empirical needs --zeros")
    ds = zerodata.load_zeros(args.zeros)
    if args.falpha:
        alphas = _parse_beta(args.falpha, "--falpha")
        f_alpha = [zerodata.empirical_F(ds, ds.t_max, a) for a in alphas]
        return _emit(args, "empirical", ["alpha", "f_alpha"],
                     {"alpha": alphas, "f_alpha": f_alpha})
    betas = _parse_beta(args.beta) or _parse_beta("0.5:2:0.1")
    return _emit(args, "empirical",
                 ["beta", "ratio", "conjecture", "lower", "upper"],
                 vars(zerodata.empirical_table(ds, ds.t_max, betas)),
                 [f"zeros={len(ds)} t_max={ds.t_max:.6f}"])


def cmd_debranges(args):
    E = debranges.build_E()
    count = len(E.zeros_A)
    report = debranges.verify_hb(samples=200)
    notes = [
        f"E(0) = {complex(E.E_eval(0.0)).real:.10g}",
        f"structure checks ok = {report['ok']}",
    ]
    return _emit(args, "debranges", ["index", "a_zero", "b_zero"],
                 {"index": range(1, count + 1), "a_zero": E.zeros_A,
                  "b_zero": E.zeros_B[1:count + 1]}, notes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcx",
        description="Band-limited extremal bounds for pair correlation "
                    "statistics of critical-line zeros.")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--beta": dict(help="value or a:b:step grid"),
        "--delta": dict(type=float, default=1.0),
        "--epsilon": dict(type=float),
        "--nstar": dict(type=float, default=1.0),
        "--zeros": dict(help="ordinate table path"),
        "--tol": dict(type=float),
        "--one-delta": dict(action="store_true"),
        "--profile": dict(action="store_true"),
        "--falpha": dict(help="alpha grid a:b:step for the pair sum"),
    }
    # each subcommand takes only the options it reads
    for name, help_text, flags in (
            ("bounds", "bound tables on a beta grid",
             ("--beta", "--delta", "--epsilon", "--nstar")),
            ("twodelta", "two-point extremal values",
             ("--beta", "--one-delta")),
            ("gaps", "small-gap thresholds",
             ("--beta", "--tol", "--profile")),
            ("empirical", "empirical statistics from data",
             ("--zeros", "--beta", "--falpha")),
            ("debranges", "structure-function diagnostics", ())):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json", "table"),
                       default="csv")
        p.add_argument("--plot", help="write a gnuplot script here")

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
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
