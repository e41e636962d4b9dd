"""Command-line surface: bound tables, kernel queries, thresholds, data.

Output is deterministic: identical configuration produces byte-identical
text.  Every CSV carries a header row and a '#'-prefixed provenance
footer echoing the version and the parsed configuration.

A table is arrays from the parser to the emitter.  _parse_beta gives
its grid as one float array, each table subcommand computes its columns
in one array pass over it (pcbounds.bound_table, kernel.two_delta,
gaps.lower_bound_profile, zerodata.empirical_table), and hands them to
the one emitter, _emit, as a mapping from column name to array.  Each
column has one %-format, from its dtype.  The emitter checks every
float column with one np.isfinite pass before it writes anything, and
then converts, formats and writes CSV a block of _CSV_BLOCK rows at a
time, so that no list of every row is held: the 10^6 rows of `pcx
twodelta --beta 0.5:1e6:0.9999995 --out F` take 1.9-2.4 s in process
and peak at 73 MB RSS, where a grid built as a list of floats and cells
converted twice took 2.8-3.5 s and 110 MB, and building the whole text
542 MB (2-core x86 host).  JSON and table output, whose layout needs
every row, are built whole, each cell converted once.

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
# CSV rows formatted and written at a time
_CSV_BLOCK = 4096


def _spec(dtype):
    """The %-format of the cells of a column of this dtype: a str as it
    is, an integer as an integer, anything else as a float to 10
    significant digits."""
    if dtype.kind == "U":
        return "%s"
    if dtype.kind in "iu":
        return "%d"
    return "%.10g"


def _parse_beta(text, option="--beta"):
    """Either a single value or an inclusive a:b:step grid, all finite, as
    a float array."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise DomainError(f"{option} range must look like a:b:step")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{option} must hold finite numbers")
    if len(values) == 1:
        return np.array(values)
    a, b, step = values
    if step <= 0 or not a < b:
        raise DomainError(f"{option} range needs a < b and step > 0")
    steps = (b - a) / step
    if not steps <= MAX_GRID_STEPS:
        raise DomainError(f"{option} range has more than {MAX_GRID_STEPS} steps")
    # a + i * step, each point rounded once as the scalar sum is
    grid = a + np.arange(int(round(steps)) + 1) * step
    return grid[grid <= b + step * 1e-9]


def _check_finite(columns, cols):
    """NonConvergence naming the column and row of the first number that
    is not finite: one np.isfinite pass over each float column, counted
    by np.count_nonzero (0.7 us on a one-row column, against 1.6 us for
    .all(), 2-core x86 host)."""
    for column, c in zip(columns, cols):
        if c.dtype.kind != "f":
            continue
        finite = np.isfinite(c)
        if np.count_nonzero(finite) < len(c):
            i = int(np.argmin(finite))
            raise NonConvergence(
                f"column {column} is {c[i]} in row {i + 1} "
                f"({columns[0]}={_spec(cols[0].dtype) % cols[0][i]})")


def _emit(args, command, columns, table, footer_notes=()):
    """Write the columns of table, a mapping from each name in columns to
    an array of its cells, all of one length, in args.format; each
    column has one format, from its dtype (_spec)."""
    cols = [np.asarray(table[c]) for c in columns]
    _check_finite(columns, cols)
    specs = [_spec(c.dtype) for c in cols]
    config = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items())
        if k not in ("out", "plot") and v is not None)
    footer = [f"# {note}" for note in footer_notes] + [
        f"# pcx {__version__}", f"# config: {command} {config}"]
    if args.format == "csv":
        # a block of _CSV_BLOCK rows at a time, so that no list of every
        # row is held
        row = ",".join(specs) + "\n"
        rows = ("".join([row % v for v in zip(
                    *[c[i:i + _CSV_BLOCK].tolist() for c in cols])])
                for i in range(0, len(cols[0]), _CSV_BLOCK))
        chunks = itertools.chain([",".join(columns) + "\n"], rows,
                                 ["\n".join(footer) + "\n"])
    else:
        values = [c.tolist() for c in cols]
        cells = [[spec % v for v in c] for spec, c in zip(specs, values)]
        if args.format == "json":
            # a float as its text shows it
            values = [list(map(float, text)) if spec == "%.10g" else c
                      for spec, c, text in zip(specs, values, cells)]
            payload = {
                "command": command,
                "version": __version__,
                "config": config,
                "notes": list(footer_notes),
                "rows": [dict(zip(columns, v)) for v in zip(*values)],
            }
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            widths = [max(map(len, [c] + text))
                      for c, text in zip(columns, cells)]
            lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths))
                     for row in itertools.chain([columns], zip(*cells))]
            text = "\n".join(lines + footer) + "\n"
        chunks = [text]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)

    if args.plot:
        _emit_plot(args, command, columns)
    return EXIT_OK


def _emit_plot(args, command, columns):
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
    betas = _parse_beta("0.1:3:0.1" if args.beta is None else args.beta)
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
        return _emit(args, "twodelta", ["one_delta"],
                     {"one_delta": np.array([value])})
    if args.beta is None:
        raise DomainError("twodelta needs --beta")
    betas = _parse_beta(args.beta)
    sol = kernel.two_delta(betas)
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
        betas = _parse_beta("0.55:0.75:0.005" if args.beta is None
                            else args.beta)
        p = gaps.lower_bound_profile(betas)
        return _emit(args, "gaps",
                     ["beta", "base_term", "correction", "total"],
                     {"beta": betas, "base_term": p.base_term,
                      "correction": p.correction, "total": p.total})
    return _emit(args, "gaps", ["method", "threshold"], {
        "method": np.array(["with_correction", "base_only",
                            "interval_minorant"]),
        "threshold": np.array([gaps.solve_threshold(True, tol),
                               gaps.solve_threshold(False, tol),
                               pcbounds.positivity_threshold(tol)])})


def cmd_empirical(args):
    if args.falpha is not None and args.beta is not None:
        raise DomainError("--falpha and --beta exclude each other")
    if not args.zeros:
        raise DomainError("empirical needs --zeros")
    ds = zerodata.load_zeros(args.zeros)
    if args.falpha is not None:
        alphas = _parse_beta(args.falpha, "--falpha")
        # one call: the pair-sum work that does not depend on alpha is
        # shared by the whole grid
        f_alpha = zerodata.empirical_F(ds, ds.t_max, alphas)
        return _emit(args, "empirical", ["alpha", "f_alpha"],
                     {"alpha": alphas, "f_alpha": f_alpha})
    betas = _parse_beta("0.5:2:0.1" if args.beta is None else args.beta)
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
                 {"index": np.arange(1, count + 1), "a_zero": E.zeros_A,
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
        # checked before the command runs, so that a misused --plot
        # writes nothing
        if args.plot and (not args.out or args.format != "csv"):
            raise DomainError("--plot needs --out together with --format csv")
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
