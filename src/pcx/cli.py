"""Command-line surface: bound tables, kernel queries, thresholds, data.

Output is deterministic: identical configuration produces byte-identical
text.  Every CSV carries a header row and a '#'-prefixed provenance
footer echoing the version and the parsed configuration.

A table is arrays from the parser to the emitter.  _parse_beta gives
its grid as one float array, each table subcommand computes its columns
in one array pass over it (pcbounds.bound_table, kernel.two_delta,
gaps.lower_bound_profile, and for `pcx empirical` bound_table beside
zerodata.count_pairs), and hands them to the one emitter, _emit, as a
mapping from column name to array.  Each column has one %-format,
from its dtype.  The emitter checks every float column with one
np.isfinite pass before it writes anything, and then converts, formats
and writes CSV a block of _CSV_BLOCK rows at a time, so that no list of
every row is held: the 10^6 rows of `pcx twodelta --beta
0.5:1e6:0.9999995 --out F` take 1.9-2.4 s in process and peak at 73 MB
RSS, where a grid built as a list of floats and cells converted twice
took 2.8-3.5 s and 110 MB, and building the whole text 542 MB (2-core
x86 host).  JSON and table output, whose layout needs every row, are
built whole, each cell converted once.

main parses argv in one walk against _OPTIONS, the table of the options
each subcommand reads and the value each takes, with the help text
(_SYNOPSIS) beside it; anything the table does not allow, an abbreviated
option included, is a config error that names it.  Nothing is built per
process, and per call only the namespace: argparse's parse took 49-59 us
of each one-beta `pcx bounds` (2-3 us now), and building its parsers
about 6-7 ms of a process's first call (2-core x86 host, a slow phase).
main looks up cmd_<subcommand> by name at each call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import types

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
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise DomainError(
            f"{option} must hold numbers, not {text!r}") from None
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
    table = vars(pcbounds.bound_table(betas))
    # T is t_max, so the window is the whole table
    ratio = zerodata.count_pairs(ds, ds.t_max, betas) / len(ds)
    return _emit(args, "empirical",
                 ["beta", "ratio", "conjecture", "lower", "upper"],
                 dict(table, ratio=ratio),
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


# the options each subcommand reads, and the value each takes: a float,
# a text value (str) or none (bool, a flag); main walks argv against it
_OPTIONS = {
    "bounds": {"--beta": str, "--delta": float, "--epsilon": float,
               "--nstar": float},
    "twodelta": {"--beta": str, "--one-delta": bool},
    "gaps": {"--beta": str, "--tol": float, "--profile": bool},
    "empirical": {"--zeros": str, "--beta": str, "--falpha": str},
    "debranges": {},
}
# taken by every subcommand
_COMMON = {"--out": str, "--format": str, "--plot": str}
_DEFAULTS = {"--delta": 1.0, "--nstar": 1.0, "--format": "csv"}
# the synopsis of each subcommand and of the common options: pcx --help
# prints them as the README's CLI block, pcx <subcommand> --help its own
_SYNOPSIS = {
    "bounds": "[--beta a:b:step | --beta v] "
              "[[--delta D] [--epsilon E] | --nstar R]",
    "twodelta": "(--beta a:b:step | --beta v | --one-delta)",
    "gaps": "[--tol T | --profile [--beta a:b:step | --beta v]]",
    "empirical": "--zeros PATH "
                 "[--beta a:b:step | --beta v | --falpha a:b:step]",
    "debranges": "",
}
_COMMON_SYNOPSIS = "[--out PATH] [--format csv|json|table] [--plot GP]"
_HELP = ("-h", "--help")
# per subcommand: every option it takes, and the attributes of its
# namespace before argv sets any (None, False for a flag, or the default)
_TAKES = {c: {**o, **_COMMON} for c, o in _OPTIONS.items()}
_START = {c: {"command": c} | {
              k[2:].replace("-", "_"):
              _DEFAULTS.get(k, False if kind is bool else None)
              for k, kind in takes.items()}
          for c, takes in _TAKES.items()}


def _usage(commands):
    """The synopsis lines of commands, then the common options."""
    lines = [f"pcx {c:<9} {_SYNOPSIS[c]}".rstrip() for c in commands]
    lines += ["", f"every subcommand also takes {_COMMON_SYNOPSIS}"]
    return "\n".join(lines) + "\n"


def _parse(argv):
    """The namespace of argv, with the attributes of _START[subcommand],
    or the help text when argv asks for it.  An option is --opt v or
    --opt=v, its value may start with '-', and the last of a repeated
    option wins; anything the table does not allow is a DomainError
    naming it."""
    if not argv:
        raise DomainError(f"missing subcommand (one of {', '.join(_OPTIONS)})")
    command = argv[0]
    if command in _HELP:
        return _usage(_OPTIONS)
    takes = _TAKES.get(command)
    if takes is None:
        raise DomainError(f"unknown subcommand {command!r} "
                          f"(one of {', '.join(_OPTIONS)})")
    values = dict(_START[command])
    i, n = 1, len(argv)
    while i < n:
        arg = argv[i]
        i += 1
        if arg in _HELP:
            return _usage([command])
        name, eq, value = arg.partition("=")
        kind = takes.get(name)
        if kind is None:
            raise DomainError(f"{name} is not an option of pcx {command}")
        if kind is bool:
            if eq:
                raise DomainError(f"{name} takes no value")
            value = True
        elif not eq:
            if i == n:
                raise DomainError(f"{name} needs a value")
            value = argv[i]
            i += 1
        if kind is float:
            try:
                value = float(value)
            except ValueError:
                raise DomainError(
                    f"{name} must be a number, not {value!r}") from None
        values[name[2:].replace("-", "_")] = value
    if values["format"] not in ("csv", "json", "table"):
        raise DomainError(f"--format must be csv, json or table, "
                          f"not {values['format']!r}")
    return types.SimpleNamespace(**values)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
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
