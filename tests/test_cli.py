import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcx import cli


def run(capsys, args):
    code = cli.main(args)
    return code, capsys.readouterr().out


def test_bounds_row_count(capsys):
    code, out = run(capsys, ["bounds", "--beta", "0.1:3:0.01", "--nstar", "1"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 1 + 291  # header plus inclusive grid


def test_bounds_csv_shape(capsys):
    code, out = run(capsys, ["bounds", "--beta", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta,lower,upper,lower_adjusted,upper_adjusted,conjecture"
    assert lines[1].startswith("1,0.1160060748,1.014684891,")
    assert any(l.startswith("# pcx ") for l in lines)
    assert any(l.startswith("# config: bounds") for l in lines)


def test_bounds_json(capsys):
    code, out = run(capsys, ["bounds", "--beta", "1", "--format", "json"])
    payload = json.loads(out)
    assert payload["command"] == "bounds"
    assert payload["rows"][0]["beta"] == 1.0


def test_twodelta_one_delta(capsys):
    code, out = run(capsys, ["twodelta", "--one-delta"])
    assert code == 0
    assert "0.3274992963" in out


def test_twodelta_in_patch_disc(capsys):
    # beta = 0.225 lies within 1e-4 of the kernel's removable point
    code, out = run(capsys, ["twodelta", "--beta", "0.225"])
    assert code == 0
    assert "0.225,0.3824568638," in out


def test_twodelta_requires_beta(capsys):
    code, _ = run(capsys, ["twodelta"])
    assert code == 2


def test_twodelta_rejects_zero_beta(capsys):
    code, _ = run(capsys, ["twodelta", "--beta", "0"])
    assert code == 2


def test_gaps_thresholds(capsys):
    code, out = run(capsys, ["gaps"])
    assert code == 0
    assert "with_correction,0.60689" in out
    assert "base_only,0.60728" in out
    assert "interval_minorant,0.81643" in out


def test_gaps_profile(capsys):
    code, out = run(capsys, ["gaps", "--profile", "--beta", "0.6:0.62:0.01"])
    assert code == 0
    assert out.splitlines()[0] == "beta,base_term,correction,total"


def test_empirical_missing_file(capsys):
    code, _ = run(capsys, ["empirical", "--zeros", "/no/such/file"])
    assert code == 4


def test_empirical_rows(capsys, zeros_path):
    code, out = run(capsys, ["empirical", "--zeros", str(zeros_path),
                             "--beta", "0.5:2:0.1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta,ratio,conjecture,lower,upper"
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 16


def test_determinism_byte_identical(tmp_path, zeros_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        assert cli.main(["bounds", "--beta", "0.5:1.5:0.25",
                         "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_script_emission(tmp_path, capsys):
    out_csv = tmp_path / "t.csv"
    out_gp = tmp_path / "t.gp"
    code = cli.main(["bounds", "--beta", "0.5:1:0.25", "--out", str(out_csv),
                     "--plot", str(out_gp)])
    assert code == 0
    script = out_gp.read_text()
    assert "plot" in script and "t.csv" in script
    # plot without a CSV destination is a config error, found before the
    # command runs: nothing on stdout, and neither file written
    capsys.readouterr()
    gp, out_json = tmp_path / "u.gp", tmp_path / "u.json"
    for extra in ([], ["--out", str(out_json), "--format", "json"]):
        assert cli.main(["bounds", "--beta", "1", "--plot", str(gp)]
                        + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            "pcx: config error: --plot needs")
        assert not gp.exists() and not out_json.exists()


def test_invalid_subcommand(capsys):
    assert cli.main(["bogus"]) == 2


def test_subcommands_reject_options_they_ignore(capsys):
    assert cli.main(["debranges", "--zeros", "x"]) == 2
    assert cli.main(["twodelta", "--nstar", "1.2"]) == 2
    assert cli.main(["gaps", "--delta", "2"]) == 2
    assert cli.main(["bounds", "--tol", "1e-8"]) == 2
    assert cli.main(["empirical", "--zeros", "x", "--profile"]) == 2
    capsys.readouterr()
    # options that conflict inside one subcommand
    for argv in (["empirical", "--zeros", "x", "--falpha", "0:1:0.5",
                  "--beta", "1"],
                 ["twodelta", "--one-delta", "--beta", "1"],
                 ["gaps", "--beta", "0.6"],
                 ["gaps", "--profile", "--tol", "1e-8"],
                 # the dilated table has no adjusted columns
                 ["bounds", "--delta", "2", "--nstar", "1.2"],
                 ["bounds", "--delta", "2", "--epsilon", "0.001",
                  "--nstar", "1.2"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pcx: config error:") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_gaps_rejects_bad_tol(capsys, tol):
    assert cli.main(["gaps", "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pcx: config error:") and err.count("\n") == 1


NON_FINITE = [
    ("bounds --beta inf", "--beta"),
    ("bounds --beta nan", "--beta"),
    ("bounds --beta 1:2:inf", "--beta"),
    ("bounds --beta=-inf:2:0.5", "--beta"),
    ("bounds --delta inf --beta 1", "--delta"),
    ("bounds --delta nan --beta 1", "--delta"),
    ("bounds --epsilon nan --beta 1", "--epsilon"),
    ("bounds --delta 2 --epsilon=-inf", "--epsilon"),
    ("gaps --profile --beta 0.6:inf:0.1", "--beta"),
    ("twodelta --beta inf", "--beta"),
    ("empirical --zeros {zeros} --falpha inf", "--falpha"),
    ("empirical --zeros {zeros} --falpha 0:nan:0.5", "--falpha"),
    ("empirical --zeros {zeros} --beta 0.5:1:nan", "--beta"),
]


@pytest.mark.parametrize("cmd, option", NON_FINITE,
                         ids=[cmd for cmd, _ in NON_FINITE])
def test_non_finite_input_is_a_config_error(capsys, tmp_path, cmd, option):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("14.134725142\n21.022039639\n25.010857580\n")
    assert cli.main(cmd.format(zeros=zeros).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("pcx: config error:") and err.count("\n") == 1
    assert option in err and "Traceback" not in err


NOT_A_NUMBER = [
    ("bounds --beta 1:x:0.5", "--beta"),
    ("bounds --beta=", "--beta"),
    ("twodelta --beta one", "--beta"),
    ("empirical --zeros {zeros} --beta 0.5::0.1", "--beta"),
    ("empirical --zeros {zeros} --falpha=", "--falpha"),
    ("empirical --zeros {zeros} --falpha 0:1:a", "--falpha"),
]


@pytest.mark.parametrize("cmd, option", NOT_A_NUMBER,
                         ids=[cmd for cmd, _ in NOT_A_NUMBER])
def test_grid_part_not_a_number_names_its_option(capsys, tmp_path, cmd,
                                                  option):
    # float()'s own message names no option; the config error does
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("14.134725142\n21.022039639\n25.010857580\n")
    assert cli.main(cmd.format(zeros=zeros).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"pcx: config error: {option} ")
    assert captured.err.count("\n") == 1


def test_bad_beta_grid(capsys):
    assert cli.main(["bounds", "--beta", "2:1:0.1"]) == 2
    assert cli.main(["bounds", "--beta", "1:2"]) == 2
    # too many points to build: rejected before the grid is formed
    assert cli.main(["bounds", "--beta", "0.1:1e308:1e-300"]) == 2
    assert cli.main(["twodelta", "--beta", "1:1e7:1e-3"]) == 2
    # a lattice window of more than 10^7 terms, refused before it is built
    for argv in ("--beta 1e15", "--beta 3e9", "--beta 6e6 --delta 2"):
        assert cli.main(["bounds"] + argv.split()) == 2
        assert "delta*beta must be at most 10,000,000" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cmd, cell", [
    ("twodelta --beta 1e300", "column two_delta is nan in row 1 (beta=1e+300)"),
    # a finite first row does not hide a later one
    ("twodelta --beta 0.5:1e300:5e299",
     "column two_delta is nan in row 2 (beta=5e+299)"),
])
def test_non_finite_cell_is_a_numerical_failure(capsys, monkeypatch, cmd,
                                                cell, fmt):
    # the one emitter checks every cell before it writes any, and the
    # non-finite numbers on the way raise no numpy warning.  two_delta
    # itself refuses beta past kernel._BETA_MAX, so a kernel that lets
    # them through as NaN stands in for any column that is not finite
    two_delta = cli.kernel.two_delta

    def leaky_two_delta(beta):
        b = np.asarray(beta)
        sol = two_delta(np.minimum(b, 1.0))
        nan = np.where(b > cli.kernel._BETA_MAX, np.nan, 0.0)
        return dataclasses.replace(sol, value=sol.value + nan,
                                   k_bb=sol.k_bb + nan, k_bmb=sol.k_bmb + nan)

    monkeypatch.setattr(cli.kernel, "two_delta", leaky_two_delta)
    assert cli.main(cmd.split() + ["--format", fmt]) == cli.EXIT_NUMERICS
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(
        "pcx: numerical failure: " + cell)
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd, beta", [
    ("twodelta --beta 1e300", "1e+300"),
    ("twodelta --beta 0.5:1e300:5e299", "5e+299"),
])
def test_two_delta_overflow_is_a_numerical_failure(capsys, cmd, beta):
    # past kernel._BETA_MAX the kernel's coefficients overflow: two_delta
    # names the first such beta, with no numpy warning on the way
    assert cli.main(cmd.split()) == cli.EXIT_NUMERICS
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "pcx: numerical failure: two_delta: the kernel's coefficients "
        f"overflow at beta={beta} (above 1e+153)\n")


# extreme command lines and their documented exit codes; main installs no
# numpy error state, so a warning any of them raised would fail here
EXTREME = [
    ("twodelta --beta 1e300", cli.EXIT_NUMERICS),
    ("twodelta --beta 1.1e153", cli.EXIT_NUMERICS),
    ("twodelta --beta 0.5:1e300:5e299", cli.EXIT_NUMERICS),
    ("twodelta --beta 1e153", cli.EXIT_OK),
    ("twodelta --beta 0.2250790790392765", cli.EXIT_OK),  # the patched Z0
    ("twodelta --beta 5e-324", cli.EXIT_OK),  # subnormal: K(0, 0)
    ("twodelta --beta 1e-310", cli.EXIT_OK),
    ("bounds --beta 5e-324", cli.EXIT_OK),
    ("bounds --beta 1e-300 --nstar 1.3333333333333333", cli.EXIT_OK),
    ("bounds --beta 5e-324 --delta 2 --epsilon 0.001", cli.EXIT_OK),
    ("bounds --beta 1e-300 --delta 1e300", cli.EXIT_OK),
    ("bounds --beta 1 --delta 1e300", cli.EXIT_CONFIG),
    ("bounds --beta 1 --delta 1.7976931348623157e308", cli.EXIT_CONFIG),
    ("bounds --beta 1 --delta 1e6", cli.EXIT_OK),
    ("bounds --beta 1 --delta 1.0000000000000002", cli.EXIT_OK),
    ("bounds --beta 1e-300 --delta 1.00000001", cli.EXIT_OK),
    ("bounds --beta 1e5 --delta 1.00000001", cli.EXIT_OK),
    ("bounds --beta 1 --delta 2 --epsilon 1", cli.EXIT_OK),
    ("bounds --beta 1 --delta 1 --epsilon 1e-300", cli.EXIT_OK),
    ("empirical --zeros {zeros} --falpha 1e300", cli.EXIT_OK),
    ("empirical --zeros {zeros} --falpha 5e-324", cli.EXIT_OK),
    # the phases overflow: F refuses them before anything is written
    ("empirical --zeros {zeros} --falpha 1e307", cli.EXIT_NUMERICS),
    ("empirical --zeros {zeros} --falpha 1e308", cli.EXIT_NUMERICS),
    # an empty grid is no grid, not the default one
    ("empirical --zeros {zeros} --falpha=", cli.EXIT_CONFIG),
    ("empirical --zeros {zeros} --beta=", cli.EXIT_CONFIG),
    ("empirical --zeros {zeros} --beta 1e300", cli.EXIT_CONFIG),
    ("empirical --zeros {zeros} --beta 5e-324", cli.EXIT_OK),
    ("gaps --tol 1e-300", cli.EXIT_OK),
    ("gaps --profile --beta 1e300", cli.EXIT_CONFIG),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd, code", EXTREME, ids=[c for c, _ in EXTREME])
def test_extreme_lines_exit_as_documented(capsys, zeros_path, cmd, code):
    assert cli.main(cmd.format(zeros=zeros_path).split()) == code
    captured = capsys.readouterr()
    if code == cli.EXIT_OK:
        assert captured.err == ""
    else:
        assert captured.out == "" and captured.err.count("\n") == 1


@pytest.mark.parametrize("grid", ["0.05:10:0.005", "0.1:3:0.1", "0:3:0.05",
                                  "0.55:0.75:0.005", "0.5:40:0.5",
                                  "0.5:1e6:0.9999995"])
def test_parse_beta_is_the_scalar_loop(grid):
    # the array grid holds the bits of the scalar sums a + i * step
    a, b, step = map(float, grid.split(":"))
    n = int(round((b - a) / step))
    want = [a + i * step for i in range(n + 1)
            if a + i * step <= b + step * 1e-9]
    got = cli._parse_beta(grid)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()
    assert cli._parse_beta("1.37").tolist() == [1.37]


def test_bounds_continuous_at_delta_one(capsys):
    # a dilation just above 1 gives the undilated bounds: the oscillatory
    # tails of the lattice series stay exact as z = exp(2 pi i/delta) -> 1
    def columns(argv):
        code, out = run(capsys, ["bounds", "--beta", "0.5:2:0.5"] + argv)
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]
                if not line.startswith("#")]
        return np.array([[float(row[1]), float(row[2])] for row in rows])

    near = columns(["--delta", "1.00000001"])
    assert np.max(np.abs(near - columns([]))) <= 1e-6


@pytest.mark.parametrize("beta, lower, upper", [
    ("1e-10", "-0.1666666666", "0.1666666667"),
    ("1e-300", "-0.1666666667", "0.1666666667"),
    ("1e-320", "-0.1666666667", "0.1666666667"),
])
def test_tiny_beta_bounds(capsys, beta, lower, upper):
    # the sandwich tends to -/+1/6 as beta vanishes, down to the subnormals
    code, out = run(capsys, ["bounds", "--beta", beta])
    assert code == 0
    assert out.splitlines()[1].split(",")[1:3] == [lower, upper]


def test_bounds_near_an_integer_beta(capsys):
    # 1e-4 from a resonance of the lattice series, the 40-digit value of
    # the lower bound is 1.040111579
    code, out = run(capsys, ["bounds", "--beta", "2.0001"])
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
    assert row["lower"] == row["lower_adjusted"] == "1.040111579"


def test_table_format(capsys):
    code, out = run(capsys, ["gaps", "--format", "table"])
    assert code == 0
    assert out.splitlines()[0].split() == ["method", "threshold"]


@pytest.mark.parametrize("table, code", [
    ("14.1\nnan\n21.0\n", 4),   # non-finite ordinate
    ("14.1\ninf\n", 4),
    ("14.1\n21.0\n21.0\n", 4),  # repeated ordinate
    ("0.5\n1.0\n", 2),          # T = 1 leaves log T = 0
])
def test_empirical_bad_table_exit_codes(tmp_path, capsys, table, code):
    path = tmp_path / "zeros.txt"
    path.write_text(table)
    for extra in (["--beta", "0.5:1:0.5"], ["--falpha", "0:1:0.5"]):
        assert cli.main(["empirical", "--zeros", str(path)] + extra) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err
    if code == 4:
        assert "line " in err


def test_empirical_table_not_utf8(tmp_path, capsys):
    # a UTF-16 table is a data error (exit 4), not a config error
    path = tmp_path / "zeros.txt"
    path.write_bytes(b"\xff\xfe1\x004\x00.\x001\x00\n\x00")
    assert cli.main(["empirical", "--zeros", str(path)]) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pcx: data error: line 1: not UTF-8 text\n"


def _cell(x):
    # the cell rule of the text formats, one cell at a time
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
def test_emit_rows_match_cell_rule(capsys, monkeypatch, fmt):
    # one %-format per column, from its dtype, writes each cell as the
    # per-cell rule does; CSV written two rows at a time gives the same
    # text, and JSON holds each number as its text shows it
    columns = ["s", "i", "f"]
    table = {
        "s": np.array(["x", "a,b", "", "y", "longer"]),
        "i": np.array([3, -7, 2 ** 40, 12345678901234, 0]),
        "f": np.array([-0.0, 1e308, -5e-324, 2.5e-300, 1e10 + 1]),
    }
    rows = list(zip(*(table[c].tolist() for c in columns)))
    args = types.SimpleNamespace(format=fmt, out=None, plot=None)
    assert cli._emit(args, "test", columns, table) == 0
    out = capsys.readouterr().out
    cells = [columns] + [[_cell(x) for x in v] for v in rows]
    if fmt == "json":
        got = json.loads(out)["rows"]
        assert got == [dict(zip(columns, (s, int(i), float(f))))
                       for s, i, f in cells[1:]]
        assert all(type(row["i"]) is int for row in got)
        assert math.copysign(1.0, got[0]["f"]) == -1.0
        return
    lines = out.splitlines()[:len(rows) + 1]
    if fmt == "csv":
        assert lines == [",".join(row) for row in cells]
        monkeypatch.setattr(cli, "_CSV_BLOCK", 2)
        assert cli._emit(args, "test", columns, table) == 0
        assert capsys.readouterr().out == out
    else:
        widths = [max(len(row[i]) for row in cells) for i in range(3)]
        assert lines == ["  ".join(v.ljust(w) for v, w in zip(row, widths))
                         for row in cells]


@st.composite
def malformed_tables(draw):
    """An ordinate table that breaks one rule of the input format, and the
    exit code it should get: 2 when only its largest ordinate (at most 1)
    is wrong, 4 for every data error load_zeros reports."""
    ints = sorted(draw(st.lists(st.integers(1, 10 ** 6), min_size=2,
                                max_size=12, unique=True)))
    lines = [f"{i / 100:.2f}" for i in ints]
    kind = draw(st.sampled_from(["text", "nan", "inf", "non-positive",
                                 "repeat", "descending", "empty", "low"]))
    at = draw(st.integers(0, len(lines) - 1))
    bad = {"text": st.text("abcdefxyzINF", min_size=1, max_size=8),
           "nan": st.sampled_from(["nan", "-nan", "NaN"]),
           "inf": st.sampled_from(["inf", "-inf", "Infinity", "1e999"]),
           "non-positive": st.sampled_from(["0", "-0.0", "-1.5", "-1e-300"])}
    if kind in bad:
        lines.insert(at, draw(bad[kind]))
    elif kind == "repeat":
        lines.insert(at, lines[at])
    elif kind == "descending":
        lines.reverse()
    elif kind == "empty":
        lines = draw(st.sampled_from([[], [""], ["# comment"], ["  ", "#"]]))
    else:
        lines = [f"{i / 10 ** 6:.6f}" for i in ints]
    return "".join(line + "\n" for line in lines), 2 if kind == "low" else 4


@settings(max_examples=60, deadline=None)
@given(malformed_tables())
def test_empirical_fuzzed_tables(case):
    # every malformed table fails through the CLI with its exit code, one
    # stderr line and no output, under --beta and under --falpha alike
    table, code = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "zeros.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table)
        for extra in (["--beta", "0.5:1:0.5"], ["--falpha", "0:1:0.5"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = cli.main(["empirical", "--zeros", path] + extra)
            assert got == code
            assert out.getvalue() == ""
            assert err.getvalue().startswith("pcx: ")
            assert err.getvalue().count("\n") == 1
            assert "Traceback" not in err.getvalue()


def test_empirical_falpha_rows(tmp_path, capsys, dataset):
    from pcx import zerodata
    path = tmp_path / "zeros500.txt"
    path.write_text("".join(f"{v:.9f}\n" for v in dataset.ordinates[:500]))
    code, out = run(capsys, ["empirical", "--zeros", str(path),
                             "--falpha", "0:1.5:0.25"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,f_alpha"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    ds = zerodata.load_zeros(path)
    assert [float(a) for a, _ in rows] == [0.25 * k for k in range(7)]
    for a, f in rows:
        F = zerodata.empirical_F(ds, ds.t_max, float(a))
        assert f == "%.10g" % F
        assert zerodata.empirical_F(ds, ds.t_max, -float(a)) == F
    code, out = run(capsys, ["empirical", "--zeros", str(path),
                             "--falpha", "0:1.5:0.25", "--format", "json"])
    assert code == 0 and json.loads(out)["notes"] == []


def test_empirical_falpha_one_call(tmp_path, capsys, dataset, monkeypatch):
    # the whole alpha grid is one call of empirical_F, on a grid of more
    # than one of its chunks; each row prints as the float call would
    from pcx import zerodata
    path = tmp_path / "zeros500.txt"
    path.write_text("".join(f"{v:.9f}\n" for v in dataset.ordinates[:500]))
    ds = zerodata.load_zeros(path)
    floats = [zerodata.empirical_F(ds, ds.t_max, 0.05 * k) for k in range(61)]
    calls = []
    F = zerodata.empirical_F

    def counting(*args):
        calls.append(args)
        return F(*args)

    monkeypatch.setattr(zerodata, "empirical_F", counting)
    code, out = run(capsys, ["empirical", "--zeros", str(path),
                             "--falpha", "0:3:0.05"])
    assert code == 0
    assert len(calls) == 1
    rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 61 > zerodata._ALPHAS
    assert [f for _, f in rows] == ["%.10g" % F for F in floats]


def test_runtime_imports_no_scipy_or_numpy_random(zeros_path):
    # neither is needed at runtime, and importing them dominated the
    # start-up of every pcx process; a fresh interpreter shows what the
    # subcommands load
    script = (
        "import sys\n"
        "from pcx import cli\n"
        "for argv in (['bounds'], ['debranges'],\n"
        f"             ['empirical', '--zeros', {str(zeros_path)!r}]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith(('scipy', 'numpy.random')))\n"
        "print('loaded:', ','.join(loaded))\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: "


def test_every_subcommand_runs_without_mpmath(zeros_path):
    # mpmath serves only the tests; a fresh interpreter in which it cannot
    # be imported runs every subcommand and output format
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from pcx import cli\n"
        "for argv in (['bounds'], ['bounds', '--delta', '2'],\n"
        "             ['twodelta', '--one-delta'], ['twodelta', '--beta', '1'],\n"
        "             ['gaps'], ['gaps', '--profile'], ['debranges'],\n"
        f"             ['empirical', '--zeros', {str(zeros_path)!r}],\n"
        f"             ['empirical', '--zeros', {str(zeros_path)!r},\n"
        "              '--falpha', '0:1:0.5']):\n"
        "    for fmt in ('csv', 'json', 'table'):\n"
        "        assert cli.main(argv + ['--format', fmt]) == 0, argv\n"
        "print('ok')\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def _fresh_process(argv):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "pcx.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main walks argv against one option table that no call changes; a
    # call that fails in the parser or in a command must leave nothing
    # behind for the next call
    good = ["bounds", "--beta", "0.5:1.5:0.5"]
    calls = [good, ["bounds", "--tol", "1"], good,
             ["gaps", "--beta", "0.6"], ["twodelta", "--beta", "1"]]
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv), argv
    # the command is looked up by name at each call, so a rebound
    # cmd_<name> takes effect
    seen = []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.beta) or 0)
    assert cli.main(good) == 0 and seen == ["0.5:1.5:0.5"]


PARSE_ERRORS = [
    ([], "subcommand"),
    (["bogus"], "'bogus'"),
    (["--beta", "1"], "'--beta'"),
    (["bounds", "--tol", "1"], "--tol"),
    (["debranges", "--zeros", "x"], "--zeros"),
    (["bounds", "1"], "1"),
    (["bounds", "--beta"], "--beta"),
    (["bounds", "--beta", "1", "--out"], "--out"),
    (["bounds", "--delta", "x"], "--delta"),
    (["gaps", "--tol=1e-8x"], "--tol"),
    (["twodelta", "--one-delta=1"], "--one-delta"),
    (["gaps", "--profile=yes"], "--profile"),
    (["bounds", "--format", "xml"], "--format"),
    (["bounds", "--format="], "--format"),
    # no prefix abbreviations
    (["bounds", "--bet", "1"], "--bet"),
    (["twodelta", "--one"], "--one"),
]


@pytest.mark.parametrize("argv, named", PARSE_ERRORS,
                         ids=[" ".join(a) or "empty" for a, _ in PARSE_ERRORS])
def test_parse_errors_are_config_errors(capsys, argv, named):
    # one line that names the option, exit code 2, nothing on stdout
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pcx: config error: ")
    assert captured.err.count("\n") == 1 and named in captured.err


@pytest.mark.parametrize("spaced, joined", [
    ("bounds --beta 0.5:1.5:0.5 --nstar 1.2 --format json",
     "bounds --beta=0.5:1.5:0.5 --nstar=1.2 --format=json"),
    ("bounds --beta 1 --delta 2 --epsilon 0.001",
     "bounds --beta=1 --delta=2 --epsilon=0.001"),
    ("gaps --profile --beta 0.6:0.7:0.05 --format table",
     "gaps --profile --beta=0.6:0.7:0.05 --format=table"),
    ("empirical --zeros {zeros} --falpha 0:1:0.5",
     "empirical --zeros={zeros} --falpha=0:1:0.5"),
])
def test_option_equals_value_is_option_space_value(capsys, zeros_path,
                                                   spaced, joined):
    rows = []
    for line in (spaced, joined):
        assert cli.main(line.format(zeros=zeros_path).split()) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]


def test_option_values_may_start_with_a_dash(capsys):
    # a value that starts with '-' is the option's value, which then
    # meets the subcommand's own check
    code, out = run(capsys, ["bounds", "--beta", "1", "--epsilon", "-1"])
    assert code == 0
    assert "# dilation delta=2\n" in out and " epsilon=-1.0 " in out
    for argv, err in (
            (["bounds", "--beta=-inf:2:0.5"], "--beta must hold finite numbers"),
            (["bounds", "--beta", "-inf:2:0.5"], "--beta must hold finite numbers"),
            (["gaps", "--tol", "-1"], "--tol must be a positive finite number"),
            (["twodelta", "--beta", "-0.5"], "beta must be positive")):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"pcx: config error: {err}\n"


def test_repeated_option_takes_last_value(capsys):
    last = run(capsys, ["bounds", "--beta", "1", "--format", "json"])
    assert run(capsys, ["bounds", "--beta", "2", "--format", "table",
                        "--beta=1", "--format", "json"]) == last
    flag = run(capsys, ["twodelta", "--one-delta"])
    assert run(capsys, ["twodelta", "--one-delta", "--one-delta"]) == flag


# the options each subcommand's help names: its own and the common three
HELP_OPTIONS = {
    "bounds": {"--beta", "--delta", "--epsilon", "--nstar"},
    "twodelta": {"--beta", "--one-delta"},
    "gaps": {"--beta", "--tol", "--profile"},
    "empirical": {"--zeros", "--beta", "--falpha"},
    "debranges": set(),
}


@pytest.mark.parametrize("cmd", sorted(HELP_OPTIONS))
def test_subcommand_help_lists_its_options(capsys, cmd):
    for flag in ("-h", "--help"):
        for argv in ([cmd, flag], [cmd, "--format", "json", flag]):
            assert cli.main(argv) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.split()[:2] == ["pcx", cmd]
            assert set(re.findall(r"--[a-z-]+", out)) == (
                HELP_OPTIONS[cmd] | {"--out", "--format", "--plot"})


def test_readme_cli_block_is_the_help_text(capsys):
    # the fenced block under the README's "## CLI" heading is what pcx
    # --help prints, so the two cannot drift apart
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    for flag in ("-h", "--help"):
        assert run(capsys, [flag]) == (0, block)


def test_every_subcommand_runs_without_argparse(zeros_path):
    # argv is walked against cli's own option table: a fresh interpreter
    # that runs every subcommand, a help and a parse error loads neither
    # argparse nor the gettext and locale that it pulls in
    script = (
        "import contextlib, io, sys\n"
        "from pcx import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    for argv in (['bounds', '--beta', '1'], ['twodelta', '--one-delta'],\n"
        "                 ['gaps', '--profile'], ['debranges'],\n"
        f"                 ['empirical', '--zeros', {str(zeros_path)!r}],\n"
        "                 ['--help'], ['bounds', '-h']):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert cli.main(['bounds', '--bet', '1']) == 2\n"
        "loaded = sorted(m for m in ('argparse', 'gettext', 'locale')\n"
        "                if m in sys.modules)\n"
        "print('loaded:', ','.join(loaded))\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: "
