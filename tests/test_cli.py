import codecs
import contextlib
import csv
import gzip
import io
import json
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm import (
    CANONICAL_INITIAL,
    ModelOptions,
    estimate_moments,
    growth_series,
    load_series,
    lognormality_gap,
    trace_manifold,
)
from sfm.cli import _build_parser, main, run_command, to_json
from sfm.errors import MAX_DRAWS, MIN_DRAWS

from conftest import DATA_PATH
from helpers import END_POINT_FAILURES, PROPERTY_SETTINGS, fresh_run

DATA = str(DATA_PATH)
CLASSIFY_ARGV = [
    "classify", "--data", DATA, "--year", "1977",
    "--beta", "0.9581", "--tau", "1.0319",
    "--sfom-equity", "1.0013", "--sfom-riskfree", "1.0657",
]
# (--variance, --eq3, --lnex): the 8 switch settings of sfm manifold.
SWITCHES = [(v, e, l) for v in ("sample", "population")
            for e in ("printed", "rederived") for l in ("arithmetic", "lognormal")]
# (subcommand, flag) for every subcommand flag that takes one value, read from the parser.
VALUE_FLAGS = [
    (command, flag)
    for command, sub in next(a for a in _build_parser()._actions
                             if a.dest == "command").choices.items()
    for action in sub._actions if action.nargs is None
    for flag in action.option_strings
]


def with_value(argv, flag, value):
    """argv with the value after ``flag`` replaced."""
    i = argv.index(flag)
    return [*argv[:i + 1], value, *argv[i + 2:]]


def run_ok(argv):
    outcome = run_command(argv)
    assert outcome.exit_code == 0, outcome.payload
    return outcome.payload


def run_main(argv, monkeypatch, capsys):
    """(exit code, stdout, stderr) of the console entry point; warnings count as stderr."""
    monkeypatch.setattr(sys, "argv", ["sfm", *argv])
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as exit_info:
        warnings.simplefilter("always")
        main()
    out, err = capsys.readouterr()
    err += "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return exit_info.value.code, out, err


HEADER = "year,consumption,equity_return,riskfree_return\n"


def _written(path, data):
    """``path`` after writing ``data`` (text or bytes) to it."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


def _symlink_loop(directory):
    loop = directory / "loop.csv"
    loop.symlink_to(loop.name)
    return loop, "Too many levels of symbolic links"


# --data paths that cannot be read as the canonical CSV, each with a fragment
# its one-line diagnostic must hold.
UNREADABLE = {
    "missing": lambda d: (d / "missing.csv", "[Errno 2] No such file or directory: '"),
    "directory": lambda d: (d, "[Errno 21] Is a directory: '"),
    "through-a-file": lambda d: (_written(d / "file.csv", HEADER) / "x", "Not a directory"),
    "symlink-loop": _symlink_loop,
    "invalid-utf8": lambda d: (
        _written(d / "latin1.csv", HEADER.encode() + b"1900,100,1.0\xff,1.0\n"),
        "not UTF-8 text"),
    "utf16": lambda d: (
        _written(d / "utf16.csv", DATA_PATH.read_text().encode("utf-16")), "not UTF-8 text"),
    "gzip": lambda d: (
        _written(d / "data.csv.gz", gzip.compress(DATA_PATH.read_bytes(), mtime=0)),
        "not UTF-8 text"),
    "field-over-limit": lambda d: (
        _written(d / "wide.csv", HEADER + "1" * (csv.field_size_limit() + 1) + ",1,1,1\n"),
        ": line 2: field larger than field limit"),
    "negative-value": lambda d: (
        _written(d / "bad.csv", HEADER + "1900,-5,1,1\n"),
        ": line 2: year 1900: consumption must be positive"),
}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        outcome = run_command(["solve", "--data", DATA, "--frobnicate"])
        assert outcome.exit_code == 1

    def test_missing_required_flag_is_usage_error(self):
        outcome = run_command(["solve"])
        assert outcome.exit_code == 1

    def test_unknown_command_is_usage_error(self):
        outcome = run_command(["explode"])
        assert outcome.exit_code == 1

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_invalid_data_file_is_data_error(self, kind, tmp_path, monkeypatch, capsys):
        path, fragment = UNREADABLE[kind](tmp_path)
        code, out, err = run_main(["moments", "--data", str(path)], monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.endswith("\n") and err.count("\n") == 1
        assert str(path) in err and fragment in err

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, capsys):
        # Spreadsheet "CSV UTF-8" exports start the file with a UTF-8 BOM.
        bom = _written(tmp_path / "bom.csv", codecs.BOM_UTF8 + DATA_PATH.read_bytes())
        for argv in (["moments"], ["solve", "--format", "json"]):
            plain = run_main([*argv, "--data", DATA], monkeypatch, capsys)
            assert plain[0] == 0
            assert run_main([*argv, "--data", str(bom)], monkeypatch, capsys) == plain

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("tau0", list(END_POINT_FAILURES))
    def test_numerical_failure_is_exit_3(self, tau0, fmt, monkeypatch, capsys):
        argv = ["solve", "--data", DATA, "--tau0", tau0, "--format", fmt]
        assert run_main(argv, monkeypatch, capsys) == (3, "", END_POINT_FAILURES[tau0] + "\n")

    def test_infinite_csv_value_is_data_error(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "inf.csv"
        bad.write_text(
            "year,consumption,equity_return,riskfree_return\n"
            "1900,100,1.0,1.0\n1901,110,inf,1.0\n1902,121,1.0,1.0\n"
        )
        code, out, err = run_main(["moments", "--data", str(bad)], monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == f"{bad}: line 3: year 1901: consumption and returns must be finite\n"

    @pytest.mark.parametrize("levels,factor", [
        (("1e-300", "1e300"), "inf"),
        (("1e300", "1e-300"), "0.0"),
    ], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("command", ["moments", "solve"])
    def test_out_of_range_growth_factor_is_data_error(self, levels, factor, command,
                                                      tmp_path, monkeypatch, capsys):
        # Both levels are valid, but their ratio leaves the positive finite floats.
        first, rest = levels
        bad = tmp_path / "growth.csv"
        bad.write_text(
            "year,consumption,equity_return,riskfree_return\n"
            f"1900,{first},1.0,1.0\n1901,{rest},1.1,1.0\n"
            f"1902,{rest},1.0,1.0\n1903,{rest},1.2,1.0\n"
        )
        code, out, err = run_main([command, "--data", str(bad)], monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == f"year 1901: consumption growth factor {factor} must be finite and positive\n"

    @pytest.mark.parametrize("argv", [
        ["moments"],
        ["solve"],
        ["manifold", "--tau-min", "0.5", "--tau-max", "2", "--steps", "3"],
    ], ids=["moments", "solve", "manifold"])
    def test_overflowing_mean_is_numerical_failure(self, argv, tmp_path, monkeypatch, capsys):
        # Two equity returns of 1e308 are finite, but their mean overflows.
        lines = DATA_PATH.read_text().splitlines()
        for i in (5, 6):
            year, consumption, _, riskfree = lines[i].split(",")
            lines[i] = f"{year},{consumption},1e308,{riskfree}"
        bad = tmp_path / "overflow.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run_main([*argv, "--data", str(bad)], monkeypatch, capsys)
        assert (code, out) == (3, "")
        assert err == "moments must be finite, got mean_re = inf\n"

    @pytest.mark.parametrize("tau_min,tau_max,steps,at", [
        # k = 2.2e-303 is not 0, but 1 +- k rounds to 1 and the solve meets a zero pivot.
        ("1e-300", "1e-299", "3", "tau = 1e-300 (k = 2.2214182915624608e-303)"),
        # k = 0 makes rows r3 and r4 exactly dependent: the same zero pivot.
        ("0", "1", "3", "tau = 0.0 (k = 0.0)"),
        # A block with both kinds: the first grid point is named, not the k = 0 one.
        ("-1e-320", "1e-320", "7", "tau = -1e-320 (k = -2e-323)"),
    ], ids=["k-rounds-away", "k-zero", "both-in-one-block"])
    def test_numerically_singular_manifold_names_its_tau(self, tau_min, tau_max, steps, at,
                                                         monkeypatch, capsys):
        argv = ["manifold", "--data", DATA, f"--tau-min={tau_min}", "--tau-max", tau_max,
                "--steps", steps]
        assert run_main(argv, monkeypatch, capsys) == (
            3, "", f"subsystem in (b, w, d) is singular at {at}\n"
        )

    @pytest.mark.parametrize("steps", ["3", "513"])
    def test_overflowing_manifold_names_its_first_tau(self, steps, monkeypatch, capsys):
        # The grid holds tau = 0.0 (k = 0) too, in the first block only when
        # steps = 3, but the first grid point to fail is -1e200.
        argv = ["manifold", "--data", DATA, "--tau-min=-1e200", "--tau-max", "1e200",
                "--steps", steps]
        assert run_main(argv, monkeypatch, capsys) == (
            3, "", "manifold point at tau = -1e+200 is not finite\n"
        )

    @pytest.mark.parametrize("tau_min,tau_max,steps", [
        ("-1e308", "1e308", "3"),
        ("1e308", "-1e308", "1"),
    ], ids=["widening", "reversed-one-step"])
    def test_tau_range_wider_than_the_floats_is_usage_error(self, tau_min, tau_max, steps,
                                                            monkeypatch, capsys):
        # Each bound is finite, but tau_max - tau_min, which the grid is spaced by, overflows.
        argv = ["manifold", "--data", DATA, f"--tau-min={tau_min}", "--tau-max", tau_max,
                "--steps", steps]
        assert run_main(argv, monkeypatch, capsys) == (
            1, "", "sfm manifold: arguments --tau-min and --tau-max: their difference must be "
                   f"a finite number, got {float(tau_min)!r} and {float(tau_max)!r}\n"
        )

    @pytest.mark.parametrize("argv,code", [
        (["solve", "--data", DATA, "--tau0", "-1e300"], 3),
        (["solve", "--data", DATA, "--tau0", "-2.5E-1", "--format", "json"], 0),
        (["manifold", "--data", DATA, "--tau-min", "-1e3", "--tau-max", "1", "--steps", "3"], 0),
        (["manifold", "--data", DATA, "--tau-mi", "-1e3", "--tau-max", "1", "--steps", "3"], 0),
        (["manifold", "--data", DATA, "--tau-m", "-1e3", "--tau-max", "1", "--steps", "3"], 1),
        (with_value(CLASSIFY_ARGV, "--tau", "-1e-3"), 0),
        (["solve", "--data", DATA, "--tau0", "-.5e1"], 0),
        (["solve", "--data", DATA, "--beta0", "-1e-3"], 1),
        (["solve", "--data", DATA, "--tau0", "-1e3x"], 1),
        (["moments", "--data", "-bundled.csv"], 0),
    ], ids=["tau0", "tau0-upper-e", "tau-min", "tau-min-abbreviated", "tau-min-ambiguous", "tau",
            "tau0-no-leading-digit", "beta0", "tau0-not-a-number", "data-dash-name"])
    def test_negative_value_in_exponent_form_reads_as_with_equals(self, argv, code, tmp_path,
                                                                   monkeypatch, capsys):
        # "-bundled.csv" names a copy of the bundled CSV in the working directory.
        shutil.copy(DATA_PATH, tmp_path / "-bundled.csv")
        monkeypatch.chdir(tmp_path)
        i = next(i for i, arg in enumerate(argv) if arg.startswith("-") and arg[1:2] != "-")
        joined = [*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:]]
        spaced = run_main(argv, monkeypatch, capsys)
        assert spaced[0] == code
        assert spaced == run_main(joined, monkeypatch, capsys)

    @pytest.mark.parametrize("command,flag", VALUE_FLAGS,
                             ids=[f"{command}{flag}" for command, flag in VALUE_FLAGS])
    def test_dash_word_after_a_value_flag_reads_as_with_equals(self, command, flag):
        # Whatever the word's shape, it reaches the flag's own validator or path reader.
        others = [w for f, v in FUZZ_COMMANDS[command].items() if f != flag
                  for w in (f, v if isinstance(v, str) else v[0])]
        for word in ("-1e3", "-.5", "-inf", "-nan", "-Infinity"):
            spaced = run_command([command, *others, flag, word])
            assert spaced == run_command([command, *others, f"{flag}={word}"]), word

    def test_long_flag_is_never_a_value(self, monkeypatch, capsys):
        argv = ["solve", "--data", DATA, "--tau0", "--format", "json"]
        assert run_main(argv, monkeypatch, capsys) == (
            1, "", "sfm solve: argument --tau0: expected one argument\n"
        )

    # The negative-value join never attaches to --help, which takes no value.
    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help", "-5"],
                                      ["solve", "--he", "-1e3"]],
                             ids=["help", "help-then-negative", "abbreviation-then-exponent"])
    def test_help_is_exit_0(self, argv, monkeypatch, capsys):
        code, out, err = run_main(argv, monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: sfm")

    def test_success_is_exit_0(self):
        assert run_command(["moments", "--data", DATA]).exit_code == 0

    @pytest.mark.parametrize("argv,flag", [
        (["validate", "--draws", "10000", "--seed", "-1"], "--seed"),
        (["manifold", "--data", DATA, "--tau-min", "0.5", "--tau-max", "nan",
          "--steps", "5"], "--tau-max"),
        (["manifold", "--data", DATA, "--tau-min", "inf", "--tau-max", "2",
          "--steps", "5"], "--tau-min"),
        (["solve", "--data", DATA, "--beta0", "nan"], "--beta0"),
        (["solve", "--data", DATA, "--omega0", "inf"], "--omega0"),
        (["solve", "--data", DATA, "--delta0", "inf"], "--delta0"),
        (["solve", "--data", DATA, "--tau0", "nan"], "--tau0"),
        (with_value(CLASSIFY_ARGV, "--beta", "nan"), "--beta"),
        (with_value(CLASSIFY_ARGV, "--tau", "inf"), "--tau"),
        (with_value(CLASSIFY_ARGV, "--sfom-equity", "nan"), "--sfom-equity"),
        (with_value(CLASSIFY_ARGV, "--sfom-riskfree", "inf"), "--sfom-riskfree"),
        (["validate", "--draws", "0"], "--draws"),
        (["validate", "--draws", "-5"], "--draws"),
        (["validate", "--draws", "1"], "--draws"),
        (["validate", "--draws", "9999"], "--draws"),
        (["validate", "--draws", "100000000000000000000"], "--draws"),
        (["solve", "--data", DATA, "--beta0", "0"], "--beta0"),
        (["solve", "--data", DATA, "--beta0", "-1"], "--beta0"),
        (["solve", "--data", DATA, "--omega0", "0"], "--omega0"),
        (["solve", "--data", DATA, "--delta0", "-1"], "--delta0"),
        (with_value(CLASSIFY_ARGV, "--sfom-equity", "0"), "--sfom-equity"),
        (with_value(CLASSIFY_ARGV, "--sfom-riskfree", "-1"), "--sfom-riskfree"),
        (with_value(CLASSIFY_ARGV, "--beta", "0"), "--beta"),
        (with_value(CLASSIFY_ARGV, "--beta", "-1"), "--beta"),
        (["manifold", "--data", DATA, "--tau-min", "0.5", "--tau-max", "2",
          "--steps", "0"], "--steps"),
        (["manifold", "--data", DATA, "--tau-min", "0.5", "--tau-max", "2",
          "--steps", "100000000000000000"], "--steps"),
    ], ids=["seed-negative", "tau-max-nan", "tau-min-inf", "beta0-nan", "omega0-inf",
            "delta0-inf", "tau0-nan", "beta-nan", "tau-inf", "sfom-equity-nan",
            "sfom-riskfree-inf", "draws-zero", "draws-negative", "draws-one", "draws-9999",
            "draws-huge", "beta0-zero", "beta0-negative", "omega0-zero", "delta0-negative",
            "sfom-equity-zero", "sfom-riskfree-negative", "beta-zero", "beta-negative",
            "steps-zero", "steps-huge"])
    def test_bad_value_is_usage_error_on_stderr(self, argv, flag, monkeypatch, capsys):
        code, out, err = run_main(argv, monkeypatch, capsys)
        assert code == 1
        assert out == ""
        assert flag in err

    def test_draw_count_bounds_are_inclusive(self):
        # Parsed only: a run of MAX_DRAWS draws takes minutes.
        parser = _build_parser()
        for draws in (MIN_DRAWS, MAX_DRAWS):
            assert parser.parse_args(["validate", "--draws", str(draws)]).draws == draws
        outcome = run_command(["validate", "--draws", str(MAX_DRAWS + 1)])
        assert outcome == (1, "sfm validate: argument --draws: must be an integer in "
                              f"[{MIN_DRAWS}, {MAX_DRAWS}], got '{MAX_DRAWS + 1}'")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            to_json({"x": value})


class TestMomentsCommand:
    def test_flat_json_fields(self):
        doc = json.loads(run_ok(["moments", "--data", DATA]))
        assert set(doc) == {
            "mu_x", "sigma2_x", "mu_r", "sigma2_r", "rho",
            "mean_x", "mean_re", "mean_rf", "n_obs", "convention", "gap",
        }
        assert doc["n_obs"] == 89
        assert doc["convention"] == "sample"

    def test_variance_switch(self):
        sample = json.loads(run_ok(["moments", "--data", DATA]))
        population = json.loads(run_ok(["moments", "--data", DATA, "--variance", "population"]))
        assert population["sigma2_x"] == pytest.approx(
            sample["sigma2_x"] * 88 / 89, rel=1e-12
        )


class TestSolveCommand:
    def test_json_schema(self):
        doc = json.loads(run_ok(["solve", "--data", DATA, "--format", "json"]))
        assert set(doc) == {
            "params", "residuals", "rank", "singular_values", "gap",
            "converged", "iterations",
        }
        assert set(doc["params"]) == {"beta", "omega", "delta", "tau"}
        assert set(doc["residuals"]) == {"r2", "r3", "r4", "r5", "norm"}
        assert len(doc["singular_values"]) == 4
        assert doc["rank"] <= 3
        assert doc["converged"] in {"residual", "step", "max-iter"}

    def test_deterministic_repeat_runs(self):
        argv = ["solve", "--data", DATA, "--format", "json"]
        assert run_ok(argv) == run_ok(argv)

    @staticmethod
    def table_and_doc(*start):
        argv = ["solve", "--data", DATA, *start]
        table = run_ok([*argv, "--format", "table"])
        return table.splitlines(), json.loads(run_ok([*argv, "--format", "json"]))

    @staticmethod
    def lines_below_the_parameters(doc):
        r = doc["residuals"]
        return [
            "",
            f"residuals  r2 {r['r2']:.6e}  r3 {r['r3']:.6e}  r4 {r['r4']:.6e}  r5 {r['r5']:.6e}",
            f"norm {r['norm']:.6e}  gap {doc['gap']:.6e}",
            f"rank {doc['rank']}  converged {doc['converged']}  iterations {doc['iterations']}",
            "singular values " + " ".join(f"{s:.6e}" for s in doc["singular_values"]),
        ]

    def test_table_and_json_agree(self):
        lines, doc = self.table_and_doc()
        p = doc["params"]
        assert lines == [
            "Investor        STDF      SFOM      CRRA",
            f"equity      {p['beta']:>8.4f}  {p['delta']:>8.4f}  {p['tau']:>8.4f}",
            f"risk-free   {p['beta']:>8.4f}  {p['omega']:>8.4f}  {p['tau']:>8.4f}",
            *self.lines_below_the_parameters(doc),
        ]

    @pytest.mark.parametrize("start", [
        ["--tau0", "-1e3"], ["--tau0", "3000"], ["--beta0", "1e-200"],
    ], ids=["tau0=-1e3", "tau0=3000", "beta0=1e-200"])
    def test_far_start_prints_every_parameter_value(self, start):
        # These starts end with factors far outside fixed point's reach
        # (STDF near 1e-86, SFOM near 1e42). The end point depends on the
        # BLAS kernel, so each cell is read back rather than matched as text.
        lines, doc = self.table_and_doc(*start)
        p = doc["params"]
        rows = {"equity": (p["beta"], p["delta"], p["tau"]),
                "risk-free": (p["beta"], p["omega"], p["tau"])}
        assert [line.split()[0] for line in lines[1:3]] == list(rows)
        for line, values in zip(lines[1:3], rows.values()):
            for cell, value in zip(line.split()[1:], values, strict=True):
                assert float(cell) == pytest.approx(value, rel=5e-5), line
                assert float(cell) != 0.0 or value == 0.0, line
        assert lines[3:] == self.lines_below_the_parameters(doc)

    def test_switches_are_accepted(self):
        for eq3 in ("printed", "rederived"):
            for lnex in ("arithmetic", "lognormal"):
                doc = json.loads(run_ok([
                    "solve", "--data", DATA, "--format", "json",
                    "--eq3", eq3, "--lnex", lnex,
                ]))
                assert doc["rank"] <= 3

    def test_flag_defaults_are_the_canonical_start(self):
        # The parser keeps its own copy so that a usage error loads no numpy.
        args = _build_parser().parse_args(["solve", "--data", "x"])
        start = (args.beta0, args.omega0, args.delta0, args.tau0)
        assert start == tuple(vars(CANONICAL_INITIAL).values())

    def test_initial_guess_flags(self):
        doc = json.loads(run_ok([
            "solve", "--data", DATA, "--format", "json",
            "--beta0", "0.9", "--omega0", "1.1", "--delta0", "0.95", "--tau0", "3.0",
        ]))
        assert doc["converged"] in {"residual", "step"}


class TestManifoldCommand:
    def test_points_structure(self):
        doc = json.loads(run_ok([
            "manifold", "--data", DATA, "--tau-min", "0.5", "--tau-max", "5",
            "--steps", "10",
        ]))
        assert len(doc["points"]) == 10
        first = doc["points"][0]
        assert first["tau"] == 0.5
        assert set(first) == {"tau", "beta", "omega", "delta", "residuals"}
        for pt in doc["points"]:
            assert abs(pt["residuals"]["r2"]) <= 1e-10
            assert abs(pt["residuals"]["r3"]) <= 1e-10
            assert abs(pt["residuals"]["r4"]) <= 1e-10
            assert pt["residuals"]["r5"] == pytest.approx(-doc["gap"], abs=1e-10)

    @staticmethod
    def payload_and_reference(tau_min, tau_max, steps, switches):
        """``sfm manifold``'s output, and to_json of the point dicts of the same manifold."""
        variance, eq3, lnex = switches
        m = estimate_moments(growth_series(load_series(DATA)), variance)
        options = ModelOptions(
            eq3_variant=eq3, lnex_mode="arithmetic" if lnex == "arithmetic" else "lognormal_implied"
        )
        manifold = trace_manifold(m, np.linspace(tau_min, tau_max, steps), options)
        reference = to_json({
            "gap": lognormality_gap(m),
            "points": [{**vars(pt), "residuals": vars(pt.residuals)} for pt in manifold],
        })
        payload = run_ok([
            "manifold", "--data", DATA, "--variance", variance, "--eq3", eq3, "--lnex", lnex,
            "--tau-min", repr(tau_min), "--tau-max", repr(tau_max), "--steps", str(steps),
        ])
        return payload, reference

    @PROPERTY_SETTINGS
    @given(
        tau_min=st.floats(0.05, 8.0),
        tau_max=st.floats(0.05, 8.0),
        steps=st.integers(1, 40),
        switches=st.sampled_from(SWITCHES),
    )
    def test_json_is_the_document_to_json_renders(self, tau_min, tau_max, steps, switches):
        payload, reference = self.payload_and_reference(tau_min, tau_max, steps, switches)
        # Lines, not one string: a failing example then reports its first
        # differing line instead of a character diff of the whole document.
        assert payload.splitlines() == reference.splitlines()
        assert payload == reference

    @pytest.mark.parametrize("switches", SWITCHES)
    @pytest.mark.parametrize("steps", [1, 2, 3, 1000])
    def test_row_template_gives_the_bytes_of_to_json(self, steps, switches):
        payload, reference = self.payload_and_reference(0.05, 8.0, steps, switches)
        assert payload == reference

    def test_tau_zero_grid_is_numerical_failure(self):
        outcome = run_command([
            "manifold", "--data", DATA, "--tau-min", "0", "--tau-max", "1",
            "--steps", "2",
        ])
        assert outcome.exit_code == 3

    def test_bad_steps_is_usage_error(self):
        outcome = run_command([
            "manifold", "--data", DATA, "--tau-min", "1", "--tau-max", "2",
            "--steps", "0",
        ])
        assert outcome.exit_code == 1


class TestValidateCommand:
    def test_small_battery_passes(self):
        doc = json.loads(run_ok(["validate", "--draws", "20000", "--seed", "42"]))
        assert doc["ok"] is True
        assert doc["draws"] == 20000
        assert all(c["z"] <= 4.0 for c in doc["cases"])

    def test_failed_battery_is_nonzero_exit(self, monkeypatch):
        import sfm.mc
        from sfm.mc import IdentityCheck, ValidationReport

        def failing(draws, seed=42):
            case = IdentityCheck(
                name="forced", kind="power-cov", closed_form=0.0,
                sample=1.0, std_error=0.1, z=10.0, ok=False,
            )
            return ValidationReport(ok=False, draws=draws, seed=seed, cases=(case,))

        monkeypatch.setattr(sfm.mc, "validate_identities", failing)
        outcome = run_command(["validate", "--draws", "10000"])
        assert outcome.exit_code == 3
        assert "failed" in outcome.payload


class TestJsonRoundTrips:
    CASES = {
        "moments": ["moments", "--data", DATA],
        "solve": ["solve", "--data", DATA, "--format", "json"],
        "manifold": ["manifold", "--data", DATA, "--tau-min", "1",
                     "--tau-max", "2", "--steps", "5"],
        "validate": ["validate", "--draws", "10000"],
        "classify": ["classify", "--data", DATA, "--year", "1977",
                     "--beta", "0.9581", "--tau", "1.0319",
                     "--sfom-equity", "1.0013", "--sfom-riskfree", "1.0657",
                     "--format", "json"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_parse_reemit_byte_identical(self, name):
        payload = run_ok(self.CASES[name])
        assert to_json(json.loads(payload)) == payload


class TestClassifyCommand:
    ARGS = CLASSIFY_ARGV

    def test_table_labels(self):
        table = run_ok(self.ARGS + ["--format", "table"])
        lines = table.splitlines()
        assert lines[0].split()[0] == "Investor"
        assert "STDF" in lines[0] and "SFOM" in lines[0] and "CRRA" in lines[0]
        assert "Certain Utility" in lines[0] and "Uncertain Utility" in lines[0]
        assert "Type of investor" in lines[0]
        assert lines[1].count("Insufficient risk-loving") == 1
        assert lines[2].count("Insufficient risk-loving") == 1
        assert "7.14871804" in lines[1]

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_non_finite_utility_is_numerical_failure(self, fmt, monkeypatch, capsys):
        argv = with_value(with_value(self.ARGS, "--beta", "1e308"), "--tau", "0")
        code, out, err = run_main([*argv, "--format", fmt], monkeypatch, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("equity investor: utilities are not finite")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_overflowing_utility_names_its_consumption_and_tau(self, fmt, monkeypatch, capsys):
        argv = with_value(self.ARGS, "--tau", "-100")
        code, out, err = run_main([*argv, "--format", fmt], monkeypatch, capsys)
        assert (code, out) == (3, "")
        assert err == ("utility at (c, tau) = (3339.999988750085, -100.0): "
                       "c^(1-tau) leaves the float range\n")

    def test_json_agrees_with_table(self):
        doc = json.loads(run_ok(self.ARGS + ["--format", "json"]))
        table = run_ok(self.ARGS + ["--format", "table"]).splitlines()
        for row, rep in zip(table[1:], doc["reports"]):
            fields = row.split()
            assert fields[0] == rep["investor"]
            assert fields[1] == f"{rep['stdf']:.4f}"
            assert fields[2] == f"{rep['sfom']:.4f}"
            assert fields[3] == f"{rep['crra']:.4f}"
            assert fields[4] == f"{rep['certain_utility']:.8f}"
            assert fields[5] == f"{rep['uncertain_utility']:.8f}"

    @pytest.mark.parametrize("tau, rows", [
        ("1e308", [
            "equity        0.9581    1.0013  1.0000e+308   1.00000000e-308     9.58100000e-309"
            "  Insufficient risk-loving     1977",
            "risk-free     0.9581    1.0657  1.0000e+308   1.00000000e-308     9.58100000e-309"
            "  Insufficient risk-loving     1977",
        ]),
        ("1e-7", [
            "equity        0.9581    1.0013  1.0000e-07     3338.99761267       3422.45719511"
            "  Sufficient risk-loving       1977",
            "risk-free     0.9581    1.0657  1.0000e-07     3338.99761267       3224.69402332"
            "  Insufficient risk-loving     1977",
        ]),
    ], ids=["tau=1e308", "tau=1e-7"])
    def test_value_repr_writes_with_an_exponent_prints_in_e_notation(self, tau, rows):
        # Fixed point would print 1e308 with 309 digits and 1e-7 and the
        # utilities near 1e-308 as zeros.
        table = run_ok(with_value(self.ARGS, "--tau", tau) + ["--format", "table"])
        assert table.splitlines()[1:] == rows

    def test_year_outside_series_is_data_error(self):
        argv = [a if a != "1977" else "2020" for a in self.ARGS]
        assert run_command(argv).exit_code == 2


class TestStreamContract:
    def test_success_goes_to_stdout(self):
        proc = fresh_run(["moments", "--data", DATA])
        assert proc.returncode == 0
        assert proc.stderr == b""
        json.loads(proc.stdout)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_stdout_ends_the_process_by_sigpipe(self):
        # Read one line of a 2,000-point manifold, then close the pipe, as `| head -1` does.
        proc = subprocess.Popen(
            [sys.executable, "-m", "sfm.cli", "manifold", "--data", DATA,
             "--tau-min", "-1e3", "--tau-max", "1", "--steps", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
        assert stderr == b""


def fresh_stdout(argv) -> str:
    """stdout of ``python -m sfm.cli <argv>``."""
    return fresh_run(argv, check=True).stdout.decode()


@pytest.mark.parametrize("argv, exit_code", [
    (["moments", "--data", DATA], 0),
    (CLASSIFY_ARGV, 0),
    (["validate", "--draws", "10000", "--seed", "7"], 0),
    (["moments", "--data", str(DATA_PATH.with_name("missing.csv"))], 2),
    (["manifold", "--data", DATA, "--tau-min", "1", "--tau-max", "2", "--steps", "0"], 1),
    (["solve", "--data", str(DATA_PATH.with_name("missing.csv"))], 2),
])
def test_fresh_process_exits_with_run_commands_outcome(argv, exit_code):
    # Every kind of outcome, through a real interpreter exit: the payload (a
    # diagnostic on failure) and a newline on the stream main picks, nothing
    # on the other one.
    outcome = run_command(argv)
    assert outcome.payload
    proc = fresh_run(argv)
    assert proc.returncode == outcome.exit_code == exit_code
    expected = (outcome.payload + "\n").encode()
    streams = (proc.stdout, proc.stderr) if outcome.exit_code == 0 else (proc.stderr, proc.stdout)
    assert streams == (expected, b"")


GOLDEN_SOLVE = json.loads((Path(__file__).parent / "data" / "solve_golden.json").read_text())


class TestSolveGolden:
    @pytest.mark.parametrize("setting", sorted(GOLDEN_SOLVE))
    def test_json_bytes_match_golden(self, setting):
        eq3, lnex = setting.split("/")
        payload = run_ok(["solve", "--data", DATA, "--eq3", eq3, "--lnex", lnex,
                          "--format", "json"])
        assert payload == to_json(GOLDEN_SOLVE[setting])

    def test_fresh_process_matches_golden(self):
        argv = ["solve", "--data", DATA, "--eq3", "rederived", "--lnex", "lognormal",
                "--format", "json"]
        assert fresh_stdout(argv) == to_json(GOLDEN_SOLVE["rederived/lognormal"]) + "\n"


GOLDEN_MANIFOLD = json.loads(
    (Path(__file__).parent / "data" / "manifold_golden.json").read_text()
)


class TestManifoldGolden:
    @pytest.mark.parametrize("setting", sorted(GOLDEN_MANIFOLD))
    def test_json_bytes_match_golden(self, setting):
        variance, eq3, lnex = setting.split("/")
        payload = run_ok(["manifold", "--data", DATA, "--variance", variance, "--eq3", eq3,
                          "--lnex", lnex, "--tau-min", "0.5", "--tau-max", "5", "--steps", "21"])
        assert payload == to_json(GOLDEN_MANIFOLD[setting])

    def test_fresh_process_matches_golden(self):
        argv = ["manifold", "--data", DATA, "--variance", "population", "--eq3", "printed",
                "--lnex", "arithmetic", "--tau-min", "0.5", "--tau-max", "5", "--steps", "21"]
        expected = to_json(GOLDEN_MANIFOLD["population/printed/arithmetic"]) + "\n"
        assert fresh_stdout(argv) == expected


GOLDEN_CLASSIFY = json.loads(
    (Path(__file__).parent / "data" / "classify_golden.json").read_text()
)


class TestClassifyGolden:
    # Each case holds its argv and the table and JSON payloads, byte for byte.
    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("case", sorted(GOLDEN_CLASSIFY))
    def test_output_bytes_match_golden(self, case, fmt):
        golden = GOLDEN_CLASSIFY[case]
        payload = run_ok(["classify", "--data", DATA, *golden["argv"], "--format", fmt])
        assert payload == golden[fmt]


MISSING = str(Path(DATA).with_name("missing.csv"))
# Bad values every flag is tried with: zero, negative (also in exponent and
# non-finite form), non-finite, huge (1e6 and 1e80 as --tau0 end a solve
# outside the float range), not a number, a path that does not exist.
FUZZ_VALUES = ("0", "-1", "-1e3", "nan", "inf", "-inf", "1e6", "1e80", "1e308", "abc", MISSING)
# Each subcommand's flags with a valid value, or a tuple of valid values to
# draw from; sizes are small to keep runs fast.
FORMATS = ("table", "json")
FUZZ_COMMANDS = {
    "moments": {"--data": DATA, "--variance": "population"},
    "solve": {"--data": DATA, "--beta0": "0.95", "--omega0": "1.1", "--delta0": "0.9",
              "--tau0": "2", "--eq3": "rederived", "--format": FORMATS},
    "manifold": {"--data": DATA, "--tau-min": "0.5", "--tau-max": "5", "--steps": "7",
                 "--lnex": "lognormal"},
    "validate": {"--draws": "10000", "--seed": "7"},
    "classify": {flag: value for flag, value in zip(CLASSIFY_ARGV[1::2], CLASSIFY_ARGV[2::2])}
    | {"--format": FORMATS},
}


@st.composite
def fuzzed_argv(draw):
    """A subcommand with up to two of its flags set to one of FUZZ_VALUES."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    flags = FUZZ_COMMANDS[command]
    bad = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, valid in flags.items():
        if flag in bad:
            valid = FUZZ_VALUES
        argv += [flag, valid if isinstance(valid, str) else draw(st.sampled_from(valid))]
    return argv


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestExitCodeContract:
    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(argv=fuzzed_argv())
    def test_fuzzed_argv_keeps_the_contract(self, argv):
        # main calls run_command, so an exception from either fails the test.
        # Output is captured here: pytest fixtures are not reset between examples.
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "argv", ["sfm", *argv]), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught, \
                pytest.raises(SystemExit) as exit_info:
            warnings.simplefilter("always")
            main()
        assert [str(w.message) for w in caught] == []
        code = exit_info.value.code
        assert code in (0, 1, 2, 3)
        if code == 0 and "table" in argv:
            assert not {"inf", "-inf", "nan"} & set(out.getvalue().split())
        elif code == 0:
            strict_json(out.getvalue())
        else:
            assert out.getvalue() == ""
            assert err.getvalue().strip() != ""
