import contextlib
import csv
import gzip
import io
import json
import math
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
    Manifold,
    ModelOptions,
    estimate_moments,
    growth_series,
    load_series,
    lognormality_gap,
    trace_manifold,
)
from sfm.cli import main, run_command, to_json

from conftest import DATA_PATH
from helpers import PROPERTY_SETTINGS

DATA = str(DATA_PATH)
CLASSIFY_ARGV = [
    "classify", "--data", DATA, "--year", "1977",
    "--beta", "0.9581", "--tau", "1.0319",
    "--sfom-equity", "1.0013", "--sfom-riskfree", "1.0657",
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

    def test_numerical_failure_is_exit_3(self, monkeypatch, capsys):
        argv = ["solve", "--data", DATA, "--tau0", "1e200"]
        assert run_main(argv, monkeypatch, capsys) == (
            3, "", "non-finite residuals at initial point\n"
        )

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

    def test_help_is_exit_0(self, monkeypatch, capsys):
        code, out, err = run_main(["--help"], monkeypatch, capsys)
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
        (["solve", "--data", DATA, "--beta0", "0"], "--beta0"),
        (["solve", "--data", DATA, "--beta0", "-1"], "--beta0"),
        (["solve", "--data", DATA, "--omega0", "0"], "--omega0"),
        (["solve", "--data", DATA, "--delta0", "-1"], "--delta0"),
        (with_value(CLASSIFY_ARGV, "--sfom-equity", "0"), "--sfom-equity"),
        (with_value(CLASSIFY_ARGV, "--sfom-riskfree", "-1"), "--sfom-riskfree"),
        (["manifold", "--data", DATA, "--tau-min", "0.5", "--tau-max", "2",
          "--steps", "0"], "--steps"),
        (["manifold", "--data", DATA, "--tau-min", "0.5", "--tau-max", "2",
          "--steps", "100000000000000000"], "--steps"),
    ], ids=["seed-negative", "tau-max-nan", "tau-min-inf", "beta0-nan", "omega0-inf",
            "delta0-inf", "tau0-nan", "beta-nan", "tau-inf", "sfom-equity-nan",
            "sfom-riskfree-inf", "draws-zero", "draws-negative", "draws-one", "draws-9999",
            "beta0-zero", "beta0-negative", "omega0-zero", "delta0-negative",
            "sfom-equity-zero", "sfom-riskfree-negative", "steps-zero", "steps-huge"])
    def test_bad_value_is_usage_error_on_stderr(self, argv, flag, monkeypatch, capsys):
        code, out, err = run_main(argv, monkeypatch, capsys)
        assert code == 1
        assert out == ""
        assert flag in err

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

    def test_json_round_trip_byte_identical(self):
        payload = run_ok(["solve", "--data", DATA, "--format", "json"])
        assert to_json(json.loads(payload)) == payload

    def test_deterministic_repeat_runs(self):
        argv = ["solve", "--data", DATA, "--format", "json"]
        assert run_ok(argv) == run_ok(argv)

    def test_table_and_json_agree(self):
        doc = json.loads(run_ok(["solve", "--data", DATA, "--format", "json"]))
        table = run_ok(["solve", "--data", DATA, "--format", "table"])
        lines = table.splitlines()
        equity = lines[1].split()
        riskfree = lines[2].split()
        assert equity[1] == f"{doc['params']['beta']:.4f}"
        assert equity[2] == f"{doc['params']['delta']:.4f}"
        assert equity[3] == f"{doc['params']['tau']:.4f}"
        assert riskfree[2] == f"{doc['params']['omega']:.4f}"
        norm_line = next(line for line in lines if line.startswith("norm"))
        assert f"{doc['residuals']['norm']:.6e}" in norm_line
        assert f"{doc['gap']:.6e}" in norm_line

    def test_switches_are_accepted(self):
        for eq3 in ("printed", "rederived"):
            for lnex in ("arithmetic", "lognormal"):
                doc = json.loads(run_ok([
                    "solve", "--data", DATA, "--format", "json",
                    "--eq3", eq3, "--lnex", lnex,
                ]))
                assert doc["rank"] <= 3

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

    @PROPERTY_SETTINGS
    @given(
        tau_min=st.floats(0.05, 8.0),
        tau_max=st.floats(0.05, 8.0),
        steps=st.integers(1, 40),
        switches=st.sampled_from([(v, e, l) for v in ("sample", "population")
                                  for e in ("printed", "rederived")
                                  for l in ("arithmetic", "lognormal")]),
    )
    def test_json_is_the_document_to_json_renders(self, tau_min, tau_max, steps, switches):
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
        # Lines, not one string: a failing example then reports its first
        # differing line instead of a character diff of the whole document.
        assert payload.splitlines() == reference.splitlines()
        assert payload == reference

    def test_non_finite_value_is_numerical_failure(self, monkeypatch, capsys):
        def overflowing(*args):
            manifold = trace_manifold(*args)
            return Manifold(manifold.tau, manifold.factors, manifold.residuals, np.array([math.inf]))

        monkeypatch.setattr("sfm.solver.trace_manifold", overflowing)
        with pytest.raises(ValueError) as rejected:
            to_json(math.inf)
        argv = ["manifold", "--data", DATA, "--tau-min", "1", "--tau-max", "1", "--steps", "1"]
        assert run_main(argv, monkeypatch, capsys) == (3, "", f"{rejected.value}\n")

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

    def test_year_outside_series_is_data_error(self):
        argv = [a if a != "1977" else "2020" for a in self.ARGS]
        assert run_command(argv).exit_code == 2


class TestStreamContract:
    def run_process(self, args):
        return subprocess.run(
            [sys.executable, "-m", "sfm.cli", *args],
            capture_output=True, text=True, timeout=120,
        )

    def test_error_goes_to_stderr_only(self):
        proc = self.run_process(["solve", "--data", "missing.csv"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip() != ""

    def test_success_goes_to_stdout(self):
        proc = self.run_process(["moments", "--data", DATA])
        assert proc.returncode == 0
        assert proc.stderr == ""
        json.loads(proc.stdout)

    def test_end_to_end_byte_identical(self):
        a = self.run_process(["solve", "--data", DATA, "--format", "json"])
        b = self.run_process(["solve", "--data", DATA, "--format", "json"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


GOLDEN_SOLVE = json.loads((Path(__file__).parent / "data" / "solve_golden.json").read_text())


class TestSolveGolden:
    @pytest.mark.parametrize("setting", sorted(GOLDEN_SOLVE))
    def test_json_bytes_match_golden(self, setting):
        eq3, lnex = setting.split("/")
        payload = run_ok(["solve", "--data", DATA, "--eq3", eq3, "--lnex", lnex,
                          "--format", "json"])
        assert payload == to_json(GOLDEN_SOLVE[setting])


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


MISSING = str(Path(DATA).with_name("missing.csv"))
# Bad values every flag is tried with: zero, negative, non-finite, huge,
# not a number, a path that does not exist.
FUZZ_VALUES = ("0", "-1", "nan", "inf", "1e308", "abc", MISSING)
# Each subcommand's flags with a valid value; sizes are small to keep runs fast.
FUZZ_COMMANDS = {
    "moments": {"--data": DATA, "--variance": "population"},
    "solve": {"--data": DATA, "--beta0": "0.95", "--omega0": "1.1", "--delta0": "0.9",
              "--tau0": "2", "--eq3": "rederived", "--format": "json"},
    "manifold": {"--data": DATA, "--tau-min": "0.5", "--tau-max": "5", "--steps": "7",
                 "--lnex": "lognormal"},
    "validate": {"--draws": "10000", "--seed": "7"},
    "classify": {flag: value for flag, value in zip(CLASSIFY_ARGV[1::2], CLASSIFY_ARGV[2::2])}
    | {"--format": "json"},
}


@st.composite
def fuzzed_argv(draw):
    """A subcommand with up to two of its flags set to one of FUZZ_VALUES."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    flags = FUZZ_COMMANDS[command]
    bad = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, valid in flags.items():
        argv += [flag, draw(st.sampled_from(FUZZ_VALUES)) if flag in bad else valid]
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
        if code == 0:
            strict_json(out.getvalue())
        else:
            assert out.getvalue() == ""
            assert err.getvalue().strip() != ""
