import json
import subprocess
import sys

import pytest

from sfm.cli import main, run_command, to_json

from conftest import DATA_PATH

DATA = str(DATA_PATH)


def run_ok(argv):
    outcome = run_command(argv)
    assert outcome.exit_code == 0, outcome.payload
    return outcome.payload


class TestExitCodes:
    def test_missing_file_is_data_error(self):
        outcome = run_command(["solve", "--data", "missing.csv"])
        assert outcome.exit_code == 2

    def test_unknown_flag_is_usage_error(self):
        outcome = run_command(["solve", "--data", DATA, "--frobnicate"])
        assert outcome.exit_code == 1

    def test_missing_required_flag_is_usage_error(self):
        outcome = run_command(["solve"])
        assert outcome.exit_code == 1

    def test_unknown_command_is_usage_error(self):
        outcome = run_command(["explode"])
        assert outcome.exit_code == 1

    def test_invalid_data_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,consumption,equity_return,riskfree_return\n1900,-5,1,1\n")
        outcome = run_command(["moments", "--data", str(bad)])
        assert outcome.exit_code == 2
        assert "line 2" in outcome.payload

    def test_numerical_failure_is_exit_3(self):
        outcome = run_command(["solve", "--data", DATA, "--tau0", "1e200"])
        assert outcome.exit_code == 3

    def test_success_is_exit_0(self):
        assert run_command(["moments", "--data", DATA]).exit_code == 0

    @pytest.mark.parametrize("argv,flag", [
        (["validate", "--draws", "10000", "--seed", "-1"], "--seed"),
        (["manifold", "--data", DATA, "--tau-min", "0.5", "--tau-max", "nan",
          "--steps", "5"], "--tau-max"),
        (["manifold", "--data", DATA, "--tau-min", "inf", "--tau-max", "2",
          "--steps", "5"], "--tau-min"),
    ], ids=["seed-negative", "tau-max-nan", "tau-min-inf"])
    def test_bad_value_is_usage_error_on_stderr(self, argv, flag, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["sfm", *argv])
        with pytest.raises(SystemExit) as exit_info:
            main()
        out, err = capsys.readouterr()
        assert exit_info.value.code == 1
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

    def test_too_few_draws_is_numerical_failure(self):
        outcome = run_command(["validate", "--draws", "100"])
        assert outcome.exit_code == 3

    def test_failed_battery_is_nonzero_exit(self, monkeypatch):
        import sfm.mc as mc
        from sfm.mc import IdentityCheck, ValidationReport

        def failing(draws, seed=42):
            case = IdentityCheck(
                name="forced", kind="power-cov", closed_form=0.0,
                sample=1.0, std_error=0.1, z=10.0, ok=False,
            )
            return ValidationReport(ok=False, draws=draws, seed=seed, cases=(case,))

        monkeypatch.setattr(mc, "validate_identities", failing)
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
    ARGS = [
        "classify", "--data", DATA, "--year", "1977",
        "--beta", "0.9581", "--tau", "1.0319",
        "--sfom-equity", "1.0013", "--sfom-riskfree", "1.0657",
    ]

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
