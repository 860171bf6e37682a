#!/usr/bin/env python3
"""Mutation checks: does the test suite notice a deliberate fault in sfm?

Each row of MUTANTS names one small fault: a file, a text that occurs in it
exactly once, the text that replaces it, and the tests that should fail
because of it. The tool copies the tree (src, tests, data, pyproject.toml)
to a temporary directory, applies one mutant at a time there, runs that
mutant's tests with pytest and prints "killed" (a test failed), "survived"
(every test passed) or "error" (pytest could not run them), then a score.
It first runs every chosen test on the unchanged copy and stops if one
fails, so that "killed" always means the mutant's doing. The checkout itself
is never edited. A fault may take one row per test that must catch it
(eq3-sign and eq3-sign-log-shift).

Known equivalent, so not in the table: ``trace_manifold`` blocks one row
longer (start + MANIFOLD_BLOCK + 1), so that consecutive blocks overlap by
one row. The next block recomputes that row to the same bits, so no test
can tell the mutant apart.

    python3 tools/mutants.py              # every mutant, about 2-10 s each
    python3 tools/mutants.py pairwise-edge tau-range-unchecked
    python3 tools/mutants.py --list

The method is mutation analysis (DeMillo, Lipton & Sayward, "Hints on test
data selection", Computer 11(4), 1978). Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# What a mutant run needs of the tree; build and cache directories stay behind.
COPIED = ("src", "tests", "data", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    id: str
    file: str           # relative to the repository root
    old: str            # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("v-float32", "src/sfm/model.py",
           "return ac, ac[:, :3].dot(x[:3]) + ac[:, 3]",
           "return ac, ac[:, :3].dot(x[:3].astype(np.float32)) + ac[:, 3]",
           ("tests/test_model.py::TestAffineCoreProperties",)),
    Mutant("derivative-row-tau", "src/sfm/model.py",
           "np.array((0.0, 1.0, 2.0 * x[3]))",
           "np.array((0.0, 1.0, x[3]))",
           ("tests/test_model.py::TestJacobian",)),
    Mutant("eq3-sign", "src/sfm/model.py",
           'f_per_k = -f if options.eq3_variant == "printed" else f',
           'f_per_k = f if options.eq3_variant == "printed" else -f',
           ("tests/test_model.py::TestResidualVector",)),
    Mutant("eq3-sign-log-shift", "src/sfm/model.py",
           'f_per_k = -f if options.eq3_variant == "printed" else f',
           'f_per_k = f if options.eq3_variant == "printed" else -f',
           ("tests/test_metamorphic.py::test_eq3_switch_shifts_the_log_factors_by_constants",)),
    Mutant("r5-constant-drops-h", "src/sfm/model.py",
           "rm - ln_ex + mu + h,",
           "rm - ln_ex + mu,",
           ("tests/test_metamorphic.py::test_lnex_switch_changes_only_r5",)),
    Mutant("r3-constant-sign", "src/sfm/model.py",
           "kappa, kappa, kappa, kappa * f_per_k,",
           "kappa, kappa, kappa, -kappa * f_per_k,",
           ("tests/test_metamorphic.py::test_log_factor_sum_is_constant_on_the_manifold",)),
    Mutant("log-vector-order", "src/sfm/model.py",
           "math.log(self.omega), math.log(self.delta)",
           "math.log(self.delta), math.log(self.omega)",
           ("tests/test_model.py::TestResidualVector::test_reference_point_regression",)),
    Mutant("power-cov-overflow-untyped", "src/sfm/model.py",
           "    except OverflowError:\n        raise DomainError(",
           "    except ZeroDivisionError:\n        raise DomainError(",
           ("tests/test_model.py::TestLognormalPowerCov",)),
    Mutant("table-writeable", "src/sfm/model.py",
           "    table.flags.writeable = False\n",
           "",
           ("tests/test_model.py",)),
    Mutant("manifold-log-scale", "src/sfm/solver.py",
           "f = np.exp(v, out=factors[rows])",
           "f = np.exp(v * (1 + 1e-14), out=factors[rows])",
           ("tests/test_solver.py::TestTraceManifold",)),
    Mutant("manifold-singular-test-inverted", "src/sfm/solver.py",
           "if np.linalg.det(a[i, :3]) == 0.0:",
           "if np.linalg.det(a[i, :3]) != 0.0:",
           ("tests/test_solver.py::TestTraceManifold",)),
    Mutant("manifold-columns-writeable", "src/sfm/solver.py",
           "        column.flags.writeable = False\n",
           "        pass\n",
           ("tests/test_solver.py",)),
    Mutant("iteration-block-short", "src/sfm/solver.py",
           "rows = slice(start, start + MANIFOLD_BLOCK)\n            for tau,",
           "rows = slice(start, start + MANIFOLD_BLOCK - 1)\n            for tau,",
           ("tests/test_solver.py",)),
    Mutant("solve-no-errstate", "src/sfm/solver.py",
           'with np.errstate(over="ignore", invalid="ignore"):\n        r, jac',
           "with np.errstate():\n        r, jac",
           ("tests/test_solver.py::TestSolve",)),
    Mutant("stale-jacobian-point", "src/sfm/solver.py",
           "norm_new, _jacobian_from(table, x_new, ac)",
           "norm_new, _jacobian_from(table, x, ac)",
           ("tests/test_solver.py::TestSolve",)),
    Mutant("nan-trial-accepted", "src/sfm/solver.py",
           "if norm_new <= norm:",
           "if not norm_new > norm:",
           ("tests/test_solver.py::TestDampedStep::test_a_nan_trial_is_a_rejected_trial",
            "tests/test_solver.py::TestSolve")),
    Mutant("damping-dropped", "src/sfm/solver.py",
           "jtj + lam * _IDENTITY",
           "jtj + _IDENTITY",
           ("tests/test_solver.py::TestSolveStartsGolden",)),
    Mutant("gradient-untransposed", "src/sfm/solver.py",
           "grad = jac.T.dot(r)",
           "grad = jac.dot(r)",
           ("tests/test_solver.py::TestSolveReference",)),
    Mutant("step-sign", "src/sfm/solver.py",
           "x_new = x - step",
           "x_new = x + step",
           ("tests/test_solver.py::TestSolveReference",)),
    Mutant("floor-sqrt2", "src/sfm/solver.py",
           "return abs(lognormality_gap(m)) / math.sqrt(3.0)",
           "return abs(lognormality_gap(m)) / math.sqrt(2.0)",
           ("tests/test_solver.py::TestSolve",)),
    Mutant("pairwise-edge", "src/sfm/classify.py",
           "if n > 128:",
           "if n > 127:",
           ("tests/test_classify.py",)),
    Mutant("scenarios-swapped", "src/sfm/classify.py",
           '("equity", sfom_equity, growth.r_e),\n        ("risk-free", sfom_riskfree, growth.r_f),',
           '("equity", sfom_equity, growth.r_f),\n        ("risk-free", sfom_riskfree, growth.r_e),',
           ("tests/test_cli.py::TestClassifyGolden",)),
    Mutant("label-boundary", "src/sfm/classify.py",
           "if uncertain < certain:",
           "if uncertain <= certain:",
           ("tests/test_acceptance.py::test_criterion_8_classification_golden",)),
    Mutant("mean-identity-dropped", "src/sfm/classify.py",
           "(0.0 + _pairwise_sum(values))",
           "_pairwise_sum(values)",
           ("tests/test_classify.py",)),
    Mutant("crra-naive-power", "src/sfm/classify.py",
           "math.expm1(one_m_tau * math.log(c))",
           "(c ** one_m_tau - 1.0)",
           ("tests/test_metamorphic.py::test_scaling_consumption_scales_the_certain_utility",)),
    Mutant("crra-zero-consumption", "src/sfm/classify.py",
           "if not c > 0:",
           "if c < 0:",
           ("tests/test_classify.py::TestUncertainUtility::"
            "test_non_positive_consumption_rejected",)),
    Mutant("tau-one-band", "src/sfm/classify.py",
           "if one_m_tau == 0.0:",
           "if abs(one_m_tau) < 1e-8:",
           ("tests/test_classify.py::TestCrraUtility::test_matches_an_exact_reference",)),
    Mutant("uncertain-beta-dropped", "src/sfm/classify.py",
           "return beta * _mean(",
           "return _mean(",
           ("tests/test_metamorphic.py::test_scaling_consumption_scales_the_uncertain_utility",)),
    Mutant("freeze-always", "src/sfm/cli.py",
           "    if fresh:\n        # Shutdown runs",
           "    if True:\n        # Shutdown runs",
           ("tests/test_imports.py::test_fresh_main_freezes_its_heap_before_exit",)),
    Mutant("parser-join-long-flag", "src/sfm/cli.py",
           ' and arg[:2] != "--"',
           "",
           ("tests/test_cli.py::TestExitCodes::test_long_flag_is_never_a_value",)),
    Mutant("parser-join-digits-only", "src/sfm/cli.py",
           'arg[:1] == "-" and arg[:2] != "--"',
           'arg[:1] == "-" and arg[1:2].isdigit()',
           ("tests/test_cli.py::TestExitCodes::"
            "test_dash_word_after_a_value_flag_reads_as_with_equals",)),
    Mutant("join-onto-help", "src/sfm/cli.py",
           " and action.nargs is None",
           "",
           ("tests/test_cli.py::TestExitCodes::test_help_is_exit_0",)),
    Mutant("sigpipe-default-dropped", "src/sfm/cli.py",
           "signal.signal(signal.SIGPIPE, signal.SIG_DFL)",
           "pass",
           ("tests/test_cli.py::TestStreamContract::"
            "test_closed_stdout_ends_the_process_by_sigpipe",)),
    Mutant("manifold-beta-omega-swap", "src/sfm/cli.py",
           '{"tau": tau, "beta": beta, "omega": omega,',
           '{"tau": tau, "beta": omega, "omega": beta,',
           ("tests/test_cli.py::TestManifoldGolden",)),
    Mutant("tau-range-unchecked", "src/sfm/cli.py",
           "    if not math.isfinite(args.tau_max - args.tau_min):",
           "    if False:",
           ("tests/test_cli.py::TestExitCodes",)),
    Mutant("moments-runs-solve", "src/sfm/cli.py",
           "set_defaults(run=_cmd_moments)",
           "set_defaults(run=_cmd_solve)",
           ("tests/test_cli.py::TestMomentsCommand",)),
    Mutant("solve-table-r3-r4-swap", "src/sfm/cli.py",
           "r3 {r.r3:.6e}  r4 {r.r4:.6e}",
           "r3 {r.r4:.6e}  r4 {r.r3:.6e}",
           ("tests/test_cli.py::TestSolveCommand::test_table_and_json_agree",)),
    Mutant("fixed-fallback-dropped", "src/sfm/cli.py",
           "{'e' if 'e' in repr(value) else 'f'}",
           "f",
           ("tests/test_cli.py::TestClassifyCommand::"
            "test_value_repr_writes_with_an_exponent_prints_in_e_notation",)),
    Mutant("classify-crra-decimals", "src/sfm/cli.py",
           "_fixed(crra, 4)",
           "_fixed(crra, 3)",
           ("tests/test_cli.py::TestClassifyGolden",)),
    Mutant("bom-not-skipped", "src/sfm/dataset.py",
           'encoding="utf-8-sig"',
           'encoding="utf-8"',
           ("tests/test_cli.py::TestExitCodes::test_leading_byte_order_mark_is_skipped",)),
    Mutant("line-number-shift", "src/sfm/dataset.py",
           "lineno = reader.line_num ",
           "lineno = reader.line_num - 1 ",
           ("tests/test_dataset.py::TestLoadSeries",)),
    Mutant("utf8-error-unmapped", "src/sfm/dataset.py",
           "except UnicodeDecodeError",
           "except UnicodeEncodeError",
           ("tests/test_cli.py::TestExitCodes::test_invalid_data_file_is_data_error",)),
    Mutant("growth-through-logs", "src/sfm/dataset.py",
           "x = tuple(cur / prev for prev, cur",
           "x = tuple(math.exp(math.log(cur) - math.log(prev)) for prev, cur",
           ("tests/test_metamorphic.py::"
            "test_scaling_consumption_by_a_power_of_two_keeps_every_byte",)),
    Mutant("sample-divisor", "src/sfm/moments.py",
           'ddof = 1 if convention == "sample" else 0',
           'ddof = 0 if convention == "sample" else 1',
           ("tests/test_moments.py",)),
    Mutant("pair-perp-scale", "src/sfm/mc.py",
           "math.sqrt(1.0 - spec.rho**2)",
           "math.sqrt(1.0 - spec.rho)",
           ("tests/test_mc.py::TestSamplePairs::test_chunked_accumulation_matches_direct_numpy",)),
    Mutant("shift-sign", "src/sfm/mc.py",
           "np.subtract(w, row[k], out=w)",
           "np.add(w, row[k], out=w)",
           ("tests/test_mc.py::TestSamplePairs::test_chunked_accumulation_matches_direct_numpy",)),
    Mutant("first-block-skipped", "src/sfm/mc.py",
           "            yield zx[lo:hi], z_perp[:hi - lo]\n",
           "            if index or lo:\n                yield zx[lo:hi], z_perp[:hi - lo]\n",
           ("tests/test_mc.py::TestSamplePairs::test_chunked_accumulation_matches_direct_numpy",)),
    Mutant("bundled-rho-data", "src/sfm/mc.py",
           "0.15573663581568173, 0.4\n",
           "0.15573663581568173, 0.39999999999999997\n",
           ("tests/test_mc.py::TestValidateIdentities::"
            "test_bundled_rho_is_the_target_one_ulp_above_the_data",)),
)


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for ``tests`` in the copy at ``tree``; a timeout counts as 1."""
    # No bytecode: a mutant of the same size written within the same second
    # would otherwise import the previous run's cached module.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(tree / "src"),
                                                        os.environ.get("PYTHONPATH"))))}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return 1                        # a mutant that hangs its tests is caught


def run_mutant(mutant: Mutant, tree: Path) -> str:
    """'killed', 'survived' or 'error' for one mutant applied to the copy at ``tree``."""
    path = tree / mutant.file
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "error"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        code = run_tests(tree, mutant.tests)
    finally:
        path.write_text(original)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="mutant ids to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_id = {mutant.id: mutant for mutant in MUTANTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        parser.error(f"unknown mutant id(s): {', '.join(unknown)}")
    chosen = [by_id[i] for i in args.ids] or list(MUTANTS)
    if args.list:
        for mutant in chosen:
            print(f"{mutant.id:28} {mutant.file:20} {' '.join(mutant.tests)}")
        return 0
    with tempfile.TemporaryDirectory(prefix="sfm-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        tests = list(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
        if run_tests(tree, tests) != 0:
            print("the unmutated copy fails its tests; no mutant was run", file=sys.stderr)
            return 2
        outcomes = []
        for mutant in chosen:
            outcome = run_mutant(mutant, tree)
            outcomes.append(outcome)
            print(f"{outcome:8} {mutant.id}", flush=True)
    killed = outcomes.count("killed")
    print(f"score: {killed}/{len(outcomes)} killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
