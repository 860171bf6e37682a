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
one row, which the next block recomputes to the same bits; the row
template of ``sfm manifold`` with ``%s`` fields for ``%r``, since a float's
``str`` is its ``repr`` in Python 3; ``trace_manifold`` reading its grid
with ``np.array`` (a copy) for ``np.asarray``, since the rows it returns
hold their own copy of every tau; and ``trace_manifold``'s finite check
reading ``np.isfinite(r).all(axis=1)`` for the row norms. The two differ
only where every residual is finite and a square overflows, past 1.3e154,
but a factor overflows long before: the factors are exp(b, w, d) with
b + w + d = S, so d, about S + tau^2 sigma2_x / 2 at moderate |S|, passes
709 first, and at huge |S| beta or delta does. No test can tell any of the
four apart.

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
           "f = np.exp(v)",
           "f = np.exp(v * (1 + 1e-14))",
           ("tests/test_solver.py::TestTraceManifold",)),
    Mutant("manifold-singular-test-inverted", "src/sfm/solver.py",
           "if np.linalg.det(a[i, :3]) == 0.0:",
           "if np.linalg.det(a[i, :3]) != 0.0:",
           ("tests/test_solver.py::TestTraceManifold",)),
    Mutant("manifold-finite-check-dropped", "src/sfm/solver.py",
           "            if not finite.all():",
           "            if False:",
           ("tests/test_solver.py::TestTraceManifold::test_overflowing_point_is_named",
            "tests/test_cli.py::TestExitCodes::test_overflowing_manifold_names_its_first_tau")),
    Mutant("manifold-columns-writeable", "src/sfm/solver.py",
           "    rows.flags.writeable = False\n",
           "    pass\n",
           ("tests/test_solver.py",)),
    Mutant("manifold-rows-order", "src/sfm/solver.py",
           "= tau, f, r, norm",
           "= tau, f[:, ::-1], r, norm",
           ("tests/test_cli.py::TestManifoldGolden",
            "tests/test_solver.py::TestManifoldSequence::test_rows_are_in_print_order")),
    Mutant("iteration-block-short", "src/sfm/solver.py",
           "self.rows[start:start + MANIFOLD_BLOCK]",
           "self.rows[start:start + MANIFOLD_BLOCK - 1]",
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
    Mutant("crra-overflow-unnamed", "src/sfm/classify.py",
           "    except OverflowError:",
           "    except ZeroDivisionError:",
           ("tests/test_classify.py::TestCrraUtility::test_overflow_names_consumption_and_tau",
            "tests/test_cli.py::TestClassifyCommand::"
            "test_overflowing_utility_names_its_consumption_and_tau")),
    Mutant("uncertain-beta-dropped", "src/sfm/classify.py",
           "return beta * _mean(",
           "return _mean(",
           ("tests/test_metamorphic.py::test_scaling_consumption_scales_the_uncertain_utility",)),
    Mutant("openblas-default-dropped", "src/sfm/__init__.py",
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")',
           "pass",
           ("tests/test_imports.py::test_import_defaults_openblas_to_one_thread",)),
    Mutant("openblas-default-overrides-user", "src/sfm/__init__.py",
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")',
           'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
           ("tests/test_imports.py::test_import_defaults_openblas_to_one_thread",)),
    Mutant("freeze-always", "src/sfm/cli.py",
           "    if fresh:\n        # Shutdown runs",
           "    if True:\n        # Shutdown runs",
           ("tests/test_imports.py::test_fresh_main_freezes_its_heap_before_exit",)),
    Mutant("gc-disable-always", "src/sfm/cli.py",
           "        gc.disable()\n    outcome",
           "    gc.disable()\n    outcome",
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
           '"beta": "%r", "omega": "%r",',
           '"omega": "%r", "beta": "%r",',
           ("tests/test_cli.py::TestManifoldGolden",)),
    Mutant("manifold-template-r5-norm-swap", "src/sfm/cli.py",
           '"r5": "%r", "norm": "%r"',
           '"norm": "%r", "r5": "%r"',
           ("tests/test_cli.py::TestManifoldCommand::"
            "test_row_template_gives_the_bytes_of_to_json",)),
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
    Mutant("dot-whole-block", "src/sfm/mc.py",
           "return p[:h].dot(q[:h]) + p[h:].dot(q[h:])",
           "return p.dot(q)",
           ("tests/test_mc.py::TestSamplePairs::"
            "test_block_dots_stay_under_the_openblas_threading_threshold",)),
    Mutant("dot-half-swapped", "src/sfm/mc.py",
           "p[h:].dot(q[h:])",
           "p[h:].dot(p[h:])",
           ("tests/test_mc.py::TestSamplePairs::test_chunked_accumulation_matches_direct_numpy",)),
    Mutant("record-setattr-dropped", "src/sfm/errors.py",
           "    def __setattr__(self, name, value):\n"
           "        raise AttributeError(f\"cannot assign to field {name!r}\")\n\n",
           "",
           ("tests/test_records.py::test_fields_are_read_only",)),
    Mutant("record-eq-any-class", "src/sfm/errors.py",
           "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
           "",
           ("tests/test_records.py::test_a_record_of_another_type_is_never_equal",)),
    Mutant("residuals-r3-r4-swap", "src/sfm/model.py",
           "vars(self).update(r2=r2, r3=r3, r4=r4, r5=r5, norm=norm)",
           "vars(self).update(r2=r2, r3=r4, r4=r3, r5=r5, norm=norm)",
           ("tests/test_cli.py::TestSolveGolden",)),
    Mutant("bundled-rho-data", "src/sfm/mc.py",
           "0.15573663581568173, 0.4\n",
           "0.15573663581568173, 0.39999999999999997\n",
           ("tests/test_mc.py::TestValidateIdentities::"
            "test_bundled_rho_is_the_target_one_ulp_above_the_data",)),
)


def run_pytest(tree: Path, args, env=os.environ) -> int | None:
    """pytest's exit code for ``args`` run in ``tree`` under ``env``; None on a timeout."""
    # No bytecode: a mutant of the same size written within the same second
    # would otherwise import the previous run's cached module.
    env = {**env, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(tree / "src"),
                                                        env.get("PYTHONPATH"))))}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def select(rows, argv, noun: str, line, description: str):
    """The rows that ``argv`` names by id (all, in table order, if none), or None once
    ``--list`` has printed ``line(row)`` for each; an unknown id exits 2."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("ids", nargs="*", help=f"{noun} ids to run (default: all)")
    parser.add_argument("--list", action="store_true", help=f"list the {noun}s and exit")
    args = parser.parse_args(argv)
    by_id = {row.id: row for row in rows}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        parser.error(f"unknown {noun} id(s): {', '.join(unknown)}")
    chosen = [by_id[i] for i in args.ids] or list(rows)
    if args.list:
        print("".join(f"{line(row)}\n" for row in chosen), end="")
        return None
    return chosen


def run_mutant(mutant: Mutant, tree: Path) -> str:
    """'killed' (a timeout too), 'survived' or 'error' for one mutant applied at ``tree``."""
    path = tree / mutant.file
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "error"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        code = run_pytest(tree, ["-x", *mutant.tests])
    finally:
        path.write_text(original)
    return {0: "survived", 1: "killed", None: "killed"}.get(code, "error")


def main(argv=None) -> int:
    chosen = select(MUTANTS, argv, "mutant",
                    lambda mutant: f"{mutant.id:28} {mutant.file:20} {' '.join(mutant.tests)}",
                    __doc__.splitlines()[0])
    if chosen is None:
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
        if run_pytest(tree, ["-x", *tests]) != 0:
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
