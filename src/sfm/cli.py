"""Command-line interface: moments | solve | manifold | validate | classify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
On a non-zero exit the diagnostic goes to stderr and stdout stays empty.
JSON output is deterministic: stable key order and round-trippable float
formatting, so identical inputs give byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .classify import build_reports
from .dataset import load_series, growth_series
from .errors import DataError, SolverError
from .model import ModelOptions, ModelParams
from .moments import estimate_moments, lognormality_gap
from .solver import SolverConfig, solve, trace_manifold

_PARAM_FMT = "{:.4f}"     # table precision for parameters, as published
_UTILITY_FMT = "{:.8f}"   # table precision for utilities, as published
_RESID_FMT = "{:.6e}"


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    payload: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def to_json(document) -> str:
    """Canonical JSON rendering; reformatting a parsed document is byte-stable.

    Non-finite floats raise ValueError, so stdout never carries NaN/Infinity.
    """
    return json.dumps(document, indent=2, allow_nan=False)


def _checked(convert, accept, requirement: str):
    """An argparse type that converts with ``convert`` and rejects values failing ``accept``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


_finite_float = _checked(float, math.isfinite, "must be a finite number")
_non_negative_int = _checked(int, lambda value: value >= 0, "must be an integer >= 0")


def _residuals_doc(residuals) -> dict:
    return {
        "r2": residuals.r2,
        "r3": residuals.r3,
        "r4": residuals.r4,
        "r5": residuals.r5,
        "norm": residuals.norm,
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="sfm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data(p):
        p.add_argument("--data", required=True, help="canonical CSV path")

    def add_switches(p):
        p.add_argument("--variance", choices=("sample", "population"), default="sample")
        p.add_argument("--eq3", choices=("printed", "rederived"), default="printed")
        p.add_argument("--lnex", choices=("arithmetic", "lognormal"), default="arithmetic")

    p = sub.add_parser("moments", help="sample statistics and lognormality gap")
    add_data(p)
    p.add_argument("--variance", choices=("sample", "population"), default="sample")

    p = sub.add_parser("solve", help="damped least-squares solve of the system")
    add_data(p)
    add_switches(p)
    p.add_argument("--beta0", type=float, default=0.99)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--delta0", type=float, default=1.0)
    p.add_argument("--tau0", type=float, default=2.0)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("manifold", help="trace the solution family over tau")
    add_data(p)
    add_switches(p)
    p.add_argument("--tau-min", type=_finite_float, required=True)
    p.add_argument("--tau-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("validate", help="Monte Carlo check of lognormal identities")
    p.add_argument("--draws", type=int, default=1_000_000)
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("classify", help="investor reports in the published layout")
    add_data(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--sfom-equity", type=float, required=True)
    p.add_argument("--sfom-riskfree", type=float, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    return parser


def _options(args) -> ModelOptions:
    lnex = "arithmetic" if args.lnex == "arithmetic" else "lognormal_implied"
    return ModelOptions(eq3_variant=args.eq3, lnex_mode=lnex)


def _load_moments(args, convention: str):
    series = load_series(args.data)
    return estimate_moments(growth_series(series), convention)


def _cmd_moments(args) -> str:
    m = _load_moments(args, args.variance)
    doc = {
        "mu_x": m.mu_x,
        "sigma2_x": m.sigma2_x,
        "mu_r": m.mu_r,
        "sigma2_r": m.sigma2_r,
        "rho": m.rho,
        "mean_x": m.mean_x,
        "mean_re": m.mean_re,
        "mean_rf": m.mean_rf,
        "n_obs": m.n_obs,
        "convention": m.convention,
        "gap": lognormality_gap(m),
    }
    return to_json(doc)


def _solution_doc(solution, gap: float) -> dict:
    return {
        "params": {
            "beta": solution.params.beta,
            "omega": solution.params.omega,
            "delta": solution.params.delta,
            "tau": solution.params.tau,
        },
        "residuals": _residuals_doc(solution.residuals),
        "rank": solution.numerical_rank,
        "singular_values": list(solution.jacobian_singular_values),
        "gap": gap,
        "converged": solution.converged,
        "iterations": solution.iterations,
    }


def _solve_table(solution, gap: float) -> str:
    p = solution.params
    rows = [
        ("equity", p.beta, p.delta, p.tau),
        ("risk-free", p.beta, p.omega, p.tau),
    ]
    lines = [f"{'Investor':<10}  {'STDF':>8}  {'SFOM':>8}  {'CRRA':>8}"]
    for investor, stdf, sfom, crra in rows:
        lines.append(
            f"{investor:<10}  {_PARAM_FMT.format(stdf):>8}  "
            f"{_PARAM_FMT.format(sfom):>8}  {_PARAM_FMT.format(crra):>8}"
        )
    r = solution.residuals
    lines.append("")
    lines.append(
        "residuals  "
        + "  ".join(
            f"{name} {_RESID_FMT.format(value)}"
            for name, value in (("r2", r.r2), ("r3", r.r3), ("r4", r.r4), ("r5", r.r5))
        )
    )
    lines.append(f"norm {_RESID_FMT.format(r.norm)}  gap {_RESID_FMT.format(gap)}")
    lines.append(
        f"rank {solution.numerical_rank}  converged {solution.converged}  "
        f"iterations {solution.iterations}"
    )
    lines.append(
        "singular values "
        + " ".join(_RESID_FMT.format(s) for s in solution.jacobian_singular_values)
    )
    return "\n".join(lines)


def _cmd_solve(args) -> str:
    m = _load_moments(args, args.variance)
    cfg = SolverConfig(
        initial=ModelParams(args.beta0, args.omega0, args.delta0, args.tau0),
        options=_options(args),
    )
    solution = solve(m, cfg)
    gap = lognormality_gap(m)
    if args.format == "json":
        return to_json(_solution_doc(solution, gap))
    return _solve_table(solution, gap)


def _cmd_manifold(args) -> str:
    if args.steps < 1:
        raise _UsageError("sfm manifold: --steps must be >= 1")
    m = _load_moments(args, args.variance)
    grid = np.linspace(args.tau_min, args.tau_max, args.steps)
    points = trace_manifold(m, grid, _options(args))
    doc = {
        "gap": lognormality_gap(m),
        "points": [
            {
                "tau": pt.tau,
                "beta": pt.beta,
                "omega": pt.omega,
                "delta": pt.delta,
                "residuals": _residuals_doc(pt.residuals),
            }
            for pt in points
        ],
    }
    return to_json(doc)


def _cmd_validate(args):
    from .mc import validate_identities

    report = validate_identities(args.draws, args.seed)
    doc = {
        "ok": report.ok,
        "draws": report.draws,
        "seed": report.seed,
        "cases": [
            {
                "name": c.name,
                "kind": c.kind,
                "closed_form": c.closed_form,
                "sample": c.sample,
                "std_error": c.std_error,
                "z": c.z,
                "ok": c.ok,
            }
            for c in report.cases
        ],
    }
    if not report.ok:
        # stderr diagnostic: an infinite z (zero standard error) may show here
        return CommandOutcome(3, f"identity validation failed\n{json.dumps(doc, indent=2)}")
    return to_json(doc)


def _classify_table(reports) -> str:
    header = (
        f"{'Investor':<10}  {'STDF':>8}  {'SFOM':>8}  {'CRRA':>8}  "
        f"{'Certain Utility':>16}  {'Uncertain Utility':>18}  "
        f"{'Type of investor':<26}  {'Year':>5}"
    )
    lines = [header]
    for rep in reports:
        label = rep.label[0].upper() + rep.label[1:]
        lines.append(
            f"{rep.investor:<10}  {_PARAM_FMT.format(rep.stdf):>8}  "
            f"{_PARAM_FMT.format(rep.sfom):>8}  {_PARAM_FMT.format(rep.crra):>8}  "
            f"{_UTILITY_FMT.format(rep.certain_utility):>16}  "
            f"{_UTILITY_FMT.format(rep.uncertain_utility):>18}  "
            f"{label:<26}  {rep.year:>5}"
        )
    return "\n".join(lines)


def _cmd_classify(args) -> str:
    series = load_series(args.data)
    reports = build_reports(
        series, args.year, args.beta, args.tau, args.sfom_equity, args.sfom_riskfree
    )
    if args.format == "json":
        doc = {
            "year": args.year,
            "reports": [
                {
                    "investor": rep.investor,
                    "stdf": rep.stdf,
                    "sfom": rep.sfom,
                    "crra": rep.crra,
                    "certain_utility": rep.certain_utility,
                    "uncertain_utility": rep.uncertain_utility,
                    "label": rep.label,
                }
                for rep in reports
            ],
        }
        return to_json(doc)
    return _classify_table(reports)


_HANDLERS = {
    "moments": _cmd_moments,
    "solve": _cmd_solve,
    "manifold": _cmd_manifold,
    "validate": _cmd_validate,
    "classify": _cmd_classify,
}


def run_command(argv) -> CommandOutcome:
    """Dispatch an argument vector; never raises for expected failure modes."""
    try:
        parser = _build_parser()
        args = parser.parse_args(list(argv))
        result = _HANDLERS[args.command](args)
    except _UsageError as exc:
        return CommandOutcome(1, str(exc))
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        return CommandOutcome(2, str(exc))
    except (SolverError, FloatingPointError, OverflowError, ValueError) as exc:
        return CommandOutcome(3, str(exc))
    except SystemExit as exc:  # argparse --help
        return CommandOutcome(int(exc.code or 0), "")
    if isinstance(result, CommandOutcome):
        return result
    return CommandOutcome(0, result)


def main() -> None:
    outcome = run_command(sys.argv[1:])
    if outcome.payload:
        stream = sys.stdout if outcome.exit_code == 0 else sys.stderr
        print(outcome.payload, file=stream)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
