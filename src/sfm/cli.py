"""Command-line interface: moments | solve | manifold | validate | classify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
On a non-zero exit the diagnostic goes to stderr and stdout stays empty.
JSON output is deterministic: stable key order and round-trippable float
formatting, so identical inputs give byte-identical documents.

Each handler imports the modules it runs when it runs, so a command loads
only its own share of the package and a usage error loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple

from .errors import DataError, SolverError

_PARAM_FMT = "{:.4f}"     # table precision for parameters, as published
_UTILITY_FMT = "{:.8f}"   # table precision for utilities, as published
_RESID_FMT = "{:.6e}"
# The published table's leading columns: the investor and its three parameters.
_PARAM_HEADER = f"{'Investor':<10}  {'STDF':>8}  {'SFOM':>8}  {'CRRA':>8}"

# Largest --steps: 1e5 manifold points take about 350 MB of memory.
MAX_STEPS = 100_000


CommandOutcome = namedtuple("CommandOutcome", "exit_code payload")


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
_positive_float = _checked(
    float, lambda value: math.isfinite(value) and value > 0, "must be a finite number > 0"
)
_non_negative_int = _checked(int, lambda value: value >= 0, "must be an integer >= 0")
_step_count = _checked(
    int, lambda value: 1 <= value <= MAX_STEPS, f"must be an integer in [1, {MAX_STEPS}]"
)


def _draw_count(text: str) -> int:
    from .mc import MIN_DRAWS

    return _checked(int, lambda value: value >= MIN_DRAWS, f"must be an integer >= {MIN_DRAWS}")(text)


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
    p.add_argument("--beta0", type=_positive_float, default=0.99)
    p.add_argument("--omega0", type=_positive_float, default=1.0)
    p.add_argument("--delta0", type=_positive_float, default=1.0)
    p.add_argument("--tau0", type=_finite_float, default=2.0)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("manifold", help="trace the solution family over tau")
    add_data(p)
    add_switches(p)
    p.add_argument("--tau-min", type=_finite_float, required=True)
    p.add_argument("--tau-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=_step_count, required=True)
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("validate", help="Monte Carlo check of lognormal identities")
    p.add_argument("--draws", type=_draw_count, default=1_000_000)
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("classify", help="investor reports in the published layout")
    add_data(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--sfom-equity", type=_positive_float, required=True)
    p.add_argument("--sfom-riskfree", type=_positive_float, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    return parser


def _options(args):
    from .model import ModelOptions

    lnex = "arithmetic" if args.lnex == "arithmetic" else "lognormal_implied"
    return ModelOptions(eq3_variant=args.eq3, lnex_mode=lnex)


def _load_moments(args, convention: str):
    from .dataset import growth_series, load_series
    from .moments import estimate_moments

    series = load_series(args.data)
    return estimate_moments(growth_series(series), convention)


def _cmd_moments(args) -> str:
    from .moments import lognormality_gap

    m = _load_moments(args, args.variance)
    return to_json({**vars(m), "gap": lognormality_gap(m)})


def _solution_doc(solution, gap: float) -> dict:
    return {
        "params": vars(solution.params),
        "residuals": vars(solution.residuals),
        "rank": solution.numerical_rank,
        "singular_values": list(solution.jacobian_singular_values),
        "gap": gap,
        "converged": solution.converged,
        "iterations": solution.iterations,
    }


def _param_cells(investor: str, stdf: float, sfom: float, crra: float) -> str:
    """The cells under _PARAM_HEADER."""
    return f"{investor:<10}  " + "  ".join(
        f"{_PARAM_FMT.format(value):>8}" for value in (stdf, sfom, crra)
    )


def _solve_table(solution, gap: float) -> str:
    p = solution.params
    lines = [
        _PARAM_HEADER,
        _param_cells("equity", p.beta, p.delta, p.tau),
        _param_cells("risk-free", p.beta, p.omega, p.tau),
    ]
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
    from .model import ModelParams
    from .moments import lognormality_gap
    from .solver import SolverConfig, solve

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
    import numpy as np

    from .moments import lognormality_gap
    from .solver import trace_manifold

    m = _load_moments(args, args.variance)
    grid = np.linspace(args.tau_min, args.tau_max, args.steps)
    manifold = trace_manifold(m, grid, _options(args))
    points = [
        {"tau": tau, "beta": beta, "omega": omega, "delta": delta,
         "residuals": {"r2": r2, "r3": r3, "r4": r4, "r5": r5, "norm": norm}}
        for tau, (beta, omega, delta), (r2, r3, r4, r5), norm in zip(
            manifold.tau.tolist(), manifold.factors.tolist(),
            manifold.residuals.tolist(), manifold.norms.tolist())
    ]
    return to_json({"gap": lognormality_gap(m), "points": points})


def _cmd_validate(args) -> str:
    from .mc import validate_identities

    report = validate_identities(args.draws, args.seed)
    doc = {**vars(report), "cases": [vars(case) for case in report.cases]}
    if not report.ok:
        # stderr diagnostic: an infinite z (zero standard error) may show here
        raise ArithmeticError(f"identity validation failed\n{json.dumps(doc, indent=2)}")
    return to_json(doc)


def _classify_table(reports) -> str:
    lines = [
        f"{_PARAM_HEADER}  {'Certain Utility':>16}  {'Uncertain Utility':>18}  "
        f"{'Type of investor':<26}  {'Year':>5}"
    ]
    for rep in reports:
        label = rep.label[0].upper() + rep.label[1:]
        lines.append(
            f"{_param_cells(rep.investor, rep.stdf, rep.sfom, rep.crra)}  "
            f"{_UTILITY_FMT.format(rep.certain_utility):>16}  "
            f"{_UTILITY_FMT.format(rep.uncertain_utility):>18}  "
            f"{label:<26}  {rep.year:>5}"
        )
    return "\n".join(lines)


def _cmd_classify(args) -> str:
    from .classify import build_reports
    from .dataset import load_series

    series = load_series(args.data)
    reports = build_reports(
        series, args.year, args.beta, args.tau, args.sfom_equity, args.sfom_riskfree
    )
    if args.format == "json":
        rows = [{k: v for k, v in vars(rep).items() if k != "year"} for rep in reports]
        return to_json({"year": args.year, "reports": rows})
    return _classify_table(reports)


_HANDLERS = {
    "moments": _cmd_moments,
    "solve": _cmd_solve,
    "manifold": _cmd_manifold,
    "validate": _cmd_validate,
    "classify": _cmd_classify,
}


def __getattr__(name):
    """Read a public sfm name here (``sfm.cli.solve``) as ``sfm.solve``.

    The handlers import what they run from its home module when they run,
    so a patch must go there (``sfm.solver.solve``), not here.
    """
    import sfm

    if name not in sfm.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sfm, name)


def run_command(argv) -> CommandOutcome:
    """Dispatch an argument vector; never raises for expected failure modes."""
    try:
        args = _build_parser().parse_args(list(argv))
        return CommandOutcome(0, _HANDLERS[args.command](args))
    except _UsageError as exc:
        return CommandOutcome(1, str(exc))
    except DataError as exc:
        return CommandOutcome(2, str(exc))
    except (SolverError, ArithmeticError, ValueError) as exc:
        return CommandOutcome(3, str(exc))
    except SystemExit as exc:  # argparse --help
        return CommandOutcome(int(exc.code or 0), "")


def main() -> None:
    outcome = run_command(sys.argv[1:])
    if outcome.payload:
        stream = sys.stdout if outcome.exit_code == 0 else sys.stderr
        print(outcome.payload, file=stream)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
