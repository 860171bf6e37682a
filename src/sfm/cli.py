"""Command-line interface: moments | solve | manifold | validate | classify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
On a non-zero exit the diagnostic goes to stderr and stdout stays empty.
JSON output is deterministic: stable key order and round-trippable float
formatting, so identical inputs give byte-identical documents.

Each handler imports the modules it runs when it runs, so a command loads
only its own share of the package. Handlers load the --data file before they
import numpy or a numeric layer, so a usage or data error loads no numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections import namedtuple

from .errors import MIN_DRAWS, DataError, SolverError

# The published table's leading columns: the investor and its three parameters.
_PARAM_HEADER = f"{'Investor':<10}  {'STDF':>8}  {'SFOM':>8}  {'CRRA':>8}"

# Largest --steps: 1e5 manifold points peak at about 346 MiB and take about 3 s.
MAX_STEPS = 100_000


CommandOutcome = namedtuple("CommandOutcome", "exit_code payload")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError, and gives a flag that takes a value the next word that
    starts with one "-", as POSIX getopt does (argparse takes such a word for a flag
    unless it is shaped like -5 or -.5): "--tau0 -1e3" and "--tau0 -inf" read as
    "--tau0=...", and "--data -x.csv" names a file. A "--" word is never a value.
    """

    def parse_known_args(self, args, namespace=None):
        joined = []
        for arg in args:
            # The word before: a flag that takes one value (unlike --help), or its abbreviation.
            flag = joined[-1] if joined else ""
            takes_value = flag[2:] and any(f.startswith(flag) and action.nargs is None
                                           for f, action in self._option_string_actions.items())
            if takes_value and arg[:1] == "-" and arg[:2] != "--":
                joined[-1] += f"={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

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
_draw_count = _checked(
    int, lambda value: value >= MIN_DRAWS, f"must be an integer >= {MIN_DRAWS}"
)


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
    p.set_defaults(run=_cmd_moments)

    p = sub.add_parser("solve", help="damped least-squares solve of the system")
    add_data(p)
    add_switches(p)
    p.add_argument("--beta0", type=_positive_float, default=0.99)
    p.add_argument("--omega0", type=_positive_float, default=1.0)
    p.add_argument("--delta0", type=_positive_float, default=1.0)
    p.add_argument("--tau0", type=_finite_float, default=2.0)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("manifold", help="trace the solution family over tau")
    add_data(p)
    add_switches(p)
    p.add_argument("--tau-min", type=_finite_float, required=True)
    p.add_argument("--tau-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=_step_count, required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(run=_cmd_manifold)

    p = sub.add_parser("validate", help="Monte Carlo check of lognormal identities")
    p.add_argument("--draws", type=_draw_count, default=1_000_000)
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("classify", help="investor reports in the published layout")
    add_data(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--beta", type=_positive_float, required=True)
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--sfom-equity", type=_positive_float, required=True)
    p.add_argument("--sfom-riskfree", type=_positive_float, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(run=_cmd_classify)

    return parser


def _options(args):
    from .model import ModelOptions

    lnex = "arithmetic" if args.lnex == "arithmetic" else "lognormal_implied"
    return ModelOptions(eq3_variant=args.eq3, lnex_mode=lnex)


def _load_moments(args):
    from .dataset import growth_series, load_series

    growth = growth_series(load_series(args.data))
    from .moments import estimate_moments

    return estimate_moments(growth, args.variance)


def _cmd_moments(args) -> str:
    m = _load_moments(args)
    from .moments import lognormality_gap

    return to_json({**vars(m), "gap": lognormality_gap(m)})


def _fixed(value: float, decimals: int) -> str:
    """``value`` to the published ``decimals`` places, in e-notation where repr uses an
    exponent (|value| >= 1e16 or 0 < |value| < 1e-4): there fixed point prints
    binary-expansion digits or only zeros."""
    return f"{value:.{decimals}{'e' if 'e' in repr(value) else 'f'}}"


def _param_cells(investor: str, stdf: float, sfom: float, crra: float) -> str:
    """The cells under _PARAM_HEADER, each to the published 4 places."""
    return f"{investor:<10}  {_fixed(stdf, 4):>8}  {_fixed(sfom, 4):>8}  {_fixed(crra, 4):>8}"


def _cmd_solve(args) -> str:
    m = _load_moments(args)
    from .model import ModelParams
    from .moments import lognormality_gap
    from .solver import SolverConfig, solve

    cfg = SolverConfig(
        initial=ModelParams(args.beta0, args.omega0, args.delta0, args.tau0),
        options=_options(args),
    )
    solution = solve(m, cfg)
    gap = lognormality_gap(m)
    if args.format == "json":
        return to_json({
            "params": vars(solution.params),
            "residuals": vars(solution.residuals),
            "rank": solution.numerical_rank,
            "singular_values": list(solution.jacobian_singular_values),
            "gap": gap,
            "converged": solution.converged,
            "iterations": solution.iterations,
        })
    p, r = solution.params, solution.residuals
    return "\n".join([
        _PARAM_HEADER,
        _param_cells("equity", p.beta, p.delta, p.tau),
        _param_cells("risk-free", p.beta, p.omega, p.tau),
        "",
        f"residuals  r2 {r.r2:.6e}  r3 {r.r3:.6e}  r4 {r.r4:.6e}  r5 {r.r5:.6e}",
        f"norm {r.norm:.6e}  gap {gap:.6e}",
        f"rank {solution.numerical_rank}  converged {solution.converged}  "
        f"iterations {solution.iterations}",
        "singular values " + " ".join(f"{s:.6e}" for s in solution.jacobian_singular_values),
    ])


def _cmd_manifold(args) -> str:
    if not math.isfinite(args.tau_max - args.tau_min):     # np.linspace forms this difference
        raise _UsageError("sfm manifold: arguments --tau-min and --tau-max: their difference "
                          f"must be a finite number, got {args.tau_min!r} and {args.tau_max!r}")
    m = _load_moments(args)
    import numpy as np

    from .moments import lognormality_gap
    from .solver import trace_manifold

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


def _cmd_classify(args) -> str:
    from .dataset import load_series

    series = load_series(args.data)
    from .classify import build_reports

    reports = build_reports(
        series, args.year, args.beta, args.tau, args.sfom_equity, args.sfom_riskfree
    )
    if args.format == "json":
        rows = [{k: v for k, v in vars(rep).items() if k != "year"} for rep in reports]
        return to_json({"year": args.year, "reports": rows})
    return "\n".join([
        f"{_PARAM_HEADER}  {'Certain Utility':>16}  {'Uncertain Utility':>18}  "
        f"{'Type of investor':<26}  {'Year':>5}",
        *(f"{_param_cells(rep.investor, rep.stdf, rep.sfom, rep.crra)}  "
          f"{_fixed(rep.certain_utility, 8):>16}  {_fixed(rep.uncertain_utility, 8):>18}  "
          f"{rep.label.capitalize():<26}  {rep.year:>5}" for rep in reports),
    ])


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
        return CommandOutcome(0, args.run(args))
    except _UsageError as exc:
        return CommandOutcome(1, str(exc))
    except DataError as exc:
        return CommandOutcome(2, str(exc))
    except (SolverError, ArithmeticError, ValueError) as exc:
        return CommandOutcome(3, str(exc))
    except SystemExit as exc:  # argparse --help
        return CommandOutcome(int(exc.code or 0), "")


def main() -> None:
    import signal

    if hasattr(signal, "SIGPIPE"):      # a closed stdout ends sfm as it ends head or cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # A fresh sfm process; one that already holds numpy (an embedding script,
    # a test run) is left as it is.
    fresh = "numpy" not in sys.modules
    # One OpenBLAS thread: sfm's largest BLAS calls (a 4x4 SVD, 3x3 solves) run
    # on one anyway, and a second one spin-waits for work. Read when numpy
    # loads; a value the user set wins.
    if fresh:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    outcome = run_command(sys.argv[1:])
    if outcome.payload:
        stream = sys.stdout if outcome.exit_code == 0 else sys.stderr
        print(outcome.payload, file=stream)
    if fresh:
        # Shutdown runs full garbage collections over every object the imports
        # left, 10-30 ms; they skip the permanent generation, where this moves them.
        gc.freeze()
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
