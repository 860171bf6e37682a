#!/usr/bin/env python3
"""Reach: the functions and statements of sfm that no command and no benchmark op runs.

The tool traces ``src/sfm`` with ``sys.settrace`` while it runs two things in
one process:

* a fixed table of argument vectors through ``sfm.cli.run_command``: every
  command, every switch value, both formats and each exit code (0 success,
  1 usage, 2 data, 3 numerical), each checked against its expected code;
* the ``calibrate``, ``mc_oracle`` and ``cli_session`` workloads of
  ``perfbench/workloads.py``, imported read-only: each workload's warm-up op
  and one block of ops (three rounds for ``cli_session``), with the
  workload's own ``digest`` and ``check`` of every op. A ``cli_session`` op
  is a process in the benchmark; here its argv goes through ``run_command``
  and the outcome is laid out on stdout and stderr as ``sfm.cli.main`` does.
  The ops run under ``perfbench/tracing.py``'s ``Tracer``, installed as in a
  traced benchmark run, so what its span hooks read of the program counts too
  (``len`` of a loaded series, ``residual_floor`` after a solve).

It then prints the functions that never ran and the statements that never
ran outside them, skipping ``raise`` statements: the error paths are the
tests' to reach. ``sfm.cli.main`` runs only in child processes (the ``sfm``
console script), so it is always listed. Run from anywhere:

    python3 tools/reach.py

It exits 1 if a command gives another exit code than its table entry or an
op fails its workload's check, else 0. Only the standard library and the
program are used; a run takes about 8 s.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sfm"

DATA = ("--data", "data/mp_1889_1978.csv")
SWITCHES = ("--eq3", "rederived", "--lnex", "lognormal", "--variance", "population")
GRID = ("--tau-min", "0.5", "--tau-max", "5", "--steps", "21")
CLASSIFY = ("classify", *DATA, "--year", "1977", "--beta", "0.9581", "--tau", "1.0319",
            "--sfom-equity", "1.0013", "--sfom-riskfree", "1.0657")

# (expected exit code, argv)
COMMANDS = (
    (0, ("moments", *DATA)),
    (0, ("moments", *DATA, "--variance", "population")),
    (0, ("solve", *DATA)),
    (0, ("solve", *DATA, *SWITCHES, "--format", "json")),
    (0, ("solve", *DATA, "--beta0", "0.95", "--omega0", "1.1", "--delta0", "1.05",
         "--tau0", "-.5e1")),
    (3, ("solve", *DATA, "--tau0", "1e6")),
    (3, ("solve", *DATA, "--tau0", "1e6", "--format", "json")),
    (3, ("solve", *DATA, "--tau0", "1e80")),
    (1, ("solve", *DATA, "--beta0", "-1")),
    (1, ("solve", *DATA, "--tau0", "abc")),
    (0, ("manifold", *DATA, *GRID)),
    (0, ("manifold", *DATA, *GRID, *SWITCHES, "--format", "json")),
    (3, ("manifold", *DATA, "--tau-min", "0", "--tau-max", "1", "--steps", "3")),
    (3, ("manifold", *DATA, "--tau-min", "1e200", "--tau-max", "1e200", "--steps", "1")),
    (1, ("manifold", *DATA, "--tau-min=-1e308", "--tau-max", "1e308", "--steps", "3")),
    (1, ("manifold", *DATA, "--tau-min", "0.5", "--tau-max", "5", "--steps", "0")),
    (0, ("validate", "--draws", "10000", "--seed", "7", "--format", "json")),
    (1, ("validate", "--draws", "5")),
    (1, ("validate", "--draws", "100000000000000000000")),
    (0, CLASSIFY),
    (0, (*CLASSIFY, "--format", "json")),
    (0, (*CLASSIFY, "--tau", "1")),
    (0, (*CLASSIFY, "--sfom-equity", "1")),
    (0, (*CLASSIFY, "--beta", "1.5")),
    (2, tuple("2020" if arg == "1977" else arg for arg in CLASSIFY)),
    (2, ("moments", "--data", "data/no-such-file.csv")),
    (1, ("explode",)),
    (1, ()),
    (0, ("--help",)),
)
WORKLOADS = (("calibrate", 1), ("mc_oracle", 1), ("cli_session", 3))   # (name, blocks)
SEED = 1


class Tracer:
    """Records the lines run and the functions called in files under ``PACKAGE``."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.lines: set[tuple[str, int]] = set()
        self.calls: set[tuple[str, int, str]] = set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.calls.add((code.co_filename, code.co_firstlineno, code.co_name))
        return self._line


def _streams(outcome) -> tuple[bytes, bytes]:
    """(stdout, stderr) of a process whose main returned ``outcome``, as ``cli.main`` writes them."""
    text = (outcome.payload + "\n").encode() if outcome.payload else b""
    return (text, b"") if outcome.exit_code == 0 else (b"", text)


def run_everything() -> list[str]:
    """Run the command table and the workloads' ops; the failures, one line each."""
    from sfm.cli import run_command

    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing
    import workloads

    def quiet_run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run_command(argv)

    failures = []
    for code, argv in COMMANDS:
        outcome = quiet_run(argv)
        if outcome.exit_code != code:
            failures.append(f"sfm {' '.join(argv)}: exit {outcome.exit_code}, expected {code}")

    layers = tracing.Tracer()       # as a traced benchmark run installs it
    layers.install()
    try:
        with tempfile.TemporaryDirectory(prefix="sfm-reach-") as tmp:
            for name, blocks in WORKLOADS:
                workload = workloads.WORKLOADS[name](SimpleNamespace(workdir=Path(tmp)), SEED)
                ops = [workload.warmup_op()]
                schedule = workload.blocks()
                for _ in range(blocks):
                    ops += next(schedule)
                for op in ops:
                    if workload.runs_in_children:
                        outcome = quiet_run(op.args)
                        result = workloads.Result(0.0, (outcome.exit_code, *_streams(outcome)))
                    else:
                        result = workload.execute(op)
                    workload.digest(result)
                    reason = workload.check(op, result)
                    if reason:
                        failures.append(f"{name} {op.kind} op: {reason}")
    finally:
        layers.uninstall()
    return failures


def _executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _header_lines(node: ast.stmt) -> range:
    """The lines of a statement, without the body of a compound statement."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(first, max(first, last) + 1)


def report(path: Path, tracer: Tracer):
    """(functions never called, statements never run outside those), each as printable lines."""
    source = path.read_text()
    filename = str(path)
    executable = _executable_lines(compile(source, filename, "exec"))
    hit = {line for name, line in tracer.lines if name == filename}
    called = {(line, name) for f, line, name in tracer.calls if f == filename}
    module = "sfm" if path.name == "__init__.py" else f"sfm.{path.stem}"
    relative = path.relative_to(ROOT)
    text = source.splitlines()
    functions, statements = [], []

    def visit(node, scope: str, inside_unrun: bool):
        for child in ast.iter_child_nodes(node):
            unrun = inside_unrun
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = _header_lines(child).start
                if not inside_unrun and (first, child.name) not in called:
                    functions.append(f"{relative}:{child.lineno}  {scope}.{child.name}")
                    unrun = True
            if (isinstance(child, ast.stmt) and not isinstance(child, ast.Raise)
                    and not inside_unrun):
                lines = set(_header_lines(child)) & executable
                if lines and not lines & hit:
                    statements.append(f"{relative}:{child.lineno}  {text[child.lineno - 1].strip()}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}" if named else scope, unrun)

    visit(ast.parse(source, filename), module, False)
    return functions, statements


def main() -> int:
    os.chdir(ROOT)      # the workloads name their data relative to the checkout
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    sys.settrace(tracer)
    try:
        import sfm
        failures = run_everything()
    finally:
        sys.settrace(None)
    if not Path(sfm.__file__).resolve().is_relative_to(PACKAGE):
        print(f"imported sfm from {sfm.__file__}, not from {PACKAGE}", file=sys.stderr)
        return 2
    functions, statements = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        f, s = report(path, tracer)
        functions += f
        statements += s
    print(f"functions never run ({len(functions)}):")
    print("".join(f"  {line}\n" for line in functions), end="")
    print(f"statements never run outside those functions, raise statements skipped "
          f"({len(statements)}):")
    print("".join(f"  {line}\n" for line in statements), end="")
    print("note: sfm.cli.main runs only in child processes (the sfm console script); "
          "this tool calls sfm.cli.run_command in process")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
