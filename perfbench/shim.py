"""Runs one ``sfm`` command with per-layer tracing (the traced cli_session run).

    python3 perfbench/shim.py <sfm arguments...>

The command runs through the ``sfm`` console script's entry point,
``sfm.cli:main``; the span totals, with the time ``sfm.cli`` took to import,
are written as JSON to ``PERFBENCH_TRACE_OUT``. The command's stdout, stderr
and exit code are those of the entry point.
"""

import json
import os
import sys
import time

from tracing import Tracer


def main() -> int:
    start = time.perf_counter_ns()
    from sfm.cli import main as entry
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.install()
    sys.argv = ["sfm", *sys.argv[1:]]
    code = 0
    try:
        entry()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({**tracer.snapshot(), "import_ns": import_ns}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
