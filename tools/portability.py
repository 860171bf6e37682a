#!/usr/bin/env python3
"""Portability: which tests fail when numpy and OpenBLAS pick other CPU kernels?

The byte goldens hold only where OpenBLAS and numpy choose the kernels this
machine's CPU gets. Both libraries read an environment variable that picks
other kernels, so another CPU can be imitated per process: OpenBLAS's
``OPENBLAS_CORETYPE`` names the core type its ``DYNAMIC_ARCH`` build uses,
and numpy's ``NPY_DISABLE_CPU_FEATURES`` switches off SIMD loops it would
dispatch. Each row of SETTINGS names one such environment. For each chosen
row the tool runs pytest on ``tests/`` in a child process with those
variables set (and the variables of the other rows removed), then prints the
failing test ids grouped by class, and the counts. The variables are set on
the children only; the machine and the calling process are left as they are.

    python3 tools/portability.py              # every setting, about 20 s each
    python3 tools/portability.py haswell no-avx512
    python3 tools/portability.py --list

It exits 0 once every setting has run, whatever failed in it, and 2 if
pytest gave no report under some setting. Only the standard library is used.
"""

from __future__ import annotations

import os
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from mutants import ROOT, TIMEOUT_S, run_pytest, select

NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


class Setting(NamedTuple):
    id: str
    env: dict[str, str]


SETTINGS = (
    Setting("native", {}),
    Setting("haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    Setting("sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
    Setting("prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
    Setting("no-avx512", {"NPY_DISABLE_CPU_FEATURES": NO_AVX512}),
    Setting("haswell-no-avx512", {"OPENBLAS_CORETYPE": "Haswell",
                                  "NPY_DISABLE_CPU_FEATURES": NO_AVX512}),
)
SET_BY_SOME_ROW = {name for setting in SETTINGS for name in setting.env}


class Run(NamedTuple):
    passed: int
    failed: dict[str, list[str]]    # test names by class (or module), failed or errored
    error: str | None               # why pytest gave no report


def run_setting(setting: Setting) -> Run:
    """pytest on ``tests/`` in a child process whose environment adds ``setting.env``."""
    env = {name: value for name, value in os.environ.items() if name not in SET_BY_SOME_ROW}
    env.update(setting.env)
    with tempfile.TemporaryDirectory(prefix="sfm-portability-") as tmp:
        report = Path(tmp) / "report.xml"
        code = run_pytest(ROOT, [f"--junitxml={report}", "tests"], env)
        if code is None:
            return Run(0, {}, f"timed out after {TIMEOUT_S} s")
        if code not in (0, 1) or not report.is_file():
            return Run(0, {}, f"pytest exited {code}")
        return read_report(report)


def read_report(path: Path) -> Run:
    """Passed count and failing tests of a JUnit XML report."""
    passed, failed = 0, defaultdict(list)
    for case in ElementTree.parse(path).iter("testcase"):
        outcomes = {child.tag for child in case}
        if outcomes & {"failure", "error"}:
            failed[case.get("classname")].append(case.get("name"))
        elif "skipped" not in outcomes:
            passed += 1
    return Run(passed, dict(failed), None)


def describe(setting: Setting) -> str:
    return " ".join(f"{name}={value!r}" for name, value in setting.env.items()) or "no variable"


def main(argv=None) -> int:
    chosen = select(SETTINGS, argv, "setting",
                    lambda setting: f"{setting.id:20} {describe(setting)}",
                    __doc__.splitlines()[0])
    if chosen is None:
        return 0
    broken = False
    for setting in chosen:
        run = run_setting(setting)
        if run.error:
            broken = True
            print(f"{setting.id}: {run.error}  [{describe(setting)}]", flush=True)
            continue
        failed = sum(map(len, run.failed.values()))
        print(f"{setting.id}: {failed} failed, {run.passed} passed  [{describe(setting)}]")
        for group, names in sorted(run.failed.items()):
            print(f"  {group} ({len(names)})")
            print("".join(f"    {name}\n" for name in names), end="", flush=True)
    return 2 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
