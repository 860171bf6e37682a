"""Cold start: a fresh interpreter loads only the modules a command runs."""

import json
import os
import subprocess
import sys

import pytest

from conftest import DATA_PATH

DATA = str(DATA_PATH)
MISSING = str(DATA_PATH.with_name("missing.csv"))
CLASSIFY_FLAGS = ["--year", "1977", "--beta", "0.9581", "--tau", "1.0319",
                  "--sfom-equity", "1.0013", "--sfom-riskfree", "1.0657"]
MANIFOLD_FLAGS = ["--tau-min", "1", "--tau-max", "2", "--steps", "3"]
SOLVER = ["sfm.cli", "sfm.dataset", "sfm.errors", "sfm.model", "sfm.moments", "sfm.solver"]
LOADER = ["sfm.cli", "sfm.dataset", "sfm.errors"]
# Modules that take long to import; each row names those its command loads.
HEAVY = ("dataclasses", "numpy")

# sfm argv (None: only ``import sfm``) -> (exit code, sfm submodules, heavy modules loaded).
CONTRACT = {
    "import-sfm": (None, None, [], []),
    "moments": (["moments", "--data", DATA], 0,
                ["sfm.cli", "sfm.dataset", "sfm.errors", "sfm.moments"], HEAVY),
    "solve": (["solve", "--data", DATA], 0, SOLVER, HEAVY),
    "manifold": (["manifold", "--data", DATA, *MANIFOLD_FLAGS], 0, SOLVER, HEAVY),
    "validate": (["validate", "--draws", "10000"], 0,
                 ["sfm.cli", "sfm.dataset", "sfm.errors", "sfm.mc", "sfm.model", "sfm.moments"],
                 HEAVY),
    "classify": (["classify", "--data", DATA, *CLASSIFY_FLAGS], 0,
                 ["sfm.classify", *LOADER], ["dataclasses"]),
    "usage-error": (["manifold", "--data", DATA, "--tau-min", "1", "--tau-max", "2",
                     "--steps", "0"], 1, ["sfm.cli", "sfm.errors"], []),
    "manifold-tau-range": (["manifold", "--data", DATA, "--tau-min=-1e308", "--tau-max",
                            "1e308", "--steps", "3"], 1, ["sfm.cli", "sfm.errors"], []),
    "validate-bad-seed": (["validate", "--draws", "10000", "--seed", "-1"], 1,
                          ["sfm.cli", "sfm.errors"], []),
    "validate-few-draws": (["validate", "--draws", "5"], 1, ["sfm.cli", "sfm.errors"], []),
    "moments-missing-data": (["moments", "--data", MISSING], 2, LOADER, ["dataclasses"]),
    "solve-missing-data": (["solve", "--data", MISSING], 2, LOADER, ["dataclasses"]),
    "manifold-missing-data": (["manifold", "--data", MISSING, *MANIFOLD_FLAGS], 2,
                              LOADER, ["dataclasses"]),
    "classify-missing-data": (["classify", "--data", MISSING, *CLASSIFY_FLAGS], 2,
                              LOADER, ["dataclasses"]),
}


def loaded_by(code: str, env=None):
    """The modules a fresh interpreter holds after ``code``, and the value ``code`` left in ``result``."""
    probe = f"import json, sys\nresult = None\n{code}\nprint(json.dumps([sorted(sys.modules), result]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    modules, result = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), result


def run_main(argv) -> str:
    """Code that runs the console entry point as ``sfm <argv>`` does, up to its exit."""
    return (f"from sfm.cli import main\nsys.argv = ['sfm', *{argv!r}]\n"
            "try:\n    main()\nexcept SystemExit as exc:")


@pytest.mark.parametrize("row", list(CONTRACT))
def test_command_loads_only_its_modules(row):
    argv, exit_code, submodules, heavy = CONTRACT[row]
    if argv is None:
        code = "import sfm"
    else:
        # The console entry point, as ``sfm <argv>`` runs it.
        code = run_main(argv) + "\n    result = exc.code"
    modules, result = loaded_by(code)
    assert result == exit_code
    assert sorted(m for m in modules if m.startswith("sfm.")) == submodules
    assert [m for m in HEAVY if m in modules] == list(heavy)


@pytest.mark.parametrize("user_value, numpy_first, expected", [
    (None, False, "1"),     # unset: main asks for one thread before numpy loads
    ("3", False, "3"),      # the user's value wins
    (None, True, None),     # numpy already loaded: os.environ is left alone
])
def test_main_defaults_openblas_to_one_thread(user_value, numpy_first, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = ("import numpy\n" if numpy_first else "") + run_main(["moments", "--data", DATA])
    code += "\n    import os\n    result = [exc.code, os.environ.get('OPENBLAS_NUM_THREADS')]"
    assert loaded_by(code, env)[1] == [0, expected]


@pytest.mark.parametrize("numpy_first", [False, True])
@pytest.mark.parametrize("row", ["moments", "usage-error"])
def test_fresh_main_freezes_its_heap_before_exit(row, numpy_first):
    # Frozen objects sit in the permanent generation, which the shutdown collections skip.
    argv, exit_code = CONTRACT[row][:2]
    code = ("import numpy\n" if numpy_first else "") + run_main(argv)
    code += "\n    import gc\n    result = [exc.code, gc.get_freeze_count()]"
    code_seen, frozen = loaded_by(code)[1]
    assert code_seen == exit_code
    if numpy_first:
        assert frozen == 0      # a process that already holds numpy is left as it is
    else:
        assert frozen > 0
