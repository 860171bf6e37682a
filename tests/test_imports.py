"""Cold start: a fresh interpreter loads only the modules a command runs."""

import ast
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
# json loads only with JSON output: the solve and classify tables and every
# error load none.
HEAVY = ("dataclasses", "json", "numpy")

# sfm argv (None: only ``import sfm``) -> (exit code, sfm submodules, heavy modules loaded).
CONTRACT = {
    "import-sfm": (None, None, [], []),
    "moments": (["moments", "--data", DATA], 0,
                ["sfm.cli", "sfm.dataset", "sfm.errors", "sfm.moments"], HEAVY),
    "solve": (["solve", "--data", DATA], 0, SOLVER, ["dataclasses", "numpy"]),
    "manifold": (["manifold", "--data", DATA, *MANIFOLD_FLAGS], 0, SOLVER, HEAVY),
    "validate": (["validate", "--draws", "10000"], 0,
                 ["sfm.cli", "sfm.dataset", "sfm.errors", "sfm.mc", "sfm.model", "sfm.moments"],
                 HEAVY),
    "classify": (["classify", "--data", DATA, *CLASSIFY_FLAGS], 0,
                 ["sfm.classify", *LOADER], []),
    "usage-error": (["manifold", "--data", DATA, "--tau-min", "1", "--tau-max", "2",
                     "--steps", "0"], 1, ["sfm.cli", "sfm.errors"], []),
    "manifold-tau-range": (["manifold", "--data", DATA, "--tau-min=-1e308", "--tau-max",
                            "1e308", "--steps", "3"], 1, ["sfm.cli", "sfm.errors"], []),
    "validate-bad-seed": (["validate", "--draws", "10000", "--seed", "-1"], 1,
                          ["sfm.cli", "sfm.errors"], []),
    "validate-few-draws": (["validate", "--draws", "5"], 1, ["sfm.cli", "sfm.errors"], []),
    "validate-many-draws": (["validate", "--draws", "1000000001"], 1,
                            ["sfm.cli", "sfm.errors"], []),
    "moments-missing-data": (["moments", "--data", MISSING], 2, LOADER, []),
    "solve-missing-data": (["solve", "--data", MISSING], 2, LOADER, []),
    "manifold-missing-data": (["manifold", "--data", MISSING, *MANIFOLD_FLAGS], 2, LOADER, []),
    "classify-missing-data": (["classify", "--data", MISSING, *CLASSIFY_FLAGS], 2, LOADER, []),
}


def loaded_by(code: str, openblas=None):
    """The modules a fresh interpreter holds after ``code``, and the value ``code`` left in ``result``.

    The child starts without OPENBLAS_NUM_THREADS, as ``fresh_run``'s does,
    or with it set to ``openblas``. The probe prints a repr, not JSON, so
    that it loads no module of its own.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    probe = f"import sys\nresult = None\n{code}\nprint(repr([sorted(sys.modules), result]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    modules, result = ast.literal_eval(proc.stdout.splitlines()[-1])
    return set(modules), result


def run_main(argv) -> str:
    """Code that runs the console entry point as ``sfm <argv>`` does, up to its exit.

    It leaves in ``result`` the exit code, whether the cyclic collector is on,
    whether any object is frozen, and OPENBLAS_NUM_THREADS.
    """
    return (f"from sfm.cli import main\nsys.argv = ['sfm', *{argv!r}]\n"
            "try:\n    main()\nexcept SystemExit as exc:\n    import gc, os\n"
            "    result = [exc.code, gc.isenabled(), gc.get_freeze_count() > 0,\n"
            "              os.environ.get('OPENBLAS_NUM_THREADS')]")


# A fresh main runs its command without the cyclic collector and with the one
# OpenBLAS thread that importing sfm set, and freezes what it left: frozen
# objects sit in the permanent generation, which the shutdown collections skip.
FRESH = [False, True, "1"]


@pytest.mark.parametrize("row", list(CONTRACT))
def test_command_loads_only_its_modules(row):
    argv, exit_code, submodules, heavy = CONTRACT[row]
    # The console entry point, as ``sfm <argv>`` runs it.
    modules, result = loaded_by("import sfm" if argv is None else run_main(argv))
    assert result == (None if argv is None else [exit_code, *FRESH])
    assert sorted(m for m in modules if m.startswith("sfm.")) == submodules
    assert [m for m in HEAVY if m in modules] == list(heavy)


# OPENBLAS_NUM_THREADS after ``import sfm``, from the value the child started with.
@pytest.mark.parametrize("user_value, numpy_first, expected", [
    (None, False, "1"),     # the package's default
    ("3", False, "3"),      # the user's value wins
    (None, True, None),     # a process that holds numpy is left as it is
])
def test_import_defaults_openblas_to_one_thread(user_value, numpy_first, expected):
    code = ("import numpy\n" if numpy_first else "") + (
        "import os\nimport sfm\nresult = os.environ.get('OPENBLAS_NUM_THREADS')")
    assert loaded_by(code, user_value)[1] == expected


# Unset, the variable reads "1" after each CONTRACT row, as the import of sfm
# that main's module starts with set it; numpy loaded first, see below.
@pytest.mark.parametrize("user_value, numpy_first, expected", [
    ("3", False, "3"),      # the user's value wins
])
def test_main_defaults_openblas_to_one_thread(user_value, numpy_first, expected):
    code = ("import numpy\n" if numpy_first else "") + run_main(["moments", "--data", DATA])
    code_seen, *_, openblas = loaded_by(code, user_value)[1]
    assert [code_seen, openblas] == [0, expected]


# The fresh case, numpy not loaded first, is each CONTRACT row's.
@pytest.mark.parametrize("numpy_first", [True])
@pytest.mark.parametrize("row", ["moments", "usage-error", "moments-missing-data"])
def test_fresh_main_freezes_its_heap_before_exit(row, numpy_first):
    # A process that already holds numpy is left as it is: the collector on,
    # nothing frozen, and OPENBLAS_NUM_THREADS unset, since importing sfm
    # after numpy sets nothing.
    argv, exit_code = CONTRACT[row][:2]
    code = ("import numpy\n" if numpy_first else "") + run_main(argv)
    expected = [True, False, None] if numpy_first else FRESH
    assert loaded_by(code)[1] == [exit_code, *expected]
