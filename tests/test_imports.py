"""Cold start: a fresh interpreter loads only the modules a command runs."""

import json
import subprocess
import sys

from conftest import DATA_PATH

DATA = str(DATA_PATH)


def loaded_by(code: str):
    """The modules a fresh interpreter holds after ``code``, and the value ``code`` left in ``result``."""
    probe = f"import json, sys\nresult = None\n{code}\nprint(json.dumps([sorted(sys.modules), result]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    modules, result = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), result


def sfm_submodules(modules):
    return sorted(m for m in modules if m.startswith("sfm."))


def test_import_sfm_loads_no_submodule():
    modules, _ = loaded_by("import sfm")
    assert "sfm" in modules
    assert sfm_submodules(modules) == []


def test_moments_loads_neither_mc_solver_nor_classify():
    modules, exit_code = loaded_by(
        "from sfm.cli import run_command\n"
        f"result = run_command(['moments', '--data', {DATA!r}]).exit_code"
    )
    assert exit_code == 0
    assert sfm_submodules(modules) == ["sfm.cli", "sfm.dataset", "sfm.errors", "sfm.moments"]


def test_usage_error_exits_1_without_numpy():
    modules, exit_code = loaded_by(
        "from sfm.cli import main\n"
        f"sys.argv = ['sfm', 'manifold', '--data', {DATA!r}, "
        "'--tau-min', '1', '--tau-max', '2', '--steps', '0']\n"
        "try:\n    main()\nexcept SystemExit as exc:\n    result = exc.code"
    )
    assert exit_code == 1
    assert "numpy" not in modules
    assert sfm_submodules(modules) == ["sfm.cli", "sfm.errors"]
