import os
from pathlib import Path

import pytest

from sfm import estimate_moments, growth_series, load_series

ROOT = Path(__file__).resolve().parent.parent
DATA_PATH = ROOT / "data" / "mp_1889_1978.csv"

# `python -m sfm.cli` child processes import sfm from this checkout too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
)


@pytest.fixture(scope="session")
def bundled_series():
    return load_series(DATA_PATH)


@pytest.fixture(scope="session")
def bundled_growth(bundled_series):
    return growth_series(bundled_series)


@pytest.fixture(scope="session")
def bundled_moments(bundled_growth):
    return estimate_moments(bundled_growth, "sample")
