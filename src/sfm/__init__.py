"""Calibration toolkit for the sufficiency-factor CCAPM on annual US data.

Submodules load on first use (PEP 562): ``import sfm`` imports none of them,
and ``sfm.solve`` imports ``sfm.solver`` the first time it is read.
"""

import os
import sys
from importlib import import_module

# One OpenBLAS thread if numpy is not loaded yet: sfm's BLAS calls (4x4 SVDs,
# 3x3 solves, dots under the threading threshold) run on one anyway, and
# starting a second slows numpy's import. A value the user set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Every public name, under the module it lives in.
_EXPORTS = {
    "classify": ("InvestorReport", "build_reports", "classify_attitude", "crra_utility",
                 "uncertain_utility"),
    "dataset": ("GrowthSeries", "MarketSeries", "growth_series", "load_series"),
    "errors": ("DataError", "DegenerateSeriesError", "DomainError",
               "SingularSubsystemError", "SolverError"),
    "mc": ("BivariateLogNormalSpec", "sample_pairs", "validate_identities"),
    "model": ("ModelOptions", "ModelParams", "Residuals", "euler_gap", "lognormal_power_cov"),
    "moments": ("MomentSet", "estimate_moments", "lognormality_gap"),
    "solver": ("CANONICAL_INITIAL", "Manifold", "ManifoldPoint", "RankReport", "Solution",
               "SolverConfig", "rank_diagnostics", "residual_floor", "solve",
               "trace_manifold"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the home module of a public name on first access and keep the object."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
