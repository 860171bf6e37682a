"""Calibration toolkit for the sufficiency-factor CCAPM on annual US data."""

from .classify import (
    InvestorReport,
    build_reports,
    classify_attitude,
    crra_utility,
    growth_scenarios,
    return_scenarios,
    uncertain_utility,
)
from .dataset import GrowthSeries, MarketSeries, growth_series, load_series
from .errors import (
    DataError,
    DegenerateSeriesError,
    DomainError,
    SingularSubsystemError,
    SolverError,
)
from .mc import BivariateLogNormalSpec, sample_pairs, validate_identities
from .model import (
    ModelOptions,
    ModelParams,
    Residuals,
    euler_gap,
    jacobian,
    lognormal_power_cov,
    residual_vector,
)
from .moments import MomentSet, estimate_moments, lognormality_gap
from .solver import (
    CANONICAL_INITIAL,
    Manifold,
    ManifoldPoint,
    RankReport,
    Solution,
    SolverConfig,
    rank_diagnostics,
    residual_floor,
    solve,
    trace_manifold,
)

__version__ = "0.1.0"

__all__ = [
    "BivariateLogNormalSpec",
    "CANONICAL_INITIAL",
    "DataError",
    "DegenerateSeriesError",
    "DomainError",
    "GrowthSeries",
    "InvestorReport",
    "Manifold",
    "ManifoldPoint",
    "MarketSeries",
    "ModelOptions",
    "ModelParams",
    "MomentSet",
    "RankReport",
    "Residuals",
    "SingularSubsystemError",
    "Solution",
    "SolverConfig",
    "SolverError",
    "build_reports",
    "classify_attitude",
    "crra_utility",
    "estimate_moments",
    "euler_gap",
    "growth_scenarios",
    "growth_series",
    "jacobian",
    "load_series",
    "lognormal_power_cov",
    "lognormality_gap",
    "rank_diagnostics",
    "residual_floor",
    "residual_vector",
    "return_scenarios",
    "sample_pairs",
    "solve",
    "trace_manifold",
    "uncertain_utility",
    "validate_identities",
]
