"""The record contract: sfm's result and input records are frozen values.

Fifteen records are plain classes on ``sfm.errors.Record`` and ``MomentSet``
is a frozen dataclass; every one of them keeps the read-only fields, repr,
==, hash, copying and pickling of a frozen dataclass. The reprs are the
bytes the frozen dataclasses printed.
"""

import copy
import pickle

import pytest

from sfm import (
    CANONICAL_INITIAL,
    BivariateLogNormalSpec,
    GrowthSeries,
    InvestorReport,
    ManifoldPoint,
    MarketSeries,
    ModelOptions,
    ModelParams,
    MomentSet,
    RankReport,
    Residuals,
    Solution,
    SolverConfig,
)
from sfm.mc import IdentityCheck, PowerCovSample, SampleSummary, ValidationReport

RESIDUALS = Residuals(0.1, -0.2, 3e-17, -0.0, 0.25)
PARAMS = ModelParams(0.99, 1.0, 1.5, -2.0)
COV = PowerCovSample(-2.0, 1.0, 0.001, 1e-05)
CHECK = IdentityCheck("generic a=-2", "power-cov", 0.5, 0.25, 0.125, 2.0, True)

# type -> (positional arguments, repr)
RECORDS = {
    MarketSeries: (
        ((1, 2, 3), (1.0, 1.5, 2.0), (1.1, 1.2, 1.3), (1.0, 1.0, 1.01)),
        "MarketSeries(years=(1, 2, 3), consumption=(1.0, 1.5, 2.0), "
        "equity_return=(1.1, 1.2, 1.3), riskfree_return=(1.0, 1.0, 1.01))"),
    GrowthSeries: (
        ((2, 3), (1.5, 4 / 3), (1.2, 1.3), (1.0, 1.01)),
        "GrowthSeries(years=(2, 3), x=(1.5, 1.3333333333333333), r_e=(1.2, 1.3), "
        "r_f=(1.0, 1.01))"),
    InvestorReport: (
        ("equity", 0.95, 1.01, 2.0, 1.5, 1.25, "insufficient risk-loving", 1977),
        "InvestorReport(investor='equity', stdf=0.95, sfom=1.01, crra=2.0, "
        "certain_utility=1.5, uncertain_utility=1.25, label='insufficient risk-loving', "
        "year=1977)"),
    ModelParams: (
        (0.99, 1.0, 1.5, -2.0),
        "ModelParams(beta=0.99, omega=1.0, delta=1.5, tau=-2.0)"),
    ModelOptions: (
        ("rederived", "lognormal_implied"),
        "ModelOptions(eq3_variant='rederived', lnex_mode='lognormal_implied')"),
    Residuals: (
        (0.1, -0.2, 3e-17, -0.0, 0.25),
        "Residuals(r2=0.1, r3=-0.2, r4=3e-17, r5=-0.0, norm=0.25)"),
    SolverConfig: (
        (PARAMS, ModelOptions()),
        "SolverConfig(initial=ModelParams(beta=0.99, omega=1.0, delta=1.5, tau=-2.0), "
        "options=ModelOptions(eq3_variant='printed', lnex_mode='arithmetic'))"),
    Solution: (
        (PARAMS, RESIDUALS, 14, "step", (2.0, 1.0, 0.5, 1e-17), 3),
        "Solution(params=ModelParams(beta=0.99, omega=1.0, delta=1.5, tau=-2.0), "
        "residuals=Residuals(r2=0.1, r3=-0.2, r4=3e-17, r5=-0.0, norm=0.25), iterations=14, "
        "converged='step', jacobian_singular_values=(2.0, 1.0, 0.5, 1e-17), numerical_rank=3)"),
    ManifoldPoint: (
        (1.5, 0.5, 1.25, 0.75, RESIDUALS),
        "ManifoldPoint(tau=1.5, beta=0.5, omega=1.25, delta=0.75, "
        "residuals=Residuals(r2=0.1, r3=-0.2, r4=3e-17, r5=-0.0, norm=0.25))"),
    RankReport: (
        ((2.0, 1.0, 0.5, 1e-17), 3, 0.001, 0.0005, -0.25),
        "RankReport(singular_values=(2.0, 1.0, 0.5, 1e-17), numerical_rank=3, gap=0.001, "
        "residual_floor=0.0005, euler_gap=-0.25)"),
    BivariateLogNormalSpec: (
        (0.02, 0.04, 0.05, 0.15, 0.4),
        "BivariateLogNormalSpec(mu_x=0.02, sigma_x=0.04, mu_y=0.05, sigma_y=0.15, rho=0.4)"),
    PowerCovSample: (
        (-2.0, 1.0, 0.001, 1e-05),
        "PowerCovSample(a=-2.0, b=1.0, value=0.001, std_error=1e-05)"),
    SampleSummary: (
        (10000, 42, 1.02, 1.07, 0.001, 0.002, (COV,)),
        "SampleSummary(n=10000, seed=42, mean_x=1.02, mean_y=1.07, se_mean_x=0.001, "
        "se_mean_y=0.002, power_covs=(PowerCovSample(a=-2.0, b=1.0, value=0.001, "
        "std_error=1e-05),))"),
    IdentityCheck: (
        ("generic a=-2", "power-cov", 0.5, 0.25, 0.125, 2.0, True),
        "IdentityCheck(name='generic a=-2', kind='power-cov', closed_form=0.5, sample=0.25, "
        "std_error=0.125, z=2.0, ok=True)"),
    ValidationReport: (
        (True, 10000, 42, (CHECK,)),
        "ValidationReport(ok=True, draws=10000, seed=42, cases=(IdentityCheck("
        "name='generic a=-2', kind='power-cov', closed_form=0.5, sample=0.25, "
        "std_error=0.125, z=2.0, ok=True),))"),
    MomentSet: (
        (0.02, 0.001, 0.05, 0.02, 0.3, 1.02, 1.07, 1.01, 50, "population"),
        "MomentSet(mu_x=0.02, sigma2_x=0.001, mu_r=0.05, sigma2_r=0.02, rho=0.3, mean_x=1.02, "
        "mean_re=1.07, mean_rf=1.01, n_obs=50, convention='population')"),
}
TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def record(cls):
    return cls(*RECORDS[cls][0])


@TYPES
def test_fields_are_read_only(cls):
    rec = record(cls)
    name = next(iter(vars(rec)))
    for change in (lambda: setattr(rec, name, 1.0), lambda: delattr(rec, name),
                   lambda: setattr(rec, "extra", 1.0)):
        with pytest.raises(AttributeError):
            change()
    assert tuple(vars(rec).values()) == RECORDS[cls][0]


@TYPES
def test_repr_is_the_frozen_dataclass_repr(cls):
    assert repr(record(cls)) == RECORDS[cls][1]


@TYPES
def test_keyword_and_positional_construction_agree(cls):
    positional = record(cls)
    by_keyword = cls(**vars(positional))
    assert by_keyword == positional and not by_keyword != positional
    assert hash(by_keyword) == hash(positional)
    assert list(vars(by_keyword)) == list(vars(positional))


@TYPES
def test_a_record_of_another_type_is_never_equal(cls):
    positional = record(cls)
    other = type("Other", (cls,), {})(*RECORDS[cls][0])
    assert vars(other) == vars(positional)
    assert positional != other and other != positional
    assert positional != tuple(vars(positional).values())


@pytest.mark.parametrize("one, other", [
    (record(MarketSeries), GrowthSeries(*RECORDS[MarketSeries][0])),
    (Residuals(0.01, 0.02, 0.03, 0.04, 0.5), BivariateLogNormalSpec(0.01, 0.02, 0.03, 0.04, 0.5)),
    (PowerCovSample(0.99, 1.0, 1.5, -2.0), PARAMS),
], ids=["market-growth", "residuals-spec", "cov-params"])
def test_records_of_two_types_with_the_same_values_differ(one, other):
    assert list(vars(one).values()) == list(vars(other).values())
    assert one != other and other != one


@TYPES
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda rec: pickle.loads(pickle.dumps(rec))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_equal(cls, clone):
    rec = record(cls)
    twin = clone(rec)
    assert type(twin) is cls
    assert twin == rec and hash(twin) == hash(rec)
    assert repr(twin) == RECORDS[cls][1]


def test_defaults():
    assert ModelOptions() == ModelOptions("printed", "arithmetic")
    assert SolverConfig() == SolverConfig(CANONICAL_INITIAL, ModelOptions())
    assert repr(SolverConfig()) == (
        "SolverConfig(initial=ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=2.0), "
        "options=ModelOptions(eq3_variant='printed', lnex_mode='arithmetic'))"
    )
