"""Sample statistics feeding the four-equation system.

Log moments are computed on the ln-transformed growth and equity-return
series; arithmetic means are taken on the raw gross series. The lognormality
gap ln(mean x) - mean(ln x) - var(ln x)/2 measures how far the sample is
from exact lognormal consistency; it is zero for an ideal lognormal sample
and it controls the attainable residual norm of the equation system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dataset import GrowthSeries
from .errors import DataError, DegenerateSeriesError

CONVENTIONS = ("sample", "population")


@dataclass(frozen=True)
class MomentSet:
    """Every sample statistic entering the equation system."""

    mu_x: float        # mean of ln x
    sigma2_x: float    # variance of ln x
    mu_r: float        # mean of ln R_e
    sigma2_r: float    # variance of ln R_e
    rho: float         # correlation of (ln x, ln R_e)
    mean_x: float      # arithmetic mean of x
    mean_re: float     # arithmetic mean of R_e
    mean_rf: float     # arithmetic mean of R_f
    n_obs: int
    convention: str = "sample"

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not math.isfinite(value):
                raise ValueError(f"moments must be finite, got {field.name} = {value}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown variance convention {self.convention!r}")
        if self.sigma2_x < 0 or self.sigma2_r < 0:
            raise ValueError("variances must be non-negative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("correlation must lie in [-1, 1]")
        if min(self.mean_x, self.mean_re, self.mean_rf) <= 0:
            raise ValueError("arithmetic means must be positive")
        if self.n_obs < 2:
            raise ValueError("need at least 2 observations")


def estimate_moments(growth: GrowthSeries, convention: str = "sample") -> MomentSet:
    """Estimate the full MomentSet from paired growth/return observations.

    Args:
        growth: paired observations from ``dataset.growth_series``.
        convention: ``"sample"`` for the n-1 divisor (default) or
            ``"population"`` for n; the correlation uses the same divisor,
            which cancels only in exact arithmetic: rho may differ by 1 ulp.

    Raises:
        DegenerateSeriesError: if ln x or ln R_e has zero variance, in which
            case the correlation is undefined.
    """
    if len(growth) < 2:
        raise DataError("need at least 2 growth observations")
    x, r_e, r_f = (np.asarray(c, dtype=np.float64) for c in (growth.x, growth.r_e, growth.r_f))
    if min(x.min(), r_e.min(), r_f.min()) <= 0:
        raise DataError("growth factors and returns must be positive")

    ddof = 1 if convention == "sample" else 0
    lx = np.log(x)
    lr = np.log(r_e)
    var_x = float(lx.var(ddof=ddof))
    var_r = float(lr.var(ddof=ddof))
    if var_x == 0.0:
        raise DegenerateSeriesError("ln x has zero variance; correlation undefined")
    if var_r == 0.0:
        raise DegenerateSeriesError("ln R_e has zero variance; correlation undefined")

    cov = float(((lx - lx.mean()) * (lr - lr.mean())).sum() / (len(lx) - ddof))
    rho = cov / math.sqrt(var_x * var_r)
    rho = min(1.0, max(-1.0, rho))

    # An overflowing mean comes out inf, which MomentSet rejects by name.
    with np.errstate(over="ignore"):
        return MomentSet(
            mu_x=float(lx.mean()),
            sigma2_x=var_x,
            mu_r=float(lr.mean()),
            sigma2_r=var_r,
            rho=rho,
            mean_x=float(x.mean()),
            mean_re=float(r_e.mean()),
            mean_rf=float(r_f.mean()),
            n_obs=len(growth),
            convention=convention,
        )


def lognormality_gap(m: MomentSet) -> float:
    """ln(mean_x) - mu_x - sigma2_x/2; zero iff the sample is lognormal-consistent."""
    return math.log(m.mean_x) - m.mu_x - 0.5 * m.sigma2_x
