#!/usr/bin/env python3
"""Rebuild data/mp_1889_1978.csv from published summary statistics.

The canonical input of this toolkit is the 1889-1978 annual US series of
Mehra & Prescott (1985): per-capita real consumption, gross real equity
return, gross real risk-free return.  The original year-by-year file is not
redistributable from this sandbox, so the bundled CSV is a seeded
reconstruction that reproduces the published sample statistics of that
series exactly (sample convention, n-1 divisor):

    consumption growth   mean 1.0183, std 0.0357
    equity return        mean 1.0698, std 0.1654
    risk-free return     mean 1.0080, std 0.0567
    corr(ln x, ln R_e)   0.40

The 89 paired growth/return observations (1890-1978) are drawn from a
correlated bivariate normal in log space; each log series is then affinely
adjusted (Newton on scale and location) until the arithmetic sample mean and
std match the targets to machine precision.  The log-correlation is invariant
under those affine maps, so it stays exactly 0.40.  Consumption levels are
chained from the growth factors and scaled so the 1977 level equals
3339.99999 constant dollars (1972-dollar per-capita consumption), the level
at which CRRA utility with coefficient 1.0319 equals 7.14871804.

Running this script overwrites data/mp_1889_1978.csv deterministically;
``main(out)`` writes the same bytes to another path.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

SEED = 18892011
FIRST_YEAR = 1889
LAST_YEAR = 1978
UTILITY_YEAR = 1977

# Published arithmetic sample statistics (gross units).
MEAN_X, SD_X = 1.0183, 0.0357
MEAN_RE, SD_RE = 1.0698, 0.1654
MEAN_RF, SD_RF = 1.0080, 0.0567
RHO_LOG = 0.40

BUNDLED_CSV = Path(__file__).resolve().parent.parent / "data" / "mp_1889_1978.csv"

# Consumption level pinning: inverse of the CRRA utility 7.14871804 at
# tau = 1.0319, i.e. (1 + (1 - tau) * v) ** (1 / (1 - tau)).
TAU_REF = 1.0319
CERTAIN_UTILITY_REF = 7.14871804


def lognormal_log_moments(mean: float, sd: float) -> tuple[float, float]:
    """Log-space (mu, sigma^2) implied by an arithmetic mean and std."""
    s2 = np.log1p((sd / mean) ** 2)
    return float(np.log(mean) - 0.5 * s2), float(s2)


def unit_sample_vector(z: np.ndarray) -> np.ndarray:
    """Center and rescale so the sample (ddof=1) mean is 0 and std is 1."""
    z = z - z.mean()
    return z / z.std(ddof=1)


def fit_gross_series(z: np.ndarray, mean_target: float, sd_target: float) -> np.ndarray:
    """Map a unit-sample log shock to exp(alpha + s*z) with exact raw stats.

    Newton iteration on (alpha, s); the lognormal-implied pair is close
    enough that a handful of steps reach machine precision.
    """
    alpha, s2 = lognormal_log_moments(mean_target, sd_target)
    s = np.sqrt(s2)
    for _ in range(60):
        y = np.exp(alpha + s * z)
        f = np.array([y.mean() - mean_target, y.std(ddof=1) - sd_target])
        if np.max(np.abs(f)) < 1e-15:
            break
        n = z.size
        dm_da = y.mean()
        dm_ds = (y * z).mean()
        yc = y - y.mean()
        sd = y.std(ddof=1)
        dsd_da = (yc * y).sum() / ((n - 1) * sd)
        dsd_ds = (yc * (y * z - (y * z).mean())).sum() / ((n - 1) * sd)
        step = np.linalg.solve(np.array([[dm_da, dm_ds], [dsd_da, dsd_ds]]), -f)
        alpha += step[0]
        s += step[1]
    return np.exp(alpha + s * z)


def build_observations(rng: np.random.Generator, n: int):
    """n paired (x, Re, Rf) draws with exact arithmetic sample statistics."""
    zx = unit_sample_vector(rng.standard_normal(n))
    zp = rng.standard_normal(n)
    # Orthogonalize against zx before normalizing so corr(zx, ze) is exact.
    zp = zp - zp.mean()
    zp = zp - (zp @ zx) / (zx @ zx) * zx
    zp = zp / zp.std(ddof=1)
    ze = RHO_LOG * zx + np.sqrt(1.0 - RHO_LOG**2) * zp
    zf = unit_sample_vector(rng.standard_normal(n))

    x = fit_gross_series(zx, MEAN_X, SD_X)
    re = fit_gross_series(ze, MEAN_RE, SD_RE)
    rf = fit_gross_series(zf, MEAN_RF, SD_RF)
    return x, re, rf


def main(out: Path = BUNDLED_CSV) -> None:
    n = LAST_YEAR - FIRST_YEAR  # 89 growth/return pairs, 1890-1978
    rng = np.random.default_rng(SEED)
    x, re, rf = build_observations(rng, n)

    # The 1889 row carries that year's returns; they are never paired with a
    # growth observation, so they are plain (unconstrained) draws.
    mu_re, s2_re = lognormal_log_moments(MEAN_RE, SD_RE)
    mu_rf, s2_rf = lognormal_log_moments(MEAN_RF, SD_RF)
    re0 = float(np.exp(mu_re + np.sqrt(s2_re) * rng.standard_normal()))
    rf0 = float(np.exp(mu_rf + np.sqrt(s2_rf) * rng.standard_normal()))

    levels = np.empty(n + 1)
    levels[0] = 1.0
    for t in range(n):
        levels[t + 1] = levels[t] * x[t]
    one_m_tau = 1.0 - TAU_REF
    c_ref = (1.0 + one_m_tau * CERTAIN_UTILITY_REF) ** (1.0 / one_m_tau)
    levels *= c_ref / levels[UTILITY_YEAR - FIRST_YEAR]

    out.parent.mkdir(exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "consumption", "equity_return", "riskfree_return"])
        writer.writerow([FIRST_YEAR, repr(float(levels[0])), repr(re0), repr(rf0)])
        for t in range(n):
            writer.writerow(
                [
                    FIRST_YEAR + 1 + t,
                    repr(float(levels[t + 1])),
                    repr(float(re[t])),
                    repr(float(rf[t])),
                ]
            )

    # Report the realized sample statistics and the lognormality gap of the
    # growth series; the gap governs the attainable residual norm downstream.
    lx = np.log(x)
    gap = np.log(x.mean()) - lx.mean() - 0.5 * lx.var(ddof=1)
    print(f"wrote {out} ({n + 1} rows)")
    print(f"mean x  {x.mean():.10f}   sd x  {x.std(ddof=1):.10f}")
    print(f"mean Re {re.mean():.10f}   sd Re {re.std(ddof=1):.10f}")
    print(f"mean Rf {rf.mean():.10f}   sd Rf {rf.std(ddof=1):.10f}")
    print(f"corr(ln x, ln Re) {np.corrcoef(lx, np.log(re))[0, 1]:.12f}")
    print(f"lognormality gap  {gap:.8e}")
    print(f"consumption {UTILITY_YEAR}: {float(levels[UTILITY_YEAR - FIRST_YEAR])!r}")


if __name__ == "__main__":
    main()
