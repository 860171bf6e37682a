"""CRRA utilities and investor risk-attitude classification.

An investor's attitude family follows from the sufficiency factor alone
(above 1: extra positive utility on uncertain wealth, the risk-loving
family; below 1: risk-averse; exactly 1: neutral), while the qualifier
compares the realized uncertain utility with the certain one: "insufficient"
when uncertain falls short, "sufficient" when it exceeds. The qualifier uses
the raw utilities, not the factor-weighted ones; weighting would flip the
published risk-free row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dataset import MarketSeries, growth_series
from .errors import DomainError


@dataclass(frozen=True)
class InvestorReport:
    """One output row: parameters, utilities, and the attitude label."""

    investor: str
    stdf: float
    sfom: float
    crra: float
    certain_utility: float
    uncertain_utility: float
    label: str
    year: int


def crra_utility(c: float, tau: float) -> float:
    """(c^(1-tau) - 1) / (1-tau), continuously extended to ln(c) at tau = 1.

    Raises:
        DomainError: if c <= 0 or tau is not a finite number.
    """
    if not c > 0:
        raise DomainError("consumption must be positive")
    if not math.isfinite(tau):
        raise DomainError(f"tau must be a finite number, got {tau}")
    one_m_tau = 1.0 - tau
    if one_m_tau == 0.0:
        return math.log(c)
    # expm1 keeps the limit tau -> 1 accurate; the naive power form cancels.
    return math.expm1(one_m_tau * math.log(c)) / one_m_tau


def _mean(values: Sequence[float]) -> float:
    """np.mean(values) to the bit: numpy adds its pairwise sum to the identity 0.0."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's pairwise summation of float64 values, addition for addition."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total, end = 0.0, 0
    if n >= 8:
        r = list(values[:8])            # eight strided partial sums
        end = n - n % 8
        for i in range(8, end, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[end:]:
        total += value
    return total


def uncertain_utility(c_now: float, scenarios: Sequence[float],
                      beta: float, tau: float) -> float:
    """beta times the equal-weight mean of crra_utility(c_now * s) over scenarios.

    Raises:
        DomainError: for an empty or non-positive scenario set, c_now <= 0, or
            a beta or tau that is not a finite number.
    """
    scenarios = [float(s) for s in scenarios]
    if not scenarios:
        raise DomainError("scenario set must be non-empty")
    if not all(s > 0 for s in scenarios):
        raise DomainError("scenarios must be positive gross factors")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be a finite number, got {beta}")
    return beta * _mean([crra_utility(c_now * s, tau) for s in scenarios])


def classify_attitude(certain: float, uncertain: float, sfom: float) -> str:
    """Attitude label from the two utilities and the sufficiency factor.

    Raises:
        DomainError: if the factor is not a finite number > 0 or a utility is NaN.
    """
    if not (math.isfinite(sfom) and sfom > 0):
        raise DomainError(f"sufficiency factor must be a finite number > 0, got {sfom}")
    if math.isnan(certain) or math.isnan(uncertain):
        raise DomainError("utilities must not be NaN")
    if sfom > 1.0:
        family = "risk-loving"
    elif sfom < 1.0:
        family = "risk-averse"
    else:
        family = "neutral"
    if uncertain < certain:
        return f"insufficient {family}"
    if uncertain > certain:
        return f"sufficient {family}"
    return family


def build_reports(series: MarketSeries, year: int, beta: float, tau: float,
                  sfom_equity: float, sfom_riskfree: float) -> list[InvestorReport]:
    """The two report rows (equity first) for a given year and parameter set.

    Each investor's uncertain utility takes its own asset's returns as
    scenarios, the only generator that distinguishes the two investor types.

    Raises:
        DomainError: naming the investor whose utilities are not finite.
    """
    c_now = series.consumption_of(year)
    growth = growth_series(series)
    certain = crra_utility(c_now, tau)

    reports = []
    for investor, sfom, scenarios in (
        ("equity", sfom_equity, growth.r_e),
        ("risk-free", sfom_riskfree, growth.r_f),
    ):
        uncertain = uncertain_utility(c_now, scenarios, beta, tau)
        if not (math.isfinite(certain) and math.isfinite(uncertain)):
            raise DomainError(
                f"{investor} investor: utilities are not finite "
                f"(certain {certain}, uncertain {uncertain})"
            )
        reports.append(InvestorReport(
            investor=investor,
            stdf=beta,
            sfom=sfom,
            crra=tau,
            certain_utility=certain,
            uncertain_utility=uncertain,
            label=classify_attitude(certain, uncertain, sfom),
            year=year,
        ))
    return reports
