"""Loading and validation of the annual consumption/return series.

The canonical input is a CSV with header ``year,consumption,equity_return,
riskfree_return`` holding one row per calendar year; see ``data/README.md``
for the schema and the growth/return pairing convention.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

CSV_HEADER = ("year", "consumption", "equity_return", "riskfree_return")


@dataclass(frozen=True)
class AnnualRecord:
    """One year of the series: consumption level and gross real returns."""

    year: int
    consumption: float
    equity_return: float
    riskfree_return: float

    def __post_init__(self):
        if not self.consumption > 0:
            raise DataError(f"year {self.year}: consumption must be positive")
        if not self.equity_return > 0:
            raise DataError(f"year {self.year}: equity_return must be positive")
        if not self.riskfree_return > 0:
            raise DataError(f"year {self.year}: riskfree_return must be positive")
        # NaN and -inf already failed above; +inf is the one non-finite value left.
        if math.inf in (self.consumption, self.equity_return, self.riskfree_return):
            raise DataError(f"year {self.year}: consumption and returns must be finite")


@dataclass(frozen=True)
class MarketSeries:
    """Ordered annual records; years strictly consecutive, length >= 3."""

    records: tuple[AnnualRecord, ...]

    def __post_init__(self):
        if len(self.records) < 3:
            raise DataError(
                f"series needs at least 3 years, got {len(self.records)}"
            )
        years = [r.year for r in self.records]
        for prev, cur in zip(years, years[1:]):
            if cur == prev:
                raise DataError(f"duplicate year {cur}")
            if cur != prev + 1:
                raise DataError(f"year gap between {prev} and {cur}")

    def __len__(self) -> int:
        return len(self.records)

    def consumption_of(self, year: int) -> float:
        for r in self.records:
            if r.year == year:
                return r.consumption
        raise DataError(f"year {year} not in series ({self.records[0].year}-{self.records[-1].year})")


@dataclass(frozen=True, eq=False)
class GrowthSeries:
    """Paired observations: growth x_t = c_t / c_{t-1} with year-t returns."""

    years: np.ndarray
    x: np.ndarray
    r_e: np.ndarray
    r_f: np.ndarray

    def __len__(self) -> int:
        return len(self.years)


def load_series(path: str | Path) -> MarketSeries:
    """Read and validate the canonical CSV, sorting rows by ascending year.

    Raises DataError with the offending line number for malformed rows,
    non-positive or non-finite values, and year gaps or duplicates.
    """
    path = Path(path)
    rows: list[tuple[int, AnnualRecord]] = []
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataError(
                f"{path}: line 1: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            try:
                year = int(row[0])
                consumption = float(row[1])
                equity = float(row[2])
                riskfree = float(row[3])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            try:
                record = AnnualRecord(year, consumption, equity, riskfree)
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            rows.append((lineno, record))

    rows.sort(key=lambda item: item[1].year)
    try:
        return MarketSeries(records=tuple(record for _, record in rows))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def growth_series(series: MarketSeries) -> GrowthSeries:
    """Derive the paired growth/return observations from a validated series.

    The observation for year t carries x_t = c_t / c_{t-1} together with the
    gross returns recorded for year t (realized over the same t-1 -> t
    interval), so a series of n years yields n - 1 observations.
    """
    recs = series.records
    years = np.array([r.year for r in recs[1:]], dtype=np.int64)
    levels = np.array([r.consumption for r in recs], dtype=np.float64)
    x = levels[1:] / levels[:-1]
    r_e = np.array([r.equity_return for r in recs[1:]], dtype=np.float64)
    r_f = np.array([r.riskfree_return for r in recs[1:]], dtype=np.float64)
    return GrowthSeries(years=years, x=x, r_e=r_e, r_f=r_f)
