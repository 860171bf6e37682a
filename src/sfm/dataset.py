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

from .errors import DataError

CSV_HEADER = ("year", "consumption", "equity_return", "riskfree_return")


@dataclass(frozen=True)
class MarketSeries:
    """The annual table as four columns; years strictly consecutive, length >= 3."""

    years: tuple[int, ...]
    consumption: tuple[float, ...]
    equity_return: tuple[float, ...]
    riskfree_return: tuple[float, ...]

    def __post_init__(self):
        if len(self.years) < 3:
            raise DataError(f"series needs at least 3 years, got {len(self.years)}")
        if len({len(column) for column in vars(self).values()}) != 1:
            raise DataError("every column needs one value per year")
        for prev, cur in zip(self.years, self.years[1:]):
            if cur == prev:
                raise DataError(f"duplicate year {cur}")
            if cur != prev + 1:
                raise DataError(f"year gap between {prev} and {cur}")

    def __len__(self) -> int:
        return len(self.years)

    def consumption_of(self, year: int) -> float:
        first, last = self.years[0], self.years[-1]
        if not first <= year <= last:
            raise DataError(f"year {year} not in series ({first}-{last})")
        return self.consumption[year - first]


@dataclass(frozen=True)
class GrowthSeries:
    """Paired observations as four columns: growth x_t = c_t / c_{t-1} with year-t returns."""

    years: tuple[int, ...]
    x: tuple[float, ...]
    r_e: tuple[float, ...]
    r_f: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.years)


def load_series(path: str | Path) -> MarketSeries:
    """Read and validate the canonical CSV, sorting rows by ascending year.

    Raises DataError with the offending line number for malformed rows,
    non-positive or non-finite values, and year gaps or duplicates, and
    naming the file when it cannot be opened or read as UTF-8 CSV. A leading
    byte-order mark (BOM), as spreadsheet "CSV UTF-8" exports write, is skipped.
    """
    path = Path(path)
    rows: list[tuple[int, float, float, float]] = []
    try:
        with path.open("r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise DataError(
                    f"{path}: line 1: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
                )
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num    # the record's last physical line
                if len(row) != 4:
                    raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
                try:
                    year = int(row[0])
                    values = (float(row[1]), float(row[2]), float(row[3]))
                except ValueError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}") from None
                for name, value in zip(CSV_HEADER[1:], values):
                    if not value > 0:
                        raise DataError(f"{path}: line {lineno}: year {year}: {name} must be positive")
                # NaN and -inf already failed above; +inf is the one non-finite value left.
                if math.inf in values:
                    raise DataError(
                        f"{path}: line {lineno}: year {year}: consumption and returns must be finite"
                    )
                rows.append((year, *values))
    except OSError as exc:  # its message already names the file
        raise DataError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None

    try:
        return MarketSeries(*(zip(*sorted(rows)) if rows else [()] * 4))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def growth_series(series: MarketSeries) -> GrowthSeries:
    """Derive the paired growth/return observations from a validated series.

    The observation for year t carries x_t = c_t / c_{t-1} together with the
    gross returns recorded for year t (realized over the same t-1 -> t
    interval), so a series of n years yields n - 1 observations.

    Raises DataError naming the year when a growth factor overflows to
    infinity or underflows to zero.
    """
    levels = series.consumption
    x = tuple(cur / prev for prev, cur in zip(levels, levels[1:]))
    for year, factor in zip(series.years[1:], x):
        if not 0 < factor < math.inf:
            raise DataError(
                f"year {year}: consumption growth factor {factor!r} must be finite and positive"
            )
    return GrowthSeries(
        years=series.years[1:],
        x=x,
        r_e=series.equity_return[1:],
        r_f=series.riskfree_return[1:],
    )
