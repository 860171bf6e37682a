import importlib.util

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfm import DataError, MarketSeries, growth_series, load_series
from sfm.dataset import CSV_HEADER

from conftest import DATA_PATH, ROOT
from helpers import PROPERTY_SETTINGS


def write_csv(path, rows, header="year,consumption,equity_return,riskfree_return"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def minimal_csv(tmp_path):
    return write_csv(tmp_path / "mini.csv", [
        "1900,100,1.0,1.0",
        "1901,110,1.0,1.0",
        "1902,121,1.0,1.0",
    ])


class TestLoadSeries:
    def test_bundled_file_has_90_records(self):
        series = load_series(DATA_PATH)
        assert len(series) == 90
        assert series.years[0] == 1889
        assert series.years[-1] == 1978

    def test_minimal_three_row_file(self, minimal_csv):
        series = load_series(minimal_csv)
        assert len(series) == 3
        assert series.consumption == (100.0, 110.0, 121.0)

    def test_blank_line_skipped(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", [
            "1900,100,1.0,1.0",
            "",
            "1901,110,1.0,1.0",
            "1902,121,1.0,1.0",
        ])
        assert load_series(path).years == (1900, 1901, 1902)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty file"):
            load_series(path)

    def test_rows_sorted_by_year(self, tmp_path):
        path = write_csv(tmp_path / "shuffled.csv", [
            "1902,121,1.0,1.0",
            "1900,100,1.0,1.0",
            "1901,110,1.0,1.0",
        ])
        series = load_series(path)
        assert series.years == (1900, 1901, 1902)

    @pytest.mark.parametrize("first,line", [
        ("1900,100,1.0,1.0", 3),
        # A quoted field that spans two physical lines; float strips its newline.
        ('1900,100,"1.0\n",1.01', 4),
    ], ids=["one-line-rows", "quoted-newline"])
    def test_negative_consumption_cites_line(self, tmp_path, first, line):
        path = write_csv(tmp_path / "bad.csv", [
            first,
            "1901,-5,1.0,1.0",
            "1902,121,1.0,1.0",
        ])
        with pytest.raises(DataError, match=f": line {line}: year 1901: consumption must be positive$"):
            load_series(path)

    @pytest.mark.parametrize("row", ["1901,110,inf,1.0", "1901,inf,1.0,1.0", "1901,110,1.0,inf"])
    def test_infinite_value_cites_line(self, tmp_path, row):
        path = write_csv(tmp_path / "bad.csv", [
            "1900,100,1.0,1.0",
            row,
            "1902,121,1.0,1.0",
        ])
        with pytest.raises(DataError, match="line 3: year 1901: .* must be finite"):
            load_series(path)

    @pytest.mark.parametrize("value", ["0", "-0.2", "nan", "-inf"])
    @pytest.mark.parametrize("column", ["consumption", "equity_return", "riskfree_return"])
    def test_non_positive_value_cites_line(self, tmp_path, column, value):
        fields = ["1901", "110", "1.0", "1.0"]
        fields[CSV_HEADER.index(column)] = value
        path = write_csv(tmp_path / "bad.csv", [
            "1900,100,1.0,1.0",
            ",".join(fields),
            "1902,121,1.0,1.0",
        ])
        with pytest.raises(DataError, match=f"line 3: year 1901: {column} must be positive$"):
            load_series(path)

    def test_malformed_value_cites_line(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", [
            "1900,100,1.0,1.0",
            "1901,abc,1.0,1.0",
            "1902,121,1.0,1.0",
        ])
        with pytest.raises(DataError, match="line 3"):
            load_series(path)

    def test_wrong_field_count_cites_line(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", [
            "1900,100,1.0,1.0",
            "1901,110,1.0",
            "1902,121,1.0,1.0",
        ])
        with pytest.raises(DataError, match="line 3"):
            load_series(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["1900,100,1.0,1.0"] * 3,
                         header="year,cons,re,rf")
        with pytest.raises(DataError, match="header"):
            load_series(path)

    def test_year_gap_rejected(self, tmp_path):
        path = write_csv(tmp_path / "gap.csv", [
            "1900,100,1.0,1.0",
            "1902,110,1.0,1.0",
            "1903,121,1.0,1.0",
        ])
        with pytest.raises(DataError, match="gap"):
            load_series(path)

    def test_duplicate_year_rejected(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", [
            "1900,100,1.0,1.0",
            "1900,110,1.0,1.0",
            "1901,121,1.0,1.0",
        ])
        with pytest.raises(DataError, match="duplicate"):
            load_series(path)

    def test_too_short_rejected(self, tmp_path):
        path = write_csv(tmp_path / "short.csv", [
            "1900,100,1.0,1.0",
            "1901,110,1.0,1.0",
        ])
        with pytest.raises(DataError, match="at least 3"):
            load_series(path)

    def test_deterministic(self, minimal_csv):
        assert load_series(minimal_csv) == load_series(minimal_csv)

    def test_short_column_rejected(self, minimal_csv):
        series = load_series(minimal_csv)
        with pytest.raises(DataError, match="one value per year"):
            MarketSeries(**{**vars(series), "riskfree_return": series.riskfree_return[1:]})


class TestGrowthSeries:
    def test_constant_growth(self, minimal_csv):
        growth = growth_series(load_series(minimal_csv))
        np.testing.assert_allclose(growth.x, [1.1, 1.1], rtol=1e-15)
        assert list(growth.years) == [1901, 1902]

    def test_zero_growth(self, tmp_path):
        path = write_csv(tmp_path / "flat.csv", [
            "1900,100,1.0,1.0",
            "1901,100,1.0,1.0",
            "1902,100,1.0,1.0",
        ])
        growth = growth_series(load_series(path))
        np.testing.assert_array_equal(growth.x, [1.0, 1.0])

    def test_bundled_has_89_observations(self, bundled_growth):
        assert len(bundled_growth) == 89

    def test_returns_pair_with_growth_year(self, tmp_path):
        path = write_csv(tmp_path / "pair.csv", [
            "1900,100,1.11,1.01",
            "1901,110,1.22,1.02",
            "1902,121,1.33,1.03",
        ])
        growth = growth_series(load_series(path))
        # year-t row: growth over t-1 -> t with the returns recorded for t
        assert growth.years[0] == 1901 and growth.r_e[0] == 1.22 and growth.r_f[0] == 1.02
        assert growth.years[1] == 1902 and growth.r_e[1] == 1.33 and growth.r_f[1] == 1.03

    def test_round_trip_reconstruction(self, bundled_series, bundled_growth):
        levels = [bundled_series.consumption[0]]
        for x in bundled_growth.x:
            levels.append(levels[-1] * x)
        np.testing.assert_allclose(levels, bundled_series.consumption, rtol=1e-12)

    def test_consumption_of_missing_year(self, bundled_series):
        assert bundled_series.consumption_of(1977) == pytest.approx(3339.999988750085)
        with pytest.raises(DataError, match="1880"):
            bundled_series.consumption_of(1880)


@st.composite
def market_tables(draw):
    """A valid table as (years, consumption, equity, riskfree) plus a row order."""
    n = draw(st.integers(3, 40))
    first = draw(st.integers(1800, 2100))
    level = st.floats(1e-3, 1e6)
    gross = st.floats(1e-3, 10.0)
    columns = (
        list(range(first, first + n)),
        draw(st.lists(level, min_size=n, max_size=n)),
        draw(st.lists(gross, min_size=n, max_size=n)),
        draw(st.lists(gross, min_size=n, max_size=n)),
    )
    return columns, draw(st.permutations(range(n)))


class TestColumnsProperty:
    @PROPERTY_SETTINGS
    @given(table=market_tables())
    def test_shuffled_csv_loads_as_sorted_columns(self, tmp_path_factory, table):
        (years, c, r_e, r_f), order = table
        path = write_csv(tmp_path_factory.mktemp("table") / "series.csv", [
            f"{years[i]},{c[i]!r},{r_e[i]!r},{r_f[i]!r}" for i in order
        ])
        series = load_series(path)
        assert (series.years, series.consumption) == (tuple(years), tuple(c))
        assert (series.equity_return, series.riskfree_return) == (tuple(r_e), tuple(r_f))

        levels = np.array(c)
        assert np.asarray(growth_series(series).x).tobytes() == (levels[1:] / levels[:-1]).tobytes()

        for year, level in zip(years, c):
            assert series.consumption_of(year) == level
        for outside in (years[0] - 1, years[-1] + 1):
            with pytest.raises(DataError, match=f"year {outside} not in series"):
                series.consumption_of(outside)


def test_reconstruction_tool_rebuilds_the_bundled_file(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "reconstruct_dataset", ROOT / "tools" / "reconstruct_dataset.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "series.csv"
    tool.main(out)
    assert out.read_bytes() == DATA_PATH.read_bytes()
    # The report's last line names the pinned level as a plain float.
    level = load_series(DATA_PATH).consumption_of(1977)
    assert capsys.readouterr().out.splitlines()[-1] == f"consumption 1977: {level!r}"
