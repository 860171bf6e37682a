import dataclasses
import math
import statistics
import warnings

import numpy as np
import pytest

from sfm import (
    DataError,
    DegenerateSeriesError,
    GrowthSeries,
    MomentSet,
    estimate_moments,
    lognormality_gap,
)


def make_growth(x, r_e=None, r_f=None):
    n = len(x)
    return GrowthSeries(
        years=np.arange(1901, 1901 + n),
        x=np.asarray(x, dtype=float),
        r_e=np.asarray(r_e if r_e is not None else [1.05] * n, dtype=float),
        r_f=np.asarray(r_f if r_f is not None else [1.01] * n, dtype=float),
    )


VALID_FIELDS = dict(
    mu_x=0.02, sigma2_x=0.001, mu_r=0.05, sigma2_r=0.02, rho=0.3,
    mean_x=1.02, mean_re=1.07, mean_rf=1.01, n_obs=50,
)


class TestMomentSet:
    @pytest.mark.parametrize("fields,match", [
        ({"mean_re": math.inf}, "finite, got mean_re = inf"),
        ({"mu_x": -math.inf}, "finite, got mu_x = -inf"),
        ({"sigma2_r": math.nan}, "finite, got sigma2_r = nan"),
        ({"rho": math.nan}, "finite, got rho = nan"),
        # min() with a leading NaN is NaN, which would pass the positivity check.
        ({"mean_x": math.nan, "mean_rf": -1.0}, "finite, got mean_x = nan"),
        ({"convention": "bessel"}, "convention"),
        ({"sigma2_x": -1e-3}, "variances"),
        ({"sigma2_r": -1e-3}, "variances"),
        ({"rho": 1.5}, "correlation"),
        ({"rho": -1.5}, "correlation"),
        ({"mean_rf": 0.0}, "means must be positive"),
        ({"n_obs": 1}, "at least 2"),
    ])
    def test_invalid_fields_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            MomentSet(**{**VALID_FIELDS, **fields})


class TestEstimateMoments:
    def test_single_observation_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            estimate_moments(make_growth([1.1]))

    @pytest.mark.parametrize("column", ["x", "r_e", "r_f"])
    def test_non_positive_value_rejected(self, column):
        values = {"x": [1.1, 1.2], "r_e": [1.05, 1.1], "r_f": [1.01, 1.02]}
        values[column][1] = 0.0
        with pytest.raises(DataError, match="must be positive"):
            estimate_moments(make_growth(**values))

    def test_overflowing_mean_names_the_field_without_warning(self):
        growth = make_growth([1.1, 1.2, 1.0], r_e=[1e308, 1e308, 1.05])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite, got mean_re = inf"):
                estimate_moments(growth)

    def test_constant_series_raises_degenerate(self):
        growth = make_growth([1.1, 1.1])
        with pytest.raises(DegenerateSeriesError, match="ln x"):
            estimate_moments(growth)

    def test_constant_returns_raise_degenerate(self):
        growth = make_growth([1.0, 1.2], r_e=[1.05, 1.05])
        with pytest.raises(DegenerateSeriesError, match="ln R_e"):
            estimate_moments(growth)

    def test_two_point_population_case(self):
        growth = make_growth([1.0, math.e], r_e=[1.0, math.e])
        m = estimate_moments(growth, "population")
        assert m.mu_x == pytest.approx(0.5, abs=1e-15)
        assert m.sigma2_x == pytest.approx(0.25, abs=1e-15)
        assert m.rho == pytest.approx(1.0, abs=1e-12)

    def test_convention_scales_variances_by_n_minus_1_over_n(self, bundled_growth):
        sample = estimate_moments(bundled_growth, "sample")
        population = estimate_moments(bundled_growth, "population")
        n = sample.n_obs
        assert population.sigma2_x == pytest.approx(sample.sigma2_x * (n - 1) / n, rel=1e-14)
        assert population.sigma2_r == pytest.approx(sample.sigma2_r * (n - 1) / n, rel=1e-14)
        assert population.rho == pytest.approx(sample.rho, abs=1e-14)
        assert population.mu_x == sample.mu_x
        assert population.mean_x == sample.mean_x

    def test_unknown_convention_rejected(self, bundled_growth):
        with pytest.raises(ValueError, match="unknown variance convention 'bessel'"):
            estimate_moments(bundled_growth, "bessel")

    def test_bundled_against_spreadsheet_oracle(self, bundled_growth):
        # Independent route: statistics module on plain Python lists.
        m = estimate_moments(bundled_growth, "sample")
        lx = [math.log(v) for v in bundled_growth.x]
        lr = [math.log(v) for v in bundled_growth.r_e]
        n = len(lx)
        assert m.n_obs == n == 89
        assert m.mu_x == pytest.approx(statistics.fmean(lx), abs=1e-14)
        assert m.sigma2_x == pytest.approx(statistics.variance(lx), rel=1e-12)
        assert m.mu_r == pytest.approx(statistics.fmean(lr), abs=1e-14)
        assert m.sigma2_r == pytest.approx(statistics.variance(lr), rel=1e-12)
        assert m.mean_x == pytest.approx(statistics.fmean(bundled_growth.x), rel=1e-14)
        assert m.mean_re == pytest.approx(statistics.fmean(bundled_growth.r_e), rel=1e-14)
        assert m.mean_rf == pytest.approx(statistics.fmean(bundled_growth.r_f), rel=1e-14)
        mx, mr = statistics.fmean(lx), statistics.fmean(lr)
        cov = sum((a - mx) * (b - mr) for a, b in zip(lx, lr)) / (n - 1)
        assert m.rho == pytest.approx(
            cov / math.sqrt(statistics.variance(lx) * statistics.variance(lr)), abs=1e-12
        )

    def test_bundled_frozen_values(self, bundled_moments):
        m = bundled_moments
        assert m.mu_x == pytest.approx(0.01751333350822086, abs=1e-15)
        assert m.sigma2_x == pytest.approx(0.001271625202536316, rel=1e-12)
        assert m.mu_r == pytest.approx(0.05557636374293515, abs=1e-15)
        assert m.sigma2_r == pytest.approx(0.024253899735186282, rel=1e-12)
        assert m.rho == pytest.approx(0.4, abs=1e-12)
        assert m.mean_x == pytest.approx(1.0183, rel=1e-12)
        assert m.mean_re == pytest.approx(1.0698, rel=1e-12)
        assert m.mean_rf == pytest.approx(1.0080, rel=1e-12)

    def test_scale_invariance(self, bundled_series, bundled_moments):
        # Rescaling all consumption levels leaves every field unchanged;
        # a power-of-two factor keeps the growth ratios bit-exact.
        from sfm import growth_series

        scaled = dataclasses.replace(
            bundled_series, consumption=tuple(c * 4.0 for c in bundled_series.consumption)
        )
        assert estimate_moments(growth_series(scaled)) == bundled_moments

    def test_scale_invariance_general_factor(self, bundled_series, bundled_moments):
        from sfm import growth_series

        scaled = dataclasses.replace(
            bundled_series, consumption=tuple(c * 3.7 for c in bundled_series.consumption)
        )
        m = estimate_moments(growth_series(scaled))
        assert m.mu_x == pytest.approx(bundled_moments.mu_x, abs=1e-12)
        assert m.sigma2_x == pytest.approx(bundled_moments.sigma2_x, rel=1e-10)
        assert m.rho == pytest.approx(bundled_moments.rho, abs=1e-10)
        assert m.mean_x == pytest.approx(bundled_moments.mean_x, rel=1e-12)


class TestLognormalityGap:
    def test_consistent_sample_has_zero_gap(self):
        m = MomentSet(
            mu_x=0.02, sigma2_x=0.001, mu_r=0.05, sigma2_r=0.02, rho=0.3,
            mean_x=math.exp(0.02 + 0.0005), mean_re=1.07, mean_rf=1.01, n_obs=50,
        )
        assert lognormality_gap(m) == pytest.approx(0.0, abs=1e-16)

    def test_point_mass_gap_zero(self):
        m = MomentSet(
            mu_x=0.0, sigma2_x=0.0, mu_r=0.05, sigma2_r=0.02, rho=0.0,
            mean_x=1.0, mean_re=1.07, mean_rf=1.01, n_obs=50,
        )
        assert lognormality_gap(m) == 0.0

    def test_bundled_gap_recomputed_from_raw_data(self, bundled_growth, bundled_moments):
        lx = np.log(bundled_growth.x)
        direct = math.log(np.asarray(bundled_growth.x).mean()) - lx.mean() - 0.5 * lx.var(ddof=1)
        assert lognormality_gap(bundled_moments) == pytest.approx(direct, rel=1e-12)
        assert lognormality_gap(bundled_moments) == pytest.approx(-1.4575914006558985e-05, rel=1e-9)

    def test_jensen_lower_bound(self):
        # ln(mean) >= mean(ln) for any positive sample, so gap >= -sigma2/2.
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = np.exp(rng.normal(0.01, 0.2, size=40))
            growth = make_growth(x, r_e=np.exp(rng.normal(0.05, 0.2, size=40)))
            m = estimate_moments(growth)
            assert lognormality_gap(m) >= -0.5 * m.sigma2_x - 1e-12
