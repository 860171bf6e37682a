import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm import BivariateLogNormalSpec, lognormal_power_cov, sample_pairs, validate_identities
from sfm.mc import _BLOCK, _CHUNK, PowerCovSample, SampleSummary, _battery, _draw_chunk

GOLDEN = Path(__file__).parent / "data" / "mc_validation_1e6_seed42.json"

# Every exponent the identity battery uses, and its distinct specs.
BATTERY_EXPONENTS = sorted({e for _, _, a, b in _battery() for e in (a, b)})
BATTERY_SPECS = list(dict.fromkeys(spec for _, spec, _, _ in _battery()))


def two_pass_summary(spec, n, seed, powers) -> SampleSummary:
    """Reference: means, then centred moments, over the concatenated stream."""
    chunks = [_draw_chunk(spec, seed, index, min(_CHUNK, n - start))
              for index, start in enumerate(range(0, n, _CHUNK))]
    x = np.concatenate([x for x, _ in chunks])
    y = np.concatenate([y for _, y in chunks])
    covs = []
    for a, b in powers:
        u, v = x**a, y**b
        prod = (u - u.mean()) * (v - v.mean())
        var_prod = float(np.mean(prod**2) - np.mean(prod) ** 2)
        covs.append(PowerCovSample(a=a, b=b, value=float(prod.sum()) / (n - 1),
                                   std_error=math.sqrt(max(var_prod, 0.0) / n)))
    return SampleSummary(
        n=n, seed=seed, mean_x=float(x.mean()), mean_y=float(y.mean()),
        se_mean_x=float(x.std(ddof=1)) / math.sqrt(n),
        se_mean_y=float(y.std(ddof=1)) / math.sqrt(n),
        power_covs=tuple(covs),
    )


def assert_agrees(got: SampleSummary, want: SampleSummary) -> None:
    assert (got.n, got.seed) == (want.n, want.seed)
    assert got.mean_x == pytest.approx(want.mean_x, rel=1e-12, abs=0.0)
    assert got.mean_y == pytest.approx(want.mean_y, rel=1e-12, abs=0.0)
    assert got.se_mean_x == pytest.approx(want.se_mean_x, rel=1e-10, abs=0.0)
    assert got.se_mean_y == pytest.approx(want.se_mean_y, rel=1e-10, abs=0.0)
    assert len(got.power_covs) == len(want.power_covs)
    for g, w in zip(got.power_covs, want.power_covs):
        assert (g.a, g.b) == (w.a, w.b)
        assert g.value == pytest.approx(w.value, rel=1e-10, abs=0.0)
        assert g.std_error == pytest.approx(w.std_error, rel=1e-10, abs=0.0)


class TestSamplePairs:
    def test_point_mass(self):
        spec = BivariateLogNormalSpec(0.02, 0.0, 0.05, 0.0, 0.0)
        summary = sample_pairs(spec, 10_000, seed=1, powers=((-2.0, 1.0),))
        assert summary.mean_x == pytest.approx(math.exp(0.02), rel=1e-15)
        assert summary.mean_y == pytest.approx(math.exp(0.05), rel=1e-15)
        # constant draws: covariance vanishes up to accumulation rounding
        assert abs(summary.power_covs[0].value) <= 1e-20
        assert summary.power_covs[0].std_error <= 1e-20

    def test_comonotone_unit_correlation(self):
        spec = BivariateLogNormalSpec(0.0, 0.1, 0.0, 0.1, 1.0)
        summary = sample_pairs(spec, 1_000_000, seed=2, powers=((1.0, 1.0),))
        sd_x = summary.se_mean_x * math.sqrt(summary.n)
        sd_y = summary.se_mean_y * math.sqrt(summary.n)
        corr = summary.power_covs[0].value / (sd_x * sd_y)
        assert corr >= 0.999

    def test_reproducible_bit_for_bit(self):
        spec = BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.4)
        a = sample_pairs(spec, 50_000, seed=9, powers=((-2.0, 1.0), (1.0, 1.0)))
        b = sample_pairs(spec, 50_000, seed=9, powers=((-2.0, 1.0), (1.0, 1.0)))
        assert a == b

    def test_chunked_accumulation_matches_direct_numpy(self):
        # Spans multiple chunks; the one-pass sums must agree with a direct
        # two-pass computation over the concatenated stream.
        spec = BivariateLogNormalSpec(0.01, 0.05, 0.03, 0.2, -0.3)
        powers = ((-1.0, 2.0), (-4.4, 1.0), (0.5, 1.5))
        n = 700_000  # > one chunk
        assert_agrees(sample_pairs(spec, n, seed=5, powers=powers),
                      two_pass_summary(spec, n, 5, powers))

    def test_high_mean_spec_matches_direct_numpy(self):
        # Means 50x the spread: sums of unshifted values would cancel.
        spec = BivariateLogNormalSpec(4.0, 0.02, 4.0, 0.02, 0.3)
        powers = ((1.0, 1.0), (2.0, -1.0))
        n = 700_000
        assert_agrees(sample_pairs(spec, n, seed=8, powers=powers),
                      two_pass_summary(spec, n, 8, powers))

    @settings(max_examples=6, derandomize=True, deadline=None, database=None)
    @given(
        spec=st.builds(
            BivariateLogNormalSpec,
            mu_x=st.floats(-1.0, 4.0), sigma_x=st.floats(0.01, 0.3),
            mu_y=st.floats(-1.0, 4.0), sigma_y=st.floats(0.01, 0.3),
            rho=st.floats(-1.0, 1.0),
        ),
        powers=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                        min_size=1, max_size=3),
        extra=st.integers(1, 3 * _BLOCK),
        seed=st.integers(0, 2**31),
    )
    def test_two_chunk_property(self, spec, powers, extra, seed):
        n = _CHUNK + extra
        assert_agrees(sample_pairs(spec, n, seed, powers),
                      two_pass_summary(spec, n, seed, powers))

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(
        spec=st.sampled_from(BATTERY_SPECS),
        powers=st.lists(
            st.tuples(st.floats(-4.0, 2.0) | st.sampled_from(BATTERY_EXPONENTS),
                      st.floats(0.5, 2.0) | st.sampled_from(BATTERY_EXPONENTS)),
            min_size=1, max_size=16),
        n=st.integers(_BLOCK + 1, 4 * _BLOCK),
        seed=st.integers(0, 2**31),
    )
    def test_log_space_powers_match_direct_powers(self, spec, powers, n, seed):
        # The accumulator forms x^a as exp(a ln x); the reference keeps x**a.
        # Exponents: the benchmark's sample_pairs ranges and the battery's.
        assert_agrees(sample_pairs(spec, n, seed, powers),
                      two_pass_summary(spec, n, seed, powers))

    def test_needs_two_draws(self):
        spec = BivariateLogNormalSpec(0.0, 0.1, 0.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            sample_pairs(spec, 1, seed=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BivariateLogNormalSpec(0.0, -0.1, 0.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            BivariateLogNormalSpec(0.0, 0.1, 0.0, 0.1, 1.5)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_spec_rejected(self, field, value):
        params = [0.0, 0.1, 0.0, 0.1, 0.0]
        params[field] = value
        with pytest.raises(ValueError, match="must be finite"):
            BivariateLogNormalSpec(*params)

    @pytest.mark.parametrize("power", [(math.nan, 1.0), (math.inf, 1.0),
                                       (1.0, -math.inf), (-2.0, math.nan)])
    def test_non_finite_exponent_rejected(self, power):
        spec = BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.4)
        with pytest.raises(ValueError, match="exponents must be finite"):
            sample_pairs(spec, 10_000, seed=1, powers=((1.0, 1.0), power))

    def test_generic_case_within_three_standard_errors(self):
        # Sampling oracle for the closed-form power covariance at 1e7 draws.
        spec = BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.4)
        summary = sample_pairs(spec, 10_000_000, seed=1234, powers=((-2.0, 1.0),))
        closed = lognormal_power_cov(-2.0, 1.0, 0.02, 0.04, 0.05, 0.15, 0.4)
        est = summary.power_covs[0]
        assert abs(est.value - closed) <= 3.0 * est.std_error


class TestValidateIdentities:
    def test_rejects_small_draw_counts(self):
        with pytest.raises(ValueError):
            validate_identities(9_999)

    def test_battery_composition(self):
        report = validate_identities(10_000, seed=7)
        names = {c.name for c in report.cases}
        for tau in ("0.0", "1.0", "1.0319", "4.4"):
            assert f"bundled mrs tau={tau}" in names
        kinds = {c.kind for c in report.cases}
        assert kinds == {"power-cov", "marginal-x", "marginal-y"}

    def test_trivial_zero_cases_pass_exactly(self):
        report = validate_identities(10_000, seed=11)
        by_name = {(c.name, c.kind): c for c in report.cases}
        constant = by_name[("constant power a=0", "power-cov")]
        assert constant.closed_form == 0.0 and constant.sample == 0.0 and constant.z == 0.0
        tau0 = by_name[("bundled mrs tau=0.0", "power-cov")]
        assert tau0.closed_form == 0.0 and tau0.sample == 0.0 and tau0.z == 0.0

    def test_battery_cases_match_single_group_calls(self):
        # Sharing one stream couples no cases: each equals its own call.
        draws = 3 * _BLOCK + 17
        report = validate_identities(draws, 13)
        assert len(report.cases) == 3 * len(_battery())
        for k, (name, spec, a, b) in enumerate(_battery()):
            cov, mean_x, mean_y = report.cases[3 * k:3 * k + 3]
            assert {c.name for c in (cov, mean_x, mean_y)} == {name}
            alone = sample_pairs(spec, draws, 13, ((a, b),))
            (est,) = alone.power_covs
            assert (cov.kind, cov.sample, cov.std_error) == ("power-cov", est.value, est.std_error)
            assert (mean_x.kind, mean_x.sample, mean_x.std_error) == (
                "marginal-x", alone.mean_x, alone.se_mean_x)
            assert (mean_y.kind, mean_y.sample, mean_y.std_error) == (
                "marginal-y", alone.mean_y, alone.se_mean_y)

    def test_golden_regression_fixture(self):
        golden = json.loads(GOLDEN.read_text())
        report = validate_identities(golden["draws"], golden["seed"])
        assert report.ok and golden["ok"]
        assert len(report.cases) == len(golden["cases"])
        for case, frozen in zip(report.cases, golden["cases"]):
            assert case.name == frozen["name"]
            assert case.kind == frozen["kind"]
            assert case.ok == frozen["ok"]
            assert case.closed_form == pytest.approx(frozen["closed_form"], rel=1e-12, abs=1e-15)
            assert case.sample == pytest.approx(frozen["sample"], rel=1e-9, abs=1e-15)
            assert case.z == pytest.approx(frozen["z"], rel=1e-6, abs=1e-9)
