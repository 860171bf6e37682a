import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm import BivariateLogNormalSpec, lognormal_power_cov, sample_pairs, validate_identities
from sfm.mc import (
    _BLOCK, _CHUNK, Z_MAX, PowerCovSample, SampleSummary, _battery, _blocks, _dot,
)

from helpers import PROPERTY_SETTINGS

GOLDEN = Path(__file__).parent / "data" / "mc_validation_1e6_seed42.json"

# Every exponent the identity battery uses, its distinct specs and the bundled data's spec.
BATTERY_EXPONENTS = sorted({e for _, _, a, b in _battery() for e in (a, b)})
BATTERY_SPECS = list(dict.fromkeys(spec for _, spec, _, _ in _battery()))
BUNDLED_SPEC = next(spec for name, spec, _, _ in _battery() if name.startswith("bundled"))

# OpenBLAS runs a ddot of more than this many elements on its threads; a
# 10,000-element ddot took 1.00 CPU-s per wall-s on 2 cores, a 10,001-element one 1.66.
OPENBLAS_DOT_THRESHOLD = 10_000

# 0, or |e| in [0.05, 3]. Not tiny: with b = -2.2e-16 every y^b rounds to
# 1.0, so the sample covariance is exactly 0 with standard error 0, while the
# closed form is -1.1e-19. That is float resolution, not an estimator fault.
GENERATED_EXPONENTS = st.just(0.0) | st.builds(
    lambda magnitude, sign: sign * magnitude, st.floats(0.05, 3.0), st.sampled_from((-1.0, 1.0)))


def draw_chunk(spec, seed: int, index: int, size: int):
    """Chunk ``index`` of the (x, y) stream, restated from its definition.

    The chunk's generator draws zx, then z_perp, whole; zy = rho zx +
    sqrt(1 - rho^2) z_perp, x = exp(mu_x + sigma_x zx), y = exp(mu_y + sigma_y zy).
    """
    rng = np.random.default_rng([seed, index])
    zx, z_perp = rng.standard_normal(size), rng.standard_normal(size)
    zy = spec.rho * zx + math.sqrt(1.0 - spec.rho**2) * z_perp
    return np.exp(spec.mu_x + spec.sigma_x * zx), np.exp(spec.mu_y + spec.sigma_y * zy)


def two_pass_summary(spec, n, seed, powers) -> SampleSummary:
    """Reference: means, then centred moments, over the concatenated stream."""
    chunks = [draw_chunk(spec, seed, index, min(_CHUNK, n - start))
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


def lognormal_moment(spec, p: float, q: float) -> float:
    """E[X^p Y^q] of the jointly lognormal pair."""
    return math.exp(p * spec.mu_x + q * spec.mu_y + 0.5 * (
        (p * spec.sigma_x) ** 2 + (q * spec.sigma_y) ** 2
        + 2.0 * p * q * spec.rho * spec.sigma_x * spec.sigma_y))


def exact_cov_se(spec, a: float, b: float, n: int) -> float:
    """Asymptotic SE of the sample cov(X^a, Y^b): sqrt((E[(U-mu_U)^2 (V-mu_V)^2] - c^2) / n).

    With U = X^a and V = Y^b, the fourth product moment is the binomial
    expansion of (U - mu_U)^2 (V - mu_V)^2 over lognormal moments E[X^p Y^q];
    no sample and none of sfm's sums enter it.
    """
    mu_u, mu_v = lognormal_moment(spec, a, 0.0), lognormal_moment(spec, 0.0, b)
    binom = (1, 2, 1)
    m22 = math.fsum(binom[i] * binom[j] * (-mu_u) ** (2 - i) * (-mu_v) ** (2 - j)
                    * lognormal_moment(spec, i * a, j * b)
                    for i in range(3) for j in range(3))
    c = lognormal_moment(spec, a, b) - mu_u * mu_v
    return math.sqrt(max(m22 - c * c, 0.0) / n)


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
        # Spans two chunks and ends on a short block; the one-pass sums must
        # agree with a direct two-pass computation over the concatenated
        # stream. Unit exponents reuse the marginal x and y and zero exponents
        # skip the power, so both appear beside exponents with their own columns.
        spec = BivariateLogNormalSpec(0.01, 0.05, 0.03, 0.2, -0.3)
        powers = ((-1.0, 2.0), (-4.4, 1.0), (0.5, 1.5), (1.0, -2.0), (1.0, 1.0),
                  (0.0, 1.5), (-3.0, 0.0), (-0.0, 1.0), (1.0, 0.0))
        n = 700_000  # one full chunk, then 10 full blocks and a short one
        got = sample_pairs(spec, n, seed=5, powers=powers)
        assert_agrees(got, two_pass_summary(spec, n, 5, powers))
        for est in got.power_covs[5:]:
            assert (est.value, est.std_error) == (0.0, 0.0)

    def test_high_mean_spec_matches_direct_numpy(self):
        # Means 50x the spread: sums of unshifted values would cancel.
        spec = BivariateLogNormalSpec(4.0, 0.02, 4.0, 0.02, 0.3)
        powers = ((1.0, 1.0), (2.0, -1.0), (1.0, 3.0), (-2.0, 1.0), (0.0, 2.0))
        n = 700_000
        got = sample_pairs(spec, n, seed=8, powers=powers)
        assert_agrees(got, two_pass_summary(spec, n, 8, powers))
        assert (got.power_covs[4].value, got.power_covs[4].std_error) == (0.0, 0.0)

    def test_zero_exponent_beside_an_overflowing_one_is_exact_zero(self):
        # A zero exponent makes a constant column, whatever the other column
        # holds: x^1e5 overflows here, and the covariance is still exactly 0.
        spec = BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.4)
        summary = sample_pairs(spec, 1_000, seed=1, powers=((1e5, 0.0), (0.0, -1e5)))
        assert [(c.value, c.std_error) for c in summary.power_covs] == [(0.0, 0.0)] * 2

    @pytest.mark.parametrize("powers, name", [
        (((1e5, 1.0),), "(100000.0, 1.0)"),
        (((-2.0, 1.0), (0.5, -1e5), (1e5, 1.0)), "(0.5, -100000.0)"),
        (((3000.0, 1.0),), "(3000.0, 1.0)"),
    ])
    def test_overflowing_power_rejected_by_name(self, powers, name):
        # x^1e5 and y^-1e5 overflow, and x^3000 is finite but its squares are
        # not: a ValueError names the first such power, and no RuntimeWarning
        # or OverflowError escapes (warnings fail the suite).
        spec = BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.4)
        with pytest.raises(ValueError, match=re.escape(f"power (a, b) = {name}: ")):
            sample_pairs(spec, 1_000, seed=1, powers=powers)

    def test_overflowing_marginal_rejected_by_name(self):
        spec = BivariateLogNormalSpec(800.0, 0.04, 0.05, 0.15, 0.4)   # exp(800) overflows
        with pytest.raises(ValueError, match="the mean of x: .* leaves the float range"):
            sample_pairs(spec, 1_000, seed=1)

    def test_streamed_normals_match_whole_chunk_draws(self):
        # _blocks draws z_perp one block at a time into one reused buffer; its
        # blocks must be the bits of drawing each chunk's zx, then z_perp, whole.
        n = _CHUNK + 3 * _BLOCK + 5   # two chunks, the second ending on a short block
        blocks = [(zx.copy(), z_perp.copy()) for zx, z_perp in _blocks(n, 17)]
        assert [len(zx) for zx, _ in blocks][-4:] == [_BLOCK] * 3 + [5]
        streamed = [np.concatenate(column) for column in zip(*blocks)]
        whole = []
        for index, start in enumerate(range(0, n, _CHUNK)):
            rng = np.random.default_rng([17, index])
            size = min(_CHUNK, n - start)
            whole.append((rng.standard_normal(size), rng.standard_normal(size)))
        for got, want in zip(streamed, (np.concatenate(c) for c in zip(*whole))):
            assert np.array_equal(got, want)

    def test_block_dots_stay_under_the_openblas_threading_threshold(self):
        # _dot on views of an array whose dot records its length: every BLAS
        # call must stay on the calling thread, at every block length from 1
        # to _BLOCK (a dense sample: all up to 64, around the half block and
        # the threshold, the last few, and every 97th). The value is held to
        # Higham's bound for a sum of n rounded products in any order,
        # n eps sum |p_i q_i|, against math.fsum of the products.
        lengths = []

        class Recording(np.ndarray):
            def dot(self, other):
                lengths.append(len(self))
                return np.ndarray.dot(self.view(np.ndarray), other.view(np.ndarray))

        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(_BLOCK), rng.standard_normal(_BLOCK)
        p, q = a.view(Recording), b.view(Recording)
        half, eps = _BLOCK // 2, np.finfo(float).eps
        sizes = {*range(1, 65), *range(half - 2, half + 3),
                 *range(OPENBLAS_DOT_THRESHOLD - 2, OPENBLAS_DOT_THRESHOLD + 3),
                 *range(_BLOCK - 3, _BLOCK + 1), *range(1, _BLOCK, 97)}
        for n in sorted(sizes):
            products = (a[:n] * b[:n]).tolist()
            got = _dot(p[:n], q[:n])
            assert abs(got - math.fsum(products)) <= n * eps * math.fsum(map(abs, products)), n
        assert lengths and max(lengths) <= OPENBLAS_DOT_THRESHOLD

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

    @PROPERTY_SETTINGS
    @given(
        spec=st.builds(
            BivariateLogNormalSpec,
            mu_x=st.floats(-0.1, 0.1), sigma_x=st.floats(0.01, 0.2),
            mu_y=st.floats(-0.1, 0.1), sigma_y=st.floats(0.01, 0.2),
            rho=st.floats(-0.9, 0.9),
        ),
        a=GENERATED_EXPONENTS,
        b=GENERATED_EXPONENTS,
        seed=st.integers(0, 2**31),
    )
    def test_generated_estimates_within_z_max_standard_errors(self, spec, a, b, seed):
        # Sampling oracle for generated specs at 20,000 draws. The worst z
        # over 4,000 generated cases was 2.93 (cov), 3.48 (mean of x) and
        # 3.13 (mean of y), against Z_MAX = 4; the examples here are fixed.
        summary = sample_pairs(spec, 20_000, seed, ((a, b),))
        est = summary.power_covs[0]
        closed = lognormal_power_cov(a, b, spec.mu_x, spec.sigma_x,
                                     spec.mu_y, spec.sigma_y, spec.rho)
        assert abs(est.value - closed) <= Z_MAX * est.std_error
        for mean, se, mu, sigma in ((summary.mean_x, summary.se_mean_x, spec.mu_x, spec.sigma_x),
                                    (summary.mean_y, summary.se_mean_y, spec.mu_y, spec.sigma_y)):
            assert abs(mean - math.exp(mu + 0.5 * sigma * sigma)) <= Z_MAX * se

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

    @pytest.mark.parametrize("seed", [42, 7])
    def test_standard_errors_match_the_exact_asymptotic_ones(self, seed):
        # An oracle independent of mc._summary's variance-of-product formula:
        # across seeds sfm's SE / exact SE has sd <= 0.009 at 1e5 draws and
        # <= 0.006 at 2e5 on every case of the battery.
        n = 200_000
        report = validate_identities(n, seed)
        for k, (name, spec, a, b) in enumerate(_battery()):
            cov, mean_x, mean_y = report.cases[3 * k:3 * k + 3]
            if a * b == 0.0:   # a constant power: no spread, no standard error
                assert cov.std_error == 0.0 and exact_cov_se(spec, a, b, n) == 0.0, name
            else:
                assert cov.std_error == pytest.approx(exact_cov_se(spec, a, b, n), rel=0.03), name
            var_x = lognormal_moment(spec, 2, 0) - lognormal_moment(spec, 1, 0) ** 2
            var_y = lognormal_moment(spec, 0, 2) - lognormal_moment(spec, 0, 1) ** 2
            assert mean_x.std_error == pytest.approx(math.sqrt(var_x / n), rel=0.03), name
            assert mean_y.std_error == pytest.approx(math.sqrt(var_y / n), rel=0.03), name

    def test_exact_cov_se_factors_when_independent(self):
        # rho = 0: E[(U-mu_U)^2 (V-mu_V)^2] = var U var V and c = 0.
        spec = BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.0)
        var_u = lognormal_moment(spec, -4.0, 0.0) - lognormal_moment(spec, -2.0, 0.0) ** 2
        var_v = lognormal_moment(spec, 0.0, 2.0) - lognormal_moment(spec, 0.0, 1.0) ** 2
        assert exact_cov_se(spec, -2.0, 1.0, 100) == pytest.approx(
            math.sqrt(var_u * var_v / 100), rel=1e-9)

    def test_peak_memory_is_one_chunk_of_zx_and_a_few_blocks(self):
        # A pass holds one chunk of zx, a block of z_perp and seven block-sized
        # buffers: 8 * (_CHUNK + 8 * _BLOCK) bytes, about 5 MiB. The bound
        # leaves 8 blocks (1 MiB) for small objects; a chunk of z_perp held
        # whole would need 4 MiB more.
        validate_identities(10_000)    # first-call imports and caches stay out
        tracemalloc.start()
        try:
            validate_identities(600_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (_CHUNK + 16 * _BLOCK)

    def test_bundled_constants_are_the_data_moments(self, bundled_moments):
        m, spec = bundled_moments, BUNDLED_SPEC
        assert (spec.mu_x, spec.sigma_x, spec.mu_y, spec.sigma_y) == (
            m.mu_x, math.sqrt(m.sigma2_x), m.mu_r, math.sqrt(m.sigma2_r))

    def test_bundled_rho_is_the_target_one_ulp_above_the_data(self, bundled_moments):
        # Moving the bundled rho to the data's value would move the MC fixture.
        assert BUNDLED_SPEC.rho == 0.4
        assert math.nextafter(bundled_moments.rho, math.inf) == BUNDLED_SPEC.rho

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
