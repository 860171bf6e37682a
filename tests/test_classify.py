import json
import math
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sfm import (
    build_reports,
    classify_attitude,
    crra_utility,
    load_series,
    uncertain_utility,
)
from sfm.classify import _mean
from sfm.errors import DomainError

from conftest import DATA_PATH
from helpers import (
    PROPERTY_SETTINGS,
    REF_BETA,
    REF_CERTAIN_UTILITY,
    REF_TAU,
    REF_UNCERTAIN_EQUITY,
    REF_UNCERTAIN_RISKFREE,
    utility_rounding,
)

EPS = np.finfo(float).eps
BUNDLED_C = load_series(DATA_PATH).consumption_of(1978)
GOLDEN_CLASSIFY = Path(__file__).parent / "data" / "classify_golden.json"


def invert_crra(v: float, tau: float) -> float:
    return (1.0 + (1.0 - tau) * v) ** (1.0 / (1.0 - tau))


def exact_crra(c: float, tau: float) -> Decimal:
    """(c^(1-tau) - 1) / (1-tau) for the floats c and tau to 60 digits; ln c at tau = 1.

    c^(1-tau) - 1 cancels at most about 32 of them over c in [1e-2, 1e4].
    """
    with localcontext(Context(prec=60)):
        ln_c = Decimal(c).ln()
        one_m_tau = 1 - Decimal(tau)
        return ln_c if one_m_tau == 0 else ((one_m_tau * ln_c).exp() - 1) / one_m_tau


class TestCrraUtility:
    def test_unit_consumption_is_zero(self):
        for tau in (-1.0, 0.0, 0.5, 1.0, 2.0, 10.0):
            assert crra_utility(1.0, tau) == pytest.approx(0.0, abs=1e-15)

    def test_linear_utility_at_tau_zero(self):
        assert crra_utility(3.5, 0.0) == pytest.approx(2.5, rel=1e-15)

    def test_log_limit_at_tau_one(self):
        assert crra_utility(7.0, 1.0) == math.log(7.0)

    def test_published_certain_utility_by_inversion(self):
        c = invert_crra(REF_CERTAIN_UTILITY, REF_TAU)
        assert c == pytest.approx(3340.0, abs=0.1)
        assert crra_utility(c, REF_TAU) == pytest.approx(REF_CERTAIN_UTILITY, abs=1e-6)

    @PROPERTY_SETTINGS
    @given(c=st.floats(1e-2, 1e4),
           tau=st.floats(-3.0, 6.0) | st.floats(1.0 - 2e-8, 1.0 + 2e-8)
           | st.floats(1.0 - 1e-12, 1.0 + 1e-12))
    @example(c=BUNDLED_C, tau=1.0)
    @example(c=BUNDLED_C, tau=0.9999999899)
    @example(c=BUNDLED_C, tau=0.9999999901)
    def test_matches_an_exact_reference(self, c, tau):
        # Within 2 eps of utility_rounding's scale at every tau, tau near 1
        # included: the worst of 20,000 generated cases (c log-uniform, tau from
        # the three ranges) was 0.79, a margin of 2.5. An ln c band around
        # tau = 1 errs by |1 - tau| ln(c)^2 / 2, 3.3e-7 at 0.9999999901.
        error = abs(Decimal(crra_utility(c, tau)) - exact_crra(c, tau))
        assert error <= 2 * EPS * utility_rounding(c, tau)

    def test_golden_case_near_tau_one_matches_an_exact_reference(self, bundled_series,
                                                                  bundled_growth):
        # The golden 1889/tau=1.00000001 rows take the power form, 1 - tau being
        # -9.99999993922529e-09. Measured: 0.11 (certain), 0.21 and 0.12
        # (uncertain) of the bounds' scales.
        case = json.loads(GOLDEN_CLASSIFY.read_text())["1889/tau=1.00000001"]
        args = dict(zip(case["argv"][::2], case["argv"][1::2]))
        beta, tau = float(args["--beta"]), float(args["--tau"])
        c = bundled_series.consumption_of(int(args["--year"]))
        reports = json.loads(case["json"])["reports"]
        for report, scenarios in zip(reports, (bundled_growth.r_e, bundled_growth.r_f)):
            error = abs(Decimal(report["certain_utility"]) - exact_crra(c, tau))
            assert error <= 2 * EPS * utility_rounding(c, tau)
            with localcontext(Context(prec=60)):
                exact = sum(exact_crra(c * s, tau) for s in scenarios) / len(scenarios)
                error = abs(Decimal(report["uncertain_utility"]) - Decimal(beta) * exact)
            scale = beta * sum(utility_rounding(c * s, tau) for s in scenarios) / len(scenarios)
            assert error <= 4 * EPS * scale

    def test_continuity_at_tau_one(self):
        for c in np.geomspace(0.1, 1e4, 60):
            for tau in (1.0 - 1e-9, 1.0 + 1e-9):
                assert abs(crra_utility(float(c), tau) - math.log(c)) <= 1e-6
            # Off tau = 1 the power form must stay within its second-order
            # Taylor distance eps*ln(c)^2/2 from the ln limit.
            for eps in (1e-7, -1e-7):
                taylor = abs(eps) * math.log(c) ** 2 / 2
                gap = abs(crra_utility(float(c), 1.0 + eps) - math.log(c))
                assert gap <= 1.1 * taylor + 1e-12

    def test_strictly_increasing_in_consumption(self):
        for tau in (-0.5, 0.0, 0.99, 1.0, 1.0319, 3.0):
            grid = np.geomspace(0.05, 5e3, 80)
            values = [crra_utility(float(c), tau) for c in grid]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_non_positive_consumption_rejected(self):
        with pytest.raises(DomainError):
            crra_utility(0.0, 2.0)
        with pytest.raises(DomainError):
            crra_utility(-3.0, 0.5)

    def test_nan_consumption_rejected(self):
        with pytest.raises(DomainError, match="consumption must be positive"):
            crra_utility(math.nan, 2.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        # crra_utility(2.0, nan) and crra_utility(0.5, inf) would be NaN.
        with pytest.raises(DomainError, match=f"tau must be a finite number, got {tau}"):
            crra_utility(2.0, tau)


class TestUncertainUtility:
    def test_degenerate_certainty(self):
        assert uncertain_utility(2.5, [1.0], beta=1.0, tau=1.3) == pytest.approx(
            crra_utility(2.5, 1.3), rel=1e-15
        )

    def test_linear_utility_hand_computation(self):
        assert uncertain_utility(1.0, [0.5, 2.0], beta=1.0, tau=0.0) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_equal_scenarios_reduce_to_scaled_utility(self):
        value = uncertain_utility(10.0, [1.07] * 5, beta=0.96, tau=2.0)
        assert value == pytest.approx(0.96 * crra_utility(10.7, 2.0), rel=1e-14)

    @pytest.mark.parametrize("c_now", [0.0, -2.0])
    def test_non_positive_consumption_rejected(self, c_now):
        with pytest.raises(DomainError, match="consumption must be positive"):
            uncertain_utility(c_now, [1.0, 1.1], beta=1.0, tau=1.0)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(DomainError):
            uncertain_utility(1.0, [], beta=1.0, tau=1.0)

    def test_non_positive_scenario_rejected(self):
        with pytest.raises(DomainError):
            uncertain_utility(1.0, [1.0, 0.0], beta=1.0, tau=1.0)

    @pytest.mark.parametrize("c_now,scenarios", [(2.0, [1.0, math.nan]), (math.nan, [1.0, 1.1])],
                             ids=["scenario", "consumption"])
    def test_nan_rejected(self, c_now, scenarios):
        with pytest.raises(DomainError, match="must be positive"):
            uncertain_utility(c_now, scenarios, 0.95, 2.0)

    @pytest.mark.parametrize("name", ["beta", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_beta_or_tau_rejected(self, name, value):
        args = {"beta": 0.95, "tau": 2.0, name: value}
        with pytest.raises(DomainError, match=f"{name} must be a finite number, got {value}"):
            uncertain_utility(2.0, [1.0, 1.1], **args)

    def test_published_fixtures_match_status(self, bundled_series, bundled_growth):
        # Published uncertain utilities are calibration fixtures; record which
        # scenario generator (if any) reproduces them. With the bundled
        # reconstruction, none does: frozen computed values below.
        c77 = bundled_series.consumption_of(1977)
        by_generator = {
            "equity-returns": uncertain_utility(
                c77, bundled_growth.r_e, REF_BETA, REF_TAU
            ),
            "riskfree-returns": uncertain_utility(
                c77, bundled_growth.r_f, REF_BETA, REF_TAU
            ),
            "consumption-growth": uncertain_utility(
                c77, bundled_growth.x, REF_BETA, REF_TAU
            ),
        }
        assert by_generator["equity-returns"] == pytest.approx(6.889972754907052, rel=1e-9)
        assert by_generator["riskfree-returns"] == pytest.approx(6.853881770161491, rel=1e-9)
        assert by_generator["consumption-growth"] == pytest.approx(6.862121359584085, rel=1e-9)
        # The README's figures, to the 4 digits it prints.
        assert [round(value, 4) for value in by_generator.values()] == [6.8900, 6.8539, 6.8621]
        matches = {
            name: fixture
            for name, value in by_generator.items()
            for fixture in (REF_UNCERTAIN_EQUITY, REF_UNCERTAIN_RISKFREE)
            if abs(value - fixture) <= 1e-6
        }
        assert matches == {}  # match status: none


class TestMean:
    # Lengths from each branch of the pairwise sum: a plain loop below 8, eight
    # partial sums up to 128, halving above; 9,000 and 20,000 pass numpy's
    # 8,192-element buffer. The examples sit on the branch edges.
    @PROPERTY_SETTINGS
    @given(n=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 2000),
                       st.sampled_from([9_000, 20_000])),
           seed=st.integers(0, 2**32 - 1))
    @example(n=7, seed=1)
    @example(n=8, seed=1)
    @example(n=128, seed=1)
    @example(n=129, seed=1)
    @example(n=8_193, seed=1)
    def test_equals_np_mean_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(seed)
        # Magnitudes over 16 decades, so the order of additions shows in the result.
        values = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).tolist()
        assert _mean(values).hex() == float(np.mean(values)).hex()

    @pytest.mark.parametrize("n", [3, 10, 200])
    def test_negative_zeros_mean_to_positive_zero(self, n):
        values = [-0.0] * n
        assert _mean(values).hex() == float(np.mean(values)).hex() == "0x0.0p+0"


class TestClassifyAttitude:
    def test_published_equity_row(self):
        label = classify_attitude(REF_CERTAIN_UTILITY, REF_UNCERTAIN_EQUITY, 1.0013)
        assert label == "insufficient risk-loving"

    def test_published_riskfree_row(self):
        label = classify_attitude(REF_CERTAIN_UTILITY, REF_UNCERTAIN_RISKFREE, 1.0657)
        assert label == "insufficient risk-loving"

    def test_neutral_boundary(self):
        assert classify_attitude(5.0, 5.0, 1.0) == "neutral"

    def test_families_and_qualifiers(self):
        assert classify_attitude(1.0, 2.0, 1.5) == "sufficient risk-loving"
        assert classify_attitude(2.0, 1.0, 0.5) == "insufficient risk-averse"
        assert classify_attitude(1.0, 2.0, 0.5) == "sufficient risk-averse"
        assert classify_attitude(2.0, 1.0, 1.0) == "insufficient neutral"
        assert classify_attitude(1.0, 1.0, 1.5) == "risk-loving"

    def test_non_positive_sfom_rejected(self):
        for sfom in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="sufficiency factor"):
                classify_attitude(1.0, 1.0, sfom)

    @pytest.mark.parametrize("certain,uncertain", [(math.nan, 1.0), (1.0, math.nan),
                                                   (math.nan, math.nan)])
    def test_nan_utility_rejected(self, certain, uncertain):
        # A NaN fails both comparisons and would read as equal utilities.
        for sfom in (0.5, 1.0, 1.5):
            with pytest.raises(DomainError, match="NaN"):
                classify_attitude(certain, uncertain, sfom)

    def test_label_depends_only_on_orderings(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            certain = float(rng.uniform(-5, 5))
            uncertain = float(rng.uniform(-5, 5))
            sfom = float(rng.uniform(0.2, 2.0))
            base = classify_attitude(certain, uncertain, sfom)
            scale = float(rng.uniform(0.1, 10.0))
            shift = float(rng.uniform(-3.0, 3.0))
            # positive rescaling plus a common shift preserves the ordering
            assert classify_attitude(
                scale * certain + shift, scale * uncertain + shift, sfom
            ) == base


class TestBuildReports:
    def test_published_parameter_rows(self, bundled_series):
        reports = build_reports(
            bundled_series, 1977,
            beta=REF_BETA, tau=REF_TAU, sfom_equity=1.0013, sfom_riskfree=1.0657,
        )
        assert [r.investor for r in reports] == ["equity", "risk-free"]
        for rep in reports:
            assert rep.year == 1977
            assert rep.certain_utility == pytest.approx(REF_CERTAIN_UTILITY, abs=1e-6)
            assert rep.label == "insufficient risk-loving"
            assert rep.uncertain_utility < rep.certain_utility
        assert reports[0].sfom == 1.0013
        assert reports[1].sfom == 1.0657

    @pytest.mark.parametrize("sfom_equity,sfom_riskfree", [(math.nan, 1.0), (1.0, math.nan),
                                                           (math.inf, 1.0)])
    def test_invalid_sfom_rejected(self, bundled_series, sfom_equity, sfom_riskfree):
        with pytest.raises(DomainError, match="sufficiency factor"):
            build_reports(bundled_series, 1977, 0.95, 2.0, sfom_equity, sfom_riskfree)
