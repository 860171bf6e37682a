import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfm import (
    ModelOptions,
    ModelParams,
    MomentSet,
    euler_gap,
    lognormal_power_cov,
    lognormality_gap,
)
from sfm.errors import DomainError
from sfm.mc import _battery
from sfm.model import _table, affine_system, jacobian_array, residual_array

import exact
from helpers import (
    ALL_OPTIONS,
    PROPERTY_SETTINGS,
    REF_PARAMS,
    effective_gap,
    fd_jacobian,
    log_points,
    moment_sets,
    random_moments,
    random_params,
)

EPS = np.finfo(float).eps


def transcribed_residuals(m: MomentSet, p: ModelParams, options: ModelOptions):
    """Independent straight-line transcription of the four equations."""
    b, w, d, tau = math.log(p.beta), math.log(p.omega), math.log(p.delta), p.tau
    F = math.log(m.mean_rf)
    Rm = math.log(m.mean_re)
    X = math.log(m.mean_x) if options.lnex_mode == "arithmetic" else m.mu_x + 0.5 * m.sigma2_x
    k = tau * m.rho * math.sqrt(m.sigma2_x) * math.sqrt(m.sigma2_r)

    r2 = F - (-b - w + tau * m.mu_x - 0.5 * tau**2 * m.sigma2_x)
    if options.eq3_variant == "printed":
        r3 = (F * (1 - k) - Rm) - (-b * k + d * (1 - k) - w * (1 + k))
    else:
        r3 = (F * (1 + k) - Rm) - (-b * k + d * (1 - k) - w * (1 + k))
    r4 = (Rm - F) - (w - d + tau * m.sigma2_x)
    r5 = Rm - (X - b - d - (1 - tau) * m.mu_x - 0.5 * (1 - tau) ** 2 * m.sigma2_x)
    return np.array([r2, r3, r4, r5])


class TestResidualVector:
    def test_unit_params_tau_zero(self):
        # beta = omega = delta = 1, tau = 0 with degenerate growth moments
        m = MomentSet(
            mu_x=0.0, sigma2_x=0.0, mu_r=0.05, sigma2_r=0.02, rho=0.3,
            mean_x=1.04, mean_re=1.07, mean_rf=1.01, n_obs=50,
        )
        p = ModelParams(1.0, 1.0, 1.0, 0.0)
        r2, _, r4, r5 = residual_array(m, p.log_vector())
        F, Rm, X = math.log(1.01), math.log(1.07), math.log(1.04)
        assert r2 == pytest.approx(F, abs=1e-15)
        assert r4 == pytest.approx(Rm - F, abs=1e-15)
        assert r5 == pytest.approx(Rm - X, abs=1e-15)
        assert r2 + r4 - r5 == pytest.approx(X, abs=1e-14)

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = random_moments(rng)
            p = random_params(rng)
            for options in ALL_OPTIONS:
                got = residual_array(m, p.log_vector(), options)
                expected = transcribed_residuals(m, p, options)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_identity_arithmetic_equals_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = random_moments(rng)
            p = random_params(rng)
            r2, _, r4, r5 = residual_array(m, p.log_vector())
            assert abs(r2 + r4 - r5 - lognormality_gap(m)) <= 1e-12

    def test_identity_lognormal_implied_is_exact_zero_combination(self):
        rng = np.random.default_rng(6)
        options = ModelOptions(lnex_mode="lognormal_implied")
        for _ in range(300):
            m = random_moments(rng)
            p = random_params(rng)
            r2, _, r4, r5 = residual_array(m, p.log_vector(), options)
            assert abs(r2 + r4 - r5) <= 1e-12

    def test_reference_point_regression(self, bundled_moments):
        r = residual_array(bundled_moments, REF_PARAMS.log_vector())
        r2, r3, r4, r5 = r
        assert math.sqrt(r @ r) == pytest.approx(0.014431607133079557, rel=1e-9)
        assert r2 == pytest.approx(0.011401923175998308, rel=1e-9)
        assert r3 == pytest.approx(0.002861617121188896, rel=1e-9)
        assert r4 == pytest.approx(-0.004141349093814963, rel=1e-9)
        assert r5 == pytest.approx(0.007275149996189906, rel=1e-9)

    def test_eq3_variants_differ_by_2kF(self, bundled_moments):
        m = bundled_moments
        p = REF_PARAMS
        printed = residual_array(m, p.log_vector(), ModelOptions(eq3_variant="printed"))
        rederived = residual_array(m, p.log_vector(), ModelOptions(eq3_variant="rederived"))
        k = p.tau * m.rho * math.sqrt(m.sigma2_x * m.sigma2_r)
        assert rederived[1] - printed[1] == pytest.approx(
            2 * k * math.log(m.mean_rf), rel=1e-12
        )
        assert rederived[0] == printed[0]
        assert rederived[2] == printed[2]
        assert rederived[3] == printed[3]

    def test_bad_mean_raises_domain_error(self):
        with pytest.raises((DomainError, ValueError)):
            MomentSet(
                mu_x=0.0, sigma2_x=0.001, mu_r=0.05, sigma2_r=0.02, rho=0.3,
                mean_x=-1.0, mean_re=1.07, mean_rf=1.01, n_obs=50,
            )

    @pytest.mark.parametrize("switch,match", [
        ({"eq3_variant": "transposed"}, "eq3_variant"),
        ({"lnex_mode": "geometric"}, "lnex_mode"),
    ])
    def test_unknown_switch_rejected(self, switch, match):
        with pytest.raises(ValueError, match=match):
            ModelOptions(**switch)

    def test_params_require_positive_factors(self):
        with pytest.raises(DomainError):
            ModelParams(beta=-0.5, omega=1.0, delta=1.0, tau=1.0)
        with pytest.raises(DomainError):
            ModelParams(beta=0.9, omega=0.0, delta=1.0, tau=1.0)

    @pytest.mark.parametrize("name", ["beta", "omega", "delta", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_params_require_finite_fields(self, name, value):
        # min(nan, ...) <= 0 is False: without its own check a NaN field passed.
        fields = {"beta": 0.99, "omega": 1.0, "delta": 1.0, "tau": 2.0, name: value}
        with pytest.raises(DomainError, match=f"{name} must be a finite number, got {value}"):
            ModelParams(**fields)


class TestJacobian:
    def test_row_identity_componentwise(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            jac = jacobian_array(random_moments(rng), random_params(rng).log_vector())
            np.testing.assert_allclose(
                jac[0] + jac[2] - jac[3], np.zeros(4), rtol=0, atol=1e-14
            )

    def test_zero_sigma2x_kills_r4_tau_derivative(self):
        m = MomentSet(
            mu_x=0.02, sigma2_x=0.0, mu_r=0.05, sigma2_r=0.02, rho=0.0,
            mean_x=1.02, mean_re=1.07, mean_rf=1.01, n_obs=50,
        )
        jac = jacobian_array(m, ModelParams(0.99, 1.0, 1.0, 2.0).log_vector())
        assert jac[2, 3] == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_moments(rng)
            p = random_params(rng)
            x = p.log_vector()
            for options in ALL_OPTIONS:
                analytic = jacobian_array(m, x, options)
                numeric = fd_jacobian(m, x, options)
                np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)

    def test_fixed_entries(self, bundled_moments):
        m = bundled_moments
        p = ModelParams(0.97, 1.02, 0.98, 1.7)
        jac = jacobian_array(m, p.log_vector())
        assert jac[0, 0] == 1.0 and jac[0, 1] == 1.0 and jac[0, 2] == 0.0
        assert jac[0, 3] == pytest.approx(-m.mu_x + p.tau * m.sigma2_x, rel=1e-14)
        assert jac[2, 1] == -1.0 and jac[2, 2] == 1.0
        assert jac[2, 3] == -m.sigma2_x
        assert jac[3, 0] == 1.0 and jac[3, 2] == 1.0
        assert jac[3, 3] == pytest.approx(-m.mu_x - (1 - p.tau) * m.sigma2_x, rel=1e-14)


class TestAffineCoreProperties:
    @PROPERTY_SETTINGS
    @given(m=moment_sets(), x=log_points, options=st.sampled_from(ALL_OPTIONS))
    def test_structural_identity_is_effective_gap(self, m, x, options):
        r = residual_array(m, x, options)
        assert r[0] + r[2] - r[3] == pytest.approx(effective_gap(m, options), abs=1e-12)

    @PROPERTY_SETTINGS
    @given(m=moment_sets(), x=log_points, options=st.sampled_from(ALL_OPTIONS))
    def test_jacobian_rows_combine_to_zero(self, m, x, options):
        jac = jacobian_array(m, x, options)
        np.testing.assert_allclose(jac[0] + jac[2] - jac[3], np.zeros(4), rtol=0, atol=1e-14)

    @PROPERTY_SETTINGS
    @given(m=moment_sets(), x=log_points, options=st.sampled_from(ALL_OPTIONS))
    def test_residuals_within_rounding_of_exact_arithmetic(self, m, x, options):
        # Against the same table in exact rational arithmetic, each residual
        # errs by at most 4 eps times the sum of its absolute product terms:
        # to first order 8 roundings of half an eps (tau^2, then two dot
        # products of up to four terms). The worst of 10,000 generated
        # cases was 1.84 eps.
        table = _table(m, options)
        r = residual_array(m, x, options)
        r_exact = np.array([float(value) for value in exact.residuals(table, x)])
        bound = 4 * np.finfo(float).eps * np.array(exact.residual_scale(table, x))
        assert (np.abs(r - r_exact) <= bound).all()


class TestCoefficientTables:
    @PROPERTY_SETTINGS
    @given(m=moment_sets(), x=log_points, options=st.sampled_from(ALL_OPTIONS))
    def test_scalar_evaluation_equals_affine_system_bitwise(self, m, x, options):
        a, c = affine_system(m, x[3], options)
        assert residual_array(m, x, options).tobytes() == (a @ x[:3] + c).tobytes()
        # The tau column is pinned by the central-difference and fixed-entry tests.
        assert jacobian_array(m, x, options)[:, :3].tobytes() == a.tobytes()

    @pytest.mark.parametrize("options", ALL_OPTIONS)
    def test_cache_hit_equals_fresh_build_bitwise(self, bundled_moments, options):
        cached = _table(bundled_moments, options)
        # An equal MomentSet built separately hits the same entry.
        assert _table(dataclasses.replace(bundled_moments), options) is cached
        assert cached.tobytes() == _table.__wrapped__(bundled_moments, options).tobytes()

    def test_cached_tables_are_read_only(self, bundled_moments):
        table = _table(bundled_moments, ModelOptions())
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_mutating_a_result_leaves_the_next_call_unchanged(self, bundled_moments):
        x = REF_PARAMS.log_vector()
        for evaluate in (residual_array, jacobian_array):
            first = evaluate(bundled_moments, x)
            expected = first.copy()
            first[...] = 99.0
            assert evaluate(bundled_moments, x).tobytes() == expected.tobytes()


class TestLognormalPowerCov:
    def test_zero_exponent_is_zero(self):
        assert lognormal_power_cov(0.0, 1.0, 0.02, 0.04, 0.05, 0.15, 0.4) == 0.0

    def test_independent_is_zero(self):
        assert lognormal_power_cov(-2.0, 1.0, 0.02, 0.04, 0.05, 0.15, 0.0) == 0.0

    def test_sign_follows_ab_rho(self):
        assert lognormal_power_cov(-2.0, 1.0, 0.0, 0.1, 0.0, 0.1, 0.5) < 0
        assert lognormal_power_cov(2.0, 1.0, 0.0, 0.1, 0.0, 0.1, 0.5) > 0

    def test_closed_form_value(self):
        a, b = -2.0, 1.0
        mu_x, sx, mu_y, sy, rho = 0.02, 0.04, 0.05, 0.15, 0.4
        expected = (
            math.exp(a * mu_x + 0.5 * a**2 * sx**2)
            * math.exp(b * mu_y + 0.5 * b**2 * sy**2)
            * (math.exp(a * b * rho * sx * sy) - 1.0)
        )
        assert lognormal_power_cov(a, b, mu_x, sx, mu_y, sy, rho) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("a,b", [(-1100.0, 1.0), (1.0, 500.0)], ids=["x-moment", "y-moment"])
    def test_overflowing_moment_is_a_domain_error_naming_the_power(self, a, b):
        # E(X^-1100) = exp(-1100*0.02 + 1100^2*0.04^2/2) = exp(946) overflows, and so
        # does E(Y^500) = exp(500*0.05 + 500^2*0.15^2/2).
        with pytest.raises(DomainError) as raised:
            lognormal_power_cov(a, b, 0.02, 0.04, 0.05, 0.15, 0.4)
        assert str(raised.value) == (
            f"power (a, b) = ({a!r}, {b!r}): E(X^a) or E(Y^b) leaves the float range"
        )

    @pytest.mark.parametrize("name, spec, a, b", _battery(), ids=[c[0] for c in _battery()])
    def test_battery_matches_quadrature(self, name, spec, a, b):
        # The validate battery's closed forms against an independent derivation:
        # E(X^a Y^b) - E(X^a) E(Y^b) by 60-node Gauss-Hermite quadrature. Nonzero
        # cases agree to 2.4e-14 relative (bound 1e-13); zero cases, exact in the
        # closed form, to 0 absolute (bound 4 eps E(X^a) E(Y^b)).
        params = (spec.mu_x, spec.sigma_x, spec.mu_y, spec.sigma_y, spec.rho)
        exy, ex, ey = exact.lognormal_power_moments(a, b, *params)
        closed = lognormal_power_cov(a, b, *params)
        if closed == 0.0:
            assert abs(exy - ex * ey) <= 4 * EPS * ex * ey
        else:
            assert exy - ex * ey == pytest.approx(closed, rel=1e-13, abs=0.0)

    @PROPERTY_SETTINGS
    @given(mu_x=st.floats(-1.0, 1.0), sigma_x=st.floats(0.0, 0.3),
           mu_y=st.floats(-1.0, 1.0), sigma_y=st.floats(0.0, 0.3), rho=st.floats(-1.0, 1.0),
           a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0))
    def test_generated_specs_match_quadrature(self, mu_x, sigma_x, mu_y, sigma_y, rho, a, b):
        # |a sigma| <= 1.2, so 60 nodes integrate exp(a sigma z) to rounding.
        # The difference E(X^a Y^b) - E(X^a) E(Y^b) cancels, so the bound scales
        # with E(X^a) E(Y^b): 2.2 eps at worst over 3,000 random cases, bound 8 eps.
        params = (mu_x, sigma_x, mu_y, sigma_y, rho)
        exy, ex, ey = exact.lognormal_power_moments(a, b, *params)
        assert abs(exy - ex * ey - lognormal_power_cov(a, b, *params)) <= 8 * EPS * ex * ey


def mrs_return_cov(m: MomentSet, tau: float) -> float:
    """cov(x^-tau, R_e), the marginal rate of substitution against the equity return."""
    return lognormal_power_cov(
        -tau, 1.0, m.mu_x, math.sqrt(m.sigma2_x), m.mu_r, math.sqrt(m.sigma2_r), m.rho
    )


class TestMrsReturnCov:
    def test_tau_zero_is_zero(self, bundled_moments):
        assert mrs_return_cov(bundled_moments, 0.0) == 0.0

    def test_rho_zero_is_zero(self):
        m = MomentSet(
            mu_x=0.02, sigma2_x=0.001, mu_r=0.05, sigma2_r=0.02, rho=0.0,
            mean_x=1.02, mean_re=1.07, mean_rf=1.01, n_obs=50,
        )
        assert mrs_return_cov(m, 2.0) == 0.0

    def test_bundled_frozen_value(self, bundled_moments):
        assert mrs_return_cov(bundled_moments, 1.0319) == pytest.approx(
            -0.0024077917291673292, rel=1e-9
        )

    def test_negative_when_tau_rho_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = random_moments(rng)
            tau = float(rng.uniform(0.1, 5.0))
            if m.rho > 0 and m.sigma2_x > 0 and m.sigma2_r > 0:
                assert mrs_return_cov(m, tau) < 0


class TestEulerGap:
    def test_deterministic_balanced_economy_is_exact(self):
        m = MomentSet(
            mu_x=0.02, sigma2_x=0.0, mu_r=0.05, sigma2_r=0.0, rho=0.0,
            mean_x=1.02, mean_re=1.05, mean_rf=1.05, n_obs=50,
        )
        p = ModelParams(beta=0.97, omega=1.0, delta=1.0, tau=2.0)
        assert euler_gap(m, p) == 0.0

    def test_rho_zero_balanced(self):
        m = MomentSet(
            mu_x=0.02, sigma2_x=0.001, mu_r=0.05, sigma2_r=0.02, rho=0.0,
            mean_x=1.02, mean_re=1.05, mean_rf=1.01, n_obs=50,
        )
        omega = 1.0
        delta = omega * m.mean_rf / m.mean_re
        p = ModelParams(beta=0.97, omega=omega, delta=delta, tau=2.0)
        assert euler_gap(m, p) == pytest.approx(0.0, abs=1e-16)

    def test_bundled_frozen_value(self, bundled_moments):
        assert euler_gap(bundled_moments, REF_PARAMS) == pytest.approx(
            0.005516218260151121, rel=1e-9
        )
