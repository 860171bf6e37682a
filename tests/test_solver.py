import json
import math
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfm import (
    CANONICAL_INITIAL,
    DomainError,
    Manifold,
    ManifoldPoint,
    ModelOptions,
    ModelParams,
    Residuals,
    SingularSubsystemError,
    Solution,
    SolverConfig,
    SolverError,
    estimate_moments,
    lognormality_gap,
    rank_diagnostics,
    residual_floor,
    solve,
    trace_manifold,
)

from sfm import model, solver
from sfm.cli import run_command
from sfm.model import _table, affine_system, jacobian_array, residual_array
from sfm.solver import MANIFOLD_BLOCK

import exact
from conftest import DATA_PATH
from helpers import (
    ALL_OPTIONS,
    END_POINT_FAILURES,
    PROPERTY_SETTINGS,
    REF_PARAMS,
    effective_gap,
    exact_root_moments,
    log_points,
    moment_sets,
    random_moments,
    random_params,
)


class TestSolve:
    def test_exact_root_converges_immediately(self):
        p_star = ModelParams(beta=0.97, omega=1.05, delta=1.01, tau=1.8)
        m = exact_root_moments(p_star)
        solution = solve(m, SolverConfig(initial=p_star))
        assert solution.converged == "residual"
        assert solution.iterations == 0
        assert solution.residuals.norm <= 1e-12

    def test_exact_root_reached_from_canonical_start(self):
        p_star = ModelParams(beta=0.97, omega=1.05, delta=1.01, tau=1.8)
        m = exact_root_moments(p_star)
        solution = solve(m)
        # gap = 0: a genuine solution family exists and the floor is zero.
        assert solution.residuals.norm <= 1e-10

    def test_floor_law_on_bundled_data(self, bundled_moments):
        floor = residual_floor(bundled_moments)
        assert floor == pytest.approx(
            abs(lognormality_gap(bundled_moments)) / math.sqrt(3), rel=1e-14
        )
        rng = np.random.default_rng(29)
        gap = lognormality_gap(bundled_moments)
        for _ in range(10):
            start = random_params(rng)
            solution = solve(bundled_moments, SolverConfig(initial=start))
            r = solution.residuals
            assert r.norm == pytest.approx(floor, rel=1e-6)
            assert abs(r.r3) <= 1e-8
            assert r.r2 == pytest.approx(gap / 3, abs=1e-8)
            assert r.r4 == pytest.approx(gap / 3, abs=1e-8)

    def test_final_norm_never_exceeds_initial(self, bundled_moments):
        rng = np.random.default_rng(31)
        for _ in range(20):
            start = random_params(rng)
            r = residual_array(bundled_moments, start.log_vector())
            initial_norm = math.sqrt(r @ r)
            solution = solve(bundled_moments, SolverConfig(initial=start))
            assert solution.residuals.norm <= initial_norm + 1e-15

    def test_accepted_norm_sequence_non_increasing(self, bundled_moments, monkeypatch):
        # Observe the accepted-step sequence through iteration-capped runs.
        start = ModelParams(beta=0.7, omega=1.3, delta=0.8, tau=4.0)
        r = residual_array(bundled_moments, start.log_vector())
        norms = [math.sqrt(r @ r)]
        for cap in range(1, 25):
            monkeypatch.setattr(solver, "_MAX_ITERATIONS", cap)
            solution = solve(bundled_moments, SolverConfig(initial=start))
            norms.append(solution.residuals.norm)
            if solution.converged != "max-iter":
                break
        assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))

    def test_damping_exhaustion_stops_at_the_start(self, bundled_moments, monkeypatch):
        # A damping cap below the initial damping leaves no trial step to accept.
        monkeypatch.setattr(solver, "_DAMPING_MAX", solver._DAMPING_INIT / 10)
        solution = solve(bundled_moments)
        assert solution.converged == "step"
        assert solution.iterations == 1
        r = residual_array(bundled_moments, CANONICAL_INITIAL.log_vector())
        start_norm = math.sqrt(r @ r)
        assert solution.residuals.norm == start_norm == 0.09215007413753547

    @PROPERTY_SETTINGS
    @given(m=moment_sets(min_abs_rho=0.1), options=st.sampled_from(ALL_OPTIONS),
           start=log_points)
    def test_end_point_is_the_least_squares_point(self, m, options, start):
        # For fixed tau the residuals are affine in v = (b, w, d), so at its
        # end the solver's v is v*(tau_end), here solved exactly. The damped
        # loop stops with up to 1.6e-10 * cond(A) * max(1, |v*|) left in v
        # (worst of 12,000 generated cases); the bound allows 6x that. |rho| >= 0.1:
        # at rho = 0, A has rank 2 and v* is not unique.
        config = SolverConfig(initial=ModelParams.from_log(*start), options=options)
        x = solve(m, config).params.log_vector()
        v_star = np.array([float(v) for v in exact.least_squares_point(_table(m, options), x[3])])
        cond = np.linalg.cond(affine_system(m, x[3], options)[0])
        bound = 1e-9 * cond * max(1.0, np.abs(v_star).max())
        assert np.abs(x[:3] - v_star).max() <= bound

    @PROPERTY_SETTINGS
    @given(m=moment_sets(), options=st.sampled_from(ALL_OPTIONS), start=log_points)
    def test_reused_evaluations_equal_the_public_ones_bitwise(self, m, options, start):
        # At every point a solve evaluates from its one table lookup, r equals
        # residual_array and a Jacobian built from the accepted trial's [A | c]
        # equals jacobian_array, byte for byte.
        calls = []

        def evaluate(table, x):
            ac, r = model._evaluate(table, x)
            assert r.tobytes() == residual_array(m, x, options).tobytes()
            calls.append(("evaluate", x.tobytes()))
            return ac, r

        def jacobian_from(table, x, ac):
            jac = model._jacobian_from(table, x, ac)
            assert jac.tobytes() == jacobian_array(m, x, options).tobytes()
            calls.append(("jacobian", x.tobytes()))
            return jac

        with mock.patch.object(solver, "_evaluate", evaluate), \
                mock.patch.object(solver, "_jacobian_from", jacobian_from):
            solution = solve(m, SolverConfig(initial=ModelParams.from_log(*start),
                                             options=options))
        jacobians = [i for i, (kind, _) in enumerate(calls) if kind == "jacobian"]
        assert jacobians
        # One Jacobian per accepted point: each is built right after its
        # point's evaluation and never again, and the end point's is the last.
        # (A last step may round x back to itself, so a point can be accepted
        # twice; and log(exp(b)) need not be b, so the end point is compared
        # through ModelParams.)
        for i in jacobians:
            assert i > 0 and calls[i - 1] == ("evaluate", calls[i][1])
        end = np.frombuffer(calls[jacobians[-1]][1])
        assert ModelParams.from_log(*end.tolist()) == solution.params

    def test_deterministic_bit_identical(self, bundled_moments):
        a = solve(bundled_moments)
        b = solve(bundled_moments)
        assert a == b

    def test_singular_values_descending_nonnegative(self, bundled_moments):
        solution = solve(bundled_moments)
        sv = solution.jacobian_singular_values
        assert all(s >= 0 for s in sv)
        assert list(sv) == sorted(sv, reverse=True)

    def test_rank_never_exceeds_three(self, bundled_moments):
        solution = solve(bundled_moments)
        assert solution.numerical_rank <= 3

    @pytest.mark.parametrize("tau0", list(END_POINT_FAILURES))
    def test_non_finite_start_raises_solver_error(self, bundled_moments, tau0):
        bad = ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=float(tau0))
        with pytest.raises(SolverError) as raised:
            solve(bundled_moments, SolverConfig(initial=bad))
        assert str(raised.value) == END_POINT_FAILURES[tau0]


def end_point_jacobian(m, cfg):
    """A solve's Solution, and the Jacobian its singular values come from with
    that Jacobian's point, both as the solver held them."""
    held = {}
    jacobian_rank, first, accepted = (solver._jacobian_rank, solver.jacobian_array,
                                      solver._jacobian_from)

    def at_point(build):
        def tracked(source, x, *rest):
            held["x"] = x
            return build(source, x, *rest)
        return tracked

    def rank(jac):
        held["jac"] = jac
        return jacobian_rank(jac)

    with mock.patch.object(solver, "_jacobian_rank", rank), \
            mock.patch.object(solver, "jacobian_array", at_point(first)), \
            mock.patch.object(solver, "_jacobian_from", at_point(accepted)):
        solution = solve(m, cfg)
    return solution, held["jac"], held["x"]


def assert_smallest_singular_value_is_rounding(m, cfg):
    # The exact Jacobian's rows meet r2 + r4 - r5 = 0, so its sigma_4 is 0. The
    # solver's J lies within rounding of it, and by Weyl's inequality
    # sigma_4(J) <= ||J - J_exact||_2 <= ||J - J_exact||_F; LAPACK's SVD adds a
    # backward error of a small multiple of eps * sigma_1. Over 1,008 bundled
    # and random solves the distance reached 0.25 eps ||J_exact||_F and sigma_4
    # exceeded it by 0.34 eps * sigma_1 at most; each bound allows 4 eps.
    eps = np.finfo(float).eps
    solution, jac, x = end_point_jacobian(m, cfg)
    j_exact = exact.jacobian(m, x, cfg.options.eq3_variant)
    assert all(r2 + r4 - r5 == 0 for r2, _, r4, r5 in zip(*j_exact))
    distance = math.sqrt(float(sum((Fraction(value) - e) ** 2 for row, row_exact
                                   in zip(jac.tolist(), j_exact)
                                   for value, e in zip(row, row_exact))))
    assert distance <= 4 * eps * math.sqrt(float(sum(e * e for row in j_exact for e in row)))
    sigma = solution.jacobian_singular_values
    assert sigma[3] <= distance + 4 * eps * sigma[0]


class TestSingularValueOracle:
    @pytest.mark.parametrize("variance", ["sample", "population"])
    @pytest.mark.parametrize("options", ALL_OPTIONS,
                             ids=lambda options: f"{options.eq3_variant}/{options.lnex_mode}")
    def test_bundled_sigma_4_is_rounding_of_zero(self, bundled_growth, variance, options):
        m = estimate_moments(bundled_growth, variance)
        assert_smallest_singular_value_is_rounding(m, SolverConfig(options=options))

    @PROPERTY_SETTINGS
    @given(m=moment_sets(), options=st.sampled_from(ALL_OPTIONS), start=log_points)
    def test_sigma_4_is_rounding_of_zero(self, m, options, start):
        cfg = SolverConfig(initial=ModelParams.from_log(*start), options=options)
        assert_smallest_singular_value_is_rounding(m, cfg)


class TestDampedStep:
    """solve's damped trial step is numpy's gesv gufunc, called without np.linalg.solve."""

    def test_step_equals_np_linalg_solve_bitwise(self, bundled_growth):
        # The damped normal equations at seeded points under all 8 switch
        # settings, at every damping from _DAMPING_MIN to _DAMPING_MAX.
        rng = np.random.default_rng(41)
        dampings = [10.0 ** e for e in range(-14, 15)]
        for variance in ("sample", "population"):
            m = estimate_moments(bundled_growth, variance)
            for options in ALL_OPTIONS:
                for _ in range(4):
                    x = random_params(rng).log_vector()
                    r, jac = residual_array(m, x, options), jacobian_array(m, x, options)
                    grad = jac.T @ r
                    for lam in dampings:
                        damped = jac.T @ jac + lam * np.eye(4)
                        with np.errstate(over="ignore", invalid="ignore"):  # as in solve
                            step = solver._gesv(damped, grad)
                        assert step.tobytes() == np.linalg.solve(damped, grad).tobytes()

    def test_gradient_sign_folds_out_of_the_step_bitwise(self, bundled_growth):
        # solve steps x - gesv(D, g) where it once stepped x + gesv(D, -g). An
        # LU solve is linear in its right-hand side, its pivots depend on D
        # alone and round-to-nearest is sign-symmetric, so the two are the
        # same bits at every damping the loop can reach.
        rng = np.random.default_rng(43)
        exponents = range(round(math.log10(solver._DAMPING_MIN)),
                          round(math.log10(solver._DAMPING_MAX)) + 1)
        for variance in ("sample", "population"):
            m = estimate_moments(bundled_growth, variance)
            for options in ALL_OPTIONS:
                for _ in range(4):
                    x = random_params(rng).log_vector()
                    r, jac = residual_array(m, x, options), jacobian_array(m, x, options)
                    grad = jac.T.dot(r)
                    for e in exponents:
                        damped = jac.T.dot(jac) + 10.0 ** e * np.eye(4)
                        with np.errstate(over="ignore", invalid="ignore"):  # as in solve
                            step = solver._gesv(damped, grad)
                            flipped = solver._gesv(damped, -grad)
                        assert step.tobytes() == (-flipped).tobytes()

    @pytest.mark.parametrize("damped", [
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 0]] * 4,
    ], ids=["rank-3", "zero"])
    def test_singular_system_gives_an_all_nan_step_without_a_warning(self, damped):
        damped, neg_grad = np.array(damped, dtype=float), np.ones(4)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(damped, neg_grad)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            step = solver._gesv(damped, neg_grad)
        assert step.shape == (4,) and np.isnan(step).all()

    def test_a_nan_trial_is_a_rejected_trial(self, bundled_moments, monkeypatch):
        # A nan first trial, as an exactly singular damped system gives, is
        # rejected and the damping grows tenfold: the solve is then the one
        # that starts at ten times the initial damping.
        plain, gesv, calls = solve(bundled_moments), solver._gesv, []

        def first_trial_nan(damped, grad):
            calls.append(None)
            step = gesv(damped, grad)
            return np.full_like(step, np.nan) if len(calls) == 1 else step

        monkeypatch.setattr(solver, "_gesv", first_trial_nan)
        nan_first = solve(bundled_moments)
        monkeypatch.setattr(solver, "_gesv", gesv)
        monkeypatch.setattr(solver, "_DAMPING_INIT", 10 * solver._DAMPING_INIT)
        assert nan_first == solve(bundled_moments) != plain


def reference_solve(m, cfg):
    """solve restated as it was written with ``@`` products.

    Every point is evaluated from the table by ``@``, and each damped trial
    solves for the step along the negated gradient and takes x + step. solve
    itself uses ``ndarray.dot`` and takes x - gesv(D, gradient).
    """
    table = _table(m, cfg.options)

    def evaluate(x):
        ac = (x[3] ** np.arange(3.0) @ table).reshape(4, 4)
        return ac, ac[:, :3] @ x[:3] + ac[:, 3]

    def jacobian(x, ac):
        d_ac = (np.array((0.0, 1.0, 2.0 * x[3])) @ table).reshape(4, 4)
        ac[:, 3] = d_ac[:, :3] @ x[:3] + d_ac[:, 3]
        return ac

    x, lam = cfg.initial.log_vector(), solver._DAMPING_INIT
    with np.errstate(over="ignore", invalid="ignore"):
        ac, r = evaluate(x)
        jac, norm = jacobian(x, ac), math.sqrt(r @ r)
        converged, iterations = "max-iter", 0
        for iterations in range(1, solver._MAX_ITERATIONS + 1):
            if norm <= solver._RESIDUAL_TOLERANCE:
                converged, iterations = "residual", iterations - 1
                break
            neg_grad, jtj = -(jac.T @ r), jac.T @ jac
            while lam <= solver._DAMPING_MAX:
                step = solver._gesv(jtj + lam * np.eye(4), neg_grad)
                x_new = x + step
                ac, r_new = evaluate(x_new)
                norm_new = math.sqrt(r_new @ r_new)
                if norm_new <= norm:
                    break
                lam *= 10.0
            else:
                converged = "step"
                break
            x, r, norm, jac = x_new, r_new, norm_new, jacobian(x_new, ac)
            lam = max(lam * 0.3, solver._DAMPING_MIN)
            if math.sqrt(step @ step) <= solver._STEP_TOLERANCE * (1.0 + math.sqrt(x @ x)):
                converged = "step"
                break
    b, w, d, tau = x.tolist()
    left = [] if math.isfinite(norm) else ["the residual norm"]
    left += [name for name, v in (("beta", b), ("omega", w), ("delta", d))
             if v > solver._MAX_LOG or math.exp(v) == 0.0]
    if left:
        raise SolverError(f"solve end point at tau = {tau!r}: {', '.join(left)} left the float range")
    sv = np.linalg.svd(jac, compute_uv=False).tolist()
    return Solution(ModelParams.from_log(b, w, d, tau), Residuals(*r.tolist(), norm),
                    iterations, converged, tuple(sv),
                    sum(s > solver.RANK_RTOL * sv[0] for s in sv))


def outcome(solver_function, m, cfg):
    """The repr of the Solution and why it stopped, or the SolverError's text and "error"."""
    try:
        solution = solver_function(m, cfg)
    except SolverError as exc:
        return str(exc), "error"
    return repr(solution), solution.converged


class TestSolveReference:
    @pytest.mark.parametrize("variance", ["sample", "population"])
    @pytest.mark.parametrize("options", ALL_OPTIONS,
                             ids=lambda options: f"{options.eq3_variant}/{options.lnex_mode}")
    def test_solve_equals_the_reference_loop_bytewise(self, bundled_growth, variance, options):
        # Seeded starts with tau0 in [-3, 30], and the far starts that end in a
        # SolverError. On the bundled data the arithmetic lnEx mode keeps a
        # residual floor, so its solves stop on "step"; the implied mode's
        # floor is 0 and its solves stop on "residual".
        m = estimate_moments(bundled_growth, variance)
        rng = np.random.default_rng([47, ALL_OPTIONS.index(options), int(variance == "sample")])
        starts = [ModelParams(*np.exp(rng.uniform(-0.5, 0.5, size=3)), rng.uniform(-3.0, 30.0))
                  for _ in range(12)]
        starts += [ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=float(tau0))
                   for tau0 in END_POINT_FAILURES]
        kinds = set()
        for start in starts:
            cfg = SolverConfig(initial=start, options=options)
            text, kind = outcome(solve, m, cfg)
            assert (text, kind) == outcome(reference_solve, m, cfg)
            kinds.add(kind)
        stop = "step" if options.lnex_mode == "arithmetic" else "residual"
        assert {"error", stop} <= kinds


GOLDEN_STARTS = json.loads(
    (Path(__file__).parent / "data" / "solve_starts_golden.json").read_text()
)


def start_outcome(m, options, initial):
    """The repr of a solve from ``initial`` and of its end point's RankReport,
    or the text of its SolverError."""
    config = SolverConfig(initial=ModelParams(*initial), options=options)
    try:
        solution = solve(m, config)
    except SolverError as exc:
        return {"initial": initial, "error": str(exc)}
    return {"initial": initial, "solution": repr(solution),
            "rank": repr(rank_diagnostics(m, solution.params, options))}


class TestSolveStartsGolden:
    # Per variance/eq3/lnEx setting: tau0 in (0.5, 1, 2, 4) from the canonical
    # factors, four seeded random starts and tau0 = 1e6, which ends in a SolverError.
    @pytest.mark.parametrize("setting", sorted(GOLDEN_STARTS))
    def test_every_start_matches_golden(self, bundled_growth, setting):
        variance, eq3, lnex = setting.split("/")
        m = estimate_moments(bundled_growth, variance)
        options = ModelOptions(eq3_variant=eq3, lnex_mode=lnex)
        for case in GOLDEN_STARTS[setting]:
            assert start_outcome(m, options, case["initial"]) == case


class TestTraceManifold:
    def test_rho_zero_raises_for_every_tau(self):
        m = random_moments(np.random.default_rng(37))
        m = type(m)(
            mu_x=m.mu_x, sigma2_x=m.sigma2_x, mu_r=m.mu_r, sigma2_r=m.sigma2_r,
            rho=0.0, mean_x=m.mean_x, mean_re=m.mean_re, mean_rf=m.mean_rf,
            n_obs=m.n_obs,
        )
        with pytest.raises(SingularSubsystemError, match="tau = 1.0"):
            trace_manifold(m, [1.0, 2.0])

    def test_tau_zero_raises(self, bundled_moments):
        with pytest.raises(SingularSubsystemError, match="tau = 0.0"):
            trace_manifold(bundled_moments, [0.0])

    def test_consistent_moments_give_solution_family(self):
        p_star = ModelParams(beta=0.97, omega=1.05, delta=1.01, tau=1.8)
        m = exact_root_moments(p_star)
        points = trace_manifold(m, np.linspace(0.5, 4.0, 30))
        for pt in points:
            assert pt.residuals.norm <= 1e-10

    def test_bundled_zeroes_first_three_leaves_gap(self, bundled_moments):
        gap = lognormality_gap(bundled_moments)
        points = trace_manifold(bundled_moments, np.linspace(0.5, 5.0, 40))
        for pt in points:
            assert abs(pt.residuals.r2) <= 1e-10
            assert abs(pt.residuals.r3) <= 1e-10
            assert abs(pt.residuals.r4) <= 1e-10
            assert pt.residuals.r5 == pytest.approx(-gap, abs=1e-10)

    @PROPERTY_SETTINGS
    @given(
        m=moment_sets(min_abs_rho=0.1),
        taus=st.lists(st.floats(0.2, 6.0), min_size=1, max_size=8),
        options=st.sampled_from(ALL_OPTIONS),
    )
    def test_zeroes_first_three_leaves_effective_gap(self, m, taus, options):
        gap = effective_gap(m, options)
        manifold = trace_manifold(m, taus, options)
        assert all(np.isfinite(column).all() for column in columns(manifold))
        for pt in manifold:
            r = pt.residuals
            assert max(abs(r.r2), abs(r.r3), abs(r.r4)) <= 1e-10
            assert r.r5 == pytest.approx(-gap, abs=1e-10)

    @PROPERTY_SETTINGS
    @given(
        m=moment_sets(min_abs_rho=0.1),
        taus=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=8),
        options=st.sampled_from(ALL_OPTIONS),
    )
    def test_rows_differ_from_least_squares_point_by_the_floor(self, m, taus, options):
        # v*(tau) leaves (r2, r3, r4) = (gap/3, 0, gap/3) and each row zeroes
        # them, so A3 @ (v* - v_row) = (gap/3, 0, gap/3). With v* exact, only
        # the row's rounding is left, up to eps * cond(A3): the worst of
        # 43,685 generated rows (10,000 cases) was 0.23 of that, a margin of 4.3.
        third = effective_gap(m, options) / 3
        table = _table(m, options)
        manifold = trace_manifold(m, taus, options)
        for tau, factors in zip(manifold.tau, manifold.factors):
            a3 = affine_system(m, tau, options)[0][:3]
            v_star = np.array([float(v) for v in exact.least_squares_point(table, tau)])
            delta = v_star - np.log(factors)
            bound = np.finfo(float).eps * np.linalg.cond(a3)
            assert np.abs(a3 @ delta - [third, 0.0, third]).max() <= bound

    @PROPERTY_SETTINGS
    @given(
        m=moment_sets(min_abs_rho=0.1),
        taus=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=8),
        options=st.sampled_from(ALL_OPTIONS),
    )
    def test_rows_within_rounding_of_exact_arithmetic(self, m, taus, options):
        # Against Cramer's rule on the same table in exact rational
        # arithmetic, each row's log factors err by at most
        # eps * cond(A3) * max(1, |v|). The worst of 10,000 generated cases
        # was 0.18 of that, so the bound has a margin of 5.
        table = _table(m, options)
        manifold = trace_manifold(m, taus, options)
        for tau, v in zip(manifold.tau, np.log(manifold.factors)):
            v_exact = np.array([float(value) for value in exact.manifold_point(table, tau)])
            cond = np.linalg.cond(affine_system(m, tau, options)[0][:3])
            bound = np.finfo(float).eps * cond * max(1.0, np.abs(v_exact).max())
            assert np.abs(v - v_exact).max() <= bound

    def test_blocks_couple_nothing(self, bundled_moments):
        grid = np.linspace(0.3, 6.0, 2 * MANIFOLD_BLOCK + 37)
        one_by_one = [trace_manifold(bundled_moments, [tau]) for tau in grid]
        for whole, singles in zip(columns(trace_manifold(bundled_moments, grid)),
                                  zip(*map(columns, one_by_one))):
            assert np.array_equal(whole, np.concatenate(singles))

    def test_singular_point_in_later_block_is_named(self, bundled_moments):
        grid = np.linspace(-3.0, -1.0, 2 * MANIFOLD_BLOCK + 5)
        grid[MANIFOLD_BLOCK + 7] = 0.0
        with pytest.raises(SingularSubsystemError, match=r"tau = 0\.0 "):
            trace_manifold(bundled_moments, grid)

    @pytest.mark.parametrize("block", [1, 2, 256])
    def test_first_failing_point_is_named_whatever_the_block(self, bundled_moments,
                                                             monkeypatch, block):
        monkeypatch.setattr(solver, "MANIFOLD_BLOCK", block)
        for n in (3, 513):   # tau = 0.0 falls in the first 256-row block only at n = 3
            with pytest.raises(OverflowError, match=r"tau = -1e\+200 "):
                trace_manifold(bundled_moments, np.linspace(-1e200, 1e200, n))
        with pytest.raises(SingularSubsystemError, match=r"tau = 0\.0 \(k = 0\.0\)"):
            trace_manifold(bundled_moments, [1.0] * 300 + [0.0, 1e200])

    def test_overflowing_point_is_named(self, bundled_moments):
        with pytest.raises(OverflowError, match=r"tau = 1e\+200 "):
            trace_manifold(bundled_moments, [1.0, 1e200, 2.0])

    def test_empty_grid_and_generator(self, bundled_moments):
        empty = trace_manifold(bundled_moments, [])
        assert [column.shape for column in columns(empty)] == [(0,), (0, 3), (0, 4), (0,)]
        assert list(empty) == []
        # Any sequence or array of the same taus gives the same bytes; an iterator is refused.
        taus = [1, 2, 3]
        expected = [column.tobytes() for column in columns(trace_manifold(bundled_moments, taus))]
        for grid in (tuple(taus), np.array(taus, dtype=float), np.array(taus),
                     np.repeat(np.array(taus, dtype=float), 2)[::2]):
            assert [column.tobytes() for column in
                    columns(trace_manifold(bundled_moments, grid))] == expected
        with pytest.raises(TypeError):
            trace_manifold(bundled_moments, (t for t in taus))

    def test_grid_is_copied(self, bundled_moments):
        grid = np.linspace(0.5, 2.5, 3)
        manifold = trace_manifold(bundled_moments, grid)
        assert grid.flags.writeable
        grid[:] = 1.0
        assert manifold.tau.tolist() == [0.5, 1.5, 2.5]

    def test_parameters_vary_continuously(self, bundled_moments):
        points = trace_manifold(bundled_moments, np.linspace(0.5, 5.0, 451))
        logs = np.array([
            [math.log(p.beta), math.log(p.omega), math.log(p.delta)] for p in points
        ])
        steps = np.abs(np.diff(logs, axis=0))
        typical = np.median(steps, axis=0)
        assert np.all(steps <= 10 * typical + 1e-12)

    def test_manifold_passes_through_exact_root(self):
        p_star = ModelParams(beta=0.97, omega=1.05, delta=1.01, tau=1.8)
        m = exact_root_moments(p_star)
        (pt,) = trace_manifold(m, [p_star.tau])
        assert pt.beta == pytest.approx(p_star.beta, rel=1e-10)
        assert pt.omega == pytest.approx(p_star.omega, rel=1e-10)
        assert pt.delta == pytest.approx(p_star.delta, rel=1e-10)

    def test_distance_to_reference_point_diagnostic(self, bundled_moments):
        # Minimum distance (in log-parameter space) from the traced curve to
        # the published calibration; regression-frozen from the bundled data.
        ref = REF_PARAMS.log_vector()
        points = trace_manifold(bundled_moments, np.arange(0.5, 5.0 + 1e-12, 0.01))
        dist = min(
            float(np.linalg.norm(np.array(
                [math.log(p.beta), math.log(p.omega), math.log(p.delta), p.tau]
            ) - ref))
            for p in points
        )
        assert dist == pytest.approx(0.9878023534581885, rel=1e-6)


def columns(manifold):
    return manifold.tau, manifold.factors, manifold.residuals, manifold.norms


def column_points(manifold):
    """The manifold's rows as ManifoldPoints, read from its columns."""
    return [
        ManifoldPoint(
            tau=float(t), beta=float(b), omega=float(w), delta=float(d),
            residuals=Residuals(r2=float(r2), r3=float(r3), r4=float(r4), r5=float(r5),
                                norm=float(n)),
        )
        for t, (b, w, d), (r2, r3, r4, r5), n in zip(*columns(manifold))
    ]


class TestManifoldSequence:
    GRID = np.linspace(0.5, 5.0, 7)

    @pytest.fixture
    def manifold(self, bundled_moments):
        return trace_manifold(bundled_moments, self.GRID)

    def test_len_is_the_grid_length(self, manifold):
        assert isinstance(manifold, Manifold)
        assert len(manifold) == len(self.GRID)

    def test_iteration_yields_the_rows_of_the_columns(self, manifold, bundled_moments):
        assert list(manifold) == column_points(manifold)
        # Iteration goes block by block; rows on both sides of a block edge.
        long = trace_manifold(bundled_moments, np.linspace(0.5, 5.0, 2 * MANIFOLD_BLOCK + 3))
        assert list(long) == column_points(long)

    def test_columns_are_read_only(self, manifold):
        for column in (manifold.rows, *columns(manifold)):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_columns_are_views_of_the_rows(self, manifold):
        rows = manifold.rows
        assert rows.shape == (len(self.GRID), 9)
        for column, part in zip(columns(manifold),
                                (rows[:, 0], rows[:, 1:4], rows[:, 4:8], rows[:, 8])):
            assert column.shape == part.shape and np.array_equal(column, part)
            assert np.shares_memory(column, rows)

    def test_rows_are_in_print_order(self, manifold, bundled_moments):
        # (tau, beta, omega, delta, r2, r3, r4, r5, norm): a row's residuals are
        # the model's at its own parameters, and its norm is theirs.
        for tau, beta, omega, delta, *r, norm in manifold.rows.tolist():
            x = np.array([math.log(beta), math.log(omega), math.log(delta), tau])
            assert np.abs(residual_array(bundled_moments, x) - r).max() <= 1e-12
            assert norm == pytest.approx(math.hypot(*r), rel=1e-15)

    def test_cli_points_in_key_order_are_the_rows(self, manifold):
        outcome = run_command(["manifold", "--data", str(DATA_PATH), "--tau-min", "0.5",
                               "--tau-max", "5", "--steps", str(len(self.GRID))])
        points = json.loads(outcome.payload)["points"]
        assert [[*head, *residuals.values()] for *head, residuals in map(dict.values, points)] \
            == manifold.rows.tolist()

    def test_points_carry_python_floats_of_the_row(self, manifold):
        for i, point in enumerate(manifold):
            assert point.tau == manifold.tau[i]
            assert [point.beta, point.omega, point.delta] == manifold.factors[i].tolist()
            r = point.residuals
            assert [r.r2, r.r3, r.r4, r.r5] == manifold.residuals[i].tolist()
            assert r.norm == manifold.norms[i]
            values = [point.tau, point.beta, point.omega, point.delta, *vars(r).values()]
            assert all(type(v) is float for v in values)

    def test_repr_is_the_list_of_points_repr(self, manifold, bundled_moments):
        assert repr(manifold) == repr(column_points(manifold))
        assert repr(trace_manifold(bundled_moments, [])) == "[]"


class TestRankDiagnostics:
    def test_rank_at_most_three_everywhere(self, bundled_moments):
        rng = np.random.default_rng(41)
        for _ in range(50):
            report = rank_diagnostics(bundled_moments, random_params(rng))
            assert report.numerical_rank <= 3
        for _ in range(50):
            report = rank_diagnostics(random_moments(rng), random_params(rng))
            assert report.numerical_rank <= 3

    def test_zero_gap_zero_floor(self):
        p_star = ModelParams(beta=0.97, omega=1.05, delta=1.01, tau=1.8)
        m = exact_root_moments(p_star)
        report = rank_diagnostics(m, p_star)
        assert report.gap == pytest.approx(0.0, abs=1e-15)
        assert report.residual_floor == pytest.approx(0.0, abs=1e-15)

    def test_implied_mode_floor_is_zero(self, bundled_moments):
        options = ModelOptions(lnex_mode="lognormal_implied")
        assert residual_floor(bundled_moments, options) == 0.0

    def test_golden_report_at_reference_point(self, bundled_moments):
        report = rank_diagnostics(bundled_moments, REF_PARAMS)
        assert report.numerical_rank == 3
        sv = report.singular_values
        assert sv[0] == pytest.approx(2.2360715774568196, rel=1e-9)
        assert sv[1] == pytest.approx(1.7322145243309488, rel=1e-9)
        assert sv[2] == pytest.approx(0.0013778842111800528, rel=1e-9)
        assert sv[3] <= 1e-14
        assert report.gap == pytest.approx(-1.4575914006558985e-05, rel=1e-9)
        assert report.residual_floor == pytest.approx(8.415407875371668e-06, rel=1e-9)
        assert report.euler_gap == pytest.approx(0.005516218260151121, rel=1e-9)

    @pytest.mark.parametrize("tau", [1100.0, -1100.0])
    def test_far_tau_names_the_power_whose_moment_overflows(self, bundled_moments, tau):
        # euler_gap's cov(x^-tau, R_e) needs E(x^-tau), which overflows here.
        with pytest.raises(DomainError, match=rf"power \(a, b\) = \({-tau!r}, 1\.0\)"):
            rank_diagnostics(bundled_moments, ModelParams(0.99, 1.0, 1.0, tau))

    def test_euler_gap_stays_finite_below_the_overflow(self, bundled_moments):
        report = rank_diagnostics(bundled_moments, ModelParams(0.99, 1.0, 1.0, 1060.0))
        assert report.euler_gap == 1.5221054745958482e+302

    def test_canonical_initial_guess_value(self):
        assert CANONICAL_INITIAL == ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=2.0)
