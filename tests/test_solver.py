import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfm import (
    CANONICAL_INITIAL,
    Manifold,
    ManifoldPoint,
    ModelOptions,
    ModelParams,
    Residuals,
    SingularSubsystemError,
    SolverConfig,
    SolverError,
    lognormality_gap,
    rank_diagnostics,
    residual_floor,
    residual_vector,
    solve,
    trace_manifold,
)

from sfm import solver
from sfm.model import affine_system
from sfm.solver import MANIFOLD_BLOCK, _least_squares_point

from helpers import (
    ALL_OPTIONS,
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
            initial_norm = residual_vector(bundled_moments, start).norm
            solution = solve(bundled_moments, SolverConfig(initial=start))
            assert solution.residuals.norm <= initial_norm + 1e-15

    def test_accepted_norm_sequence_non_increasing(self, bundled_moments, monkeypatch):
        # Observe the accepted-step sequence through iteration-capped runs.
        start = ModelParams(beta=0.7, omega=1.3, delta=0.8, tau=4.0)
        norms = [residual_vector(bundled_moments, start).norm]
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
        start_norm = residual_vector(bundled_moments, CANONICAL_INITIAL).norm
        assert solution.residuals.norm == start_norm == 0.09215007413753547

    @PROPERTY_SETTINGS
    @given(m=moment_sets(), options=st.sampled_from(ALL_OPTIONS), start=log_points)
    def test_end_point_is_the_least_squares_point(self, m, options, start):
        # For fixed tau the residuals are affine in v = (b, w, d), so at its
        # end the solver's v is v*(tau_end). The damped loop stops with up to
        # 1.4e-10 * cond(A) * max(1, |v*|) left in v (worst of 12,000 generated
        # cases); the bound allows 7x that.
        config = SolverConfig(initial=ModelParams.from_log(*start), options=options)
        x = solve(m, config).params.log_vector()
        v_star = _least_squares_point(m, x[3], options)
        cond = np.linalg.cond(affine_system(m, x[3], options)[0])
        bound = 1e-9 * cond * max(1.0, np.abs(v_star).max())
        assert np.abs(x[:3] - v_star).max() <= bound

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

    def test_non_finite_start_raises_solver_error(self, bundled_moments):
        bad = ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=1e200)
        with pytest.raises(SolverError, match="^non-finite residuals at initial point$"):
            solve(bundled_moments, SolverConfig(initial=bad))


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
        for pt in trace_manifold(m, taus, options):
            r = pt.residuals
            assert max(abs(r.r2), abs(r.r3), abs(r.r4)) <= 1e-10
            assert r.r5 == pytest.approx(-gap, abs=1e-10)

    @PROPERTY_SETTINGS
    @given(
        m=moment_sets(min_abs_rho=0.1),
        taus=st.lists(st.floats(0.2, 6.0), min_size=1, max_size=8),
        options=st.sampled_from(ALL_OPTIONS),
    )
    def test_rows_differ_from_least_squares_point_by_the_floor(self, m, taus, options):
        # v*(tau) leaves (r2, r3, r4) = (gap/3, 0, gap/3) and each row zeroes
        # them, so A3 @ (v* - v_row) = (gap/3, 0, gap/3). Both points are
        # accurate only up to rounding times the 3x3 condition number.
        third = effective_gap(m, options) / 3
        manifold = trace_manifold(m, taus, options)
        for tau, factors in zip(manifold.tau, manifold.factors):
            a3 = affine_system(m, tau, options)[0][:3]
            delta = _least_squares_point(m, tau, options) - np.log(factors)
            bound = 32 * np.finfo(float).eps * np.linalg.cond(a3)
            assert np.abs(a3 @ delta - [third, 0.0, third]).max() <= bound

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

    def test_overflowing_point_is_named(self, bundled_moments):
        with pytest.raises(OverflowError, match=r"tau = 1e\+200 "):
            trace_manifold(bundled_moments, [1.0, 1e200, 2.0])

    def test_empty_grid_and_generator(self, bundled_moments):
        empty = trace_manifold(bundled_moments, [])
        assert [column.shape for column in columns(empty)] == [(0,), (0, 3), (0, 4), (0,)]
        assert list(empty) == []
        taus = [0.5, 1.5, 2.5]
        from_generator = trace_manifold(bundled_moments, (t for t in taus))
        for a, b in zip(columns(from_generator), columns(trace_manifold(bundled_moments, taus))):
            assert np.array_equal(a, b)

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
        ref = np.array([REF_PARAMS.b, REF_PARAMS.w, REF_PARAMS.d, REF_PARAMS.tau])
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


class TestManifoldSequence:
    GRID = np.linspace(0.5, 5.0, 7)

    @pytest.fixture
    def manifold(self, bundled_moments):
        return trace_manifold(bundled_moments, self.GRID)

    def test_len_and_indexing(self, manifold):
        assert isinstance(manifold, Manifold)
        assert len(manifold) == len(self.GRID)
        assert manifold[-1] == manifold[len(manifold) - 1]
        assert manifold[-len(manifold)] == manifold[0]
        assert manifold[np.int64(2)] == manifold[2]
        for index in (len(manifold), -len(manifold) - 1):
            with pytest.raises(IndexError):
                manifold[index]
        with pytest.raises(TypeError):
            manifold[1.0]

    def test_slice_is_a_manifold_of_the_rows(self, manifold):
        part = manifold[1:6:2]
        assert isinstance(part, Manifold)
        assert list(part) == list(manifold)[1:6:2]
        for a, b in zip(columns(part), columns(manifold)):
            assert np.array_equal(a, b[1:6:2])
        assert list(manifold[::-1]) == list(reversed(manifold))

    def test_iteration_equals_indexing(self, manifold, bundled_moments):
        assert list(manifold) == [manifold[i] for i in range(len(manifold))]
        # Iteration goes block by block; rows on both sides of a block edge.
        long = trace_manifold(bundled_moments, np.linspace(0.5, 5.0, 2 * MANIFOLD_BLOCK + 3))
        assert list(long) == [long[i] for i in range(len(long))]

    def test_columns_are_read_only(self, manifold):
        for column in (*columns(manifold), *columns(manifold[1:3])):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_points_carry_python_floats_of_the_row(self, manifold):
        for i, point in enumerate(manifold):
            assert point.tau == manifold.tau[i]
            assert [point.beta, point.omega, point.delta] == manifold.factors[i].tolist()
            r = point.residuals
            assert [r.r2, r.r3, r.r4, r.r5] == manifold.residuals[i].tolist()
            assert r.norm == manifold.norms[i]
            values = [point.tau, point.beta, point.omega, point.delta, *vars(r).values()]
            assert all(type(v) is float for v in values)

    def test_repr_is_the_list_of_points_repr(self, manifold):
        points = [
            ManifoldPoint(
                tau=float(t), beta=float(b), omega=float(w), delta=float(d),
                residuals=Residuals(r2=float(r2), r3=float(r3), r4=float(r4), r5=float(r5),
                                    norm=float(n)),
            )
            for t, (b, w, d), (r2, r3, r4, r5), n in zip(*columns(manifold))
        ]
        assert repr(manifold) == repr(points)
        assert repr(manifold[:0]) == "[]"


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

    def test_canonical_initial_guess_value(self):
        assert CANONICAL_INITIAL == ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=2.0)
