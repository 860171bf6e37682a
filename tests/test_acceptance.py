"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 5 is expected to fail on the bundled data; see the README
section "Reproducing the published calibration" for the measured distances
and the reason the published point cannot satisfy the equation system.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from sfm import (
    ModelOptions,
    ModelParams,
    SolverConfig,
    build_reports,
    classify_attitude,
    crra_utility,
    estimate_moments,
    growth_series,
    lognormality_gap,
    solve,
    trace_manifold,
)
from sfm.model import jacobian_array, residual_array

from conftest import DATA_PATH
from helpers import (
    REF_CERTAIN_UTILITY,
    REF_PARAMS,
    REF_TAU,
    REF_UNCERTAIN_EQUITY,
    REF_UNCERTAIN_RISKFREE,
    fd_jacobian,
    fresh_run,
    random_moments,
    random_params,
)

ALL_SETTINGS = [
    (conv, lnex, eq3)
    for conv in ("sample", "population")
    for lnex in ("arithmetic", "lognormal_implied")
    for eq3 in ("printed", "rederived")
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_structural_identity():
    """r2 + r4 - r5 equals the lognormality gap; Jacobian rows cancel."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_res, worst_jac = 0.0, 0.0
    for _ in range(1000):
        m = random_moments(rng)
        p = random_params(rng)
        x = p.log_vector()
        r2, _, r4, r5 = residual_array(m, x)
        worst_res = max(worst_res, abs(r2 + r4 - r5 - lognormality_gap(m)))
        jac = jacobian_array(m, x)
        worst_jac = max(worst_jac, float(np.max(np.abs(jac[0] + jac[2] - jac[3]))))
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-12 and worst_jac <= 1e-14 and elapsed < 1.0
    report(1, ok, f"identity dev {worst_res:.2e}, row dev {worst_jac:.2e}, {elapsed:.2f}s")
    assert worst_res <= 1e-12
    assert worst_jac <= 1e-14
    assert elapsed < 1.0


def test_criterion_2_jacobian_vs_finite_differences():
    """Analytic Jacobian matches central differences, both eq3 variants."""
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = random_moments(rng)
        x = random_params(rng).log_vector()
        for eq3 in ("printed", "rederived"):
            options = ModelOptions(eq3_variant=eq3)
            numeric = fd_jacobian(m, x, options)
            worst = max(worst, float(np.max(np.abs(jacobian_array(m, x, options) - numeric))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report(2, ok, f"max entry dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_3_rank_law(bundled_moments):
    """Numerical rank of the Jacobian is at most 3 at every tested point."""
    rng = np.random.default_rng(103)
    max_rank = 0
    for _ in range(100):
        m = bundled_moments if rng.uniform() < 0.3 else random_moments(rng)
        sv = np.linalg.svd(jacobian_array(m, random_params(rng).log_vector()), compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        max_rank = max(max_rank, rank)
    ok = max_rank <= 3
    report(3, ok, f"max numerical rank {max_rank}")
    assert max_rank <= 3


def test_criterion_4_residual_floor_law(bundled_moments):
    """All random-start solves reach |gap|/sqrt(3); grid search finds no better."""
    gap = lognormality_gap(bundled_moments)
    floor = abs(gap) / math.sqrt(3.0)
    rng = np.random.default_rng(104)
    worst_rel, worst_r3, worst_r24 = 0.0, 0.0, 0.0
    for _ in range(100):
        solution = solve(bundled_moments, SolverConfig(initial=random_params(rng)))
        r = solution.residuals
        worst_rel = max(worst_rel, abs(r.norm - floor) / floor)
        worst_r3 = max(worst_r3, abs(r.r3))
        worst_r24 = max(worst_r24, abs(r.r2 - gap / 3), abs(r.r4 - gap / 3))

    grid_min = math.inf
    for b in np.linspace(-1.0, 1.0, 9):
        for w in np.linspace(-1.0, 1.0, 9):
            for d in np.linspace(-1.0, 1.0, 9):
                for tau in np.linspace(-2.0, 6.0, 9):
                    r = residual_array(bundled_moments, np.array([b, w, d, tau]))
                    grid_min = min(grid_min, float(np.linalg.norm(r)))

    ok = worst_rel <= 1e-6 and worst_r3 <= 1e-8 and worst_r24 <= 1e-8 and grid_min >= floor - 1e-12
    report(
        4, ok,
        f"norm rel dev {worst_rel:.2e}, |r3| {worst_r3:.2e}, |r2,r4-gap/3| {worst_r24:.2e}, "
        f"grid min {grid_min:.3e} vs floor {floor:.3e}",
    )
    assert worst_rel <= 1e-6
    assert worst_r3 <= 1e-8
    assert worst_r24 <= 1e-8
    assert grid_min >= floor - 1e-12


def test_criterion_5_published_calibration(bundled_growth):
    """Best-effort reproduction of the published (beta, tau, omega, delta).

    Outcome A: a direct parameter match from the canonical start under some
    switch setting. Outcome B (fallback): the published point lies within
    5e-3 of the traced solution manifold. On the bundled data neither holds;
    the fallback assertion below fails with the measured distance, and the
    README documents why no data with realistic volatilities can close it.
    """
    ref = REF_PARAMS
    matched = []
    for conv, lnex, eq3 in ALL_SETTINGS:
        m = estimate_moments(bundled_growth, conv)
        options = ModelOptions(eq3_variant=eq3, lnex_mode=lnex)
        p = solve(m, SolverConfig(options=options)).params
        deviation = max(
            abs(p.beta - ref.beta), abs(p.omega - ref.omega),
            abs(p.delta - ref.delta), abs(p.tau - ref.tau),
        )
        if deviation <= 5e-3:
            matched.append((conv, lnex, eq3, deviation))

    if matched:
        report(5, True, f"direct match under {matched[0][:3]}")
        return

    # Fallback: distance from the published point to the solution manifold,
    # default documented setting (sample variance, arithmetic lnEx, printed).
    m = estimate_moments(bundled_growth, "sample")
    ref_log = ref.log_vector()
    points = trace_manifold(m, np.arange(0.05, 8.0001, 0.0025))
    distance = min(
        float(np.linalg.norm(np.array(
            [math.log(p.beta), math.log(p.omega), math.log(p.delta), p.tau]
        ) - ref_log))
        for p in points
    )
    ok = distance <= 5e-3
    report(
        5, ok,
        f"no direct match under any of {len(ALL_SETTINGS)} settings; "
        f"manifold distance {distance:.4f} (tolerance 5e-3)",
    )
    assert distance <= 5e-3, (
        f"published point is {distance:.4f} from the solution manifold "
        "(tolerance 5e-3); see README, section 'Reproducing the published "
        "calibration', for why the published values cannot satisfy the "
        "equation system on data with realistic volatilities"
    )


@pytest.mark.parametrize("eq3,f_sign,needed", [("printed", -1.0, 0.0927), ("rederived", 1.0, 0.0436)])
def test_criterion_5_needs_k_beyond_any_correlation(bundled_moments, eq3, f_sign, needed):
    """Why criterion 5 fails, computed: the k that r3 = r4 = 0 needs is out of reach.

    r3 + r4 = k*(b + w + d -/+ F) - tau*sigma2_x (printed/rederived) is affine
    in k = tau*rho*sigma_x*sigma_r, so at the published point it vanishes at
    one k; |rho| <= 1 caps |k| at k_max = tau*sigma_x*sigma_r. The model's
    own residuals at rho = 0 and rho = 1 give that k, and it matches the
    README's closed form.
    """
    m, p = bundled_moments, REF_PARAMS
    options = ModelOptions(eq3_variant=eq3)
    k_max = p.tau * math.sqrt(m.sigma2_x * m.sigma2_r)

    def r3_plus_r4(rho):
        _, r3, r4, _ = residual_array(dataclasses.replace(m, rho=rho), p.log_vector(), options)
        return r3 + r4

    at_zero, at_one = r3_plus_r4(0.0), r3_plus_r4(1.0)
    k_needed = -at_zero / (at_one - at_zero) * k_max
    closed_form = p.tau * m.sigma2_x / (sum(p.log_vector()[:3]) + f_sign * math.log(m.mean_rf))
    print(f"[acceptance] criterion 5, {eq3}: r3 = r4 = 0 needs k = {k_needed:.4f}, "
          f"{k_needed / k_max:.1f} x k_max = {k_max:.4f}")
    assert k_needed == pytest.approx(closed_form, rel=1e-9)
    assert k_needed == pytest.approx(needed, abs=5e-5)
    assert k_max == pytest.approx(0.00573, abs=5e-6)
    assert k_needed > 7 * k_max


def test_criterion_5_readme_figures(bundled_growth):
    """The README's measured figures for criterion 5, to the digits it prints.

    The best direct-match deviation over the 8 settings (~0.76), and the
    published point's distance from the manifold on criterion 5's grid under
    each eq3 variant. Criterion 5 itself asserts its own tolerance.
    """
    ref = REF_PARAMS
    deviations = []
    for conv, lnex, eq3 in ALL_SETTINGS:
        m = estimate_moments(bundled_growth, conv)
        p = solve(m, SolverConfig(options=ModelOptions(eq3_variant=eq3, lnex_mode=lnex))).params
        deviations.append(max(abs(p.beta - ref.beta), abs(p.omega - ref.omega),
                              abs(p.delta - ref.delta), abs(p.tau - ref.tau)))
    assert min(deviations) == pytest.approx(0.7568, abs=5e-5)

    m = estimate_moments(bundled_growth, "sample")
    ref_log = ref.log_vector()
    grid = np.arange(0.05, 8.0001, 0.0025)
    for eq3, figure in (("printed", 0.9878), ("rederived", 0.9602)):
        manifold = trace_manifold(m, grid, ModelOptions(eq3_variant=eq3))
        points = np.column_stack([np.log(manifold.factors), manifold.tau])
        distance = float(np.min(np.linalg.norm(points - ref_log, axis=1)))
        assert distance == pytest.approx(figure, abs=5e-5), eq3


def test_criterion_6_monte_carlo_identities():
    """Full lognormal identity battery at 1e6 draws, everything within 4 SE."""
    from sfm import validate_identities

    start = time.perf_counter()
    result = validate_identities(1_000_000, seed=42)
    elapsed = time.perf_counter() - start
    worst = max(c.z for c in result.cases)
    ok = result.ok and elapsed < 10.0
    report(6, ok, f"{len(result.cases)} checks, worst z {worst:.2f}, {elapsed:.1f}s")
    assert result.ok
    assert elapsed < 10.0


def test_criterion_7_utility_fixture():
    """Certain-utility inversion and the tau = 1 continuity bound."""
    one_m_tau = 1.0 - REF_TAU
    c_ref = (1.0 + one_m_tau * REF_CERTAIN_UTILITY) ** (1.0 / one_m_tau)
    inversion_dev = abs(crra_utility(c_ref, REF_TAU) - REF_CERTAIN_UTILITY)

    continuity_dev = 0.0
    for c in np.geomspace(0.1, 1e4, 200):
        for tau in (1.0 - 1e-9, 1.0 + 1e-9):
            continuity_dev = max(
                continuity_dev, abs(crra_utility(float(c), tau) - math.log(c))
            )
    ok = inversion_dev <= 1e-6 and continuity_dev <= 1e-6
    report(7, ok, f"inversion dev {inversion_dev:.2e}, continuity dev {continuity_dev:.2e}")
    assert inversion_dev <= 1e-6
    assert continuity_dev <= 1e-6


def test_criterion_8_classification_golden():
    """Published utility triples give the published label; boundaries neutral."""
    equity = classify_attitude(REF_CERTAIN_UTILITY, REF_UNCERTAIN_EQUITY, 1.0013)
    riskfree = classify_attitude(REF_CERTAIN_UTILITY, REF_UNCERTAIN_RISKFREE, 1.0657)
    boundary = classify_attitude(5.0, 5.0, 1.0)
    ok = (
        equity == "insufficient risk-loving"
        and riskfree == "insufficient risk-loving"
        and boundary == "neutral"
    )
    report(8, ok, f"equity={equity!r}, risk-free={riskfree!r}, boundary={boundary!r}")
    assert equity == "insufficient risk-loving"
    assert riskfree == "insufficient risk-loving"
    assert boundary == "neutral"


@pytest.mark.parametrize("conv,lnex,eq3", ALL_SETTINGS)
def test_criterion_8_labels_hold_along_the_bundled_manifold(bundled_series, conv, lnex, eq3):
    """Both investors are "insufficient risk-loving" at every traced point.

    The data identify only the manifold, not the published point, so the
    paper's behavioural conclusion is checked on the whole family: tau in
    [-5, 50] without tau = 0, where the subsystem is singular.
    """
    m = estimate_moments(growth_series(bundled_series), conv)
    grid = np.concatenate((np.linspace(-5.0, -0.05, 15), np.linspace(0.05, 50.0, 45)))
    manifold = trace_manifold(m, grid, ModelOptions(eq3_variant=eq3, lnex_mode=lnex))
    labels = {
        (row.investor, row.label)
        for tau, (beta, omega, delta) in zip(manifold.tau.tolist(), manifold.factors.tolist())
        for row in build_reports(bundled_series, 1977, beta, tau, delta, omega)
    }
    expected = {("equity", "insufficient risk-loving"), ("risk-free", "insufficient risk-loving")}
    report(8, labels == expected, f"{conv}/{lnex}/{eq3}: {len(grid)} points, labels {sorted(labels)}")
    assert labels == expected


def test_criterion_9_end_to_end_determinism():
    """Two CLI solve runs on the same inputs emit byte-identical JSON."""
    argv = ["solve", "--data", str(DATA_PATH), "--format", "json"]
    a = fresh_run(argv)
    b = fresh_run(argv)
    ok = a.returncode == b.returncode == 0 and a.stdout == b.stdout
    report(9, ok, f"{len(a.stdout)} bytes, identical={a.stdout == b.stdout}")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
