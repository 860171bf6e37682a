"""Shared generators and oracles used across the test modules."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from sfm import ModelOptions, ModelParams, MomentSet, crra_utility, lognormality_gap
from sfm.model import residual_array

# Reference calibration this toolkit aims to reproduce (published values).
REF_BETA = 0.9581
REF_OMEGA = 1.0657
REF_DELTA = 1.0013
REF_TAU = 1.0319
REF_CERTAIN_UTILITY = 7.14871804
REF_UNCERTAIN_EQUITY = 6.27558270
REF_UNCERTAIN_RISKFREE = 6.97944955

REF_PARAMS = ModelParams(beta=REF_BETA, omega=REF_OMEGA, delta=REF_DELTA, tau=REF_TAU)

ALL_OPTIONS = [
    ModelOptions(eq3_variant=v, lnex_mode=m)
    for v in ("printed", "rederived")
    for m in ("arithmetic", "lognormal_implied")
]

# Starts at tau0 (as --tau0 text; the other values canonical) whose solve on
# the bundled data ends outside the float range, each with its exact
# SolverError message.
END_POINT_FAILURES = {
    "1e6": "solve end point at tau = 1035.506871005731: beta left the float range",
    "1e12": "solve end point at tau = 68842.37188983703: beta, omega, delta left the float range",
    "1e80": "solve end point at tau = 1e+80: the residual norm left the float range",
    "1e200": "solve end point at tau = 1e+200: the residual norm left the float range",
}

# Few, fixed examples: the suite stays fast and deterministic.
PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def random_moments(rng: np.random.Generator) -> MomentSet:
    """A random but valid MomentSet with a nonzero gap."""
    sigma2_x = float(rng.uniform(1e-4, 0.05))
    sigma2_r = float(rng.uniform(1e-4, 0.2))
    mu_x = float(rng.uniform(-0.05, 0.08))
    mu_r = float(rng.uniform(-0.10, 0.15))
    rho = float(rng.uniform(-0.95, 0.95))
    return MomentSet(
        mu_x=mu_x,
        sigma2_x=sigma2_x,
        mu_r=mu_r,
        sigma2_r=sigma2_r,
        rho=rho,
        mean_x=math.exp(mu_x + 0.5 * sigma2_x) * float(rng.uniform(0.98, 1.02)),
        mean_re=math.exp(mu_r + 0.5 * sigma2_r) * float(rng.uniform(0.98, 1.02)),
        mean_rf=float(rng.uniform(0.95, 1.10)),
        n_obs=int(rng.integers(10, 200)),
    )


def random_params(rng: np.random.Generator) -> ModelParams:
    beta, omega, delta = np.exp(rng.uniform(-0.5, 0.5, size=3))
    return ModelParams(
        beta=float(beta), omega=float(omega), delta=float(delta),
        tau=float(rng.uniform(-3.0, 6.0)),
    )


def fresh_run(argv, check=False):
    """``python -m sfm.cli <argv>`` run to its exit; importing sfm starts numpy on one thread."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-m", "sfm.cli", *argv], capture_output=True,
                          check=check, timeout=120, env=env)


def fd_jacobian(m, log_params, options, step=1e-6):
    """The residuals' Jacobian by central differences of ``step`` in each log parameter."""
    jac = np.zeros((4, 4))
    for j in range(4):
        hi = log_params.copy()
        lo = log_params.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (residual_array(m, hi, options) - residual_array(m, lo, options)) / (2 * step)
    return jac


def exact_root_moments(p: ModelParams) -> MomentSet:
    """Moments for which p solves all four equations exactly (printed variant).

    Works backwards: pick mean_rf from the risk-free equation, mean_re from
    the premium equation, the log-correlation term from the equity equation,
    and force the lognormality gap to zero so the structural identity closes
    the remaining equation. The implied rho replaces rho = 0.4 (kept only at
    tau = 0), adjusting sigma2_r to keep k = tau*rho*sigma_x*sigma_r feasible.
    """
    mu_x, sigma2_x, sigma2_r, rho = 0.018, 0.0012, 0.024, 0.4
    b, w, d, tau = p.log_vector().tolist()
    f = -b - w + tau * mu_x - 0.5 * tau**2 * sigma2_x
    rm = f + w - d + tau * sigma2_x
    if tau == 0.0:
        # k vanishes and the equity equation holds automatically.
        rho_needed = rho
    else:
        # Printed equity equation at the root: tau*sigma2_x = k*(b + w + d - f).
        denom = b + w + d - f
        if abs(denom) < 1e-9:
            raise ValueError("choose parameters with b + w + d != F")
        k = tau * sigma2_x / denom
        sigma_x = math.sqrt(sigma2_x)
        rho_needed = k / (tau * sigma_x * math.sqrt(sigma2_r))
        if abs(rho_needed) > 1:
            sigma2_r = (k / (tau * sigma_x * 0.9)) ** 2
            rho_needed = k / (tau * sigma_x * math.sqrt(sigma2_r))
    x_log = mu_x + 0.5 * sigma2_x  # gap = 0 by construction
    return MomentSet(
        mu_x=mu_x,
        sigma2_x=sigma2_x,
        mu_r=rm - 0.5 * sigma2_r,
        sigma2_r=sigma2_r,
        rho=rho_needed,
        mean_x=math.exp(x_log),
        mean_re=math.exp(rm),
        mean_rf=math.exp(f),
        n_obs=89,
    )


@st.composite
def moment_sets(draw, min_abs_rho: float = 0.0) -> MomentSet:
    """Valid MomentSets over about the ranges of ``random_moments``.

    sigma2_r >= 5e-3 and |rho| >= min_abs_rho bound k away from 0, so the
    manifold's 3x3 solves stay well conditioned.
    """
    sigma2_x = draw(st.floats(1e-4, 0.05))
    sigma2_r = draw(st.floats(5e-3, 0.2))
    mu_x = draw(st.floats(-0.05, 0.08))
    mu_r = draw(st.floats(-0.10, 0.15))
    rho = draw(st.floats(min_abs_rho, 0.95)) * draw(st.sampled_from((-1.0, 1.0)))
    return MomentSet(
        mu_x=mu_x,
        sigma2_x=sigma2_x,
        mu_r=mu_r,
        sigma2_r=sigma2_r,
        rho=rho,
        mean_x=math.exp(mu_x + 0.5 * sigma2_x) * draw(st.floats(0.98, 1.02)),
        mean_re=math.exp(mu_r + 0.5 * sigma2_r) * draw(st.floats(0.98, 1.02)),
        mean_rf=draw(st.floats(0.95, 1.10)),
        n_obs=89,
    )


# Log-space points (b, w, d, tau) over the ranges of ``random_params``.
log_points = st.tuples(
    st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-3.0, 6.0),
).map(np.array)


def effective_gap(m: MomentSet, options: ModelOptions) -> float:
    """r2 + r4 - r5 for every parameter point: the gap, or 0 with implied lnEx."""
    return 0.0 if options.lnex_mode == "lognormal_implied" else lognormality_gap(m)


def utility_rounding(c: float, tau: float) -> float:
    """How far crra_utility(c, tau) may round, in units of eps.

    |U| for expm1 and the division, c^(1-tau) |ln c| for the rounded exponent
    (1 - tau) ln c, and c^(1-tau) for a rounded c.
    """
    return abs(crra_utility(c, tau)) + c ** (1.0 - tau) * (1.0 + abs(math.log(c)))
