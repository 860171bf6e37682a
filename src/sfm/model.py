"""Residual equations of the four-unknown system and the lognormal identities.

The unknowns are the time-discount factor beta, the sufficiency factors
omega (risk-free investors) and delta (equity investors), and the relative
risk aversion tau, optimized through the log views b = ln(beta),
w = ln(omega), d = ln(delta). With F = ln(mean_rf), Rm = ln(mean_re),
X = ln(mean_x) (or its lognormal-implied stand-in mu_x + sigma2_x/2) and
k = tau * rho * sigma_x * sigma_r, each residual is the left minus the right
side of its equation in log form:

    r2 = F + b + w - tau*mu_x + tau^2*sigma2_x/2
    r3 = F*(1-k) - Rm + b*k - d*(1-k) + w*(1+k)          (printed variant)
    r3 = F*(1+k) - Rm + b*k - d*(1-k) + w*(1+k)          (rederived variant)
    r4 = (Rm - F) - w + d - tau*sigma2_x
    r5 = Rm - X + b + d + (1-tau)*mu_x + (1-tau)^2*sigma2_x/2

For fixed tau every residual is affine in v = (b, w, d):

    r = A(tau) @ v + c(tau),   A(tau) = A0 + k*A1,   c(tau) = c0 + c1*tau + c2*tau^2

with constant matrices A0 and A1 (A1 is nonzero only in the r3 row) and
coefficient vectors c0, c1, c2 taken from the moments. They are written
down once, as one coefficient table that is built once per (moments,
options) and cached. ``affine_system`` returns (A, c), batched over tau. The
residuals, the manifold's 3x3 solves and the Jacobian [A | dA/dtau @ v + dc/dtau]
all follow from the table, whose tau derivative is the same table weighed by
(0, 1, 2*tau). ``residual_array`` and ``jacobian_array`` evaluate it at one tau
with ``ndarray.dot``, which calls the BLAS routine of ``affine_system``'s
stacked ``@`` without the matmul gufunc's dispatch, so r and A agree bit for bit.
The solver calls their two private helpers, ``_evaluate`` and
``_jacobian_from``, with a table it looked up once.

The combination r2 + r4 - r5 = X - mu_x - sigma2_x/2 holds for every
parameter vector, so the Jacobian has rank <= 3 everywhere: the system
cannot pin four unknowns, only a one-parameter family. The two r3 variants
exist because expanding the intermediate covariance relation independently
yields a (1+k) coefficient on F where the printed equation has (1-k); the
printed form is the default.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .moments import MomentSet

EQ3_VARIANTS = ("printed", "rederived")
LNEX_MODES = ("arithmetic", "lognormal_implied")


@dataclass(frozen=True)
class ModelParams:
    """The four unknowns, all finite; beta, omega, delta must be positive (logs exist)."""

    beta: float
    omega: float
    delta: float
    tau: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be a finite number, got {value}")
        if min(self.beta, self.omega, self.delta) <= 0:
            raise DomainError("beta, omega, delta must be strictly positive")

    @classmethod
    def from_log(cls, b: float, w: float, d: float, tau: float) -> "ModelParams":
        return cls(beta=math.exp(b), omega=math.exp(w), delta=math.exp(d), tau=tau)

    def log_vector(self) -> np.ndarray:
        return np.array([math.log(self.beta), math.log(self.omega), math.log(self.delta),
                         self.tau])


@dataclass(frozen=True)
class ModelOptions:
    eq3_variant: str = "printed"
    lnex_mode: str = "arithmetic"

    def __post_init__(self):
        if self.eq3_variant not in EQ3_VARIANTS:
            raise ValueError(f"eq3_variant must be one of {EQ3_VARIANTS}")
        if self.lnex_mode not in LNEX_MODES:
            raise ValueError(f"lnex_mode must be one of {LNEX_MODES}")


DEFAULT_OPTIONS = ModelOptions()


@dataclass(frozen=True)
class Residuals:
    r2: float
    r3: float
    r4: float
    r5: float
    norm: float


_POWERS = np.arange(3.0)


@functools.lru_cache(maxsize=64)
def _table(m: MomentSet, options: ModelOptions) -> np.ndarray:
    """The read-only coefficient table of the system.

    [A | c] = table[0] + tau*table[1] + tau^2*table[2]; rows r2..r5, columns
    b, w, d, 1. Built once per (moments, options): a solve evaluates the
    system dozens of times.
    """
    f = math.log(m.mean_rf)
    rm = math.log(m.mean_re)
    mu, s2, h = m.mu_x, m.sigma2_x, 0.5 * m.sigma2_x
    ln_ex = math.log(m.mean_x) if options.lnex_mode == "arithmetic" else mu + h
    kappa = m.rho * math.sqrt(m.sigma2_x) * math.sqrt(m.sigma2_r)
    # r3's constant is F*(1-k) - Rm (printed) or F*(1+k) - Rm (rederived).
    f_per_k = -f if options.eq3_variant == "printed" else f
    # A's tau term is k*A1 with k = tau*kappa.
    table = np.array([
        1.0, 1.0, 0.0, f,
        0.0, 1.0, -1.0, f - rm,
        0.0, -1.0, 1.0, rm - f,
        1.0, 0.0, 1.0, rm - ln_ex + mu + h,

        0.0, 0.0, 0.0, -mu,
        kappa, kappa, kappa, kappa * f_per_k,
        0.0, 0.0, 0.0, -s2,
        0.0, 0.0, 0.0, -mu - s2,

        0.0, 0.0, 0.0, h,
        0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, h,
    ]).reshape(3, 16)
    table.flags.writeable = False
    return table


def affine_system(m: MomentSet, tau, options: ModelOptions = DEFAULT_OPTIONS):
    """Coefficients (A, c) of r = A(tau) @ (b, w, d) + c(tau).

    ``tau`` is one value or an array of shape (n,); A then has shape (4, 3)
    or (n, 4, 3), c shape (4,) or (n, 4). The equations and the eq3/lnEx
    switches are written down only in its table.
    """
    tau = np.asarray(tau, dtype=float)
    # One (1, 3) row per tau, so every tau takes the same matmul kernel.
    powers = (tau[..., None] ** _POWERS)[..., None, :]
    ac = (powers @ _table(m, options)).reshape(tau.shape + (4, 4))
    return ac[..., :3], ac[..., 3]


def _evaluate(table: np.ndarray, x: np.ndarray):
    """[A | c] at x's tau and r = A @ v + c at x: affine_system's bits at one tau, by ``.dot``."""
    ac = (x[3] ** _POWERS).dot(table).reshape(4, 4)
    return ac, ac[:, :3].dot(x[:3]) + ac[:, 3]


def _jacobian_from(table: np.ndarray, x: np.ndarray, ac: np.ndarray) -> np.ndarray:
    """The Jacobian at x from [A | c] at x's tau; overwrites c with dr/dtau in place."""
    # d/dtau (1, tau, tau^2) = (0, 1, 2*tau) weighs the same table into [dA/dtau | dc/dtau].
    d_ac = np.array((0.0, 1.0, 2.0 * x[3])).dot(table).reshape(4, 4)
    ac[:, 3] = d_ac[:, :3].dot(x[:3]) + d_ac[:, 3]
    return ac


def residual_array(m: MomentSet, log_params: np.ndarray,
                   options: ModelOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """Residuals (r2, r3, r4, r5) at a log-space parameter vector (b, w, d, tau)."""
    return _evaluate(_table(m, options), np.asarray(log_params, dtype=float))[1]


def jacobian_array(m: MomentSet, log_params: np.ndarray,
                   options: ModelOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """Analytic 4x4 Jacobian d(r2, r3, r4, r5)/d(b, w, d, tau): [A | dA/dtau @ v + dc/dtau]."""
    x = np.asarray(log_params, dtype=float)
    table = _table(m, options)
    return _jacobian_from(table, x, _evaluate(table, x)[0])


def lognormal_power_cov(a: float, b: float, mu_x: float, sigma_x: float,
                        mu_y: float, sigma_y: float, rho: float) -> float:
    """cov(X^a, Y^b) for jointly lognormal (X, Y) with log-space parameters.

    Equals E(X^a) E(Y^b) (exp(a*b*rho*sigma_x*sigma_y) - 1) with
    E(X^a) = exp(a*mu_x + a^2*sigma_x^2/2) and likewise for Y.

    Raises:
        DomainError: naming (a, b) if E(X^a) or E(Y^b) leaves the float range.
    """
    try:
        ex_a = math.exp(a * mu_x + 0.5 * a * a * sigma_x * sigma_x)
        ey_b = math.exp(b * mu_y + 0.5 * b * b * sigma_y * sigma_y)
    except OverflowError:
        raise DomainError(
            f"power (a, b) = ({a!r}, {b!r}): E(X^a) or E(Y^b) leaves the float range"
        ) from None
    return ex_a * ey_b * math.expm1(a * b * rho * sigma_x * sigma_y)


def euler_gap(m: MomentSet, p: ModelParams) -> float:
    """Exact (non-log-linearized) discrepancy of the two-asset Euler relation.

    omega*E(R_f) - delta*E(R_e) - omega*delta*beta*E(R_f)*cov(MRS, R_e);
    quantifies how far the log-form equity equation is from the exact one.
    """
    cov = lognormal_power_cov(-p.tau, 1.0, m.mu_x, math.sqrt(m.sigma2_x),
                              m.mu_r, math.sqrt(m.sigma2_r), m.rho)
    return (
        p.omega * m.mean_rf
        - p.delta * m.mean_re
        - p.omega * p.delta * p.beta * m.mean_rf * cov
    )
