"""Damped least-squares solver and degeneracy diagnostics.

The Jacobian of the residual system has rank <= 3 at every point (the rows
satisfy row2 + row4 - row5 = 0 identically), so undamped Newton is undefined
and the "solution" of the four equations is a one-parameter family at best.
Levenberg-style damping on the normal equations keeps every step finite and
guarantees monotone residual norms. For fixed tau the residuals are linear
in (b, w, d), which gives two useful exact tools:

* the least-squares floor: with r5 = r2 + r4 - gap forced by the structural
  identity and (r2, r3, r4) freely reachable, the optimal residual vector is
  (gap/3, 0, gap/3, -gap/3) with norm |gap|/sqrt(3), at every tau;
* the solution manifold: zeroing (r2, r3, r4) exactly is a 3x3 linear solve
  in (b, w, d) whose determinant is k = tau*rho*sigma_x*sigma_r, leaving
  r5 = -gap.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SingularSubsystemError, SolverError
from .model import (
    DEFAULT_OPTIONS,
    ModelOptions,
    ModelParams,
    Residuals,
    affine_system,
    euler_gap,
    jacobian_array,
    residual_array,
)
from .moments import MomentSet, lognormality_gap

# Numerical rank: singular values <= RANK_RTOL * largest are treated as zero.
RANK_RTOL = 1e-10

_DAMPING_INIT = 1e-3
_DAMPING_MAX = 1e14
_DAMPING_MIN = 1e-14
# A residual norm at or below this is an exact root and stops the solve.
_RESIDUAL_TOLERANCE = 1e-12
# An accepted step this small relative to 1 + |x| stops the solve.
_STEP_TOLERANCE = 1e-12
_MAX_ITERATIONS = 500

# Grid values per batched manifold solve; bounds the (n, 4, 3) temporaries.
MANIFOLD_BLOCK = 256

CANONICAL_INITIAL = ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=2.0)


@dataclass(frozen=True)
class SolverConfig:
    initial: ModelParams = CANONICAL_INITIAL
    options: ModelOptions = DEFAULT_OPTIONS


@dataclass(frozen=True)
class Solution:
    params: ModelParams
    residuals: Residuals
    iterations: int
    converged: str                       # "residual" | "step" | "max-iter"
    jacobian_singular_values: tuple[float, float, float, float]
    numerical_rank: int


@dataclass(frozen=True)
class ManifoldPoint:
    tau: float
    beta: float
    omega: float
    delta: float
    residuals: Residuals


class Manifold(Sequence):
    """The traced solution family as columns, one row per grid tau.

    ``tau`` (n,), ``factors`` (n, 3) for beta, omega, delta, ``residuals``
    (n, 4) for r2..r5 and their ``norms`` (n,); trace_manifold returns them
    read-only. As a sequence it yields one ManifoldPoint per row, built from
    the row only when it is read, so reading every point costs about what
    building the list of points did; its repr is the repr of that list. Unlike that
    list, a Manifold compares by identity: compare its columns (or
    ``list(manifold)``) for equality. A plain class, not a dataclass:
    creating a dataclass costs about 0.4 ms of every import.
    """

    __slots__ = ("tau", "factors", "residuals", "norms")

    def __init__(self, tau: np.ndarray, factors: np.ndarray,
                 residuals: np.ndarray, norms: np.ndarray):
        self.tau, self.factors, self.residuals, self.norms = tau, factors, residuals, norms

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Manifold(self.tau[index], self.factors[index],
                            self.residuals[index], self.norms[index])
        i = operator.index(index)
        return _point(self.tau[i].item(), self.factors[i].tolist(),
                      self.residuals[i].tolist(), self.norms[i].item())

    def __iter__(self):
        # Block by block: the row lists of a long manifold are never all alive.
        for start in range(0, len(self.tau), MANIFOLD_BLOCK):
            rows = slice(start, start + MANIFOLD_BLOCK)
            yield from map(_point, self.tau[rows].tolist(), self.factors[rows].tolist(),
                           self.residuals[rows].tolist(), self.norms[rows].tolist())

    def __repr__(self) -> str:
        return repr(list(self))


def _point(tau: float, factors, residuals, norm: float) -> ManifoldPoint:
    (beta, omega, delta), (r2, r3, r4, r5) = factors, residuals
    # Positional: a frozen dataclass takes keywords about a quarter slower.
    return ManifoldPoint(tau, beta, omega, delta, Residuals(r2, r3, r4, r5, norm))


@dataclass(frozen=True)
class RankReport:
    singular_values: tuple[float, float, float, float]
    numerical_rank: int
    gap: float
    residual_floor: float
    euler_gap: float


def _jacobian_rank(m: MomentSet, x: np.ndarray, options: ModelOptions):
    """The Jacobian's singular values at log-point x, and its numerical rank."""
    sv = np.linalg.svd(jacobian_array(m, x, options), compute_uv=False)
    return tuple(sv.tolist()), int(np.sum(sv > RANK_RTOL * sv[0]))


def solve(m: MomentSet, cfg: SolverConfig | None = None) -> Solution:
    """Minimize the residual norm by Levenberg-damped least squares.

    Deterministic given (m, cfg): no randomness, fixed iteration order.
    Convergence reasons: "residual" (norm below tolerance), "step" (no
    accepted step above the step tolerance, including damping exhaustion),
    "max-iter".

    Raises:
        SolverError: if the residuals are non-finite at the initial point.
    """
    cfg = cfg or SolverConfig()
    opts = cfg.options
    x = cfg.initial.log_vector()
    lam = _DAMPING_INIT

    # Trial points may overflow. A non-finite trial has a nan or inf norm and
    # fails the acceptance test; it is rejected, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        r = residual_array(m, x, opts)
        if not np.all(np.isfinite(r)):
            raise SolverError("non-finite residuals at initial point")
        norm = math.sqrt(r @ r)

        converged = "max-iter"
        iterations = 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            if norm <= _RESIDUAL_TOLERANCE:
                converged = "residual"
                iterations -= 1
                break

            jac = jacobian_array(m, x, opts)
            neg_grad = -(jac.T @ r)
            damped = jac.T @ jac
            diagonal = damped.ravel()[::5]      # a writable view of the diagonal
            jtj_diagonal = diagonal.copy()

            accepted = False
            while lam <= _DAMPING_MAX:
                np.add(jtj_diagonal, lam, out=diagonal)
                try:
                    step = np.linalg.solve(damped, neg_grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                x_new = x + step
                r_new = residual_array(m, x_new, opts)
                norm_new = math.sqrt(r_new @ r_new)
                if norm_new <= norm:
                    accepted = True
                    break
                lam *= 10.0

            if not accepted:
                converged = "step"
                break

            x, r, norm = x_new, r_new, norm_new
            lam = max(lam * 0.3, _DAMPING_MIN)
            if math.sqrt(step @ step) <= _STEP_TOLERANCE * (1.0 + math.sqrt(x @ x)):
                converged = "step"
                break

    singular_values, rank = _jacobian_rank(m, x, opts)
    return Solution(
        params=ModelParams.from_log(*(float(v) for v in x)),
        residuals=Residuals.from_vector(r),
        iterations=iterations,
        converged=converged,
        jacobian_singular_values=singular_values,
        numerical_rank=rank,
    )


def trace_manifold(m: MomentSet, tau_grid: Sequence[float] | Iterable[float],
                   options: ModelOptions = DEFAULT_OPTIONS) -> Manifold:
    """Solve r2 = r3 = r4 = 0 exactly for (b, w, d) at each tau in the grid.

    The leftover residual is r5 = -gap by the structural identity. The 3x3
    subsystem has determinant k = tau*rho*sigma_x*sigma_r; k = 0 (tau = 0 or
    rho = 0) makes it singular. The grid is solved in blocks of
    MANIFOLD_BLOCK values, one batched solve per block, straight into the
    columns of the returned Manifold.

    Raises:
        SingularSubsystemError: naming the first grid point where k = 0.
        OverflowError: naming the first grid point whose solution or
            residuals leave the finite range.
    """
    taus = np.fromiter(tau_grid, dtype=float)
    n = len(taus)
    factors = np.empty((n, 3))
    residuals = np.empty((n, 4))
    norms = np.empty(n)
    for start in range(0, n, MANIFOLD_BLOCK):
        rows = slice(start, start + MANIFOLD_BLOCK)
        tau = taus[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            a, c = affine_system(m, tau, options)
            # A's r3 coefficient on b is k, the determinant of rows r2-r4.
            singular = np.flatnonzero(a[:, 1, 0] == 0.0)
            if singular.size:
                raise SingularSubsystemError(
                    f"subsystem in (b, w, d) is singular at tau = {tau[singular[0]]} (k = 0)"
                )
            v = np.linalg.solve(a[:, :3], -c[:, :3, None])
            r = np.add((a @ v)[..., 0], c, out=residuals[rows])
            f = np.exp(v[..., 0], out=factors[rows])
        finite = np.isfinite(r).all(axis=1) & np.isfinite(f).all(axis=1)
        if not finite.all():
            raise OverflowError(
                f"manifold point at tau = {tau[np.argmin(finite)]} is not finite"
            )
        norms[rows] = np.linalg.norm(r, axis=1)
    for column in (taus, factors, residuals, norms):
        column.flags.writeable = False
    return Manifold(taus, factors, residuals, norms)


def _least_squares_point(m: MomentSet, tau: float,
                         options: ModelOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """v*(tau): the (b, w, d) of least residual norm at a fixed tau, exactly.

    The residuals are affine in (b, w, d), so v*(tau) = lstsq(A(tau), -c(tau))
    (the separable structure of Golub & Pereyra 1973, variable projection).
    """
    a, c = affine_system(m, tau, options)
    return np.linalg.lstsq(a, -c, rcond=None)[0]


def residual_floor(m: MomentSet, options: ModelOptions = DEFAULT_OPTIONS) -> float:
    """Attainable least-squares floor |gap|/sqrt(3); zero in implied-lnEx mode."""
    if options.lnex_mode == "lognormal_implied":
        return 0.0
    return abs(lognormality_gap(m)) / math.sqrt(3.0)


def rank_diagnostics(m: MomentSet, p: ModelParams,
                     options: ModelOptions = DEFAULT_OPTIONS) -> RankReport:
    """Aggregate the degeneracy diagnostics at a parameter point (pure data)."""
    singular_values, rank = _jacobian_rank(m, p.log_vector(), options)
    return RankReport(
        singular_values=singular_values,
        numerical_rank=rank,
        gap=lognormality_gap(m),
        residual_floor=residual_floor(m, options),
        euler_gap=euler_gap(m, p),
    )
