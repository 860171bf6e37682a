"""Damped least-squares solver and degeneracy diagnostics.

The Jacobian of the residual system has rank <= 3 at every point (the rows
satisfy row2 + row4 - row5 = 0 identically), so undamped Newton is undefined
and the "solution" of the four equations is a one-parameter family at best.
Levenberg-style damping on the normal equations guarantees monotone residual
norms: a worse trial is rejected, and so is a nan one, which an exactly
singular damped system gives. A solve evaluates its trial points from one
lookup of the model's coefficient table, one product per point for its
[A | c] and residuals, and an accepted trial's [A | c] becomes the first
three columns of the Jacobian that the next iteration, or the end point's
rank report, uses. For fixed tau the residuals are linear in (b, w, d),
which gives two useful exact tools:

* the least-squares floor: with r5 = r2 + r4 - gap forced by the structural
  identity and (r2, r3, r4) freely reachable, the optimal residual vector is
  (gap/3, 0, gap/3, -gap/3) with norm |gap|/sqrt(3), at every tau;
* the solution manifold: zeroing (r2, r3, r4) exactly is a 3x3 linear solve
  in (b, w, d) whose determinant is k = tau*rho*sigma_x*sigma_r, leaving
  r5 = -gap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Record, SingularSubsystemError, SolverError
from .model import (
    DEFAULT_OPTIONS,
    ModelOptions,
    ModelParams,
    Residuals,
    _evaluate,
    _jacobian_from,
    _table,
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
_MAX_LOG = math.log(np.finfo(float).max)     # math.exp overflows above it
_gesv = np.linalg._umath_linalg.solve1       # np.linalg.solve's LAPACK gufunc, unwrapped
_IDENTITY = np.eye(4)

# Grid values per batched manifold solve; bounds the (n, 4, 3) temporaries.
MANIFOLD_BLOCK = 256

CANONICAL_INITIAL = ModelParams(beta=0.99, omega=1.0, delta=1.0, tau=2.0)


class SolverConfig(Record):
    def __init__(self, initial: ModelParams = CANONICAL_INITIAL,
                 options: ModelOptions = DEFAULT_OPTIONS):
        vars(self).update(initial=initial, options=options)


class Solution(Record):
    def __init__(self, params: ModelParams, residuals: Residuals, iterations: int,
                 converged: str,             # "residual" | "step" | "max-iter"
                 jacobian_singular_values: tuple[float, float, float, float],
                 numerical_rank: int):
        vars(self).update(params=params, residuals=residuals, iterations=iterations,
                          converged=converged, jacobian_singular_values=jacobian_singular_values,
                          numerical_rank=numerical_rank)


class ManifoldPoint(Record):
    def __init__(self, tau: float, beta: float, omega: float, delta: float,
                 residuals: Residuals):
        vars(self).update(tau=tau, beta=beta, omega=omega, delta=delta, residuals=residuals)


class Manifold:
    """The traced solution family as one row per grid tau, in sfm manifold's order.

    ``rows`` (n, 9) holds tau, beta, omega, delta, r2..r5 and the norm;
    ``tau`` (n,), ``factors`` (n, 3), ``residuals`` (n, 4) and ``norms`` (n,)
    are views of its columns, read-only as trace_manifold returns them.
    Iteration yields one ManifoldPoint per row, built from the row only when
    it is reached, so reading every point costs about what building the list
    of points did; the repr is the repr of that list. Not a Record: its
    fields are arrays, which compare element by element.
    """

    __slots__ = ("rows", "tau", "factors", "residuals", "norms")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.tau, self.factors, self.residuals, self.norms = (
            rows[:, 0], rows[:, 1:4], rows[:, 4:8], rows[:, 8])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        # Block by block: the row lists of a long manifold are never all alive.
        for start in range(0, len(self.rows), MANIFOLD_BLOCK):
            for tau, beta, omega, delta, r2, r3, r4, r5, norm in (
                    self.rows[start:start + MANIFOLD_BLOCK].tolist()):
                # Positional: keywords make each point about 40% slower to build.
                yield ManifoldPoint(tau, beta, omega, delta, Residuals(r2, r3, r4, r5, norm))

    def __repr__(self) -> str:
        return repr(list(self))


class RankReport(Record):
    def __init__(self, singular_values: tuple[float, float, float, float], numerical_rank: int,
                 gap: float, residual_floor: float, euler_gap: float):
        vars(self).update(singular_values=singular_values, numerical_rank=numerical_rank,
                          gap=gap, residual_floor=residual_floor, euler_gap=euler_gap)


def _jacobian_rank(jac: np.ndarray):
    """A Jacobian's singular values and its numerical rank."""
    sv = np.linalg.svd(jac, compute_uv=False).tolist()
    return tuple(sv), sum(s > RANK_RTOL * sv[0] for s in sv)


def solve(m: MomentSet, cfg: SolverConfig | None = None) -> Solution:
    """Minimize the residual norm by Levenberg-damped least squares.

    Deterministic given (m, cfg): no randomness, fixed iteration order.
    Every point after the start is evaluated from one lookup of the
    coefficient table, and an accepted trial's [A | c] becomes the first
    three columns of its Jacobian, with the bits of evaluating it afresh: a
    point's Jacobian is built once, when the point is accepted.
    A trial solves the damped system D for the gradient J'r and steps x - step,
    the gradient's sign folded in: an LU solve is linear in its right-hand side
    and rounding is sign-symmetric, so these are the bits of x + solve(D, -J'r).
    An exactly singular damped system gives a nan step, rejected like a
    worse one. Convergence reasons: "residual" (norm below tolerance), "step"
    (no accepted step above the step tolerance, including damping
    exhaustion), "max-iter".

    Raises:
        SolverError: naming the end point's tau, if its residual norm is not
            finite or a factor beta, omega, delta overflows or underflows to 0.
    """
    cfg = cfg or SolverConfig()
    opts = cfg.options
    table = _table(m, opts)
    x = cfg.initial.log_vector()
    lam = _DAMPING_INIT

    # Trial points may overflow: their nan or inf norms are compared, not warned
    # about. A solve whose norm is not finite at its end fails the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        r, jac = residual_array(m, x, opts), jacobian_array(m, x, opts)
        norm = math.sqrt(r.dot(r))

        converged = "max-iter"
        iterations = 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            if norm <= _RESIDUAL_TOLERANCE:
                converged = "residual"
                iterations -= 1
                break
            grad = jac.T.dot(r)
            jtj = jac.T.dot(jac)

            while lam <= _DAMPING_MAX:
                step = _gesv(jtj + lam * _IDENTITY, grad)
                x_new = x - step
                ac, r_new = _evaluate(table, x_new)
                norm_new = math.sqrt(r_new.dot(r_new))
                if norm_new <= norm:
                    break
                lam *= 10.0
            else:
                converged = "step"
                break

            x, r, norm, jac = x_new, r_new, norm_new, _jacobian_from(table, x_new, ac)
            lam = max(lam * 0.3, _DAMPING_MIN)
            if math.sqrt(step.dot(step)) <= _STEP_TOLERANCE * (1.0 + math.sqrt(x.dot(x))):
                converged = "step"
                break

    b, w, d, tau = x.tolist()
    left = [] if math.isfinite(norm) else ["the residual norm"]
    left += [name for name, v in (("beta", b), ("omega", w), ("delta", d))
             if v > _MAX_LOG or math.exp(v) == 0.0]
    if left:
        raise SolverError(f"solve end point at tau = {tau!r}: {', '.join(left)} left the float range")
    singular_values, rank = _jacobian_rank(jac)
    return Solution(
        params=ModelParams.from_log(b, w, d, tau),
        residuals=Residuals(*r.tolist(), norm),
        iterations=iterations,
        converged=converged,
        jacobian_singular_values=singular_values,
        numerical_rank=rank,
    )


def trace_manifold(m: MomentSet, tau_grid: np.ndarray | list[float] | tuple[float, ...],
                   options: ModelOptions = DEFAULT_OPTIONS) -> Manifold:
    """Solve r2 = r3 = r4 = 0 exactly for (b, w, d) at each tau in the grid.

    The leftover residual is r5 = -gap by the structural identity. The 3x3
    subsystem has determinant k = tau*rho*sigma_x*sigma_r; k = 0 (tau = 0 or
    rho = 0) makes it singular. The grid, a sequence or 1-D array, is read as
    floats and solved under one float-error guard, one batched gesv call per
    MANIFOLD_BLOCK values, into the returned Manifold's own rows, all finite.

    Raises:
        SingularSubsystemError: naming the first grid point that is not
            finite, if its 3x3 determinant is 0 (k = 0, or 1 +- k rounds to 1).
        OverflowError: naming that point otherwise.
    """
    taus = np.asarray(tau_grid, dtype=float)
    rows = np.empty((len(taus), 9))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(taus), MANIFOLD_BLOCK):
            block = slice(start, start + MANIFOLD_BLOCK)
            tau = taus[block]
            a, c = affine_system(m, tau, options)
            v = _gesv(a[:, :3], -c[:, :3])   # a zero pivot gives a nan row
            r = (a @ v[..., None])[..., 0] + c
            f = np.exp(v)
            # A row's norm is finite only if each of its residuals is.
            norm = np.linalg.norm(r, axis=1)
            finite = np.isfinite(norm) & np.isfinite(f).all(axis=1)
            if not finite.all():
                i = np.argmin(finite)
                # A's r3 coefficient on b is k, the determinant of rows r2-r4.
                if np.linalg.det(a[i, :3]) == 0.0:
                    raise SingularSubsystemError(
                        f"subsystem in (b, w, d) is singular at tau = {tau[i]} (k = {a[i, 1, 0]})"
                    )
                raise OverflowError(f"manifold point at tau = {tau[i]} is not finite")
            rows[block, 0], rows[block, 1:4], rows[block, 4:8], rows[block, 8] = tau, f, r, norm
    rows.flags.writeable = False
    return Manifold(rows)


def residual_floor(m: MomentSet, options: ModelOptions = DEFAULT_OPTIONS) -> float:
    """Attainable least-squares floor |gap|/sqrt(3); zero in implied-lnEx mode."""
    if options.lnex_mode == "lognormal_implied":
        return 0.0
    return abs(lognormality_gap(m)) / math.sqrt(3.0)


def rank_diagnostics(m: MomentSet, p: ModelParams,
                     options: ModelOptions = DEFAULT_OPTIONS) -> RankReport:
    """Aggregate the degeneracy diagnostics at a parameter point (pure data)."""
    singular_values, rank = _jacobian_rank(jacobian_array(m, p.log_vector(), options))
    return RankReport(
        singular_values=singular_values,
        numerical_rank=rank,
        gap=lognormality_gap(m),
        residual_floor=residual_floor(m, options),
        euler_gap=euler_gap(m, p),
    )
