"""Exact rational arithmetic on the model's affine system: a test oracle.

The coefficient table ``model._table(m, options)`` is read as exact input:
each float in it, each tau and each point stands for the rational number it
represents. Everything after that is done in ``fractions.Fraction``, with no
rounding, so a float result can be held to its own rounding error alone
(forward-error bounds of the form eps * cond, as in Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 7). ``jacobian``
reads no table: it writes the model's derivatives from the ``MomentSet``
floats, the oracle for the solver's singular values.

The lognormal power moments are another oracle here: expectations of the
jointly lognormal pair by Gauss-Hermite quadrature, a derivation that shares
nothing with the closed form ``model.lognormal_power_cov``. The third is
``moments``: the sample statistics of ``moments.estimate_moments`` to 60
significant digits in ``decimal``.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite import hermgauss


def _rows(table: np.ndarray) -> list[list[Fraction]]:
    return [list(map(Fraction, row)) for row in np.asarray(table, dtype=float).tolist()]


def _weights(tau: float) -> tuple[Fraction, Fraction, Fraction]:
    t = Fraction(float(tau))
    return Fraction(1), t, t * t


def system(table: np.ndarray, tau: float) -> list[list[Fraction]]:
    """[A | c] at tau: rows r2..r5, columns b, w, d, 1."""
    weights, rows = _weights(tau), _rows(table)
    return [[sum(w * row[4 * i + j] for w, row in zip(weights, rows)) for j in range(4)]
            for i in range(4)]


def residuals(table: np.ndarray, x) -> list[Fraction]:
    """(r2, r3, r4, r5) = A @ v + c at the log-space point x = (b, w, d, tau)."""
    v = [Fraction(float(value)) for value in x[:3]]
    return [sum(a * value for a, value in zip(row, v)) + row[3] for row in system(table, x[3])]


def residual_scale(table: np.ndarray, x) -> list[float]:
    """Per residual, the sum of the absolute values of every product term.

    r_i = sum over p of tau^p * (table[p, i, :3] @ v + table[p, i, 3]); a
    float evaluation of it errs by a few eps times this sum.
    """
    v = [abs(Fraction(float(value))) for value in x[:3]] + [Fraction(1)]
    weights, rows = _weights(x[3]), _rows(table)
    return [float(sum(abs(w) * abs(row[4 * i + j]) * v[j]
                      for w, row in zip(weights, rows) for j in range(4)))
            for i in range(4)]


def _det3(a: list[list[Fraction]]) -> Fraction:
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _cramer(a: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """The solution of the 3x3 system a @ v = rhs, by Cramer's rule."""
    det = _det3(a)
    return [_det3([[rhs[i] if j == col else a[i][j] for j in range(3)] for i in range(3)]) / det
            for col in range(3)]


def manifold_point(table: np.ndarray, tau: float) -> list[Fraction]:
    """The (b, w, d) that zeroes r2, r3 and r4 at tau, by Cramer's rule."""
    rows = system(table, tau)[:3]
    return _cramer([row[:3] for row in rows], [-row[3] for row in rows])


def least_squares_point(table: np.ndarray, tau: float) -> list[Fraction]:
    """v*(tau): the (b, w, d) of least residual norm at tau.

    Solves the normal equations A^T A v = -A^T c by Cramer's rule; A^T A is
    singular when A has rank 2 (rho = 0 or tau = 0), and the division fails.
    """
    rows = system(table, tau)
    normal = [[sum(row[i] * row[j] for row in rows) for j in range(3)] for i in range(3)]
    return _cramer(normal, [-sum(row[i] * row[3] for row in rows) for i in range(3)])


def jacobian(m, x, eq3_variant: str) -> list[list[Fraction]]:
    """d(r2, r3, r4, r5)/d(b, w, d, tau) at x = (b, w, d, tau), from the model's equations.

    Built from the ``MomentSet`` floats, not from the coefficient table:
    F = ln(mean_rf) and kappa = rho sqrt(sigma2_x sigma2_r) are taken to 60
    digits in ``decimal``, everything else is rational. Only r3's row holds
    them, so the rows meet r2 + r4 - r5 = 0 exactly and the matrix has rank
    at most 3: its smallest singular value is 0.
    """
    with localcontext(Context(prec=60)):
        ln_rf = Fraction(Decimal(float(m.mean_rf)).ln())
        kappa = Fraction(Decimal(float(m.rho))
                         * (Decimal(float(m.sigma2_x)) * Decimal(float(m.sigma2_r))).sqrt())
    mu, s2 = Fraction(float(m.mu_x)), Fraction(float(m.sigma2_x))
    b, w, d, tau = (Fraction(float(value)) for value in x)
    k = tau * kappa
    f_per_k = -ln_rf if eq3_variant == "printed" else ln_rf
    return [
        [Fraction(1), Fraction(1), Fraction(0), -mu + tau * s2],
        [k, 1 + k, k - 1, kappa * (b + w + d + f_per_k)],
        [Fraction(0), Fraction(-1), Fraction(1), -s2],
        [Fraction(1), Fraction(0), Fraction(1), -mu - s2 + tau * s2],
    ]


def lognormal_power_moments(a: float, b: float, mu_x: float, sigma_x: float, mu_y: float,
                            sigma_y: float, rho: float):
    """(E(X^a Y^b), E(X^a), E(Y^b)) by 60-node Gauss-Hermite tensor quadrature.

    ln X = mu_x + sigma_x z1 and ln Y = mu_y + sigma_y (rho z1 + sqrt(1 - rho^2) z2)
    for independent standard normals z1, z2. E f(z) = sum_i w_i f(sqrt(2) t_i) / sqrt(pi)
    over the Hermite nodes t_i and weights w_i (Golub & Welsch, *Math. Comp.* 23,
    1969), exact for polynomials of degree below 120; the double sum is the
    tensor rule for (z1, z2). Sums are taken with ``math.fsum``.
    """
    t, w = hermgauss(60)
    z, weight = (math.sqrt(2.0) * t).tolist(), (w / math.sqrt(math.pi)).tolist()
    perp = math.sqrt(1.0 - rho * rho)
    ex = math.fsum(wi * math.exp(a * (mu_x + sigma_x * zi)) for zi, wi in zip(z, weight))
    ey = math.fsum(wj * math.exp(b * (mu_y + sigma_y * zj)) for zj, wj in zip(z, weight))
    exy = math.fsum(wi * wj * math.exp(a * (mu_x + sigma_x * zi)
                                       + b * (mu_y + sigma_y * (rho * zi + perp * zj)))
                    for zi, wi in zip(z, weight) for zj, wj in zip(z, weight))
    return exy, ex, ey


def moments(x, r_e, r_f, convention: str) -> dict[str, Decimal]:
    """The eight statistics of ``MomentSet`` and the lognormality gap, to 60 digits.

    Each float of the three columns stands for the number it represents. Logs
    are ``Decimal.ln`` and every operation rounds at 60 digits, so the result
    is exact far past double precision. rho is the divisor-free
    Sum dx dr / sqrt(Sum dx^2 Sum dr^2), which both conventions' estimates
    approximate.
    """
    with localcontext(Context(prec=60)):
        x, r_e, r_f = ([Decimal(float(v)) for v in column] for column in (x, r_e, r_f))
        n = len(x)
        divisor = n - 1 if convention == "sample" else n
        lx, lr = [v.ln() for v in x], [v.ln() for v in r_e]
        mu_x, mu_r = sum(lx) / n, sum(lr) / n
        dx, dr = [v - mu_x for v in lx], [v - mu_r for v in lr]
        sxx, srr = sum(d * d for d in dx), sum(d * d for d in dr)
        stats = {
            "mu_x": mu_x,
            "sigma2_x": sxx / divisor,
            "mu_r": mu_r,
            "sigma2_r": srr / divisor,
            "rho": sum(a * b for a, b in zip(dx, dr)) / (sxx * srr).sqrt(),
            "mean_x": sum(x) / n,
            "mean_re": sum(r_e) / n,
            "mean_rf": sum(r_f) / n,
        }
        stats["gap"] = stats["mean_x"].ln() - mu_x - stats["sigma2_x"] / 2
        return stats
