"""Exact rational arithmetic on the model's affine system: a test oracle.

The coefficient table ``model._table(m, options)`` is read as exact input:
each float in it, each tau and each point stands for the rational number it
represents. Everything after that is done in ``fractions.Fraction``, with no
rounding, so a float result can be held to its own rounding error alone
(forward-error bounds of the form eps * cond, as in Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 7).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


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
