"""Monte Carlo oracle for the jointly-lognormal covariance identities.

Normals are drawn in fixed-size chunks with counter-based per-chunk seeding
(``default_rng([seed, chunk_index])``), so results are deterministic for a
given (spec, n, seed). A chunk's two normal vectors do not depend on the
spec, so one pass over the stream serves any number of (spec, powers)
groups: each chunk is drawn once and walked in cache-sized blocks. A chunk's
zx is held whole and its z_perp is drawn one block at a time, so a pass
holds about 5 MiB of arrays at any draw count. Every group accumulates
sums of its values shifted by their first-block means. A group keeps the logs
ln x = mu_x + sigma_x zx and ln y it exponentiates, and forms each power
as x^a = exp(a ln x), one ``exp`` per column. An exponent of 1 reuses the
group's shifted x or y and their sums, which equal that column bit for bit,
and a power with an exponent of 0 is skipped: the shifted sums of a constant
column are exact zeros. The centred moments and their standard errors follow
from those sums in closed form. A block's sums of products are taken as two
BLAS dots of half a block: OpenBLAS splits a dot of more than 10,000
elements over its threads, which costs more than it saves at this size.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import MIN_DRAWS, Record
from .model import lognormal_power_cov

_CHUNK = 1 << 19
_BLOCK = 1 << 14  # draws per block; a block's arrays stay in cache

# Acceptance band for a single identity check, in standard errors. At 4 the
# per-case false-alarm rate is about 6e-5, low enough for a stable suite.
Z_MAX = 4.0


class BivariateLogNormalSpec(Record):
    """Jointly lognormal pair, parameterized in log space."""

    def __init__(self, mu_x: float, sigma_x: float, mu_y: float, sigma_y: float, rho: float):
        vars(self).update(mu_x=mu_x, sigma_x=sigma_x, mu_y=mu_y, sigma_y=sigma_y, rho=rho)
        if not all(map(math.isfinite, (self.mu_x, self.sigma_x, self.mu_y, self.sigma_y))):
            raise ValueError("mu_x, sigma_x, mu_y and sigma_y must be finite")
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise ValueError("sigma_x and sigma_y must be non-negative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")


class PowerCovSample(Record):
    def __init__(self, a: float, b: float, value: float, std_error: float):
        vars(self).update(a=a, b=b, value=value, std_error=std_error)


class SampleSummary(Record):
    def __init__(self, n: int, seed: int, mean_x: float, mean_y: float, se_mean_x: float,
                 se_mean_y: float, power_covs: tuple[PowerCovSample, ...]):
        vars(self).update(n=n, seed=seed, mean_x=mean_x, mean_y=mean_y, se_mean_x=se_mean_x,
                          se_mean_y=se_mean_y, power_covs=power_covs)


class IdentityCheck(Record):
    def __init__(self, name: str,
                 kind: str,          # "power-cov" | "marginal-x" | "marginal-y"
                 closed_form: float, sample: float, std_error: float, z: float, ok: bool):
        vars(self).update(name=name, kind=kind, closed_form=closed_form, sample=sample,
                          std_error=std_error, z=z, ok=ok)


class ValidationReport(Record):
    def __init__(self, ok: bool, draws: int, seed: int, cases: tuple[IdentityCheck, ...]):
        vars(self).update(ok=ok, draws=draws, seed=seed, cases=cases)


def _pair(spec: BivariateLogNormalSpec, zx, z_perp, lx, ly, x, y):
    """Write the logs lx = mu_x + sigma_x zx, ly = mu_y + sigma_y zy and the
    levels x = exp(lx), y = exp(ly) in place.

    zy = rho zx + sqrt(1 - rho^2) z_perp; lx holds its second term meanwhile.
    """
    np.multiply(zx, spec.rho, out=ly)
    np.multiply(z_perp, math.sqrt(1.0 - spec.rho**2), out=lx)
    np.add(ly, lx, out=ly)
    np.multiply(ly, spec.sigma_y, out=ly)
    np.add(ly, spec.mu_y, out=ly)
    np.exp(ly, out=y)
    np.multiply(zx, spec.sigma_x, out=lx)
    np.add(lx, spec.mu_x, out=lx)
    np.exp(lx, out=x)
    return x, y


def _shift(w: np.ndarray, row: np.ndarray, k: int, first: bool) -> None:
    """Subtract the shift row[k] from w in place; the first block sets it to w's mean."""
    if first:
        row[k] = w.mean()
    np.subtract(w, row[k], out=w)


def _dot(p: np.ndarray, q: np.ndarray):
    """Sum of p * q, without a temporary array, as two BLAS dots of half a block."""
    # OpenBLAS splits a ddot over its threads above 10,000 elements; halves of
    # at most _BLOCK / 2 = 8,192 keep every dot on the calling thread.
    h = len(p) >> 1
    return p[:h].dot(q[:h]) + p[h:].dot(q[h:])


def _column(w: np.ndarray, sums, lw: np.ndarray, e: float, out: np.ndarray,
            row: np.ndarray, k: int, first: bool):
    """The shifted column w^e = exp(e ln w) and its (sum, sum of squares).

    For e == 1 that is w itself with its marginal sums, bit for bit: exp(1.0 l)
    is exp(l), and both are shifted by the same first-block mean.
    """
    if e == 1.0:
        return w, sums
    np.exp(np.multiply(lw, e, out=out), out=out)
    _shift(out, row, k, first)
    return out, (out.sum(), _dot(out, out))


def _blocks(n: int, seed: int):
    """Yield the stream's normals (zx, z_perp) as views of cache-sized blocks.

    A chunk's generator draws its zx whole, then its z_perp one block at a
    time into one block-sized buffer, which the next block overwrites. A
    generator fills an array in pieces with the bits of one whole fill, so
    the blocks are those of the whole draws of ``tests/test_mc.py``'s reference.
    """
    zx, z_perp = np.empty(min(_CHUNK, n)), np.empty(min(_BLOCK, n))
    for index, start in enumerate(range(0, n, _CHUNK)):
        size = min(_CHUNK, n - start)
        rng = np.random.default_rng([seed, index])
        rng.standard_normal(out=zx[:size])
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            rng.standard_normal(out=z_perp[:hi - lo])
            yield zx[lo:hi], z_perp[:hi - lo]


def _accumulate(groups, n: int, seed: int) -> list[SampleSummary]:
    """Summaries of every (spec, powers) group from one pass over the stream.

    Every group sees the same normals, drawn once per chunk. Sums are taken
    of values shifted by their mean over the first block, which keeps them
    small and the closed-form centring in ``_summary`` free of cancellation.
    Per group the marginal rows hold (shift, sum w', sum w'^2) for w = x, y;
    each power row holds (c_u, c_v, sum u', sum v', sum u'v', sum u'^2,
    sum v'^2, sum u'^2 v', sum u' v'^2, sum u'^2 v'^2) for u = x^a, v = y^b,
    formed as exp(a ln x) and exp(b ln y). For a == 1, u is the shifted x and
    sum u', sum u'^2 are x's block sums, so c_u stays 0 (the shift is x's);
    likewise v and c_v for b == 1. A power with a == 0 or b == 0 (-0.0
    included) is skipped and its row stays all zeros: a constant column
    shifted by its mean sums to exact zeros too. ``_summary`` reads no c_u, c_v.
    """
    if n < 2:
        raise ValueError("need at least 2 draws")
    buffers = [np.empty(min(_BLOCK, n)) for _ in range(7)]
    marginals = [np.zeros((2, 3)) for _ in groups]
    crosses = [np.zeros((len(powers), 10)) for _, powers in groups]
    for block, (zx, z_perp) in enumerate(_blocks(n, seed)):
        first = block == 0
        lx, ly, x, y, u_out, v_out, p = (w[:len(zx)] for w in buffers)
        for (spec, powers), marginal, cross in zip(groups, marginals, crosses):
            _pair(spec, zx, z_perp, lx, ly, x, y)
            for w, row in zip((x, y), marginal):
                _shift(w, row, 0, first)
            sums = [(w.sum(), _dot(w, w)) for w in (x, y)]
            marginal[:, 1:] += sums
            for (a, b), row in zip(powers, cross):
                if a == 0.0 or b == 0.0:
                    continue
                u, (s_u, ss_u) = _column(x, sums[0], lx, a, u_out, row, 0, first)
                v, (s_v, ss_v) = _column(y, sums[1], ly, b, v_out, row, 1, first)
                np.multiply(u, v, out=p)
                row[2:] += (s_u, s_v, p.sum(), ss_u, ss_v,
                            _dot(u, p), _dot(v, p), _dot(p, p))
    return [_summary(n, seed, powers, marginal, cross)
            for (_, powers), marginal, cross in zip(groups, marginals, crosses)]


def _summary(n: int, seed: int, powers, marginal, cross) -> SampleSummary:
    """Centre the shifted sums in closed form."""
    (c_x, s_x, ss_x), (c_y, s_y, ss_y) = marginal.tolist()

    def se_mean(s, ss):
        return math.sqrt(max((ss - s * s / n) / (n - 1), 0.0) / n)

    covs = []
    for (a, b), row in zip(powers, cross.tolist()):
        s_u, s_v, s_uv, s_uu, s_vv, s_uuv, s_uvv, s_uuvv = row[2:]
        m_u, m_v = s_u / n, s_v / n
        # sum (u - mean u)(v - mean v), and the sum of its squared terms. Squares
        # are products: a float ** 2 raises OverflowError where * gives inf.
        sum_prod = s_uv - s_u * m_v
        m_uv, mean_prod = m_u * m_v, sum_prod / n
        sum_prod2 = (s_uuvv - 2.0 * m_v * s_uuv - 2.0 * m_u * s_uvv
                     + m_v * m_v * s_uu + m_u * m_u * s_vv
                     + 4.0 * m_u * m_v * s_uv - 3.0 * n * (m_uv * m_uv))
        var_prod = sum_prod2 / n - mean_prod * mean_prod
        covs.append(PowerCovSample(
            a=a, b=b, value=sum_prod / (n - 1),
            std_error=math.sqrt(max(var_prod, 0.0) / n),
        ))

    return SampleSummary(
        n=n,
        seed=seed,
        mean_x=c_x + s_x / n,
        mean_y=c_y + s_y / n,
        se_mean_x=se_mean(s_x, ss_x),
        se_mean_y=se_mean(s_y, ss_y),
        power_covs=tuple(covs),
    )


def sample_pairs(spec: BivariateLogNormalSpec, n: int, seed: int,
                 powers: Sequence[tuple[float, float]] = ()) -> SampleSummary:
    """Sample means and power covariances cov(X^a, Y^b) with standard errors.

    Args:
        spec: log-space parameters of the pair.
        n: number of draws (>= 2).
        seed: RNG seed; identical (spec, n, seed) gives identical output.
        powers: (a, b) exponent pairs whose sample covariance is requested;
            every exponent must be finite.

    Raises:
        ValueError: for a non-finite exponent, or naming the first mean or
            power whose estimate leaves the float range, such as a power
            (1e5, 1.0) whose column x^1e5 overflows.
    """
    powers = tuple((float(a), float(b)) for a, b in powers)
    if not all(math.isfinite(a) and math.isfinite(b) for a, b in powers):
        raise ValueError("exponents must be finite")
    # Overflowing columns are reported below by name, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        summary = _accumulate([(spec, powers)], n, seed)[0]
    estimates = [("the mean of x", (summary.mean_x, summary.se_mean_x)),
                 ("the mean of y", (summary.mean_y, summary.se_mean_y))]
    estimates += [(f"power (a, b) = ({est.a!r}, {est.b!r})", (est.value, est.std_error))
                  for est in summary.power_covs]
    for name, values in estimates:
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name}: its sample estimate leaves the float range")
    return summary


def _battery() -> list[tuple[str, BivariateLogNormalSpec, float, float]]:
    cases = [
        ("generic a=-2", BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.4), -2.0, 1.0),
        ("independent rho=0", BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.0), -2.0, 1.0),
        ("constant power a=0", BivariateLogNormalSpec(0.02, 0.04, 0.05, 0.15, 0.4), 0.0, 1.0),
        ("negative rho", BivariateLogNormalSpec(0.01, 0.05, 0.03, 0.20, -0.6), 1.0, 1.0),
        ("symmetric squares", BivariateLogNormalSpec(0.0, 0.10, 0.0, 0.10, 0.5), 2.0, 2.0),
    ]
    # Log-space moments of the bundled 1889-1978 series (sample convention),
    # written here so the battery needs no file access. rho is the correlation
    # the reconstruction targets, one ulp above the data's 0.39999999999999997.
    bundled = BivariateLogNormalSpec(
        0.01751333350822086, 0.03565985421361557, 0.05557636374293515, 0.15573663581568173, 0.4
    )
    for tau in (0.0, 1.0, 1.0319, 4.4):
        cases.append((f"bundled mrs tau={tau}", bundled, -tau, 1.0))
    return cases


def _check(name: str, kind: str, closed_form: float, sample: float,
           std_error: float) -> IdentityCheck:
    """One identity check; a zero standard error passes only an exact match."""
    diff = abs(sample - closed_form)
    if std_error == 0.0:
        z = 0.0 if diff == 0.0 else math.inf
    else:
        z = diff / std_error
    return IdentityCheck(name, kind, closed_form, sample, std_error, z, z <= Z_MAX)


def validate_identities(draws: int, seed: int = 42) -> ValidationReport:
    """Run the fixed identity battery; pass iff every check is within 4 SE.

    Each case checks the closed-form power covariance against the sample one
    and both marginal means against their lognormal values. Cases that share
    a spec share one group of one pass over the stream, so its (x, y) is
    formed once.
    """
    if draws < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws")

    cases = _battery()
    groups: dict[BivariateLogNormalSpec, list[tuple[float, float]]] = {}
    for _, spec, a, b in cases:
        groups.setdefault(spec, []).append((a, b))
    summaries = dict(zip(groups, _accumulate(list(groups.items()), draws, seed)))
    covs = {spec: iter(summary.power_covs) for spec, summary in summaries.items()}

    checks: list[IdentityCheck] = []
    for name, spec, a, b in cases:
        summary, est = summaries[spec], next(covs[spec])
        closed = lognormal_power_cov(
            a, b, spec.mu_x, spec.sigma_x, spec.mu_y, spec.sigma_y, spec.rho
        )
        checks += (
            _check(name, "power-cov", closed, est.value, est.std_error),
            _check(name, "marginal-x", math.exp(spec.mu_x + 0.5 * spec.sigma_x**2),
                   summary.mean_x, summary.se_mean_x),
            _check(name, "marginal-y", math.exp(spec.mu_y + 0.5 * spec.sigma_y**2),
                   summary.mean_y, summary.se_mean_y),
        )

    return ValidationReport(
        ok=all(c.ok for c in checks),
        draws=draws,
        seed=seed,
        cases=tuple(checks),
    )
