"""TVD sweeps along the power scaling law theta = n^(-tau) and rate fits
for the convergence claims: exponential approach to 1 below tau = 1/2,
polynomial decay to 0 above it, stationarity at tau = 1/2 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .tvd import _complement_value, _tvd_value
from .types import check_blocklength, check_int, check_tau

TRANSFORM_LOG_NEG_LOG = "log-neg-log-complement"
TRANSFORM_LOG_LOG = "log-log"


@dataclass(frozen=True)
class ScalingSeries:
    """TVD evaluated along theta = n^(-tau): points holds one (n, V) pair
    per blocklength of a strictly increasing grid (any spacing)."""

    tau: float
    points: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit in transformed coordinates.

    transform "log-neg-log-complement" fits ln(-ln(1 - v)) vs ln n
    (approach to 1: v ~ 1 - exp(-prefactor * n^exponent)); "log-log" fits
    ln v vs ln n (decay to 0: v ~ prefactor * n^exponent).
    """

    exponent: float
    prefactor: float
    r_squared: float
    transform: str

    @property
    def conclusive(self) -> bool:
        """Fits below r^2 = 0.99 are not reported as conclusive."""
        return self.r_squared >= 0.99


def default_n_grid(n_min: int = 1000, n_max: int = 100000, points: int = 12) -> tuple[int, ...]:
    """Log-spaced integer grid, deduplicated and increasing."""
    if points < 1 or n_min < 1 or n_max < n_min:
        raise DomainError(f"invalid grid request ({n_min}, {n_max}, {points})")
    check_blocklength(n_min)
    check_blocklength(n_max)
    if points == 1:
        return (n_min,)
    # float endpoints and int() per entry: exact past the int64 range too;
    # sorted(set()) is np.unique without its import of numpy.ma
    grid = sorted(set(np.round(np.geomspace(float(n_min), float(n_max), points)).tolist()))
    return tuple(int(v) for v in grid)


def _check_grid(n_grid) -> tuple[int, ...]:
    grid = tuple(check_int(n, 1, "grid entries must be positive integers") for n in n_grid)
    if not grid:
        raise DomainError("blocklength grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("blocklength grid must be strictly increasing")
    check_blocklength(grid[-1])  # the largest entry; theta = float(n)^(-tau)
    return grid


def sweep_tvd(tau: float, n_grid) -> ScalingSeries:
    """Exact TVD at theta = n^(-tau) for each n on the grid."""
    check_tau(tau)
    grid = _check_grid(n_grid)
    pts = tuple((n, _tvd_value(n, float(n) ** (-tau))) for n in grid)
    return ScalingSeries(tau=tau, points=pts)


def _ols(x: list[float], y: list[float]) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line through (x, y):
    centred closed form with every sum taken by math.fsum."""
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    ss_x = math.fsum(u * u for u in dx)
    if ss_x == 0.0:
        raise FitError("blocklengths must differ in double precision")
    slope = math.fsum(u * v for u, v in zip(dx, dy)) / ss_x
    ss_res = math.fsum((v - slope * u) ** 2 for u, v in zip(dx, dy))
    ss_tot = math.fsum(v * v for v in dy)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, y_mean - slope * x_mean, r2


def fit_rate(series: ScalingSeries) -> RateFit:
    """Fit the convergence rate of a scaling series.

    tau < 1/2: OLS of ln(-ln(1 - v)) vs ln n (expected slope 1 - 2 tau);
    when a stored value saturates at 1.0 in double precision the
    complement is re-evaluated in tail space from (n, tau), since 1 - v is
    then unrecoverable from v.  tau > 1/2: OLS of ln v vs ln n (expected
    slope between 1 - 2 tau and (1 - 2 tau)/2).  The line is the centred
    closed-form OLS over Python floats with math.fsum sums (_ols).
    """
    if len(series.points) < 6:
        raise FitError(f"rate fit needs at least 6 points, got {len(series.points)}")
    if series.tau == 0.5:
        raise FitError("no power-law rate at the stationary exponent tau = 1/2")
    ns = [n for n, _ in series.points]
    vals = [v for _, v in series.points]
    log_ns = [math.log(n) for n in ns]

    if series.tau < 0.5:
        comp = [1.0 - v for v in vals]
        if any(c <= 0.0 for c in comp):
            # stored values saturated at 1.0; re-evaluate 1 - v in tail space
            check_tau(series.tau)
            comp = [_complement_value(n, float(n) ** (-series.tau)) for n in _check_grid(ns)]
        if any(c <= 0.0 for c in comp):
            raise FitError("complement underflows double precision on this grid")
        # monotonicity checked on the complements, which stay resolvable
        # after the distance itself saturates at 1 in double precision
        if not all(b < a for a, b in zip(comp, comp[1:])):
            raise FitError("series must be strictly increasing for the approach-to-1 fit")
        if comp[0] >= 1.0:
            raise FitError("distance must be positive for the approach-to-1 fit")
        slope, intercept, r2 = _ols(log_ns, [math.log(-math.log(c)) for c in comp])
        transform = TRANSFORM_LOG_NEG_LOG
    else:
        if not all(b < a for a, b in zip(vals, vals[1:])):
            raise FitError("series must be strictly decreasing for the decay-to-0 fit")
        if vals[-1] <= 0.0:
            raise FitError("distance underflows double precision on this grid")
        slope, intercept, r2 = _ols(log_ns, [math.log(v) for v in vals])
        transform = TRANSFORM_LOG_LOG
    return RateFit(exponent=slope, prefactor=math.exp(intercept), r_squared=r2, transform=transform)


def expected_exponent_range(tau: float) -> tuple[float, float]:
    """Claimed exponent (range) for the fit at scaling exponent tau:
    the point 1 - 2 tau below 1/2, the bracket [1 - 2 tau, (1 - 2 tau)/2]
    above it."""
    if not (0.0 < tau < 1.0) or tau == 0.5:
        raise DomainError(f"no rate claim at tau={tau!r}")
    if tau < 0.5:
        e = 1.0 - 2.0 * tau
        return (e, e)
    return (1.0 - 2.0 * tau, 0.5 * (1.0 - 2.0 * tau))


def stationarity_check(n_grid, c: float = 1.0) -> float:
    """Spread (max - min) of the exact TVD over the grid at theta = c n^(-1/2)."""
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"scaling constant must be positive, got {c!r}")
    grid = _check_grid(n_grid)
    vals = [_tvd_value(n, c / math.sqrt(n)) for n in grid]
    return max(vals) - min(vals)
