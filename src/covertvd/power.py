"""Covert power levels for a total-variation budget delta.

The closed forms invert the Hellinger-based sandwich: p_nec inverts the
squared-Hellinger lower bound (spending more power than this certainly
violates the budget), p_suf inverts the sharper Hellinger upper bound
(spending no more than this certainly meets it), and p_exact solves
exact TVD V(theta) = delta by a safeguarded Newton iteration bracketed
between the two.  The Newton step uses the closed-form slope

    dV/dtheta = p_a(g) g / (1 + theta),   a = n/2,

with p_a the Gamma(a) density (special._gamma_log_density, accurate at every
n).  It is p_a(f) f' - p_a(g) g' with one density: at the likelihood-ratio
threshold the likelihoods are equal, so p_a(f) = p_a(g) / (1 + theta), and
f = (1 + theta) g gives f' = g + (1 + theta) g'.  The slope only steers the
search; the bracket guarantees the result.

With lambda = sqrt(1 - 4y) the closed-form snr is
(1 - 2y + sqrt(1 - 4y))/(2y) - 1 = 2 lambda / (1 - lambda).  The code
writes 1 - lambda as 4y / (1 + lambda), since (1 - lambda)(1 + lambda) = 4y,
and evaluates 2 lambda (1 + lambda) / (4y).  This exact rewrite is stable
at both ends: as delta -> 0 (lambda -> 0) and as delta -> 1 at small n,
where lambda rounds to 1 but y stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError
from .special import _gamma_log_density, _gamma_log_norm
from .tvd import _fg, _tvd_fg, _tvd_value
from .types import check_blocklength, check_sigma2

#: Relative step or bracket width at which the Newton iteration stops.
_REL_TOL = 1e-10


@dataclass(frozen=True)
class CovertBudget:
    """TVD budget delta with its derived intermediates.

    y  = (1/4)(1 - delta)^(4/n)        lambda  = sqrt(1 - 4 y)
    y0 = (1/4)(1 - delta^2)^(2/n)      lambda1 = sqrt(1 - 4 y0)
    """

    delta: float
    n: int
    y: float
    y0: float
    lam: float
    lam1: float

    @classmethod
    def from_delta(cls, n: int, delta: float) -> "CovertBudget":
        return cls(delta, *_budget(n, delta))


def _budget(n: int, delta: float) -> tuple[int, float, float, float, float]:
    """(n, y, y0, lambda, lambda1) of CovertBudget, with n validated."""
    n = check_blocklength(n)
    if not (math.isfinite(delta) and 0.0 < delta < 1.0):
        raise DomainError(f"TVD budget must lie in (0, 1), got {delta!r}")
    log_y4 = (4.0 / n) * math.log1p(-delta)            # ln (1-delta)^(4/n)
    log_y04 = (2.0 / n) * math.log1p(-delta * delta)   # ln (1-delta^2)^(2/n)
    y, y0 = 0.25 * math.exp(log_y4), 0.25 * math.exp(log_y04)
    return n, y, y0, math.sqrt(-math.expm1(log_y4)), math.sqrt(-math.expm1(log_y04))


@dataclass(frozen=True)
class PowerInterval:
    """Sufficient / exact / necessary power triple; p_suf <= p_exact <= p_nec."""

    p_suf: float
    p_exact: float
    p_nec: float


def eta_from_lambda(lam: float, y: float) -> float:
    """(1 - 2y + sqrt(1 - 4y)) / (2y) = (1 + lam)/(1 - lam) for lam = sqrt(1 - 4y),
    evaluated as (1 + lam)^2 / (4y) so that lam = 1 in double precision
    does not divide by zero."""
    return (1.0 + lam) * (1.0 + lam) / (4.0 * y)


def _snr_from_lambda(lam: float, y: float) -> float:
    """Closed-form snr 2 lam (1 + lam) / (4y) = eta - 1 at lam = sqrt(1 - 4y)."""
    return 2.0 * lam * (1.0 + lam) / (4.0 * y)


def p_nec(n: int, delta: float, sigma2: float = 1.0) -> float:
    """Necessary power level: above it the budget is certainly violated.

    Equivalently the unique theta >= 0 with hellinger_sq(theta) = delta,
    scaled by sigma2.
    """
    check_sigma2(sigma2)
    _, y, _, lam, _ = _budget(n, delta)
    return _snr_from_lambda(lam, y) * sigma2


def p_suf(n: int, delta: float, sigma2: float = 1.0) -> float:
    """Sufficient power level: at or below it the budget certainly holds.

    Equivalently the unique theta with the Hellinger upper bound
    sqrt(1 - (1 - H^2)^2) equal to delta, scaled by sigma2.
    """
    check_sigma2(sigma2)
    _, _, y0, _, lam1 = _budget(n, delta)
    return _snr_from_lambda(lam1, y0) * sigma2


def p_exact(n: int, delta: float, sigma2: float = 1.0) -> PowerInterval:
    """Power at which the exact TVD equals delta, by bracketed Newton.

    The root is sought on the snr interval [p_suf, p_nec]/sigma2, which
    must bracket it since the exact distance is sandwiched by the bounds
    the endpoints invert; a non-bracketing interval raises
    ConsistencyError because it can only mean an implementation bug.
    From a regula-falsi start, each iterate's distance shrinks the
    bracket, and a Newton step that would leave the bracket, or that is not
    at most half the step before (past n ~ 1e13 the distance is a fine
    staircase in theta, where Newton can wander), is replaced by bisection.
    Iteration stops once the step or the bracket is below the fixed
    relative tolerance _REL_TOL = 1e-10.  Distances come from tvd._tvd_fg,
    the scalar kernel behind tvd_exact, and each Newton slope reuses the g
    of the distance evaluation before it.
    """
    check_sigma2(sigma2)
    n, y, y0, lam, lam1 = _budget(n, delta)
    # bracket in snr units (sigma2 = 1), scale the results at the end
    suf = _snr_from_lambda(lam1, y0)
    nec = _snr_from_lambda(lam, y)
    lo, hi = suf, nec
    f_lo = _tvd_value(n, lo) - delta
    f_hi = _tvd_value(n, hi) - delta
    if f_lo > 0.0 or f_hi < 0.0:
        raise ConsistencyError(
            f"exact TVD not bracketed by [p_suf, p_nec] at n={n}, delta={delta}: "
            f"endpoints deviate by ({f_lo:+.3e}, {f_hi:+.3e})"
        )
    a = 0.5 * n
    log_norm = _gamma_log_norm(a)
    theta = lo - f_lo * (hi - lo) / (f_hi - f_lo) if f_hi > f_lo else lo
    last = math.inf
    while True:
        f, g = _fg(n, theta)
        resid = _tvd_fg(a, f, g) - delta
        if resid == 0.0:
            break
        if resid < 0.0:
            lo = theta
        else:
            hi = theta
        slope = _tvd_slope(a, theta, g, log_norm)
        step = resid / slope if slope > 0.0 else math.inf
        if not (lo < theta - step < hi and abs(step) <= 0.5 * last):
            step = theta - 0.5 * (lo + hi)
        last = abs(step)
        theta -= step
        if abs(step) <= _REL_TOL * theta or hi - lo <= _REL_TOL * hi:
            break
    return PowerInterval(p_suf=suf * sigma2, p_exact=theta * sigma2, p_nec=nec * sigma2)


def _tvd_slope(a: float, theta: float, g: float, log_norm: float) -> float:
    """dV/dtheta = p_a(g) g / (1 + theta) at a = n/2, g = _fg(n, theta)[1],
    p_a the Gamma(a) density, log_norm = special._gamma_log_norm(a)."""
    return math.exp(_gamma_log_density(a, g, log_norm)) / (1.0 + theta)
