"""Covert power levels for a total-variation budget delta.

The closed forms invert the Hellinger-based sandwich: p_nec inverts the
squared-Hellinger lower bound (spending more power than this certainly
violates the budget), p_suf inverts the sharper Hellinger upper bound
(spending no more than this certainly meets it), and p_exact solves
exact TVD V(theta) = delta by a safeguarded Newton iteration bracketed
between the two.  The Newton step uses the closed-form slope

    dV/dtheta = p_a(f) f'(theta) - p_a(g) g'(theta),   a = n/2,

with p_a the Gamma(a) density; it only steers the search, the bracket
guarantees the result.

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
from .tvd import _fg, _tvd_value
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
        n = check_blocklength(n)
        if not (math.isfinite(delta) and 0.0 < delta < 1.0):
            raise DomainError(f"TVD budget must lie in (0, 1), got {delta!r}")
        log_y4 = (4.0 / n) * math.log1p(-delta)            # ln (1-delta)^(4/n)
        log_y04 = (2.0 / n) * math.log1p(-delta * delta)   # ln (1-delta^2)^(2/n)
        return cls(
            delta=delta,
            n=n,
            y=0.25 * math.exp(log_y4),
            y0=0.25 * math.exp(log_y04),
            lam=math.sqrt(-math.expm1(log_y4)),
            lam1=math.sqrt(-math.expm1(log_y04)),
        )


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
    budget = CovertBudget.from_delta(n, delta)
    return _snr_from_lambda(budget.lam, budget.y) * sigma2


def p_suf(n: int, delta: float, sigma2: float = 1.0) -> float:
    """Sufficient power level: at or below it the budget certainly holds.

    Equivalently the unique theta with the Hellinger upper bound
    sqrt(1 - (1 - H^2)^2) equal to delta, scaled by sigma2.
    """
    check_sigma2(sigma2)
    budget = CovertBudget.from_delta(n, delta)
    return _snr_from_lambda(budget.lam1, budget.y0) * sigma2


def p_exact(n: int, delta: float, sigma2: float = 1.0) -> PowerInterval:
    """Power at which the exact TVD equals delta, by bracketed Newton.

    The root is sought on the snr interval [p_suf, p_nec]/sigma2, which
    must bracket it since the exact distance is sandwiched by the bounds
    the endpoints invert; a non-bracketing interval raises
    ConsistencyError because it can only mean an implementation bug.
    From a regula-falsi start, each iterate's distance shrinks the
    bracket, and a Newton step that would leave the bracket is replaced by
    bisection.  Iteration stops once the step or the bracket is below the
    fixed relative tolerance _REL_TOL = 1e-10.  Distances come from
    tvd._tvd_value, the scalar kernel behind tvd_exact.
    """
    check_sigma2(sigma2)
    budget = CovertBudget.from_delta(n, delta)
    n = budget.n
    # bracket in snr units (sigma2 = 1), scale the results at the end
    suf = _snr_from_lambda(budget.lam1, budget.y0)
    nec = _snr_from_lambda(budget.lam, budget.y)
    lo, hi = suf, nec
    f_lo = _tvd_value(n, lo) - delta
    f_hi = _tvd_value(n, hi) - delta
    if f_lo > 0.0 or f_hi < 0.0:
        raise ConsistencyError(
            f"exact TVD not bracketed by [p_suf, p_nec] at n={n}, delta={delta}: "
            f"endpoints deviate by ({f_lo:+.3e}, {f_hi:+.3e})"
        )
    log_norm = math.lgamma(0.5 * n)
    theta = lo - f_lo * (hi - lo) / (f_hi - f_lo) if f_hi > f_lo else lo
    while True:
        resid = _tvd_value(n, theta) - delta
        if resid == 0.0:
            break
        if resid < 0.0:
            lo = theta
        else:
            hi = theta
        # theta - ln(1 + theta) rounds to 0 below theta ~ 1e-16, and so can the slope
        slope = _tvd_slope(n, theta, log_norm)
        step = resid / slope if slope > 0.0 else math.inf
        if not lo < theta - step < hi:
            step = theta - 0.5 * (lo + hi)
        theta -= step
        if abs(step) <= _REL_TOL * theta or hi - lo <= _REL_TOL * hi:
            break
    return PowerInterval(p_suf=suf * sigma2, p_exact=theta * sigma2, p_nec=nec * sigma2)


def _tvd_slope(n: int, theta: float, log_norm: float) -> float:
    """dV/dtheta = p_a(f) f' - p_a(g) g' at a = n/2, p_a the Gamma(a) density
    with log_norm = lgamma(a)."""
    a = 0.5 * n
    f, g = _fg(n, theta)
    log1p_theta = math.log1p(theta)
    dens_f = math.exp((a - 1.0) * math.log(f) - f - log_norm)
    dens_g = math.exp((a - 1.0) * math.log(g) - g - log_norm)
    df = a * (theta - log1p_theta) / (theta * theta)
    dg = a * (theta / (1.0 + theta) - log1p_theta) / (theta * theta)
    return dens_f * df - dens_g * dg
