"""Covert power levels for a total-variation budget delta.

The closed forms invert the Hellinger-based sandwich: p_nec inverts the
squared-Hellinger lower bound (spending more power than this certainly
violates the budget), p_suf inverts the sharper Hellinger upper bound
(spending no more than this certainly meets it), and p_exact solves
exact TVD V(theta) = delta.

p_exact is the paper's power approximation: the square-root law
V ~ erf(eta sqrt(n)/2), where eta is DLMF 8.12's variable for the pair
(f, g) of the distance, inverted to third order in 1/n and turned into
theta by a reverted Taylor series (_theta_start).  It calls no kernel.
From n = _N0 = 500 up p_exact returns it, once it lies strictly inside
(p_suf, p_nec), and makes no distance evaluation; its residual
|V(theta) - delta| is below 1e-12 delta there and below 1e-15 delta from
n = 2000 up (the measured table is in p_exact's docstring).

Below _N0 p_exact solves V(theta) = delta by Brent's method (scipy's
compiled _brentq) on the bracket [p_suf, p_nec] that the closed forms give.

With lambda = sqrt(1 - 4y) the closed-form snr is
(1 - 2y + sqrt(1 - 4y))/(2y) - 1 = 2 lambda / (1 - lambda).  The code
writes 1 - lambda as 4y / (1 + lambda), since (1 - lambda)(1 + lambda) = 4y,
and evaluates 2 lambda (1 + lambda) / (4y).  This exact rewrite is stable
at both ends: as delta -> 0 (lambda -> 0) and as delta -> 1 at small n,
where lambda rounds to 1 but y stays positive.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import AccuracyError, ConsistencyError, DomainError
from .special import _brentq, erfinv
from .tvd import _fg, _tvd_value
from .types import check_blocklength, check_sigma2

#: Relative tolerance of the Brent solve below _N0.
_REL_TOL = 1e-12
#: Iteration cap of the Brent solve.  Where the kernel's ~1e-16 absolute
#: noise makes V a staircase at the tolerance, Brent needs more than
#: scipy's default of 100: at most 117 iterations were measured over 40000
#: seeded solves with n < 500 and delta in [1e-16, 0.999].
_MAX_ITER = 200
#: The normal double range: the power levels keep their digits inside it.
_NORMAL_MIN, _MAX = sys.float_info.min, sys.float_info.max


def _budget(n: int, delta: float) -> tuple[int, float, float, float, float]:
    """(n, y, y0, lambda, lambda1) of the TVD budget delta, with n validated:

    y  = (1/4)(1 - delta)^(4/n)        lambda  = sqrt(1 - 4 y)
    y0 = (1/4)(1 - delta^2)^(2/n)      lambda1 = sqrt(1 - 4 y0)
    """
    n = check_blocklength(n)
    if not (math.isfinite(delta) and 0.0 < delta < 1.0):
        raise DomainError(f"TVD budget must lie in (0, 1), got {delta!r}")
    log_y4 = (4.0 / n) * math.log1p(-delta)            # ln (1-delta)^(4/n)
    log_y04 = (2.0 / n) * math.log1p(-delta * delta)   # ln (1-delta^2)^(2/n)
    y, y0 = 0.25 * math.exp(log_y4), 0.25 * math.exp(log_y04)
    lam_sq, lam1_sq = -math.expm1(log_y4), -math.expm1(log_y04)
    lam, lam1 = math.sqrt(lam_sq), math.sqrt(lam1_sq)
    # past n ~ 1e292 at small delta 1 - 4y can leave the normal range and
    # keep few digits or none; there it equals -ln(4y) to double precision,
    # whose square root is regrouped over sqrt(n).  Below delta = 1e-8,
    # sqrt(-ln(1 - delta^2)) = delta (1 + delta^2/4) rounds to delta
    if lam_sq < _NORMAL_MIN:
        lam = 2.0 * math.sqrt(-math.log1p(-delta)) / math.sqrt(n)
    if lam1_sq < _NORMAL_MIN:
        root = delta if delta < 1e-8 else math.sqrt(-math.log1p(-delta * delta))
        lam1 = math.sqrt(2.0) * root / math.sqrt(n)
    return n, y, y0, lam, lam1


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


def _scaled(name: str, snr: float, sigma2: float, n: int, delta: float) -> float:
    """The power level snr * sigma2, or AccuracyError where it is not a
    normal finite double: it overflowed to inf, or it is zero or subnormal
    and keeps too few digits."""
    level = snr * sigma2
    if not _NORMAL_MIN <= level <= _MAX:
        raise AccuracyError(
            f"{name} at n={n}, delta={delta}, sigma2={sigma2} is {level!r}, "
            f"outside the normal double range"
        )
    return level


def p_nec(n: int, delta: float, sigma2: float = 1.0) -> float:
    """Necessary power level: above it the budget is certainly violated.

    Equivalently the unique theta >= 0 with hellinger_sq(theta) = delta,
    scaled by sigma2.
    """
    check_sigma2(sigma2)
    n, y, _, lam, _ = _budget(n, delta)
    return _scaled("p_nec", _snr_from_lambda(lam, y), sigma2, n, delta)


def p_suf(n: int, delta: float, sigma2: float = 1.0) -> float:
    """Sufficient power level: at or below it the budget certainly holds.

    Equivalently the unique theta with the Hellinger upper bound
    sqrt(1 - (1 - H^2)^2) equal to delta, scaled by sigma2.
    """
    check_sigma2(sigma2)
    n, _, y0, _, lam1 = _budget(n, delta)
    return _scaled("p_suf", _snr_from_lambda(lam1, y0), sigma2, n, delta)


#: Blocklength from which p_exact is the closed form _theta_start: the
#: smallest n on a grid of 26 blocklengths from 200 to 1e300 at which its
#: residual meets 1e-12 delta for every delta in [1e-15, 1 - 1e-6].
_N0 = 500


def p_exact(n: int, delta: float, sigma2: float = 1.0) -> PowerInterval:
    """Power at which the exact TVD equals delta: from n = _N0 = 500 up the
    closed form _theta_start, below it Brent's method on the bracket
    [p_suf, p_nec].

    The closed form inverts the symmetric law V ~ erf(x) of the
    square-root regime, x = eta sqrt(n)/2, to third order in 1/n.  For
    n >= 500 and delta in [1e-15, 1 - 1e-6] its residual meets

        |V(theta) - delta| <= 1e-12 delta,  and <= 1e-15 delta from n = 2000,

    measured against 30-digit mpmath on 26 blocklengths from 200 to 1e300
    times 20 budgets (worst over delta per n):

        n       200      300      450      500      1000     2000     >= 3000
        resid   4.7e-11  6.9e-12  1.0e-12  6.1e-13  2.2e-14  8.1e-16  <= 4.2e-16

    The truncation error is largest near delta = 0.9985 (6.1e-13 at
    n = 500) and falls to 5.4e-14 at delta = 1 - 1e-6; it is about
    3.6e-3/n^4 relative for delta <= 0.5.  From n ~ 2000 up the double
    rounding of theta sets the residual.  A closed form that rounds below
    the normal double range (theta < 2.2e-308, as at n = 1e300,
    delta = 1e-300) raises AccuracyError, and one outside (p_suf, p_nec)
    ConsistencyError.  A level that is not a normal finite double once
    scaled by sigma2 raises AccuracyError, as in p_suf and p_nec.

    Below _N0, _solve runs Brent's method on the snr bracket
    [p_suf, p_nec]/sigma2 to the relative tolerance _REL_TOL = 1e-12, with
    no absolute one, and distances from tvd._tvd_value, the scalar kernel
    behind tvd_exact.
    """
    check_sigma2(sigma2)
    n, y, y0, lam, lam1 = _budget(n, delta)
    # bracket in snr units (sigma2 = 1), scale the results at the end
    suf = _snr_from_lambda(lam1, y0)
    nec = _snr_from_lambda(lam, y)
    if n < _N0:
        theta = _solve(n, delta, suf, nec)
    else:
        theta = _theta_start(n, delta)
        if theta < _NORMAL_MIN:
            raise AccuracyError(
                f"p_exact at n={n}, delta={delta} is {theta!r}, below the normal double range"
            )
        if not suf < theta < nec:
            raise ConsistencyError(
                f"closed-form p_exact {theta!r} not bracketed by [p_suf, p_nec] = "
                f"[{suf!r}, {nec!r}] at n={n}, delta={delta}"
            )
    return PowerInterval(
        p_suf=_scaled("p_suf", suf, sigma2, n, delta),
        p_exact=_scaled("p_exact", theta, sigma2, n, delta),
        p_nec=_scaled("p_nec", nec, sigma2, n, delta),
    )


def _solve(n: int, delta: float, suf: float, nec: float) -> float:
    """The theta in [suf, nec] with V(theta) = delta, by Brent's method.

    V increases in theta, so the bracket holds unless V(suf) > delta or
    V(nec) < delta.  Then the raise is AccuracyError where f and g of
    tvd._fg round to the same double at nec (the kernel reads V = 0 up to
    it, as at n = 1, delta = 1e-40), and ConsistencyError otherwise, since
    the sandwich the ends invert can then only fail through an
    implementation bug.  Errors of the distance itself pass unchanged.
    """
    def resid(theta: float) -> float:
        return _tvd_value(n, theta) - delta

    try:
        theta, _, _, flag = _brentq(resid, suf, nec, 0.0, _REL_TOL, _MAX_ITER, (), 1, 0)
    except ValueError as exc:
        if exc.__traceback__.tb_next is not None:  # raised in resid, not by _brentq
            raise
        f, g = _fg(n, nec)
        if f == g and nec > 0.0:
            raise AccuracyError(
                f"exact TVD cannot be resolved at n={n}, delta={delta}: f and g round to the "
                f"same double {f!r} at p_nec = {nec!r}, so the kernel reads V = 0 up to it"
            ) from None
        raise ConsistencyError(
            f"exact TVD not bracketed by [p_suf, p_nec] at n={n}, delta={delta}: "
            f"V(p_suf) - delta = {resid(suf):+.3e}, V(p_nec) - delta = {resid(nec):+.3e}"
        ) from None
    if flag:
        raise AccuracyError(
            f"Brent's method did not converge in {_MAX_ITER} iterations at n={n}, delta={delta}"
        )
    return theta


def _theta_start(n: int, delta: float) -> float:
    """Closed-form estimate of the theta with V(theta) = delta at blocklength n.

    With a = n/2 and DLMF 8.12's eta for the pair (f, g), x = eta sqrt(a/2)
    gives the symmetric law

        V = erf(x) - e^(-x^2) (o_0(eta) + o_1(eta)/a + o_2(eta)/a^2 + ...) / sqrt(2 pi a),

    o_k(eta) = c_k(eta) - c_k(-eta) with Temme's c_k of DLMF 8.12.10, so
    o_0 = eta/6 + eta^3/432 - 139 eta^5/388800 + ..., o_1 = -eta/144 -
    77 eta^3/38880 + ... and o_2 = -139 eta/25920 + ....  Perturbing about
    x_0 = erfinv(delta) solves V = delta as

        x = x_0 + x_0/(12a) + (x_0/288 - x_0^3/216)/a^2
            - (139 x_0/51840 + 107 x_0^3/38880 + 2 x_0^5/6075)/a^3 + O(1/a^4),

    whose x_0-linear coefficients are the terms of Stirling's series for
    Gamma*(a).  In eta_0 = 2 x_0/sqrt(n) this is eta = eta_0 (1 + (1/6 -
    eta_0^2/216 - eta_0^4/6075 + (1/72 - 107 eta_0^2/19440 - 139/(6480 n))/n)/n).
    """
    eta = 2.0 * erfinv(delta) / math.sqrt(n)
    e2 = eta * eta
    return _theta_of_eta(eta * (1.0 + (1 / 6 - e2 / 216 - e2 * e2 / 6075
                                       + (1 / 72 - 107 * e2 / 19440 - 139 / (6480 * n)) / n) / n))


def _theta_of_eta(eta: float) -> float:
    """The theta >= 0 with eta(theta) = eta, eta(theta)^2 = phi(d_f) + phi(d_g)
    (phi(x) = x - ln(1 + x), d_f = f/a - 1 and d_g = g/a - 1 at the pair of
    tvd._fg), by its Taylor series to eta^10: the reversion of
    eta = theta/2 - theta^2/4 + 47 theta^3/288 - 23 theta^4/192 + ....
    Against 50-digit mpmath, eta(theta) is within 2e-16 of eta for
    0 < eta <= 0.05; the truncation then grows like eta^10, to 4e-14 at
    eta = 0.1, 3e-11 at 0.2 and 2.2e-9 (theta 3e-9) at 0.31, the largest
    eta_0 of the closed form (n = 500, delta = 1 - 1e-6), where V is so
    flat in theta that the distance still meets delta to 5e-14."""
    return eta * (2.0 + eta * (2.0 + eta * (25 / 18 + eta * (7 / 9 + eta * (817 / 2160 + eta * (
        67 / 405 + eta * (180701 / 2721600 + eta * (4217 / 170100 + eta * (
            10220453 / 1175731200 + eta * (1891 / 656100))))))))))
