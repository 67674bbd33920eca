"""Exact total variation distance at the adversary and its two series
approximations.

The adversary's optimal test thresholds the received energy, so the
distance between the two hypotheses reduces to a difference of regularized
lower incomplete gamma values at the argument pair (f, g) straddling n/2:

    V = P(n/2, f) - P(n/2, g),
    f = (n/2)(1 + 1/theta) ln(1 + theta),   g = (n/2) ln(1 + theta)/theta.

tvd_exact evaluates that directly.  tvd_series dispatches on the effective
scaling exponent tau_eff = -ln(theta)/ln(n): at tau_eff >= 1/2 both f and
g sit within O(sqrt(n)) of n/2 and the transition expansion applies; below
1/2 they separate like n^(1-tau) and the linear-argument expansions of the
two tails apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError
from .expansions import _check_order, _gamma_series_lower, _gamma_series_upper, _transition_sum
from .special import (
    _gamma_log_density,
    _gamma_log_norm,
    gammainc,
    reg_lower_gamma,
    reg_upper_gamma,
)
from .types import (
    METHOD_EXACT,
    METHOD_SERIES_HIGH,
    METHOD_SERIES_LOW,
    ChannelPoint,
    TvdEvaluation,
)

#: Absolute precision of the baseline gamma evaluation backing tvd_exact.
_BASELINE_PRECISION = 1e-12


@dataclass(frozen=True)
class FgPair:
    """The incomplete-gamma argument pair; g <= n/2 <= f with
    f - g = theta * g and f/g = 1 + theta."""

    f: float
    g: float


def _fg(n: int, theta: float) -> tuple[float, float]:
    """(f, g) at blocklength n and snr theta; f = g = n/2 at theta = 0."""
    half = 0.5 * n
    if theta == 0.0:
        return half, half
    ratio = math.log1p(theta) / theta
    f = half * (1.0 + theta) * ratio
    if f == math.inf:
        # (n/2)(1 + theta) overflowed although f ~ (n/2) ln(1 + theta) is
        # finite; regrouping only here keeps every finite f bit-identical
        f = half * ((1.0 + theta) * ratio)
    return f, half * ratio


def fg(point: ChannelPoint) -> FgPair:
    """Argument pair (f, g) for the channel point; continuous limit
    f = g = n/2 at theta = 0."""
    f, g = _fg(point.n, point.theta)
    return FgPair(f=f, g=g)


def log_tail_weight(n: int, z: float) -> float:
    """ln of e^(n/2 - z) (z / (n/2))^(n/2), the dominant exponential factor
    shared by both linear-regime series prefactors.

    Identity: log_tail_weight(n, f) == log_tail_weight(n, g) for the pair
    (f, g) of any channel point, since f - g = (n/2) ln(f/g).
    """
    return _gamma_log_density(0.5 * n, z, 0.0)


def _tvd_value(n: int, theta: float) -> float:
    """V = P(n/2, f) - P(n/2, g) at (f, g) = _fg(n, theta), clamped to
    [0, 1]: the one exact-distance kernel, behind tvd_exact, tvd_series'
    err_estimate, the sweeps and p_exact.

    The caller has validated (n, theta) as a ChannelPoint would, so n/2 is
    finite and positive and 0 <= g <= f: the compiled gammainc is called
    without reg_lower_gamma's checks, and one finiteness test per distance
    stands in for them.  It fails only where f overflowed or gammainc
    returned NaN (at shapes past about 2e305), and the checked wrappers
    then raise the DomainError or AccuracyError of any public call.
    """
    f, g = _fg(n, theta)
    half = 0.5 * n
    v = gammainc(half, f) - gammainc(half, g)
    if not math.isfinite(f - v):
        v = reg_lower_gamma(half, f) - reg_lower_gamma(half, g)
    return min(1.0, max(0.0, v))


def tvd_exact(point: ChannelPoint) -> TvdEvaluation:
    """Exact TVD via the regularized incomplete gamma difference."""
    return TvdEvaluation(_tvd_value(point.n, point.theta), METHOD_EXACT, 0, _BASELINE_PRECISION)


def tvd_complement(point: ChannelPoint) -> float:
    """1 - TVD computed in tail space, Q(n/2, f) + P(n/2, g).

    The complement is not lost when the distance rounds to 1; the rate-fit
    sweeps rely on this.  Its precision is that of scipy's lower incomplete
    gamma in the lower tail, which degrades with n.  Relative error against
    40-digit mpmath integration of the Gamma(n/2) density over the same
    (g, f), at theta = 10/sqrt(n/2) (g about 5 sigma below n/2): 8e-16 at
    n = 1e4, 2e-15 at 1e5, 2.3e-13 at 5e5, 4.7e-9 at 1e6 and 2.3e-6 at 2e6.
    """
    return _complement_value(point.n, point.theta)


def _complement_value(n: int, theta: float) -> float:
    """Q(n/2, f) + P(n/2, g) at an (n, theta) the caller has validated;
    tvd_complement wraps it, and fit_rate calls it directly."""
    f, g = _fg(n, theta)
    half = 0.5 * n
    return reg_upper_gamma(half, f) + reg_lower_gamma(half, g)


def tvd_series(point: ChannelPoint, K: int = 20) -> TvdEvaluation:
    """Series approximation of the TVD with regime dispatch on tau_eff.

    With a = n/2 - 1, tau_eff >= 1/2 selects the transition expansion
    (method "series-high-tau"): one sum of all K + 1 terms over the
    differences Phi_k(a, g) - Phi_k(a, f).  tau_eff < 1/2 selects the
    linear-argument tail expansions (method "series-low-tau"):
    1 - [upper series at f] - [lower series at g], each summed pair of
    terms by pair up to its optimal truncation, with one Gamma(a+1)
    normaliser shared by both prefactors; terms_used is the larger count.
    Values are clamped to [0, 1] (the approximations can overshoot the
    metric's range in marginal regimes); err_estimate is the absolute
    deviation from the exact kernel, _tvd_value at the same (n, theta).
    A sum that is not finite (its coefficients overflow; at K = 20 from
    n ~ 1e32 below tau_eff = 1/2 and 1e53 above) raises AccuracyError.
    """
    n, theta = point.n, point.theta
    if n < 100:
        raise DomainError(f"series approximations need n >= 100, got n={n}")
    if theta <= 0.0:
        raise DomainError("series approximations need theta > 0")
    _check_order(K)
    a = 0.5 * n - 1.0
    f, g = _fg(n, theta)
    if -math.log(theta) / math.log(n) >= 0.5:  # point.tau_eff, whose checks passed above
        value = _transition_sum(a, g, f, K)
        terms = K + 1
        method = METHOD_SERIES_HIGH
    else:
        if not g < a < f:
            # exact g < a < f holds at every n >= 100 with tau_eff < 1/2, each
            # gap above sqrt(n)/4 - 1; past n ~ 1e31 a gap can round to 0
            raise AccuracyError(
                f"linear-regime series need g < a < f, but the arguments round to "
                f"g={g}, f={f} at a={a}: their gap to a is below its ulp"
            )
        upper, terms_f = _gamma_series_upper(a, f, K)
        lower, terms_g = _gamma_series_lower(a, g, K)
        b = a + 1.0
        norm = _gamma_log_norm(b)
        value = (1.0 - math.exp(_gamma_log_density(b, f, norm)) * upper
                 - math.exp(_gamma_log_density(b, g, norm)) * lower)
        terms = max(terms_f, terms_g)
        method = METHOD_SERIES_LOW
    if not math.isfinite(value):
        raise AccuracyError(
            f"{method} sum is {value} at n={n}, theta={theta}, K={K}: "
            f"its coefficients overflow the double range"
        )
    value = min(1.0, max(0.0, value))
    return TvdEvaluation(value, method, terms, abs(value - _tvd_value(n, theta)))
