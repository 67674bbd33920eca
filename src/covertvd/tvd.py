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

from .errors import DomainError
from .expansions import (
    _gamma_series_lower,
    _gamma_series_upper,
    _transition_sum,
    coeffs_c,
    phi_transition,
)
from .special import reg_lower_gamma, reg_upper_gamma
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
    half = 0.5 * n
    return half - z + half * math.log(z / half)


def _tvd_value(n: int, theta: float) -> float:
    """V = P(n/2, f) - P(n/2, g) clamped to [0, 1], for an (n, theta) the
    caller has already validated as a ChannelPoint would.

    The one exact-distance kernel: tvd_exact wraps it in a TvdEvaluation,
    and the solvers and sweeps that evaluate V many times call it directly.
    """
    f, g = _fg(n, theta)
    half = 0.5 * n
    value = reg_lower_gamma(half, f) - reg_lower_gamma(half, g)
    return min(1.0, max(0.0, value))


def tvd_exact(point: ChannelPoint) -> TvdEvaluation:
    """Exact TVD via the regularized incomplete gamma difference."""
    return TvdEvaluation(
        value=_tvd_value(point.n, point.theta),
        method=METHOD_EXACT,
        terms_used=0,
        err_estimate=_BASELINE_PRECISION,
    )


def tvd_complement(point: ChannelPoint) -> float:
    """1 - TVD computed in tail space, Q(n/2, f) + P(n/2, g).

    Exact even when the distance saturates at 1 to double precision
    (complements down to ~1e-300); the rate-fit sweeps rely on this.
    """
    f, g = _fg(point.n, point.theta)
    half = 0.5 * point.n
    return reg_upper_gamma(half, f) + reg_lower_gamma(half, g)


def _series_transition(point: ChannelPoint, K: int) -> tuple[float, int]:
    """Transition-regime approximation [Gamma(a+1,g) - Gamma(a+1,f)]/Gamma(a+1)
    with a = n/2 - 1: one transition sum over the Phi differences at g and f."""
    a = 0.5 * point.n - 1.0
    f, g = _fg(point.n, point.theta)
    phi_g = phi_transition(a, g, K).values
    phi_f = phi_transition(a, f, K).values
    return _transition_sum(a, [pg - pf for pg, pf in zip(phi_g, phi_f)]), K + 1


def _series_linear(point: ChannelPoint, K: int) -> tuple[float, int]:
    """Low-exponent approximation 1 - Gamma(a+1,f)/Gamma(a+1) - gamma(a+1,g)/Gamma(a+1)
    from the upper expansion at f and the lower expansion at g, a = n/2 - 1."""
    a = 0.5 * point.n - 1.0
    f, g = _fg(point.n, point.theta)
    cf = coeffs_c(a, K)
    upper, terms_f = _gamma_series_upper(cf, f)
    lower, terms_g = _gamma_series_lower(cf, g)
    return 1.0 - upper - lower, max(terms_f, terms_g)


def tvd_series(point: ChannelPoint, K: int = 20) -> TvdEvaluation:
    """Series approximation of the TVD with regime dispatch on tau_eff.

    tau_eff >= 1/2 selects the transition expansion (method
    "series-high-tau"); tau_eff < 1/2 selects the linear-argument tail
    expansions (method "series-low-tau").  Values are clamped to [0, 1]
    (the approximations can overshoot the metric's range in marginal
    regimes); err_estimate is the absolute deviation from tvd_exact.
    """
    if point.n < 100:
        raise DomainError(f"series approximations need n >= 100, got n={point.n}")
    if point.theta <= 0.0:
        raise DomainError("series approximations need theta > 0")
    if point.tau_eff >= 0.5:
        value, terms = _series_transition(point, K)
        method = METHOD_SERIES_HIGH
    else:
        value, terms = _series_linear(point, K)
        method = METHOD_SERIES_LOW
    value = min(1.0, max(0.0, value))
    return TvdEvaluation(
        value=value,
        method=method,
        terms_used=terms,
        err_estimate=abs(value - _tvd_value(point.n, point.theta)),
    )
