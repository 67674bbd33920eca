"""Closed-form divergences between the adversary's hypotheses and the
total-variation bounds they induce.

Both hypotheses are zero-mean isotropic Gaussians on R^n differing only in
per-coordinate variance (sigma^2 against sigma^2 (1 + theta)), so every
divergence here is an explicit function of blocklength and snr.
Divergences are returned in bits by default; pass units="nats" for natural
logs.  Pinsker's bound and the exponential KL bound always take the
natural-log divergence inside their formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .special import _phi
from .types import ChannelPoint

LOG2E = math.log2(math.e)
_LN4 = math.log(4.0)
_UNITS = ("bits", "nats")


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form TVD bounds at one channel point.

    hellinger_sq doubles as the lower bound; the rest are upper bounds.
    Orderings hellinger_sq <= sason_upper <= sqrt2h_upper and (for the
    exact distance V) hellinger_sq <= V <= each upper bound are exercised
    against the tvd module in the test suite.
    """

    kl_fwd: float
    kl_rev: float
    hellinger_sq: float
    pinsker_upper: float
    sason_upper: float
    sqrt2h_upper: float
    kl_exp_upper: float


def _kl_fwd_nats(n: int, theta: float) -> float:
    return 0.5 * n * _phi(theta)


def _kl_rev_nats(n: int, theta: float) -> float:
    # ln(1+theta) - theta/(1+theta) = phi(x), x = -theta/(1+theta); from
    # theta = 1/3 (x = -1/4) on phi is a plain difference, which cancels
    # most up to theta = 1 and is taken in the series of _kl_rev_mid there;
    # x rounds to -1 at huge theta, so above 1 the difference is taken in theta
    if theta < 1.0 / 3.0:
        return 0.5 * n * _phi(-theta / (1.0 + theta))
    if theta > 1.0:
        return 0.5 * n * (math.log1p(theta) - theta / (1.0 + theta))
    return n * _kl_rev_mid(theta)


def _split(x: float) -> tuple[float, float]:
    """Veltkamp's split of x into a 26-bit head and the exact rest."""
    c = 134217729.0 * x  # 2^27 + 1
    head = c - (c - x)
    return head, x - head


def _kl_rev_mid(theta: float) -> float:
    """[ln(1+theta) - theta/(1+theta)] / 2 for 1/3 <= theta <= 1.

    The plain difference loses the rounding of both logarithm and quotient
    to a result 3.6 to 7.6 times smaller (1.8e-15 relative).  With
    t = theta/(2+theta) <= 1/3 the half-difference is
    h(t) = t^2/(1+t) + [atanh(t) - t], a sum of positive terms whose atanh
    series, 17 terms in t^2 <= 1/9, leaves a remainder below 2^-60.  Only
    the rounding of t itself would still count double, so t is split error
    free (TwoSum of 2 + theta, Dekker's product of t and 2 + theta) into
    t + t_lo, and t_lo enters through h'(t) = 2t/((1-t)(1+t)^2).
    """
    s = 2.0 + theta
    s_err = (2.0 - (s - (s - 2.0))) + (theta - (s - 2.0))
    t = theta / s
    prod = t * s
    t_hi, t_rest = _split(t)
    s_hi, s_rest = _split(s)
    prod_err = ((t_hi * s_hi - prod) + t_hi * s_rest + t_rest * s_hi) + t_rest * s_rest
    t_lo = ((theta - prod) - prod_err - t * s_err) / s
    u = t * t
    series = 0.0
    for k in range(35, 1, -2):
        series = 1.0 / k + u * series
    return u / (1.0 + t) + t * u * series + 2.0 * t / ((1.0 - t) * (1.0 + t) ** 2) * t_lo


def kl_divergences(point: ChannelPoint, units: str = "bits") -> tuple[float, float]:
    """Both Kullback-Leibler divergences (signal-present vs noise-only).

    Returns (D(P1||P0), D(P0||P1)); the reverse direction is the smaller
    of the two for every theta > 0.
    """
    if units not in _UNITS:
        raise DomainError(f"units must be one of {_UNITS}, got {units!r}")
    scale = LOG2E if units == "bits" else 1.0
    fwd = _kl_fwd_nats(point.n, point.theta)
    rev = _kl_rev_nats(point.n, point.theta)
    return fwd * scale, rev * scale


def _log_base(theta: float) -> float:
    """ln of the Hellinger base 4(1+theta)/(2+theta)^2.

    Up to theta = 10 it is log1p(-r^2), r = theta/(2+theta), so n-th
    powers stay exact near theta = 0.  Above, 1 - r^2 cancels (r^2 rounds
    to 1 from theta ~ 1e16), so the logarithm is taken term by term; the
    two forms are equally accurate (~1e-15 relative) near theta = 10.
    """
    if theta > 10.0:
        return _LN4 + math.log1p(theta) - 2.0 * math.log(2.0 + theta)
    r = theta / (2.0 + theta)
    return math.log1p(-r * r)


def hellinger_sq(point: ChannelPoint) -> float:
    """Squared Hellinger distance 1 - [4(1+theta)/(4+4theta+theta^2)]^(n/4)."""
    return -math.expm1(0.25 * point.n * _log_base(point.theta))


def tvd_bounds(point: ChannelPoint) -> BoundsReport:
    """All closed-form sandwich bounds on the adversary's TVD at one point."""
    n, theta = point.n, point.theta
    fwd_nats = _kl_fwd_nats(n, theta)
    log_base = _log_base(theta)
    hsq = -math.expm1(0.25 * n * log_base)  # hellinger_sq
    # (1 - H^2)^2 carried in log form; sason = sqrt(1 - (1 - H^2)^2)
    sason = math.sqrt(-math.expm1(0.5 * n * log_base))
    pinsker = math.sqrt(0.5 * fwd_nats)
    if pinsker == math.inf:
        # D = (n/2) phi(theta) overflowed although sqrt(D/2) is finite;
        # splitting the root only here keeps every finite bound bit-identical
        pinsker = math.sqrt(0.25 * n) * math.sqrt(_phi(theta))
    return BoundsReport(
        fwd_nats * LOG2E,
        _kl_rev_nats(n, theta) * LOG2E,
        hsq,
        pinsker,
        sason,
        math.sqrt(2.0 * hsq),
        math.sqrt(-math.expm1(-fwd_nats)),
    )

