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
from .special import reg_lower_gamma
from .tvd import _fg
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
    # theta - ln(1+theta); series below 1e-4 avoids cancellation
    if theta < 1e-4:
        t = theta
        core = t * t * (0.5 - t * (1.0 / 3.0 - t * (0.25 - 0.2 * t)))
    else:
        core = theta - math.log1p(theta)
    return 0.5 * n * core


def _kl_rev_nats(n: int, theta: float) -> float:
    # ln(1+theta) + 1/(1+theta) - 1 = ln(1+theta) - theta/(1+theta)
    if theta < 1e-4:
        t = theta
        core = t * t * (0.5 - t * (2.0 / 3.0 - t * (0.75 - 0.8 * t)))
    else:
        core = math.log1p(theta) - theta / (1.0 + theta)
    return 0.5 * n * core


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
    fwd_nats = _kl_fwd_nats(point.n, point.theta)
    hsq = hellinger_sq(point)
    # (1 - H^2)^2 carried in log form; sason = sqrt(1 - (1 - H^2)^2)
    sason = math.sqrt(-math.expm1(0.5 * point.n * _log_base(point.theta)))
    return BoundsReport(
        kl_fwd=fwd_nats * LOG2E,
        kl_rev=_kl_rev_nats(point.n, point.theta) * LOG2E,
        hellinger_sq=hsq,
        pinsker_upper=math.sqrt(0.5 * fwd_nats),
        sason_upper=sason,
        sqrt2h_upper=math.sqrt(2.0 * hsq),
        kl_exp_upper=math.sqrt(-math.expm1(-fwd_nats)),
    )


def kl_beta_lower(point: ChannelPoint, beta: float | None = None) -> float:
    """Lower bound (1 - beta)/ln(1/beta) * D(P0||P1) on the TVD.

    beta defaults to the exact missed-detection probability of the optimal
    energy test, P(n/2, g); the ratio is invariant to the log base, so the
    natural-log divergence is used throughout.
    """
    if beta is None:
        if point.theta <= 0.0:
            raise DomainError("default beta undefined at theta = 0 (no test to miss)")
        beta = reg_lower_gamma(0.5 * point.n, _fg(point.n, point.theta)[1])
    if not (0.0 < beta < 1.0):
        raise DomainError(f"missed-detection probability must lie in (0, 1), got {beta!r}")
    return (1.0 - beta) / math.log(1.0 / beta) * _kl_rev_nats(point.n, point.theta)
