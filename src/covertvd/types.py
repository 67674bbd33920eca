"""Core parameter and result types shared across modules."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import DomainError

#: Method tags carried by TvdEvaluation.
METHOD_EXACT = "exact-gamma"
METHOD_SERIES_HIGH = "series-high-tau"
METHOD_SERIES_LOW = "series-low-tau"
METHOD_QUADRATURE = "quadrature"
METHOD_MONTE_CARLO = "monte-carlo"


def check_int(value, minimum: int, message: str) -> int:
    """value as a Python int when it is an integer >= minimum, else
    DomainError(f"{message}, got {value!r}").

    Any type with __index__ (numpy integers included) is accepted; bool is
    rejected, as are floats, even integral ones.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or number < minimum:
        raise DomainError(f"{message}, got {value!r}")
    return number


def check_blocklength(n) -> int:
    """n as a Python int when it is a positive integer within double range
    (every formula takes n/2 or 1/n as a float), else DomainError."""
    n = check_int(n, 1, "blocklength must be a positive integer")
    if n > sys.float_info.max:  # an exact int-float comparison
        raise DomainError(f"blocklength exceeds double range, got {n!r}")
    return n


def check_sigma2(sigma2: float) -> None:
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise DomainError(f"noise variance must be finite and positive, got {sigma2!r}")


def check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and 0.0 < tau < 1.0):
        raise DomainError(f"scaling exponent must lie in (0, 1), got {tau!r}")


@dataclass(frozen=True)
class ChannelPoint:
    """Operating point of the adversary's detection problem.

    Parameters
    ----------
    n : int
        Blocklength (number of channel uses).
    sigma2 : float
        Noise variance at the adversary.
    theta : float
        Per-symbol signal-to-noise ratio p_n / sigma2.
    """

    n: int
    sigma2: float = 1.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        n = check_blocklength(self.n)
        object.__setattr__(self, "n", n)  # frozen; stores a Python int, not a numpy integer
        check_sigma2(self.sigma2)
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise DomainError(f"snr must be finite and nonnegative, got {self.theta!r}")

    @classmethod
    def from_tau(cls, n: int, tau: float, sigma2: float = 1.0) -> "ChannelPoint":
        """Point on the power scaling law theta = n**(-tau)."""
        check_tau(tau)
        # __post_init__ checks n and sigma2 once; theta = n**-tau lies in (0, 1]
        point = cls(n, sigma2)
        object.__setattr__(point, "theta", float(point.n) ** (-tau))
        return point

    @property
    def sigma1_sq(self) -> float:
        """Signal-plus-noise variance sigma1^2 = sigma2 * (1 + theta)."""
        return self.sigma2 * (1.0 + self.theta)

    @property
    def tau_eff(self) -> float:
        """Effective scaling exponent -ln(theta) / ln(n)."""
        if self.theta <= 0.0:
            raise DomainError("effective exponent undefined at theta = 0")
        if self.n <= 1:
            raise DomainError("effective exponent undefined at n = 1")
        return -math.log(self.theta) / math.log(self.n)


@dataclass(frozen=True)
class TvdEvaluation:
    """A total variation distance value together with its provenance.

    ``method`` is one of the METHOD_* tags in this module; ``terms_used``
    counts series terms / integrand evaluations where that is meaningful;
    ``err_estimate`` is an absolute error estimate for ``value``.
    """

    value: float
    method: str
    terms_used: int = 0
    err_estimate: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise DomainError(f"total variation distance must lie in [0, 1], got {self.value!r}")
