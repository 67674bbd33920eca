"""Core parameter and result types shared across modules."""

from __future__ import annotations

import math
import operator
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
        n = check_int(self.n, 1, "blocklength must be a positive integer")
        object.__setattr__(self, "n", n)  # frozen; stores a Python int, not a numpy integer
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise DomainError(f"noise variance must be finite and positive, got {self.sigma2!r}")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise DomainError(f"snr must be finite and nonnegative, got {self.theta!r}")

    @classmethod
    def from_tau(cls, n: int, tau: float, sigma2: float = 1.0) -> "ChannelPoint":
        """Point on the power scaling law theta = n**(-tau)."""
        if not (math.isfinite(tau) and 0.0 < tau < 1.0):
            raise DomainError(f"scaling exponent must lie in (0, 1), got {tau!r}")
        n = check_int(n, 1, "blocklength must be a positive integer")
        return cls(n=n, sigma2=sigma2, theta=float(n) ** (-tau))

    @property
    def signal_power(self) -> float:
        """Per-symbol signal power p_n = theta * sigma2."""
        return self.theta * self.sigma2

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
