"""Baseline special functions the rest of the library treats as ground truth.

Provides
--------
reg_lower_gamma : regularized lower incomplete gamma P(a, z)
reg_upper_gamma : regularized upper incomplete gamma Q(a, z) = 1 - P(a, z)
chi2_cdf        : central chi-square CDF with n degrees of freedom
erfc            : complementary error function
q_fn, q_inv     : standard normal tail probability and its inverse

P(a, z) and Q(a, z) are scipy's gammainc / gammaincc, which switch to
Temme's uniform asymptotic expansion for large a near the transition
z ~ a (DiDonato & Morris, ACM TOMS 12, 1986), so shape parameters up to
a ~ 5e5 (blocklengths to 1e6) stay smooth in z.  Each side is evaluated
directly, so tiny tails keep full relative precision.  The wrappers
validate their arguments (DomainError) and raise AccuracyError rather than
pass on a non-finite result.

gammainc, gammaincc and ndtri are bound from scipy.special.cython_special,
scipy's compiled scalar API: the same C routines as the scipy.special
ufuncs, with the same bits, but called with Python floats and returning a
Python float, without the ufunc's type resolution and 0-d array boxing
(about 0.3 us per call instead of about 1.5 us).  Loading it costs about
4 ms more import time and about 1 MB more resident memory.
"""

from __future__ import annotations

import math

from scipy.special.cython_special import gammainc, gammaincc, ndtri

from .errors import AccuracyError, DomainError
from .types import check_int

_SQRT2 = math.sqrt(2.0)


def _check_gamma_args(a: float, z: float) -> None:
    if not (math.isfinite(a) and math.isfinite(z)):
        raise DomainError(f"incomplete gamma arguments must be finite, got a={a!r}, z={z!r}")
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got a={a!r}")
    if z < 0.0:
        raise DomainError(f"argument must be nonnegative, got z={z!r}")


def _finite(value: float, name: str, a: float, z: float) -> float:
    if not math.isfinite(value):
        raise AccuracyError(f"{name} returned {value!r} at a={a!r}, z={z!r}")
    return value


def reg_lower_gamma(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z) / Gamma(a)."""
    _check_gamma_args(a, z)
    return _finite(gammainc(a, z), "gammainc", a, z)


def reg_upper_gamma(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a, z) = Gamma(a, z) / Gamma(a).

    Evaluated directly (no 1 - P subtraction), which keeps tiny tails
    exact; the asymptotics and rate-fit sweeps rely on that.
    """
    _check_gamma_args(a, z)
    return _finite(gammaincc(a, z), "gammaincc", a, z)


def chi2_cdf(n: int, x: float) -> float:
    """CDF of the central chi-square distribution with n degrees of freedom.

    Identical call path to reg_lower_gamma(n/2, x/2).
    """
    n = check_int(n, 1, "degrees of freedom must be a positive integer")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi-square argument must be finite and nonnegative, got {x!r}")
    return reg_lower_gamma(0.5 * n, 0.5 * x)


def erfc(x: float) -> float:
    """Complementary error function erfc(x) = 1 - erf(x)."""
    if not math.isfinite(x):
        raise DomainError(f"erfc argument must be finite, got {x!r}")
    return math.erfc(x)


def q_fn(x: float) -> float:
    """Standard normal tail probability Q(x) = erfc(x / sqrt(2)) / 2."""
    if not math.isfinite(x):
        raise DomainError(f"Q-function argument must be finite, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inv(p: float) -> float:
    """Inverse of the normal tail: the x with Q(x) = p, for p in (0, 1)."""
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"tail probability must lie in (0, 1), got {p!r}")
    return -ndtri(p)
