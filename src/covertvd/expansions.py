"""Incomplete-gamma expansion machinery.

Provides
--------
coeffs_c                : expansion coefficients c_k(a) and c*_k(a)
phi_linear              : Phi_k(z - a) sequence for the linear-argument regimes
phi_transition          : Phi_k(a, z) sequence for the transition regime
gamma_series_lower      : regularized gamma(a+1, z) / Gamma(a+1), z below a
gamma_series_upper      : regularized Gamma(a+1, z) / Gamma(a+1), z above a
gamma_series_transition : regularized Gamma(a+1, z) / Gamma(a+1), z near a
stirling_gamma_halfn    : large-n asymptotic of ln Gamma(n/2)

The three series target different argument regimes of the shape a:

* lower  (z well below a): convergent expansion of the lower function,
  e^(-z) z^(a+1) sum c_k(a) Phi_k(z - a);
* upper  (z well above a): the matching expansion of the upper function
  with c*_k(a) / (z - a)^(k+1) terms.  It is asymptotic, not convergent,
  so summation stops at the smallest-magnitude term when that happens
  before the requested order (classical optimal truncation).  The same
  early stop is applied to the lower series, whose terms also grow past
  an optimal index at practical arguments;
* transition (|z - a| <= a^(2/3)): erfc-based expansion around z ~ a.

All prefactors e^(-z) z^(a+1) / Gamma(a+1) are evaluated as exp(log-sum)
so blocklengths n >= 1e3 neither overflow nor underflow.

Each quantity is computed once, by its recurrence.  The identities that
cross-check the recurrences (c*_k = (-1)^k k! c_k, and the closed-form
Phi_k sum in phi_linear_closed_form) are verified by the test suite, not
at run time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import DomainError, OrderError, RegimeError
from .special import erfc
from .types import check_int

#: Largest supported truncation order; k! c_k growth stays inside double
#: range with headroom below this.
MAX_ORDER = 60


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Coefficient pair (c_k, c*_k) for the linear-argument expansions.

    c_0 = 1 and c_1 = 0; mathematically c*_k = (-1)^k k! c_k for every k,
    an identity the test suite checks against the two recurrences.
    """

    a: float
    c: tuple[float, ...]
    c_star: tuple[float, ...]


@dataclass(frozen=True)
class PhiSequence:
    """Auxiliary sequence Phi_0..Phi_K at shape a and argument z."""

    values: tuple[float, ...]
    a: float
    z: float


def _check_order(K: int) -> None:
    K = check_int(K, 0, "truncation order must be a nonnegative integer")
    if K > MAX_ORDER:
        raise OrderError(f"truncation order {K} exceeds the supported maximum {MAX_ORDER}")


def _check_shape(a: float) -> None:
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"shape parameter must be finite and positive, got {a!r}")


def coeffs_c(a: float, K: int) -> ExpansionCoeffs:
    """Coefficients c_0..c_K and c*_0..c*_K of the linear-argument expansions.

    c_k follows the recurrence c_{k+1} = [k c_k - a c_{k-1}] / (k+1); the
    defining double sum collapses to 1 and 0 for k = 0, 1, which seed it.
    c*_k follows c*_{k+1} = -k [c*_k + a c*_{k-1}]; in exact arithmetic
    c*_k = (-1)^k k! c_k, and both float recurrences drift from it only by
    rounding at high k or degenerate shapes a ~ 1.
    """
    _check_shape(a)
    _check_order(K)
    c = [1.0, 0.0]
    for k in range(1, K):
        c.append((k * c[k] - a * c[k - 1]) / (k + 1))

    c_star = [1.0, 0.0]
    for k in range(1, K):
        c_star.append(-k * (c_star[k] + a * c_star[k - 1]))
    return ExpansionCoeffs(a=a, c=tuple(c[: K + 1]), c_star=tuple(c_star[: K + 1]))


def _transition_coeffs(a: float, K: int) -> tuple[float, ...]:
    """Transition-regime coefficients: c_0 = 1, c_1 = c_2 = 0, then
    c_{k+1} = [a c_{k-2} - k c_k] / (k+1) for k >= 2."""
    c = [1.0, 0.0, 0.0]
    for k in range(2, K):
        c.append((a * c[k - 2] - k * c[k]) / (k + 1))
    return tuple(c[: K + 1])


def phi_linear_closed_form(a: float, z: float, K: int) -> tuple[float, ...]:
    """Closed-form Phi_k(z - a) = k!/(a-z)^(k+1) - e^(z-a) sum_j k!/((k-j)! (a-z)^(j+1)).

    Literal evaluation of the displayed sum.  Cancellation grows like
    k!/|z-a|^k, so for small |z-a| and large k the result carries the
    corresponding loss of relative precision (see phi_linear).
    """
    _check_shape(a)
    _check_order(K)
    w = z - a
    if w == 0.0:
        raise RegimeError("Phi_k(z - a) is singular at z = a; use the transition regime")
    amz = -w
    ew = math.exp(w)
    out = []
    fact = 1.0
    for k in range(K + 1):
        if k > 0:
            fact *= k
        inner = math.fsum(fact / (math.factorial(k - j) * amz ** (j + 1)) for j in range(k + 1))
        out.append(fact / amz ** (k + 1) - ew * inner)
    return tuple(out)


def phi_linear(a: float, z: float, K: int) -> PhiSequence:
    """Phi_k(z - a) for k = 0..K by the forward recurrence
    Phi_k = [e^(z-a) - k Phi_{k-1}] / (z - a), seeded at
    Phi_0 = (e^(z-a) - 1)/(z - a).

    phi_linear_closed_form is the literal reference sum it is tested
    against.
    """
    _check_shape(a)
    _check_order(K)
    w = z - a
    if w == 0.0:
        raise RegimeError("Phi_k(z - a) is singular at z = a; use the transition regime")
    ew = math.exp(w)
    values = [math.expm1(w) / w]
    for k in range(1, K + 1):
        values.append((ew - k * values[k - 1]) / w)
    return PhiSequence(values=tuple(values), a=a, z=z)


def phi_transition(a: float, z: float, K: int) -> PhiSequence:
    """Transition-regime sequence Phi_k(a, z):

    Phi_0 = sqrt(pi / 2a) erfc((z-a)/sqrt(2a)),
    Phi_1 = e^(-(z-a)^2 / 2a) / a, and for k >= 2
    Phi_k = [(k-1) Phi_{k-2} + ((z-a)/a)^(k-1) e^(-(z-a)^2/2a)] / a.
    """
    _check_shape(a)
    _check_order(K)
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"argument must be finite and positive, got z={z!r}")
    d = z - a
    gauss = math.exp(-d * d / (2.0 * a))
    values = [math.sqrt(math.pi / (2.0 * a)) * erfc(d / math.sqrt(2.0 * a))]
    if K >= 1:
        values.append(gauss / a)
    for k in range(2, K + 1):
        values.append(((k - 1) * values[k - 2] + (d / a) ** (k - 1) * gauss) / a)
    return PhiSequence(values=tuple(values), a=a, z=z)


def _log_prefactor(a: float, z: float) -> float:
    """ln of e^(-z) z^(a+1) / Gamma(a+1)."""
    return -z + (a + 1.0) * math.log(z) - math.lgamma(a + 1.0)


def _sum_optimal(terms: list[float]) -> tuple[float, int]:
    """Sum (even, odd) term pairs until the pair envelope starts growing.

    The linear-regime series oscillate with period two (odd terms are
    suppressed by an extra half power of the shape), so the classical
    smallest-magnitude-term stop is applied to the pair envelope
    max(|t_2m|, |t_2m+1|) rather than to raw terms.  Returns
    (partial sum, number of terms included).
    """
    total = 0.0
    prev = math.inf
    used = 0
    for start in range(0, len(terms), 2):
        pair = terms[start:start + 2]
        env = max(abs(t) for t in pair)
        if env != 0.0:
            if env > prev:
                break
            prev = env
        total += math.fsum(pair)
        used += len(pair)
    return total, used


def _upper_terms(cf: ExpansionCoeffs, z: float) -> list[float]:
    d = z - cf.a
    return [cs / d ** (k + 1) for k, cs in enumerate(cf.c_star)]


def _lower_terms(cf: ExpansionCoeffs, z: float) -> list[float]:
    phi = phi_linear(cf.a, z, len(cf.c) - 1)
    return [ck * pk for ck, pk in zip(cf.c, phi.values)]


def _gamma_series_lower(cf: ExpansionCoeffs, z: float) -> tuple[float, int]:
    """Lower series at z from the coefficients of shape cf.a (coeffs_c has
    validated the shape and the order); returns (value, terms used)."""
    a = cf.a
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"argument must be finite and nonnegative, got z={z!r}")
    if z == 0.0:
        return 0.0, 0
    if z >= a:
        raise RegimeError(f"lower expansion requires z < a, got z={z}, a={a}")
    total, used = _sum_optimal(_lower_terms(cf, z))
    return math.exp(_log_prefactor(a, z)) * total, used


def _gamma_series_upper(cf: ExpansionCoeffs, z: float) -> tuple[float, int]:
    """Upper series at z, as _gamma_series_lower."""
    a = cf.a
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z!r}")
    if z <= a:
        raise RegimeError(f"upper expansion requires z > a, got z={z}, a={a}")
    total, used = _sum_optimal(_upper_terms(cf, z))
    return math.exp(_log_prefactor(a, z)) * total, used


def _transition_sum(a: float, phi: Sequence[float]) -> float:
    """Transition-regime sum a^(a+1) e^(-a) / Gamma(a+1) * sum_k c_k phi_k
    over the given Phi values (one sequence, or a difference of two)."""
    c = _transition_coeffs(a, len(phi) - 1)
    total = math.fsum(ck * pk for ck, pk in zip(c, phi))
    log_pre = (a + 1.0) * math.log(a) - a - math.lgamma(a + 1.0)
    return math.exp(log_pre) * total


def gamma_series_lower(a: float, z: float, K: int = 20) -> float:
    """Truncated expansion of gamma(a+1, z) / Gamma(a+1) for z below a.

    Accurate once a - z is several sqrt(a); near the transition point use
    gamma_series_transition instead.
    """
    return _gamma_series_lower(coeffs_c(a, K), z)[0]


def gamma_series_upper(a: float, z: float, K: int = 20) -> float:
    """Truncated expansion of Gamma(a+1, z) / Gamma(a+1) for z above a.

    The series is asymptotic, not convergent; summation stops at the
    smallest-magnitude term when that precedes order K.
    """
    return _gamma_series_upper(coeffs_c(a, K), z)[0]


def gamma_series_transition(a: float, z: float, K: int = 20) -> float:
    """Truncated transition expansion of Gamma(a+1, z) / Gamma(a+1) for z near a."""
    _check_shape(a)
    _check_order(K)
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"argument must be finite and positive, got z={z!r}")
    if abs(z - a) > a ** (2.0 / 3.0):
        raise RegimeError(
            f"transition expansion requires |z - a| <= a^(2/3), got |{z} - {a}| = {abs(z - a)}"
        )
    return _transition_sum(a, phi_transition(a, z, K).values)


def stirling_gamma_halfn(n: int) -> float:
    """Large-n asymptotic of ln Gamma(n/2): Stirling through Legendre's
    duplication identity, ln[e^(-n/2) (n/2)^(n/2) 2 sqrt(pi) / sqrt(n)].

    The exponentiated ratio to the true ln-gamma tends to 1 like
    1 - 1/(6n) + O(n^-2); at n = 2 the approximation is 0.922 against
    Gamma(1) = 1, the documented inaccuracy floor at tiny n.
    """
    n = check_int(n, 2, "blocklength must be an integer >= 2")
    half = 0.5 * n
    return -half + half * math.log(half) + math.log(2.0 * math.sqrt(math.pi)) - 0.5 * math.log(n)
