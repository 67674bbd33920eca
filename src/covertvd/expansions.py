"""Incomplete-gamma expansion machinery.

Provides
--------
coeffs_c                : expansion coefficients c_k(a) and c*_k(a)
phi_linear              : Phi_k(z - a) sequence for the linear-argument regimes
phi_transition          : Phi_k(a, z) sequence for the transition regime
gamma_series_lower      : regularized gamma(a+1, z) / Gamma(a+1), z below a
gamma_series_upper      : regularized Gamma(a+1, z) / Gamma(a+1), z above a
gamma_series_transition : regularized Gamma(a+1, z) / Gamma(a+1), z near a
stirling_gamma_halfn    : the paper's ln Gamma(n/2) asymptotic, for comparison

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

Every prefactor e^(-z) z^(a+1) / Gamma(a+1) is exp of the scaled Gamma(a+1)
log density special._gamma_log_density, which has no term of size a ln a,
so it keeps its digits at every shape, huge blocklengths included.

Each recurrence lives in one private generator (_c, _c_star, _phi_linear):
coeffs_c and phi_linear collect it, and the linear-regime series draw from
it lazily, up to the pair of terms that stops the optimal truncation.  The
identities that cross-check the recurrences (c*_k = (-1)^k k! c_k, and the
literal closed-form Phi_k sum) are verified by the test suite, not at run
time.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .errors import DomainError, OrderError, RegimeError
from .special import _gamma_log_density, _gamma_log_norm, erfc
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


def _c(a: float, K: int) -> Iterator[float]:
    """c_0..c_K of coeffs_c, drawn one at a time."""
    prev, cur = 1.0, 0.0
    yield prev
    for k in range(1, K + 1):
        yield cur
        prev, cur = cur, (k * cur - a * prev) / (k + 1)


def _c_star(a: float, K: int) -> Iterator[float]:
    """c*_0..c*_K of coeffs_c, drawn one at a time."""
    prev, cur = 1.0, 0.0
    yield prev
    for k in range(1, K + 1):
        yield cur
        prev, cur = cur, -k * (cur + a * prev)


def _phi_linear(w: float, K: int) -> Iterator[float]:
    """Phi_0..Phi_K at w = z - a != 0, drawn one at a time:
    Phi_0 = (e^w - 1)/w, Phi_k = [e^w - k Phi_{k-1}] / w."""
    ew = math.exp(w)
    phi = math.expm1(w) / w
    yield phi
    for k in range(1, K + 1):
        phi = (ew - k * phi) / w
        yield phi


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
    return ExpansionCoeffs(a=a, c=tuple(_c(a, K)), c_star=tuple(_c_star(a, K)))


def _transition_coeffs(a: float, K: int) -> tuple[float, ...]:
    """Transition-regime coefficients: c_0 = 1, c_1 = c_2 = 0, then
    c_{k+1} = [a c_{k-2} - k c_k] / (k+1) for k >= 2."""
    c = [1.0, 0.0, 0.0]
    for k in range(2, K):
        c.append((a * c[k - 2] - k * c[k]) / (k + 1))
    return tuple(c[: K + 1])


def phi_linear(a: float, z: float, K: int) -> PhiSequence:
    """Phi_k(z - a) for k = 0..K by the forward recurrence
    Phi_k = [e^(z-a) - k Phi_{k-1}] / (z - a), seeded at
    Phi_0 = (e^(z-a) - 1)/(z - a).

    The test suite checks it against the literal closed-form sum
    Phi_k = k!/(a-z)^(k+1) - e^(z-a) sum_j k!/((k-j)! (a-z)^(j+1)).
    """
    _check_shape(a)
    _check_order(K)
    w = z - a
    if w == 0.0:
        raise RegimeError("Phi_k(z - a) is singular at z = a; use the transition regime")
    return PhiSequence(values=tuple(_phi_linear(w, K)), a=a, z=z)


def _phi_transition(a: float, z: float, K: int) -> list[float]:
    """Phi_0(a, z)..Phi_K(a, z) of phi_transition, for arguments it has
    validated."""
    d = z - a
    gauss = math.exp(-d * d / (2.0 * a))
    values = [math.sqrt(math.pi / (2.0 * a)) * erfc(d / math.sqrt(2.0 * a))]
    if K >= 1:
        values.append(gauss / a)
    for k in range(2, K + 1):
        gauss *= d / a  # now ((z-a)/a)^(k-1) e^(-(z-a)^2/2a)
        values.append(((k - 1) * values[k - 2] + gauss) / a)
    return values


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
    return PhiSequence(values=tuple(_phi_transition(a, z, K)), a=a, z=z)


def _prefactor(a: float, z: float) -> float:
    """e^(-z) z^(a+1) / Gamma(a+1), the Gamma(a+1) density at z times z."""
    return math.exp(_gamma_log_density(a + 1.0, z, _gamma_log_norm(a + 1.0)))


def _sum_optimal(terms: Iterator[float]) -> tuple[float, int]:
    """Sum (even, odd) term pairs drawn from terms until the pair envelope
    starts growing; no term past the first growing pair is drawn.

    The linear-regime series oscillate with period two (odd terms are
    suppressed by an extra half power of the shape), so the classical
    smallest-magnitude-term stop is applied to the pair envelope
    max(|t_2m|, |t_2m+1|) rather than to raw terms; the last pair may be a
    lone term.  Returns (partial sum, number of terms included).
    """
    total, used, prev = 0.0, 0, math.inf
    for even in terms:
        odd = next(terms, None)
        pair = (even,) if odd is None else (even, odd)
        env = max(map(abs, pair))
        if env != 0.0:
            if env > prev:
                break
            prev = env
        total += math.fsum(pair)
        used += len(pair)
    return total, used


def _upper_terms(a: float, z: float, K: int) -> Iterator[float]:
    """Upper-series terms c*_k / (z - a)^(k+1), k = 0..K, drawn one at a time."""
    d = z - a
    for k, cs in enumerate(_c_star(a, K)):
        try:
            term = cs / d ** (k + 1)
        except OverflowError:
            # d^(k+1) passed 1.8e308; at n <= 1e6 such a term is below
            # 1e-96 of the first one, 1/d, so it counts as 0.0
            term = 0.0
        yield term


def _lower_terms(a: float, z: float, K: int) -> Iterator[float]:
    """Lower-series terms c_k Phi_k(z - a), k = 0..K, drawn one at a time."""
    return map(operator.mul, _c(a, K), _phi_linear(z - a, K))


def _gamma_series_lower(a: float, z: float, K: int) -> tuple[float, int]:
    """(value, terms used) of the lower series at z < a, for a shape, order
    and finite z > 0 the caller has validated."""
    if z >= a:
        raise RegimeError(f"lower expansion requires z < a, got z={z}, a={a}")
    total, used = _sum_optimal(_lower_terms(a, z, K))
    return _prefactor(a, z) * total, used


def _gamma_series_upper(a: float, z: float, K: int) -> tuple[float, int]:
    """(value, terms used) of the upper series at z > a, as _gamma_series_lower."""
    if z <= a:
        raise RegimeError(f"upper expansion requires z > a, got z={z}, a={a}")
    total, used = _sum_optimal(_upper_terms(a, z, K))
    return _prefactor(a, z) * total, used


def _transition_sum(a: float, phi: Sequence[float]) -> float:
    """Transition-regime sum a^(a+1) e^(-a) / Gamma(a+1) * sum_k c_k phi_k
    over the given Phi values (one sequence, or a difference of two)."""
    c = _transition_coeffs(a, len(phi) - 1)
    return _prefactor(a, a) * math.fsum(ck * pk for ck, pk in zip(c, phi))


def gamma_series_lower(a: float, z: float, K: int = 20) -> float:
    """Truncated expansion of gamma(a+1, z) / Gamma(a+1) for z below a.

    Accurate once a - z is several sqrt(a); near the transition point use
    gamma_series_transition instead.
    """
    _check_shape(a)
    _check_order(K)
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"argument must be finite and nonnegative, got z={z!r}")
    if z == 0.0:
        return 0.0
    return _gamma_series_lower(a, z, K)[0]


def gamma_series_upper(a: float, z: float, K: int = 20) -> float:
    """Truncated expansion of Gamma(a+1, z) / Gamma(a+1) for z above a.

    The series is asymptotic, not convergent; summation stops at the
    smallest-magnitude term when that precedes order K.
    """
    _check_shape(a)
    _check_order(K)
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z!r}")
    return _gamma_series_upper(a, z, K)[0]


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
    return _transition_sum(a, _phi_transition(a, z, K))


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
