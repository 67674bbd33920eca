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

The series evaluators each run one loop: _gamma_series_upper advances c*_k,
and _gamma_series_lower advances c_k and Phi_k(z - a), pair of terms by
pair, applying the pair-envelope optimal truncation as they go, so no term
past the pair that stops the sum is formed.  _transition_sum advances
Phi_k(a, z), Phi_k(a, z') and the transition coefficients in one pass and
sums the terms with one fsum.  coeffs_c, phi_linear, phi_transition and
_transition_coeffs build the same sequences whole; the test suite sums
them with the truncation rule written out and checks the evaluators
against that bit for bit, together with the identities that cross-check
the recurrences (c*_k = (-1)^k k! c_k, and the literal closed-form Phi_k
sum).  None of these checks runs at evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError, OrderError, RegimeError
from .special import _gamma_log_density, _gamma_log_norm, erfc
from .types import check_int

#: Largest supported truncation order.  The coefficients grow like a^(k/2)
#: (linear series) or a^(k/3) (transition), so at huge shapes they overflow
#: below it: at K = 20 from a ~ 5e31 and 5e52.
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
    c, c_star = [1.0, 0.0], [1.0, 0.0]
    for k in range(1, K):
        c.append((k * c[k] - a * c[k - 1]) / (k + 1))
        c_star.append(-k * (c_star[k] + a * c_star[k - 1]))
    return ExpansionCoeffs(a=a, c=tuple(c[: K + 1]), c_star=tuple(c_star[: K + 1]))


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
    ew = math.exp(w)
    values = [math.expm1(w) / w]
    for k in range(1, K + 1):
        values.append((ew - k * values[-1]) / w)
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
        gauss *= d / a  # now ((z-a)/a)^(k-1) e^(-(z-a)^2/2a)
        values.append(((k - 1) * values[k - 2] + gauss) / a)
    return PhiSequence(values=tuple(values), a=a, z=z)


def _prefactor(a: float, z: float) -> float:
    """e^(-z) z^(a+1) / Gamma(a+1), the Gamma(a+1) density at z times z."""
    return math.exp(_gamma_log_density(a + 1.0, z, _gamma_log_norm(a + 1.0)))


# The linear-regime series oscillate with period two (odd terms are
# suppressed by an extra half power of the shape), so the classical
# smallest-magnitude-term stop of an asymptotic series is applied to the
# pair envelope max(|t_2m|, |t_2m+1|) rather than to raw terms: the sum
# takes (even, odd) pairs until a pair's envelope exceeds the last nonzero
# one, and leaves that pair out; at an even order K the last pair is the
# lone term t_K.  Each loop forms only the terms up to the pair that stops
# it, and returns (partial sum, number of terms included) before the
# prefactor _prefactor(a, z), which the caller applies.


def _gamma_series_upper(a: float, z: float, K: int) -> tuple[float, int]:
    """Upper-series sum of c*_k / (z - a)^(k+1), k = 0..K, at z > a, under
    the pair-envelope truncation, for a shape, order and finite z the
    caller has validated."""
    if z <= a:
        raise RegimeError(f"upper expansion requires z > a, got z={z}, a={a}")
    d = z - a
    total, prev = 0.0, math.inf
    c0, c1 = 1.0, 0.0  # c*_k and c*_(k+1) of the pair at k
    for k in range(0, K, 2):
        try:
            even = c0 / d ** (k + 1)
        except OverflowError:
            # d^(k+1) passed 1.8e308; at n <= 1e6 such a term is below
            # 1e-96 of the first one, 1/d, so it counts as 0.0
            even = 0.0
        try:
            odd = c1 / d ** (k + 2)
        except OverflowError:
            odd = 0.0
        env, odd_env = abs(even), abs(odd)
        if odd_env > env:
            env = odd_env
        if env > prev:
            return total, k
        if env:
            prev = env
        total += even + odd
        c0 = -(k + 1) * (c1 + a * c0)
        c1 = -(k + 2) * (c0 + a * c1)
    if K % 2 == 0:
        try:
            even = c0 / d ** (K + 1)
        except OverflowError:
            even = 0.0
        if abs(even) > prev:
            return total, K
        total += even
    return total, K + 1


def _gamma_series_lower(a: float, z: float, K: int) -> tuple[float, int]:
    """Lower-series sum of c_k Phi_k(z - a), k = 0..K, at z < a, as
    _gamma_series_upper."""
    if z >= a:
        raise RegimeError(f"lower expansion requires z < a, got z={z}, a={a}")
    w = z - a
    ew = math.exp(w)
    p0 = math.expm1(w) / w  # Phi_k of the pair at k
    total, prev = 0.0, math.inf
    c0, c1 = 1.0, 0.0  # c_k and c_(k+1)
    for k in range(0, K, 2):
        p1 = (ew - (k + 1) * p0) / w
        even = c0 * p0
        odd = c1 * p1
        env, odd_env = abs(even), abs(odd)
        if odd_env > env:
            env = odd_env
        if env > prev:
            return total, k
        if env:
            prev = env
        total += even + odd
        p0 = (ew - (k + 2) * p1) / w
        c0 = ((k + 1) * c1 - a * c0) / (k + 2)
        c1 = ((k + 2) * c0 - a * c1) / (k + 3)
    if K % 2 == 0:
        even = c0 * p0
        if abs(even) > prev:
            return total, K
        total += even
    return total, K + 1


#: 0.0, 1.0, ..., MAX_ORDER: the transition loop's counters as floats, so
#: its K passes multiply and divide without int-to-float conversions (the
#: same bits).
_ORDERS = tuple(map(float, range(MAX_ORDER + 1)))


def _transition_sum(a: float, g: float, f: float | None, K: int) -> float:
    """Transition series at z = g less the same series at z = f (none when
    f is None): a^(a+1) e^(-a) / Gamma(a+1) sum_k c_k [Phi_k(a, g) - Phi_k(a, f)],
    k = 0..K, for a shape, order and arguments the caller has validated.

    One pass advances the coefficients of _transition_coeffs and the two
    sequences of phi_transition, rolling their last values in locals, and one
    fsum adds the K + 1 terms.  f = None seeds its side with zeros, which the
    recurrence keeps at exactly 0.0.
    """
    root, scale = math.sqrt(2.0 * a), math.sqrt(math.pi / (2.0 * a))
    dg = g - a
    pg, gauss_g, ratio_g = scale * math.erfc(dg / root), math.exp(-dg * dg / (2.0 * a)), dg / a
    if f is None:
        pf = gauss_f = ratio_f = 0.0
    else:
        df = f - a
        pf, gauss_f, ratio_f = scale * math.erfc(df / root), math.exp(-df * df / (2.0 * a)), df / a
    terms = [pg - pf]  # c_0 = 1
    append = terms.append
    # at the top of pass k: qg, pg = Phi_(k-2), Phi_(k-1) with Phi_-1 = 0;
    # c3, c2, c1 = c_(k-3), c_(k-2), c_(k-1) with c_-2 = c_-1 = 0; k_prev = k - 1
    qg = qf = c3 = c2 = k_prev = 0.0
    c1 = 1.0
    for k in _ORDERS[1 : K + 1]:
        qg, pg = pg, (k_prev * qg + gauss_g) / a
        qf, pf = pf, (k_prev * qf + gauss_f) / a
        gauss_g *= ratio_g  # ((z-a)/a)^k e^(-(z-a)^2/2a)
        gauss_f *= ratio_f
        c3, c2, c1 = c2, c1, (a * c3 - k_prev * c1) / k
        append(c1 * (pg - pf))
        k_prev = k
    return _prefactor(a, a) * math.fsum(terms)


def _finite_sum(value: float, name: str, a: float, z: float, K: int) -> float:
    """value, unless it is not finite: at huge shapes the coefficient
    recurrences overflow and a NaN or infinite term enters the sum."""
    if not math.isfinite(value):
        raise AccuracyError(
            f"{name} sum is {value} at a={a}, z={z}, K={K}: "
            f"its coefficients overflow the double range"
        )
    return value


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
    total, _ = _gamma_series_lower(a, z, K)
    return _finite_sum(_prefactor(a, z) * total, "lower series", a, z, K)


def gamma_series_upper(a: float, z: float, K: int = 20) -> float:
    """Truncated expansion of Gamma(a+1, z) / Gamma(a+1) for z above a.

    The series is asymptotic, not convergent; summation stops at the
    smallest-magnitude term when that precedes order K.
    """
    _check_shape(a)
    _check_order(K)
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z!r}")
    total, _ = _gamma_series_upper(a, z, K)
    return _finite_sum(_prefactor(a, z) * total, "upper series", a, z, K)


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
    return _finite_sum(_transition_sum(a, z, None, K), "transition series", a, z, K)


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
