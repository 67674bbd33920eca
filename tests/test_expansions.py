"""Expansion coefficients, Phi sequences, the three series evaluators, and
the large-n ln Gamma(n/2) asymptotic."""

import math
from fractions import Fraction

import pytest

from covertvd.errors import DomainError, OrderError, RegimeError
from covertvd.expansions import (
    _gamma_series_lower,
    _gamma_series_upper,
    _prefactor,
    _transition_coeffs,
    _transition_sum,
    coeffs_c,
    phi_linear,
    phi_transition,
    stirling_gamma_halfn,
)
from covertvd.special import reg_lower_gamma, reg_upper_gamma
from covertvd.tvd import fg
from covertvd.types import ChannelPoint

#: (a, g) pairs the low-tau tvd_series path visits at K = 20: a = n/2 - 1
#: and g from fg at theta = n^(-tau).
SERIES_PAIRS = [
    (0.5 * n - 1.0, fg(ChannelPoint.from_tau(n, tau)).g)
    for n in (10**3, 10**4, 10**5, 10**6)
    for tau in (0.25, 0.35, 0.45)
]


def c_defining_sum(a: int, k: int) -> float:
    """Direct evaluation of c_k(a) = sum_j [(-a)_j / j!] [a^(k-j) / (k-j)!]
    with (-a)_j the rising factorial of -a.

    Exact rational arithmetic: the sum cancels ~k/2 orders of magnitude in
    a, which doubles cannot survive at a = 1000, k = 10.
    """
    total = Fraction(0)
    rising = Fraction(1)
    for j in range(k + 1):
        if j > 0:
            rising *= Fraction(-a + (j - 1))
        total += rising / math.factorial(j) * Fraction(a) ** (k - j) / math.factorial(k - j)
    return float(total)


def phi_linear_closed_form(a: float, z: float, K: int) -> tuple[float, ...]:
    """Closed-form Phi_k(z - a) = k!/(a-z)^(k+1) - e^(z-a) sum_j k!/((k-j)! (a-z)^(j+1)).

    Literal evaluation of the displayed sum, the reference phi_linear's
    recurrence is tested against.  Cancellation grows like k!/|z-a|^k, so
    for small |z-a| and large k the result carries the corresponding loss
    of relative precision.
    """
    amz = a - z
    ew = math.exp(z - a)
    out = []
    fact = 1.0
    for k in range(K + 1):
        if k > 0:
            fact *= k
        inner = math.fsum(fact / (math.factorial(k - j) * amz ** (j + 1)) for j in range(k + 1))
        out.append(fact / amz ** (k + 1) - ew * inner)
    return tuple(out)


def phi_decay_ratios(seq):
    """Ratios |Phi_k| |z-a|^(k+1) / k!; bounded when the stated decay
    |Phi_k| = O(|z-a|^(-k-1)) holds."""
    w = abs(seq.z - seq.a)
    out = []
    fact = 1.0
    for k, v in enumerate(seq.values):
        if k > 0:
            fact *= k
        out.append(abs(v) * w ** (k + 1) / fact)
    return tuple(out)


def pair_envelope_sum(terms):
    """The linear series' optimal truncation, written out: (t_2m, t_2m+1)
    pairs are summed until a pair's envelope max(|t_2m|, |t_2m+1|) exceeds
    the last nonzero envelope, and that pair is left out; with an odd number
    of terms the last pair is a lone term.  Returns (sum, terms included)."""
    total, used, prev = 0.0, 0, math.inf
    for m in range(0, len(terms), 2):
        pair = terms[m : m + 2]
        env = max(abs(t) for t in pair)
        if env != 0.0:
            if env > prev:
                break
            prev = env
        total += math.fsum(pair)
        used += len(pair)
    return total, used


def upper_terms(a, z, K):
    """c*_k / (z - a)^(k+1), k = 0..K, from coeffs_c; a term whose power of
    z - a passes double range counts as 0.0."""
    d = z - a
    terms = []
    for k, cs in enumerate(coeffs_c(a, K).c_star):
        try:
            terms.append(cs / d ** (k + 1))
        except OverflowError:
            terms.append(0.0)
    return terms


def lower_terms(a, z, K):
    """c_k Phi_k(z - a), k = 0..K, from coeffs_c and phi_linear."""
    return [c * p for c, p in zip(coeffs_c(a, K).c, phi_linear(a, z, K).values)]


def transition_reference(a, g, f, K):
    """Transition series at g less the series at f (none when f is None),
    from _transition_coeffs and phi_transition."""
    phi_g = phi_transition(a, g, K).values
    phi_f = (0.0,) * (K + 1) if f is None else phi_transition(a, f, K).values
    diffs = [pg - pf for pg, pf in zip(phi_g, phi_f)]
    return _prefactor(a, a) * math.fsum(c * d for c, d in zip(_transition_coeffs(a, K), diffs))


def series_lower(a, z, K=20):
    """gamma(a+1, z) / Gamma(a+1) by the lower series, as tvd_series forms it."""
    return _prefactor(a, z) * _gamma_series_lower(a, z, K)[0]


def series_upper(a, z, K=20):
    """Gamma(a+1, z) / Gamma(a+1) by the upper series, as tvd_series forms it."""
    return _prefactor(a, z) * _gamma_series_upper(a, z, K)[0]


def series_transition(a, z, K=20):
    """Gamma(a+1, z) / Gamma(a+1) by the transition series."""
    return _transition_sum(a, z, None, K)


class TestCoeffs:
    def test_order_zero(self):
        assert coeffs_c(7.3, 0).c == (1.0,)

    def test_small_orders_at_a10(self):
        cf = coeffs_c(10.0, 2)
        assert cf.c == (1.0, 0.0, -5.0)
        assert cf.c_star[2] == pytest.approx(-10.0, abs=1e-12)

    @pytest.mark.parametrize("a", [10, 100, 1000])
    def test_recurrence_matches_defining_sum(self, a):
        cf = coeffs_c(float(a), 10)
        for k in range(11):
            expected = c_defining_sum(a, k)
            assert cf.c[k] == pytest.approx(expected, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("a", [10.0, 100.0, 1000.0])
    def test_star_identity(self, a):
        cf = coeffs_c(a, 15)
        for k in range(16):
            ident = (-1.0) ** k * math.factorial(k) * cf.c[k]
            assert cf.c_star[k] == pytest.approx(ident, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("a", sorted({a for a, _ in SERIES_PAIRS}))
    def test_star_identity_on_series_shapes(self, a):
        # the low orders, where the sign-scale class of bug shows as an O(1)
        # disagreement from k = 2 on; higher orders carry the rounding drift
        # both float recurrences accumulate
        cf = coeffs_c(a, 20)
        fact = 1.0
        for k in range(7):
            if k > 0:
                fact *= k
            ident = (-1.0) ** k * fact * cf.c[k]
            assert abs(cf.c_star[k] - ident) <= 1e-10 * max(abs(ident), 1.0)

    @pytest.mark.parametrize("a", [100.0, 1000.0, 10000.0])
    def test_growth_envelope(self, a):
        # |c_k| = O(a^floor(k/2)); the normalized magnitudes stay bounded
        cf = coeffs_c(a, 8)
        for k in range(9):
            assert abs(cf.c[k]) / a ** (k // 2) <= 1.0

    def test_order_error(self):
        with pytest.raises(OrderError):
            coeffs_c(10.0, 61)
        coeffs_c(10.0, 60)  # boundary is allowed

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            coeffs_c(-1.0, 5)
        with pytest.raises(DomainError):
            coeffs_c(10.0, -1)


class TestPhiLinear:
    def test_phi0_closed_form(self):
        # a - z = 1: Phi_0 = 1 - e^(-1)
        seq = phi_linear(10.0, 9.0, 0)
        assert seq.values[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_recurrence_equals_closed_form_reference_point(self):
        seq = phi_linear(500.0, 450.0, 10)
        closed = phi_linear_closed_form(500.0, 450.0, 10)
        for r, c in zip(seq.values, closed):
            assert r == pytest.approx(c, rel=1e-10)

    @pytest.mark.parametrize("w", [-100.0, -50.0, -10.0, 10.0, 50.0, 100.0])
    def test_recurrence_equals_closed_form_wide(self, w):
        a = 500.0
        seq = phi_linear(a, a + w, 10)
        closed = phi_linear_closed_form(a, a + w, 10)
        for r, c in zip(seq.values, closed):
            assert r == pytest.approx(c, rel=1e-10)

    @pytest.mark.parametrize("w", [-2.0, -1.0, 1.0, 2.0])
    def test_recurrence_equals_closed_form_narrow_low_order(self, w):
        # at |z - a| ~ 1 the dual evaluation only holds to low order; the
        # k! cancellation in both routes eats ~8 digits by k = 10
        a = 50.0
        seq = phi_linear(a, a + w, 5)
        closed = phi_linear_closed_form(a, a + w, 5)
        for r, c in zip(seq.values, closed):
            assert r == pytest.approx(c, rel=1e-10)

    @pytest.mark.parametrize("a, g", SERIES_PAIRS)
    def test_recurrence_equals_closed_form_on_series_arguments(self, a, g):
        # compare wherever the literal sum keeps enough digits: skip orders
        # whose condition number (largest term over result) exceeds 1e6
        K = 20
        seq = phi_linear(a, g, K)
        closed = phi_linear_closed_form(a, g, K)
        w = g - a
        fact = 1.0
        checked = 0
        for k in range(K + 1):
            if k > 0:
                fact *= k
            if closed[k] == 0.0 or (fact / abs(w) ** (k + 1)) / abs(closed[k]) > 1e6:
                continue
            assert abs(seq.values[k] - closed[k]) <= 1e-6 * abs(closed[k])
            checked += 1
        assert checked > 0

    def test_decay_with_argument(self):
        # Phi_k -> 0 like |z-a|^(-k-1); the normalized ratios stay bounded
        for w in (-1000.0, -100.0):
            seq = phi_linear(2000.0, 2000.0 + w, 8)
            assert all(abs(v) <= 1.1 / abs(w) for v in seq.values[:1])
            assert max(phi_decay_ratios(seq)) <= 1.5

    def test_singularity(self):
        with pytest.raises(RegimeError):
            phi_linear(10.0, 10.0, 3)


class TestPhiTransition:
    def test_values_at_transition_point(self):
        a = 400.0
        seq = phi_transition(a, a, 1)
        assert seq.values[0] == pytest.approx(math.sqrt(math.pi / (2.0 * a)), rel=1e-14)
        assert seq.values[1] == pytest.approx(1.0 / a, rel=1e-14)

    def test_order_two_against_oracle(self):
        mp = pytest.importorskip("mpmath")
        a, z = 250.0, 260.0
        d = z - a
        gauss = math.exp(-d * d / (2.0 * a))
        phi0 = math.sqrt(math.pi / (2.0 * a)) * float(mp.erfc(d / math.sqrt(2.0 * a)))
        phi1 = gauss / a
        phi2 = (phi0 + (d / a) * gauss) / a
        seq = phi_transition(a, z, 2)
        assert seq.values[0] == pytest.approx(phi0, rel=1e-12)
        assert seq.values[2] == pytest.approx(phi2, rel=1e-12)
        assert seq.values[1] == pytest.approx(phi1, rel=1e-14)


class TestGammaSeriesLower:
    def test_error_decreases_with_order_until_floor(self):
        a = 499.0
        z = a - 3.0 * math.sqrt(a)
        truth = reg_lower_gamma(a + 1.0, z)
        errs = [abs(series_lower(a, z, K) - truth) / truth for K in (0, 2, 6, 10)]
        assert errs[1] <= errs[0]
        assert errs[2] <= errs[1]
        assert errs[3] <= errs[2]
        assert errs[3] <= 1e-2

    def test_deep_regime_accuracy(self):
        a = 499.0
        z = a - 5.0 * math.sqrt(a)
        truth = reg_lower_gamma(a + 1.0, z)
        assert series_lower(a, z, 20) == pytest.approx(truth, rel=1e-4)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            _gamma_series_lower(499.0, 499.0, 10)
        with pytest.raises(RegimeError):
            _gamma_series_lower(499.0, 510.0, 10)


class TestGammaSeriesUpper:
    def test_deep_regime_accuracy(self):
        a = 499.0
        z = a + 5.0 * math.sqrt(a)
        truth = reg_upper_gamma(a + 1.0, z)
        assert series_upper(a, z, 24) == pytest.approx(truth, rel=1e-4)

    def test_very_deep_regime_accuracy(self):
        a = 499.0
        z = a + 8.0 * math.sqrt(a)
        truth = reg_upper_gamma(a + 1.0, z)
        assert series_upper(a, z, 24) == pytest.approx(truth, rel=1e-8)

    def test_upper_tail_vanishes(self):
        assert series_upper(499.0, 499.0 + 60.0 * math.sqrt(499.0), 20) < 1e-250

    def test_smallest_term_index_grows_with_argument(self):
        a = 499.0
        stops = []
        for mult in (2.0, 5.0, 8.0):
            stops.append(_gamma_series_upper(a, a + mult * math.sqrt(a), 24)[1])
        assert all(b >= s for s, b in zip(stops, stops[1:]))
        assert stops[-1] > stops[0]

    def test_terms_past_double_range_count_as_zero(self):
        # f at n = 602559, tau = 0.001: d^(k+1) overflows at k = 60 only
        a, z = 301278.5, 416436.827728649
        with pytest.raises(OverflowError):
            (z - a) ** 61
        terms = upper_terms(a, z, 60)
        assert terms[60] == 0.0 and terms[59] != 0.0
        # the terms decrease throughout, so all 61 enter the sum
        assert _gamma_series_upper(a, z, 60) == pair_envelope_sum(terms)
        assert _gamma_series_upper(a, z, 60)[1] == 61

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            _gamma_series_upper(499.0, 499.0, 10)
        with pytest.raises(RegimeError):
            _gamma_series_upper(499.0, 490.0, 10)


class TestGammaSeriesTransition:
    def test_leading_term_at_midpoint(self):
        # at z = a, K = 0 the series reduces to ~1/2 for large a
        assert abs(series_transition(249.0, 249.0, 0) - 0.5) < 5e-3
        assert abs(series_transition(2499.0, 2499.0, 0) - 0.5) < 5e-4

    def test_accuracy_above_transition(self):
        a = 499.0
        z = a + 0.5 * math.sqrt(a)
        truth = reg_upper_gamma(a + 1.0, z)
        assert series_transition(a, z, 10) == pytest.approx(truth, rel=1e-4)
        assert series_transition(a, z, 20) == pytest.approx(truth, rel=1e-6)

    def test_vanishing_coefficients(self):
        # c_1 = c_2 = 0, so orders 1 and 2 add nothing beyond order 0's Phi
        assert _transition_coeffs(499.0, 4) == (1.0, 0.0, 0.0, 499.0 / 3.0, -499.0 / 4.0)
        a, z = 499.0, 505.0
        k1 = series_transition(a, z, 1)
        k2 = series_transition(a, z, 2)
        assert k2 == k1


def series_with_mpmath_prefactor(series, a, z, K=20):
    """The truncated series' own double-precision sum (the optimal-truncation
    sum for the linear series, the transition sum at z) times its prefactor
    e^(-w) w^(a+1) / Gamma(a+1) in 50-digit mpmath, w = z (w = a for the
    transition series)."""
    mp = pytest.importorskip("mpmath")
    if series is series_transition:
        phi = phi_transition(a, z, K).values
        total = math.fsum(c * p for c, p in zip(_transition_coeffs(a, K), phi))
        z = a
    else:
        loop = _gamma_series_lower if series is series_lower else _gamma_series_upper
        total = loop(a, z, K)[0]
    with mp.workdps(50):
        w, b = mp.mpf(z), mp.mpf(a) + 1
        return float(mp.exp(-w + b * mp.log(w) - mp.loggamma(b)) * total)


class TestHugeShapePrefactor:
    # the prefactor's log has no a ln a term, so at huge shapes each series
    # returns its own truncated value.  The value may leave [0, 1]: a - z is
    # only ~sqrt(a) in several cases, outside the series' regime.  Past
    # a = 2^53, a + 1 rounds, which moves the prefactor by about |z - a|/a.
    @pytest.mark.parametrize("series, a, z", [
        (series_lower, 3.3375630981492705e18, 3.337563079880272e18),
        (series_upper, 5e17, 5e17 + 1e10),
        (series_transition, 4.909384718029592e17, 4.909384718029592e17),
        (series_lower, 1e18, 1e18 - 1e9),
        (series_lower, 1e19, 1e19 - 1e9),
        (series_upper, 1e19, 1e19 + 1e10),
    ])
    def test_accuracy_error(self, series, a, z):
        # the value's error against the same sum with a 50-digit prefactor
        ref = series_with_mpmath_prefactor(series, a, z)
        assert ref != 0.0
        assert abs(series(a, z) - ref) <= 1e-6 * abs(ref)

    def test_threshold_is_a_log_a(self):
        # a ln a = 0.1/eps (a ~ 1.48e13) is no threshold: on both sides of it
        # (a + 1 still exact) the transition series has its full precision
        for a in (1.4e13, 1.6e13):
            ref = series_with_mpmath_prefactor(series_transition, a, a)
            assert 0.0 < ref < 1.0
            assert abs(series_transition(a, a) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("series, a, z", [
        (series_lower, 2e13, 1.0),
        (series_lower, 5e13, 0.75 * 5e13),
        (series_upper, 5e13, 1.3 * 5e13),
        (series_upper, 1e19, 2e19),
    ])
    def test_prefactor_far_below_double_range_is_zero(self, series, a, z):
        # the prefactor's log is about -1e12 or below
        assert series(a, z) == 0.0


class TestStirling:
    def test_ratio_near_one_at_large_n(self):
        n = 10**4
        ratio = math.exp(stirling_gamma_halfn(n) - math.lgamma(0.5 * n))
        assert abs(ratio - 1.0) <= 1e-4

    def test_tiny_n_inaccuracy_documented(self):
        # Gamma(1) = 1; the asymptotic lands ~8% low at n = 2
        approx = math.exp(stirling_gamma_halfn(2))
        assert approx == pytest.approx(0.9221370088957891, rel=1e-12)
        assert abs(approx - 1.0) > 0.05

    def test_ratio_monotone_to_one(self):
        ratios = [
            math.exp(stirling_gamma_halfn(n) - math.lgamma(0.5 * n))
            for n in (10**2, 10**3, 10**4, 10**5)
        ]
        assert all(r < 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            stirling_gamma_halfn(1)


class TestSeriesLoops:
    """The evaluators' loops against the sequences built by coeffs_c,
    phi_linear, phi_transition and _transition_coeffs, summed by the
    truncation rule written out in this module: every bit and count equal."""

    @pytest.mark.parametrize("K", (0, 1, 2, 3, 4, 5, 6, 20, 21, 60))
    @pytest.mark.parametrize("mult", (0.5, 2.0, 5.0, 20.0))
    def test_linear_series(self, K, mult):
        a = 499.0
        z_lo, z_hi = a - mult * math.sqrt(a), a + mult * math.sqrt(a)
        assert _gamma_series_lower(a, z_lo, K) == pair_envelope_sum(lower_terms(a, z_lo, K))
        assert _gamma_series_upper(a, z_hi, K) == pair_envelope_sum(upper_terms(a, z_hi, K))

    @pytest.mark.parametrize("K", (0, 1, 2, 3, 4, 20, 60))
    @pytest.mark.parametrize("z", (480.0, 499.0, 530.0))
    def test_transition_series(self, K, z):
        assert _transition_sum(499.0, z, None, K) == transition_reference(499.0, z, None, K)


def test_lower_terms_match_coefficient_phi_product():
    # the lower-series terms are exactly c_k * Phi_k(z - a): at a = 499,
    # z = 432 they grow again within K = 20, so the sum stops short of it on
    # a pair boundary, and every bit and the count match the products of
    # coeffs_c and phi_linear summed by the rule written out above
    a, z = 499.0, 432.0
    cf = coeffs_c(a, 20)
    phi = phi_linear(a, z, 20)
    terms = [ck * pk for ck, pk in zip(cf.c, phi.values)]
    total, used = _gamma_series_lower(a, z, 20)
    assert used < 21 and used % 2 == 0
    assert (total, used) == pair_envelope_sum(terms)
