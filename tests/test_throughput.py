"""Throughput approximations: converse, shell achievability, covert bounds."""

import math
import random

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2, norm

import covertvd.throughput
from covertvd.errors import DomainError, RegimeError
from covertvd.throughput import (
    _GOLDEN,
    _full_core,
    _report,
    KIND_ACH_FULL,
    KIND_ACH_NA,
    KIND_CONV_NA,
    KIND_COVERT_NEC,
    KIND_COVERT_SUF,
    achievability_full,
    achievability_na,
    b_mu,
    be_margin,
    capacity,
    converse_na,
    covert_throughput_bounds,
    dispersion,
    t_mu,
    truncation_mass,
    v_hat_mu,
)


def mp_t_mu(P, R, mu):
    """t_mu by 30-digit mpmath quadrature of |c q(z)|^3 phi(z), split at the
    roots z1 = -1/z2, z2 of q and at 0."""
    with mpmath.workdps(30):
        P, R, mu = mpmath.mpf(P), mpmath.mpf(R), mpmath.mpf(mu)
        c = 1 / (2 * mpmath.log(2) * (1 + mu * P))
        C, B = mu * P, 2 * mpmath.sqrt(R)
        z2 = (B + mpmath.sqrt(B * B + 4 * C * C)) / (2 * C)
        return +mpmath.quad(lambda z: abs(c * (C + B * z - C * z * z)) ** 3 * mpmath.npdf(z),
                            [-mpmath.inf, -1 / z2, 0, z2, mpmath.inf])


def golden_only(n, eps, P, mu):
    """achievability_full's rate search without the end test: golden section
    over [mu^2 P, P] to a bracket of width 1e-12 P, for a valid (n, eps, P,
    mu).  The differential reference for the end test."""
    delta_mass = truncation_mass(n, mu)

    def objective(R):
        return sum(_full_core(n, eps, P, mu, R, delta_mass))

    lo, hi = mu * mu * P, P
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(80):
        if hi - lo <= 1e-12 * P:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
    r_star = 0.5 * (lo + hi)
    first, second, rest = _full_core(n, eps, P, mu, r_star, delta_mass)
    log_tau0 = math.log2(eps) - (6.0 / 50.0) * math.log2(10.0)
    return _report(KIND_ACH_FULL, eps, first, second, rest + log_tau0, r_star)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def assert_matches_golden(case):
    """Same exception class as the golden-only search, or bits within
    1e-11 s and each term within 1e-10 s, s the largest term (at least 1)."""
    new, ref = outcome(achievability_full, *case), outcome(golden_only, *case)
    if isinstance(ref, type) or isinstance(new, type):
        assert new == ref, case
        return None
    terms = ("term_first", "term_second", "term_logn")
    s = max(1.0, *(abs(getattr(rep, t)) for rep in (new, ref) for t in terms))
    assert abs(new.bits - ref.bits) <= 1e-11 * s, case
    for t in terms:
        assert abs(getattr(new, t) - getattr(ref, t)) <= 1e-10 * s, (case, t)
    return new


# (n, eps, P, mu) where the bound has a local maximum at R = P but its
# maximum at R = mu^2 P: testing R = P alone would return -10.55 bits
# there, where the search finds -7.43
TWO_MAXIMA = (536932, 0.026747120549507047, 2.1453201257168092e-05, 0.13370339966392422)
# a local maximum at R = P, where the first probes point, and the maximum
# about half way from mu^2 P to P: the end passes the test against the
# point 1e-12 P inside it and fails the one against the better probe
LOCAL_MAX_AT_P = (48131720, 0.025027961197732315, 2.8068810903108193e-08, 0.2821205553189227)
# the first probes point to R = P, where the bound is vacuous (RegimeError)
# although it is defined at the probes and at its maximum inside
VACUOUS_AT_P = (479284, 0.02766641713929001, 0.0001756017530890654, 0.36038317410707466)


def count_moments(monkeypatch):
    counts = {"_t_mu": 0, "_check_power": 0}
    for name in counts:
        original = getattr(covertvd.throughput, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(covertvd.throughput, name, counting)
    return counts


class TestConverseNa:
    def test_median_error_kills_dispersion(self):
        n, P = 1000, 0.05
        rep = converse_na(n, 0.5, P)
        assert rep.term_second == pytest.approx(0.0, abs=1e-12)
        assert rep.bits == pytest.approx(n * capacity(P) + 0.5 * math.log2(n), rel=1e-12)

    def test_zero_power(self):
        rep = converse_na(1000, 1e-3, 0.0)
        assert rep.bits == pytest.approx(0.5 * math.log2(1000), rel=1e-14)

    def test_against_independent_quantile(self):
        # scipy's isf supplies the independent Q^{-1}
        n, eps, P = 2000, 1e-3, 0.0224
        ref = (n * 0.5 * math.log2(1.0 + P)
               - math.sqrt(n * dispersion(P)) * norm.isf(eps)
               + 0.5 * math.log2(n))
        rep = converse_na(n, eps, P)
        assert rep.bits == pytest.approx(ref, rel=1e-12)
        assert rep.kind == KIND_CONV_NA

    def test_decomposition(self):
        rep = converse_na(5000, 0.01, 0.1)
        assert rep.bits == rep.term_first + rep.term_second + rep.term_logn

    def test_residual_policy_stamped(self):
        rep = converse_na(5000, 0.01, 0.1)
        assert "O(1)" in rep.residuals and "log2(n)/2" in rep.residuals


class TestTruncationMass:
    def test_shell_empties_as_mu_to_one(self):
        assert truncation_mass(1000, 0.999999) < 1e-2

    def test_shell_fills_as_mu_to_zero(self):
        assert truncation_mass(1000, 1e-6) == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy_chi2(self):
        val = truncation_mass(1000, 0.8)
        ref = chi2.cdf(1000 / 0.8, 1000) - chi2.cdf(800.0, 1000)
        assert val == pytest.approx(ref, abs=1e-12)

    def test_sphere_hardening(self):
        vals = [truncation_mass(n, 0.8) for n in (100, 1000, 10000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0 - 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            truncation_mass(1000, 1.0)
        with pytest.raises(DomainError):
            truncation_mass(0, 0.5)

    def test_blocklength_beyond_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            truncation_mass(10**400, 0.5)
        with pytest.raises(DomainError, match="double range"):
            converse_na(10**400, 0.1, 0.01)


class TestMomentMachinery:
    def test_third_moment_vanishes_at_zero_power(self):
        assert t_mu(0.0, 0.0, 0.5) == 0.0

    def test_vhat_reduces_to_dispersion(self):
        # at R = P the shell dispersion equals the channel dispersion
        P = 0.0224
        assert v_hat_mu(P, P) == pytest.approx(dispersion(P), rel=1e-14)

    def test_vhat_linear_in_r(self):
        P = 0.0224
        lo, hi = v_hat_mu(P, 0.5 * P), v_hat_mu(P, P)
        mid = v_hat_mu(P, 0.75 * P)
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-14)

    def test_quadrature_matches_monte_carlo(self):
        # 1e7-sample seeded check of the closed form against sampling
        P, mu = 0.0224, 0.8
        R = mu * P
        rng = np.random.default_rng(20260808)
        z = rng.standard_normal(10**7)
        c = math.log2(math.e) / (2.0 * (1.0 + mu * P))
        samples = np.abs(c * (mu * P + 2.0 * math.sqrt(R) * z - mu * P * z * z)) ** 3
        mc = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(samples.size))
        assert abs(t_mu(P, R, mu) - mc) <= 3.0 * se

    def test_closed_form_matches_mpmath_quadrature(self):
        # seeded points over P in [1e-12, 1e3], mu in (0.05, 0.99) and
        # R in [mu^2 P, P], plus the corners of that domain
        rng = random.Random(20261018)
        cases = [(P, R, mu) for P in (1e-12, 1e3) for mu in (0.05, 0.99)
                 for R in (mu * mu * P, P)]
        for _ in range(8):
            P = math.exp(rng.uniform(math.log(1e-12), math.log(1e3)))
            mu = rng.uniform(0.05, 0.99)
            cases.append((P, rng.uniform(mu * mu * P, P), mu))
        for P, R, mu in cases:
            ref = mp_t_mu(P, R, mu)
            assert abs((t_mu(P, R, mu) - ref) / ref) <= 1e-13, (P, R, mu)

    @pytest.mark.parametrize("mu", (0.05, 0.5, 0.99))
    def test_linear_limit(self, mu):
        # at C = mu P = 0, q = 2 sqrt(R) z and E|Z|^3 = 2 sqrt(2/pi)
        R = 0.3
        c = math.log2(math.e) / 2.0
        limit = (c * 2.0 * math.sqrt(R)) ** 3 * 2.0 * math.sqrt(2.0 / math.pi)
        assert t_mu(0.0, R, mu) == pytest.approx(limit, rel=1e-15, abs=0.0)
        assert t_mu(0.0, 0.0, mu) == 0.0
        # the two-root form tends to the limit as the power vanishes
        P = 1e-40
        c = math.log2(math.e) / (2.0 * (1.0 + mu * P))
        limit = (c * 2.0 * math.sqrt(mu * P)) ** 3 * 2.0 * math.sqrt(2.0 / math.pi)
        assert t_mu(P, mu * P, mu) == pytest.approx(limit, rel=1e-15, abs=0.0)

    def test_tiny_power_stays_finite(self):
        # phi(z2) underflows to 0 here and z2^k would overflow; the value
        # recorded from the former 127-node Gauss-Hermite rule agrees to
        # within that rule's 2.5e-5 error
        assert t_mu(1e-150, 5e-151, 0.5) == pytest.approx(1.6941806862345462e-225, rel=3e-5, abs=0.0)
        # and the linear limit, since mu P / sqrt(R) ~ 1e-75, to rounding
        linear = (math.log2(math.e) * math.sqrt(5e-151)) ** 3 * 2.0 * math.sqrt(2.0 / math.pi)
        assert t_mu(1e-150, 5e-151, 0.5) == pytest.approx(linear, rel=1e-15, abs=0.0)
        assert t_mu(1e-300, 5e-301, 0.5) == 0.0
        assert t_mu(1e-300, 1e-300, 0.5) == 0.0

    def test_huge_power_stays_finite(self):
        # the scale log2(e)/(2(1 + mu P)) is folded into the coefficients
        assert t_mu(1.7e308, 1.7e308, 0.99) == pytest.approx(t_mu(1e100, 1e100, 0.5), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("call", (
        lambda: t_mu(-1.0, 0.1, 0.5),
        lambda: t_mu(0.1, -0.1, 0.5),
        lambda: t_mu(0.1, 0.05, 1.0),
        lambda: b_mu(math.inf, 0.1, 0.5),
        lambda: b_mu(0.1, -0.1, 0.5),
        lambda: b_mu(0.1, 0.05, 0.0),
        lambda: v_hat_mu(math.nan, 0.1),
        lambda: be_margin(1000, 0.1, 1.5),
        lambda: be_margin(0, 0.1, 0.5),
        lambda: be_margin(-4, 0.1, 0.5),
        lambda: v_hat_mu(0.1, -1.0),
    ))
    def test_public_domain_checks(self, call):
        with pytest.raises(DomainError):
            call()

    def test_berry_esseen_ratio_scale(self):
        # B is O(1) in the power, so the margin needs huge n at small eps
        assert 5.0 < b_mu(0.0224, 0.8 * 0.0224, 0.8) < 20.0
        assert be_margin(2000, 0.0224, 0.8) > 0.1


class TestAchievabilityNa:
    def test_term_collapse_at_median_error(self):
        n, P, mu = 2000, 0.0224, 0.8
        tau0 = 0.499999
        rep = achievability_na(n, 0.5, P, mu, tau0)
        assert rep.term_second == pytest.approx(0.0, abs=1e-12)
        expected = (n * capacity(mu * P) + 0.5 * math.log2(n)
                    + math.log2(tau0) + math.log2(truncation_mass(n, mu)))
        assert rep.bits == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", (500, 1000, 2000, 5000))
    @pytest.mark.parametrize("mu", (0.7, 0.85))
    def test_below_converse(self, n, mu):
        ach = achievability_na(n, 1e-3, 0.0224, mu, 1e-4)
        conv = converse_na(n, 1e-3, 0.0224)
        assert ach.bits <= conv.bits
        assert ach.kind == KIND_ACH_NA

    def test_against_independent_composition(self):
        # the whole formula rebuilt from scipy primitives
        n, eps, P, mu, tau0 = 2000, 1e-3, 0.0224, 0.8, 1e-4
        ref = (n * 0.5 * math.log2(1.0 + mu * P)
               - math.sqrt(n * dispersion(mu * P)) * norm.isf(eps)
               + 0.5 * math.log2(n) + math.log2(tau0)
               + math.log2(chi2.cdf(n / mu, n) - chi2.cdf(n * mu, n)))
        rep = achievability_na(n, eps, P, mu, tau0)
        assert rep.bits == pytest.approx(ref, rel=1e-12)

    def test_be_guard_not_enforced(self):
        # the margin dwarfs eps at this scale; the formula still evaluates
        rep = achievability_na(2000, 1e-3, 0.0224, 0.8, 1e-4)
        assert math.isfinite(rep.bits)
        assert be_margin(2000, 0.0224, 0.8) >= 1e-3

    def test_tau0_domain(self):
        with pytest.raises(DomainError):
            achievability_na(2000, 1e-3, 0.0224, 0.8, 2e-3)
        with pytest.raises(DomainError):
            achievability_na(2000, 1e-3, 0.0224, 0.8, 0.0)


class TestAchievabilityFull:
    def test_runs_above_guard_and_sits_below_converse(self):
        n, eps, P, mu = 50000, 0.1, 0.0224, 0.8
        assert be_margin(n, P, mu) < eps
        rep = achievability_full(n, eps, P, mu)
        assert rep.kind == KIND_ACH_FULL
        assert math.isfinite(rep.bits)
        assert rep.bits <= converse_na(n, eps, P).bits
        assert rep.bits == rep.term_first + rep.term_second + rep.term_logn

    def test_vacuous_regime_raises(self):
        with pytest.raises(RegimeError):
            achievability_full(2000, 1e-3, 0.0224, 0.8)

    def test_zero_power_rejected(self):
        with pytest.raises(DomainError):
            achievability_full(2000, 0.1, 0.0, 0.8)

    @pytest.mark.parametrize("case, bits", [
        ((100000, 0.2, 0.01, 0.9), "0x1.4e6769e0ca8a5p+9"),
        ((200000, 0.2, 0.05, 0.9), "0x1.af40617ce9194p+12"),
        ((50000, 0.1, 0.0224, 0.8), "0x1.59b48128a878dp+9"),
    ])
    def test_bits_match_search_on_mpmath_moment(self, case, bits):
        # recorded from the same golden-section search with _t_mu replaced
        # by float(mp_t_mu(P, R, mu)) (about 4 s a case, so not rerun here)
        assert achievability_full(*case).bits == pytest.approx(float.fromhex(bits), rel=1e-12)

    @pytest.mark.parametrize("case, calls", [
        ((100000, 0.2, 0.01, 0.9), 5),
        ((50000, 0.1, 0.0224, 0.8), 5),
    ])
    def test_search_iterates_and_checks(self, monkeypatch, case, calls):
        # one moment per objective call: the two golden-section probes, the
        # end and the point 1e-12 P inside it, then the final point; (P, mu)
        # are checked once per call
        counts = count_moments(monkeypatch)
        achievability_full(*case)
        assert counts == {"_t_mu": calls, "_check_power": 1}

    @pytest.mark.parametrize("case", (
        (100000, 0.2, 0.01, 0.9), (200000, 0.2, 0.05, 0.9), (50000, 0.1, 0.0224, 0.8),
    ))
    def test_r_star_at_the_top_end(self, case):
        P = case[2]
        r_star = achievability_full(*case).r_star
        assert P - 1e-12 * P <= r_star < P

    def test_r_star_at_the_lower_end_past_a_local_maximum_at_p(self):
        _, _, P, mu = TWO_MAXIMA
        rep = assert_matches_golden(TWO_MAXIMA)
        assert rep.bits == pytest.approx(-7.43, abs=5e-3)
        assert mu * mu * P < rep.r_star <= mu * mu * P + 1e-12 * P

    def test_interior_maximum_past_a_local_maximum_at_p(self, monkeypatch):
        _, _, P, mu = LOCAL_MAX_AT_P
        counts = count_moments(monkeypatch)
        rep = assert_matches_golden(LOCAL_MAX_AT_P)
        assert rep.bits == pytest.approx(-6.5301, abs=1e-4)
        lo = mu * mu * P
        assert 0.4 < (rep.r_star - lo) / (P - lo) < 0.6
        # the golden-section search ran
        assert counts["_t_mu"] > 50

    def test_vacuous_end_falls_back_to_the_search(self):
        _, _, P, mu = VACUOUS_AT_P
        with pytest.raises(RegimeError):
            _full_core(*VACUOUS_AT_P, P, truncation_mass(VACUOUS_AT_P[0], mu))
        rep = assert_matches_golden(VACUOUS_AT_P)
        assert rep.bits == pytest.approx(-14.246, abs=1e-3)
        assert mu * mu * P < rep.r_star < 0.9 * P

    def test_r_star_only_on_achievability_full(self):
        assert converse_na(5000, 0.01, 0.1).r_star is None
        assert achievability_na(2000, 1e-3, 0.0224, 0.8, 1e-4).r_star is None
        assert all(rep.r_star is None for rep in covert_throughput_bounds(2000, 1e-3, 0.1))

    def test_matches_golden_section_search(self):
        # seeded draws over n in [10, 1e9], eps in [1e-3, 0.6], P in
        # [1e-8, 1e3] (all log-uniform) and mu in [0.02, 0.99]; about a
        # third return, the rest are vacuous (RegimeError) on both sides
        rng = random.Random(20261019)
        returned = off_top = 0
        for _ in range(3000):
            n = round(math.exp(rng.uniform(math.log(10), math.log(1e9))))
            eps = math.exp(rng.uniform(math.log(1e-3), math.log(0.6)))
            P = math.exp(rng.uniform(math.log(1e-8), math.log(1e3)))
            mu = rng.uniform(0.02, 0.99)
            rep = assert_matches_golden((n, eps, P, mu))
            if rep is not None:
                returned += 1
                off_top += P - rep.r_star > 1e-12 * P
        # both the end test and the search fallback are exercised
        assert returned >= 900 and off_top >= 10, (returned, off_top)

    def test_shell_mass_computed_once(self, monkeypatch):
        calls = []

        def counting_mass(n, mu):
            calls.append((n, mu))
            return truncation_mass(n, mu)

        monkeypatch.setattr(covertvd.throughput, "truncation_mass", counting_mass)
        achievability_full(50000, 0.1, 0.0224, 0.8)
        assert calls == [(50000, 0.8)]

    def test_vacuous_regime_reported_before_vanishing_mass(self, monkeypatch):
        monkeypatch.setattr(covertvd.throughput, "truncation_mass", lambda n, mu: 0.0)
        with pytest.raises(RegimeError):
            achievability_full(2000, 1e-3, 0.0224, 0.8)
        with pytest.raises(DomainError, match="vanishing mass"):
            achievability_full(50000, 0.1, 0.0224, 0.8)


class TestCovertThroughputBounds:
    def test_vanishing_budget_kills_first_terms(self):
        suf, nec = covert_throughput_bounds(2000, 0.5, 1e-12)
        assert abs(suf.term_first) < 1e-3
        assert abs(nec.term_first) < 1e-3

    def test_median_error_kills_second_terms(self):
        suf, nec = covert_throughput_bounds(2000, 0.5, 0.1)
        assert suf.term_second == pytest.approx(0.0, abs=1e-12)
        assert nec.term_second == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", (1000, 10000, 100000))
    @pytest.mark.parametrize("eps", (1e-3, 0.1))
    @pytest.mark.parametrize("delta", (0.01, 0.1, 0.3))
    def test_suf_below_nec(self, n, eps, delta):
        suf, nec = covert_throughput_bounds(n, eps, delta)
        assert suf.bits <= nec.bits
        assert suf.kind == KIND_COVERT_SUF and nec.kind == KIND_COVERT_NEC

    def test_exponent_orders(self):
        # two-decade slope checks of the first and second terms
        n_lo, n_hi = 10**3, 10**5
        slopes = []
        for term in ("term_first", "term_second"):
            lo = abs(getattr(covert_throughput_bounds(n_lo, 1e-3, 0.1)[1], term))
            hi = abs(getattr(covert_throughput_bounds(n_hi, 1e-3, 0.1)[1], term))
            slopes.append((math.log(hi) - math.log(lo)) / math.log(n_hi / n_lo))
        assert slopes[0] == pytest.approx(0.5, abs=0.02)
        assert slopes[1] == pytest.approx(0.25, abs=0.02)

    def test_first_term_per_symbol_root_n_scaling(self):
        # n log2(eta) / sqrt(n) stays bounded and settles along the grid
        scaled = [
            covert_throughput_bounds(n, 1e-3, 0.1)[1].term_first / math.sqrt(n)
            for n in (10**3, 10**4, 10**5, 10**6)
        ]
        assert max(scaled) / min(scaled) < 1.05
        assert all(s < 10.0 for s in scaled)
