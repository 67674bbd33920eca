"""Throughput approximations: converse, shell achievability, covert bounds."""

import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

import covertvd.throughput
from covertvd.errors import DomainError, RegimeError
from covertvd.throughput import (
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
        # 1e7-sample seeded check; quadrature error is far below 3 se
        P, mu = 0.0224, 0.8
        R = mu * P
        rng = np.random.default_rng(20260808)
        z = rng.standard_normal(10**7)
        c = math.log2(math.e) / (2.0 * (1.0 + mu * P))
        samples = np.abs(c * (mu * P + 2.0 * math.sqrt(R) * z - mu * P * z * z)) ** 3
        mc = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(samples.size))
        assert abs(t_mu(P, R, mu) - mc) <= 3.0 * se

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

    def test_be_guard_optional_and_enforceable(self):
        # the margin dwarfs eps at this scale; the formula still evaluates
        rep = achievability_na(2000, 1e-3, 0.0224, 0.8, 1e-4)
        assert math.isfinite(rep.bits)
        with pytest.raises(RegimeError):
            achievability_na(2000, 1e-3, 0.0224, 0.8, 1e-4, enforce_be_guard=True)

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
