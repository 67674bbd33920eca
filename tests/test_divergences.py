"""Closed-form divergences, the TVD sandwich bounds, and their orderings
against the exact distance."""

import dataclasses
import math
import random

import mpmath
import pytest

from covertvd.divergences import (
    hellinger_sq,
    kl_beta_lower,
    kl_divergences,
    tvd_bounds,
)
from covertvd.errors import DomainError
from covertvd.special import reg_lower_gamma
from covertvd.tvd import fg, tvd_exact
from covertvd.types import ChannelPoint

GRID_N = (2, 10, 100, 1000, 10000)
GRID_THETA = (1e-3, 1e-2, 1e-1, 1.0)


class TestKlDivergences:
    def test_identical_distributions(self):
        fwd, rev = kl_divergences(ChannelPoint(n=10, theta=0.0))
        assert fwd == 0.0
        assert rev == 0.0

    def test_two_sample_unit_snr(self):
        fwd, rev = kl_divergences(ChannelPoint(n=2, theta=1.0))
        assert fwd == pytest.approx(0.44269504088896344, rel=1e-12)
        assert rev == pytest.approx(0.27865247955551825, rel=1e-12)
        assert rev < fwd

    @pytest.mark.parametrize("n", GRID_N)
    @pytest.mark.parametrize("theta", GRID_THETA)
    def test_reverse_below_forward(self, n, theta):
        fwd, rev = kl_divergences(ChannelPoint(n=n, theta=theta))
        assert 0.0 <= rev < fwd

    def test_units_flag(self):
        point = ChannelPoint(n=100, theta=0.3)
        fwd_b, rev_b = kl_divergences(point, units="bits")
        fwd_n, rev_n = kl_divergences(point, units="nats")
        assert fwd_b == pytest.approx(fwd_n * math.log2(math.e), rel=1e-15)
        assert rev_b == pytest.approx(rev_n * math.log2(math.e), rel=1e-15)
        with pytest.raises(DomainError):
            kl_divergences(point, units="hartley")

    @pytest.mark.parametrize("n", (10, 1000, 100000))
    @pytest.mark.parametrize("theta", (1e-3, 1e-2))
    def test_small_snr_quadratic_scale(self, n, theta):
        # D(P0||P1) in nats approaches n theta^2 / 4 from below
        _, rev = kl_divergences(ChannelPoint(n=n, theta=theta), units="nats")
        ratio = rev / (0.25 * n * theta * theta)
        assert 0.9 <= ratio <= 1.0

    def test_reverse_matches_mpmath(self):
        # ln(1+theta) - theta/(1+theta) cancels as theta -> 0; 650 digits
        # resolve it down to theta = 1e-150
        for k in range(-300, 601):
            theta = 10.0 ** (k / 2)
            _, rev = kl_divergences(ChannelPoint(n=2, theta=theta), units="nats")
            with mpmath.workdps(650):
                t = mpmath.mpf(theta)
                ref = mpmath.log1p(t) - t / (1 + t)
                assert abs(rev - ref) <= 1e-15 * ref, theta

    def test_reverse_cancelling_difference_matches_mpmath(self):
        # on [1/3, 1] the plain difference ln(1+theta) - theta/(1+theta)
        # cancels by a factor 3.6 to 7.6 (1.8e-15 relative at theta = 1/3);
        # 3000 log-uniform theta, plus both ends
        rng = random.Random(33)
        thetas = [1.0 / 3.0, 1.0] + [math.exp(rng.uniform(math.log(1.0 / 3.0), 0.0))
                                     for _ in range(3000)]
        worst = 0.0
        with mpmath.workdps(40):
            for theta in thetas:
                _, rev = kl_divergences(ChannelPoint(n=2, theta=theta), units="nats")
                t = mpmath.mpf(theta)
                ref = mpmath.log1p(t) - t / (1 + t)
                worst = max(worst, float(abs(rev - ref) / ref))
        assert worst <= 7e-16


class TestHellinger:
    def test_zero_snr(self):
        assert hellinger_sq(ChannelPoint(n=10, theta=0.0)) == 0.0

    def test_hand_value(self):
        # n=2, theta=3: sigma1 = 2 sigma, H^2 = 1 - 4/5
        assert hellinger_sq(ChannelPoint(n=2, theta=3.0)) == pytest.approx(0.2, rel=1e-14)

    def test_saturates_with_blocklength(self):
        assert hellinger_sq(ChannelPoint(n=10**6, theta=0.1)) > 1.0 - 1e-15

    def test_monotone_in_n(self):
        vals = [hellinger_sq(ChannelPoint(n=n, theta=0.05)) for n in GRID_N]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestTvdBounds:
    def test_zero_snr_all_zero(self):
        rep = tvd_bounds(ChannelPoint(n=100, theta=0.0))
        assert rep.kl_fwd == rep.kl_rev == rep.hellinger_sq == 0.0
        assert rep.pinsker_upper == rep.sason_upper == rep.sqrt2h_upper == rep.kl_exp_upper == 0.0

    def test_sason_hand_value(self):
        rep = tvd_bounds(ChannelPoint(n=2, theta=3.0))
        assert rep.sason_upper == pytest.approx(0.6, rel=1e-13)

    def test_sason_sharper_than_pinsker(self):
        rep = tvd_bounds(ChannelPoint(n=1000, theta=0.05))
        assert rep.sason_upper <= rep.pinsker_upper

    @pytest.mark.parametrize("n", GRID_N)
    @pytest.mark.parametrize("theta", GRID_THETA)
    def test_sandwich_orderings(self, n, theta):
        point = ChannelPoint(n=n, theta=theta)
        rep = tvd_bounds(point)
        exact = tvd_exact(point).value
        assert rep.hellinger_sq <= rep.sason_upper <= rep.sqrt2h_upper + 1e-15
        assert rep.hellinger_sq <= exact + 1e-12
        assert exact <= rep.sason_upper + 1e-12
        assert exact <= rep.pinsker_upper + 1e-12
        assert exact <= rep.kl_exp_upper + 1e-12

    def test_pinsker_uses_natural_log_divergence(self):
        point = ChannelPoint(n=100, theta=0.3)
        fwd_nats, _ = kl_divergences(point, units="nats")
        assert tvd_bounds(point).pinsker_upper == pytest.approx(
            math.sqrt(0.5 * fwd_nats), rel=1e-14
        )


class TestLargeSnr:
    """Above theta = 10 the Hellinger base is taken in log terms, since
    1 - r^2 cancels there and r^2 rounds to 1 from theta ~ 1e16."""

    def test_hand_value_above_switch(self):
        # n=2, theta=14: base 4*15/16^2 = 15/64, H^2 = 1 - sqrt(15/64)
        rep = tvd_bounds(ChannelPoint(n=2, theta=14.0))
        assert rep.hellinger_sq == pytest.approx(1.0 - math.sqrt(15.0 / 64.0), rel=1e-14)
        assert rep.sason_upper == pytest.approx(math.sqrt(1.0 - 15.0 / 64.0), rel=1e-14)

    @pytest.mark.parametrize("theta", (1e16, 1e30, 1e200))
    def test_bounds_finite(self, theta):
        point = ChannelPoint(n=100, theta=theta)
        rep = tvd_bounds(point)
        assert all(math.isfinite(v) for v in dataclasses.astuple(rep))
        assert 0.0 <= hellinger_sq(point) == rep.hellinger_sq <= 1.0
        assert rep.hellinger_sq <= tvd_exact(point).value <= rep.sason_upper


class TestKlBetaLower:
    def test_default_beta_is_missed_detection(self):
        # the default beta takes g from the same formula as fg, so the two
        # agree to the bit
        for n, theta in ((500, 0.1), (7, 0.37), (1000, 3.0), (10**6, 0.0025)):
            point = ChannelPoint(n=n, theta=theta)
            beta = reg_lower_gamma(0.5 * point.n, fg(point).g)
            assert kl_beta_lower(point) == kl_beta_lower(point, beta)

    def test_tracks_exact_distance_scale(self):
        # a rate diagnostic, not a certified pointwise bound (at moderate
        # theta it can exceed the exact distance): along theta = n^(-0.7)
        # it sits below the distance and decays faster, n^(1-2tau) against
        # the distance's n^((1-2tau)/2)
        ratios = []
        for n in (2000, 10000, 50000):
            point = ChannelPoint.from_tau(n, 0.7)
            diag = kl_beta_lower(point)
            exact = tvd_exact(point).value
            assert 0.0 < diag <= exact
            ratios.append(diag / exact)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_not_a_lower_bound_at_moderate_theta(self):
        # measured 0.770 against V = 0.645 at (100, 0.3), and 2.95 at (1000, 1)
        point = ChannelPoint(n=100, theta=0.3)
        assert kl_beta_lower(point) == pytest.approx(0.770, abs=5e-4)
        assert tvd_exact(point).value == pytest.approx(0.645, abs=5e-4)
        assert kl_beta_lower(ChannelPoint(n=1000, theta=1.0)) == pytest.approx(2.95, abs=5e-3)

    def test_decay_exponent_along_scaling_law(self):
        # theta = n^(-0.7): the diagnostic decays polynomially like the
        # reverse divergence, exponent 1 - 2 tau = -0.4
        ns = (10**3, 10**4, 10**5)
        vals = [kl_beta_lower(ChannelPoint.from_tau(n, 0.7)) for n in ns]
        slope = (math.log(vals[-1]) - math.log(vals[0])) / (math.log(ns[-1]) - math.log(ns[0]))
        assert slope == pytest.approx(-0.4, abs=0.1)

    def test_beta_domain(self):
        point = ChannelPoint(n=100, theta=0.1)
        with pytest.raises(DomainError):
            kl_beta_lower(point, beta=0.0)
        with pytest.raises(DomainError):
            kl_beta_lower(ChannelPoint(n=100, theta=0.0))
