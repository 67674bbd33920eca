"""Covert power levels: closed forms, bisection inversions, sandwich."""

import math

import pytest

import covertvd.power
from covertvd.divergences import hellinger_sq, tvd_bounds
from covertvd.errors import ConsistencyError, DomainError
from covertvd.power import CovertBudget, _tvd_slope, p_exact, p_nec, p_suf
from covertvd.tvd import _tvd_value, tvd_exact
from covertvd.types import ChannelPoint


def invert_monotone(fn, target, lo=0.0, hi=1.0, iters=200):
    """Bisection inversion of an increasing fn(theta); independent of the
    closed forms under test."""
    while fn(hi) < target:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCovertBudget:
    def test_limits_as_delta_vanishes(self):
        b = CovertBudget.from_delta(2000, 1e-12)
        assert b.y == pytest.approx(0.25, rel=1e-12)
        assert b.y0 == pytest.approx(0.25, rel=1e-12)
        assert b.lam < 1e-5 and b.lam1 < 1e-5

    def test_ranges(self):
        for delta in (0.01, 0.1, 0.5, 0.99):
            b = CovertBudget.from_delta(500, delta)
            assert 0.0 < b.y <= 0.25 and 0.0 < b.y0 <= 0.25
            assert 0.0 <= b.lam < 1.0 and 0.0 <= b.lam1 < 1.0

    def test_lambda_root_n_scaling(self):
        # lam * sqrt(n) tends to the constant 2 sqrt(-ln(1-delta))
        delta = 0.1
        limit = 2.0 * math.sqrt(-math.log1p(-delta))
        for n in (10**3, 10**4, 10**5, 10**6):
            scaled = CovertBudget.from_delta(n, delta).lam * math.sqrt(n)
            assert 0.95 * limit <= scaled <= 1.0001 * limit

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_domain(self, delta):
        with pytest.raises(DomainError):
            CovertBudget.from_delta(100, delta)

    def test_blocklength_beyond_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            CovertBudget.from_delta(10**400, 0.1)
        with pytest.raises(DomainError, match="double range"):
            p_exact(10**400, 0.1)


class TestClosedForms:
    def test_vanishing_budget(self):
        assert p_nec(2000, 1e-14) == pytest.approx(0.0, abs=1e-6)
        assert p_suf(2000, 1e-14) == pytest.approx(0.0, abs=1e-6)

    def test_nec_increasing_in_delta(self):
        vals = [p_nec(2000, d) for d in (0.01, 0.05, 0.1, 0.3, 0.6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_nec_matches_literal_formula(self):
        # (1-2y+sqrt(1-4y))/(2y) - 1 in its printed form
        n, delta = 2000, 0.1
        y = 0.25 * (1.0 - delta) ** (4.0 / n)
        literal = (1.0 - 2.0 * y + math.sqrt(1.0 - 4.0 * y)) / (2.0 * y) - 1.0
        assert p_nec(n, delta) == pytest.approx(literal, rel=1e-9)

    def test_nec_inverts_hellinger(self):
        n, delta = 2000, 0.1
        theta = invert_monotone(lambda t: hellinger_sq(ChannelPoint(n=n, theta=t)), delta)
        assert p_nec(n, delta) == pytest.approx(theta, rel=1e-9)

    def test_suf_inverts_sason_bound(self):
        n, delta = 2000, 0.01
        theta = invert_monotone(
            lambda t: tvd_bounds(ChannelPoint(n=n, theta=t)).sason_upper, delta
        )
        assert p_suf(n, delta) == pytest.approx(theta, rel=1e-9)

    def test_suf_below_nec(self):
        assert p_suf(2000, 0.1) < p_nec(2000, 0.1)

    def test_sigma2_scaling(self):
        assert p_nec(500, 0.1, sigma2=3.0) == pytest.approx(3.0 * p_nec(500, 0.1), rel=1e-14)


class TestPExact:
    def test_two_sample_quarter_budget(self):
        # tvd_exact(n=2, theta=1) = 1/4 exactly
        interval = p_exact(2, 0.25)
        assert interval.p_exact == pytest.approx(1.0, abs=1e-9)

    def test_all_three_vanish_with_budget(self):
        interval = p_exact(1000, 1e-9)
        assert interval.p_nec < 1e-4
        assert interval.p_suf <= interval.p_exact <= interval.p_nec

    @pytest.mark.parametrize("n", (500, 2000))
    @pytest.mark.parametrize("delta", (0.01, 0.1, 0.3))
    def test_sandwich_and_budget_match(self, n, delta):
        interval = p_exact(n, delta)
        assert interval.p_suf <= interval.p_exact <= interval.p_nec
        achieved = tvd_exact(ChannelPoint(n=n, theta=interval.p_exact)).value
        assert achieved == pytest.approx(delta, rel=1e-8)
        assert tvd_exact(ChannelPoint(n=n, theta=interval.p_suf)).value <= delta
        assert tvd_exact(ChannelPoint(n=n, theta=interval.p_nec)).value >= delta

    def test_budget_near_one_where_lambda_rounds_to_one(self):
        # (1 - delta)^(4/n) = 1e-24 at n = 1: lam = 1.0 in double precision
        n, delta = 1, 0.999999
        assert CovertBudget.from_delta(n, delta).lam == 1.0
        interval = p_exact(n, delta)
        assert math.isfinite(interval.p_nec)
        assert interval.p_suf <= interval.p_exact <= interval.p_nec
        achieved = tvd_exact(ChannelPoint(n=n, theta=interval.p_exact)).value
        assert achieved == pytest.approx(delta, rel=1e-8)

    def test_powers_decrease_with_blocklength(self):
        intervals = [p_exact(n, 0.1) for n in (500, 1000, 2000, 5000)]
        for a, b in zip(intervals, intervals[1:]):
            assert b.p_suf < a.p_suf
            assert b.p_exact < a.p_exact
            assert b.p_nec < a.p_nec

    def test_suf_close_to_exact(self):
        # the sufficient level sits close under the exact one at delta = 0.1
        # (measured ratio ~0.797 at n = 2000)
        interval = p_exact(2000, 0.1)
        assert 0.75 <= interval.p_suf / interval.p_exact < 1.0

    @pytest.mark.parametrize("n", (500, 2000, 10**5, 10**6))
    @pytest.mark.parametrize("delta", (1e-3, 0.01, 0.1, 0.5))
    def test_newton_call_count_and_residual(self, monkeypatch, n, delta):
        calls = []

        def counting_tvd_value(n, theta):
            calls.append(theta)
            return _tvd_value(n, theta)

        monkeypatch.setattr(covertvd.power, "_tvd_value", counting_tvd_value)
        interval = p_exact(n, delta)
        assert len(calls) <= 10
        assert interval.p_suf <= interval.p_exact <= interval.p_nec
        achieved = tvd_exact(ChannelPoint(n=n, theta=interval.p_exact)).value
        assert abs(achieved - delta) <= 1e-8 * delta

    @pytest.mark.parametrize("shift", (0.5, -1.0))
    def test_unbracketed_root_raises(self, monkeypatch, shift):
        # +0.5 lifts V(p_suf) above delta, -1 drops V(p_nec) below it
        monkeypatch.setattr(
            covertvd.power, "_tvd_value", lambda n, theta: _tvd_value(n, theta) + shift
        )
        with pytest.raises(ConsistencyError, match="not bracketed"):
            p_exact(2000, 0.1)

    @pytest.mark.parametrize("n", (1, 500, 10**6))
    def test_interval_matches_closed_forms(self, n):
        interval = p_exact(n, 0.1, sigma2=2.5)
        assert interval.p_suf == p_suf(n, 0.1, sigma2=2.5)
        assert interval.p_nec == p_nec(n, 0.1, sigma2=2.5)


class TestTvdSlope:
    """The Newton slope p_a(g) g / (1 + theta), a = n/2, against 60-digit
    mpmath at the same double-precision snr, and against a central
    difference of the distance kernel."""

    @staticmethod
    def reference(n, theta):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            theta = mp.mpf(theta)
            a = mp.mpf(n) / 2
            g = a * mp.log1p(theta) / theta
            return float(mp.exp(a * mp.log(g) - g - mp.loggamma(a)) / (1 + theta))

    @pytest.mark.parametrize("n", (1, 2, 10, 10**3, 10**6))
    @pytest.mark.parametrize("theta", (1e-20, 1e-16, 1e-12, 1e-8, 1e-4, 1e-2))
    def test_against_mpmath(self, n, theta):
        ref = self.reference(n, theta)
        slope = _tvd_slope(n, theta, math.lgamma(0.5 * n))
        assert abs(slope - ref) <= (1e-12 if n <= 10**3 else 1e-8) * ref

    @pytest.mark.parametrize("n, theta", ((1, 1e-4), (2, 1.0), (10, 0.3), (10**3, 0.05),
                                          (10**6, 2e-3)))
    def test_central_difference_of_kernel(self, n, theta):
        h = 1e-4 * theta
        diff = (_tvd_value(n, theta + h) - _tvd_value(n, theta - h)) / (2.0 * h)
        assert _tvd_slope(n, theta, math.lgamma(0.5 * n)) == pytest.approx(diff, rel=1e-6)
