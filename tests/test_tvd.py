"""Exact TVD, the argument pair (f, g), and the series approximations."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertvd.tvd
from covertvd.errors import AccuracyError, DomainError
from covertvd.expansions import (
    _gamma_series_lower,
    _gamma_series_upper,
    _prefactor,
    gamma_series_transition,
)
from covertvd.tvd import (
    _BASELINE_PRECISION,
    fg,
    log_tail_weight,
    tvd_complement,
    tvd_exact,
    tvd_series,
)
from covertvd.types import (
    METHOD_EXACT,
    METHOD_SERIES_HIGH,
    METHOD_SERIES_LOW,
    ChannelPoint,
    check_blocklength,
)
from test_expansions import lower_terms, pair_envelope_sum, transition_reference, upper_terms


class TestFg:
    def test_zero_snr_limit(self):
        pair = fg(ChannelPoint(n=1000, theta=0.0))
        assert pair.f == pair.g == 500.0

    def test_unit_snr(self):
        pair = fg(ChannelPoint(n=1000, theta=1.0))
        assert pair.f == pytest.approx(693.1471805599452, rel=1e-14)
        assert pair.g == pytest.approx(346.5735902799726, rel=1e-14)

    @given(n=st.integers(2, 10**6), theta=st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_identities(self, n, theta):
        pair = fg(ChannelPoint(n=n, theta=theta))
        assert pair.g < 0.5 * n < pair.f
        assert pair.f / pair.g == pytest.approx(1.0 + theta, rel=1e-12)
        # the differences inherit the rounding of f and g themselves, so
        # the tolerance carries an absolute floor of a few ulps of f
        floor = 8.0 * math.ulp(pair.f)
        assert pair.f - pair.g == pytest.approx(theta * pair.g, rel=1e-12, abs=floor)
        assert pair.f - pair.g == pytest.approx(0.5 * n * math.log1p(theta), rel=1e-12, abs=floor)

    def test_negative_snr_rejected(self):
        with pytest.raises(DomainError):
            ChannelPoint(n=10, theta=-0.1)

    def test_numpy_integer_blocklength_stored_as_int(self):
        point = ChannelPoint(n=np.int64(1000), theta=1.0)
        assert type(point.n) is int
        assert point == ChannelPoint(n=1000, theta=1.0)
        assert type(ChannelPoint.from_tau(np.int32(1000), 0.5).n) is int
        with pytest.raises(DomainError):
            ChannelPoint(n=np.float64(1000.0), theta=1.0)

    def test_blocklength_beyond_double_range_rejected(self):
        # every formula takes n/2 or 1/n as a float
        assert check_blocklength(2**1023) == 2**1023
        for n in (2**1024, 10**400):
            with pytest.raises(DomainError, match="double range"):
                check_blocklength(n)
            with pytest.raises(DomainError, match="double range"):
                ChannelPoint(n=n, theta=1.0)
            with pytest.raises(DomainError, match="double range"):
                ChannelPoint.from_tau(n, 0.5)


class TestTvdExact:
    def test_zero_snr(self):
        assert tvd_exact(ChannelPoint(n=100, theta=0.0)).value == 0.0

    def test_two_sample_closed_form(self):
        # n=2: V = e^(-g) - e^(-f) = 1/2 - 1/4
        ev = tvd_exact(ChannelPoint(n=2, theta=1.0))
        assert abs(ev.value - 0.25) <= 1e-12
        assert ev.method == METHOD_EXACT

    def test_increasing_in_theta(self):
        for n in (10, 100, 1000, 10000):
            vals = [tvd_exact(ChannelPoint(n=n, theta=t)).value
                    for t in (1e-3, 1e-2, 1e-1, 1.0)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_n(self):
        for theta in (1e-2, 1e-1, 1.0):
            vals = [tvd_exact(ChannelPoint(n=n, theta=theta)).value
                    for n in (10, 100, 1000, 10000)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_complement_consistency(self):
        point = ChannelPoint(n=500, theta=0.1)
        assert tvd_complement(point) == pytest.approx(
            1.0 - tvd_exact(point).value, abs=1e-12
        )

    def test_monotone_in_theta_at_relative_steps(self):
        # V(n, theta(1 + 1e-6)) >= V(n, theta) with n log-uniform on
        # [1, 1e6] and theta = n^-tau; catches kernel jumps between
        # neighbouring snr values
        rng = np.random.default_rng(20201)
        ns = np.rint(10.0 ** rng.uniform(0.0, 6.0, 2000)).astype(int)
        taus = rng.uniform(0.05, 0.99, 2000)
        for n, tau in zip(ns.tolist(), taus.tolist()):
            theta = float(n) ** (-tau)
            lo = tvd_exact(ChannelPoint(n=n, theta=theta)).value
            hi = tvd_exact(ChannelPoint(n=n, theta=theta * (1.0 + 1e-6))).value
            assert hi >= lo, (n, tau)

    def test_finite_where_half_n_times_snr_overflows(self):
        for n in (100, 10**6):
            for theta in (1e308, 1.7e308):
                point = ChannelPoint(n=n, theta=theta)
                pair = fg(point)
                assert pair.f == pytest.approx(0.5 * n * math.log(theta), rel=1e-12)
                assert tvd_exact(point).value == 1.0

    def test_complement_survives_saturation(self):
        # distance saturates at 1.0 in doubles; the complement stays resolvable
        point = ChannelPoint.from_tau(100000, 0.2)
        assert tvd_exact(point).value == 1.0
        assert 0.0 < tvd_complement(point) < 1e-20


def series_from_public_pieces(point, K):
    """tvd_series rebuilt from the whole sequences of coeffs_c, phi_linear,
    phi_transition and _transition_coeffs: the transition sum over the
    phi_transition differences at tau_eff >= 1/2, else 1 - [upper series at
    f] - [lower series at g], each under the pair-envelope truncation
    written out in pair_envelope_sum."""
    a = 0.5 * point.n - 1.0
    pair = fg(point)
    if point.tau_eff >= 0.5:
        value = transition_reference(a, pair.g, pair.f, K)
        method, terms = METHOD_SERIES_HIGH, K + 1
    else:
        upper, terms_f = pair_envelope_sum(upper_terms(a, pair.f, K))
        lower, terms_g = pair_envelope_sum(lower_terms(a, pair.g, K))
        value = 1.0 - _prefactor(a, pair.f) * upper - _prefactor(a, pair.g) * lower
        method, terms = METHOD_SERIES_LOW, max(terms_f, terms_g)
    value = min(1.0, max(0.0, value))
    return value, method, terms, abs(value - tvd_exact(point).value)


class TestTvdSeries:
    def test_matches_public_pieces(self):
        # == on every field, 2100 seeded points on both branches: the
        # one-pass loops, the shared normaliser and the shared (f, g) change
        # no bit; orders 4, 5 and 21 put a lone last term or a full last
        # pair on either side of the default order
        rng = random.Random(11)
        orders = (0, 1, 2, 3, 4, 5, 20, 21, 40, 60)
        branches = set()
        for i in range(2100):
            n = round(10.0 ** rng.uniform(2.0, 6.0))
            point = ChannelPoint.from_tau(n, rng.uniform(0.05, 0.98))
            K = orders[i % len(orders)]
            ev = tvd_series(point, K=K)
            value, method, terms, err = series_from_public_pieces(point, K)
            assert (ev.value, ev.method, ev.terms_used, ev.err_estimate) == (
                value, method, terms, err), (n, point.theta, K)
            branches.add(method)
        assert branches == {METHOD_SERIES_HIGH, METHOD_SERIES_LOW}

    def test_transition_branch_is_the_public_transition_series_difference(self):
        # the transition sum is linear in Phi: its value at the Phi
        # differences is the difference of the two upper-tail values
        point = ChannelPoint.from_tau(4000, 0.7)
        a = 0.5 * point.n - 1.0
        pair = fg(point)
        expected = gamma_series_transition(a, pair.g) - gamma_series_transition(a, pair.f)
        assert tvd_series(point).value == pytest.approx(expected, rel=1e-12)

    def test_high_branch_accuracy(self):
        point = ChannelPoint.from_tau(1000, 0.6)
        ev = tvd_series(point, K=20)
        assert ev.method == METHOD_SERIES_HIGH
        assert ev.err_estimate / tvd_exact(point).value <= 1e-2
        assert ev.terms_used == 21

    def test_boundary_exponent_goes_high(self):
        point = ChannelPoint.from_tau(1000, 0.5)
        assert tvd_series(point).method == METHOD_SERIES_HIGH

    def test_low_branch_accuracy_at_large_n(self):
        point = ChannelPoint.from_tau(5000, 0.3)
        ev = tvd_series(point, K=20)
        assert ev.method == METHOD_SERIES_LOW
        assert ev.err_estimate <= 1e-2

    def test_low_branch_draws_terms_lazily(self):
        # each series forms its coefficients only up to the pair of terms
        # that stops its optimal truncation, not all K + 1 of them.  c_0 and
        # c_1 seed each recurrence, and every later coefficient takes one
        # product with the shape a, which a float subclass counts.
        class CountingShape(float):
            products = 0

            def __mul__(self, other):
                CountingShape.products += 1
                return float(self) * other

            __rmul__ = __mul__

        point = ChannelPoint.from_tau(5000, 0.3)
        ev = tvd_series(point, K=20)
        assert ev.method == METHOD_SERIES_LOW
        assert ev.terms_used < 21
        a = 0.5 * point.n - 1.0
        pair = fg(point)
        used = []
        for loop, z in ((_gamma_series_upper, pair.f), (_gamma_series_lower, pair.g)):
            CountingShape.products = 0
            result = loop(CountingShape(a), z, 20)
            assert result == loop(a, z, 20)
            formed = 2 + CountingShape.products
            assert CountingShape.products > 0
            assert formed <= result[1] + 2 < 21 + 2
            used.append(result[1])
        assert max(used) == ev.terms_used

    def test_err_estimate_is_deviation_from_exact(self):
        point = ChannelPoint.from_tau(2000, 0.7)
        ev = tvd_series(point)
        assert ev.err_estimate == pytest.approx(
            abs(ev.value - tvd_exact(point).value), abs=1e-15
        )

    def test_err_estimate_skips_tvd_exact(self, monkeypatch):
        # the reference value comes from the scalar kernel, not from a
        # TvdEvaluation built only to read its value
        point = ChannelPoint.from_tau(2000, 0.7)
        expected = tvd_series(point)
        monkeypatch.setattr(covertvd.tvd, "tvd_exact", None)
        assert tvd_series(point) == expected

    def test_vanishes_with_snr(self):
        # tau_eff > 1/2 for tiny theta; both transition sums collapse
        assert tvd_series(ChannelPoint(n=1000, theta=1e-8)).value < 1e-6

    def test_value_in_unit_interval(self):
        for n, tau in ((100, 0.45), (500, 0.3), (1000, 0.49)):
            ev = tvd_series(ChannelPoint.from_tau(n, tau))
            assert 0.0 <= ev.value <= 1.0

    @pytest.mark.parametrize("n, K", ((10**18, 20), (398107170553497250, 0)))
    def test_prefactor_overflow_is_accuracy_error(self, n, K):
        # the prefactors' logs have no a ln a term, so at huge n the series
        # returns its own value (0.99495 and 0.99184, exact 0.99502 and
        # 0.99268), and err_estimate is its deviation from the exact kernel
        point = ChannelPoint.from_tau(n, 0.45)
        ev = tvd_series(point, K=K)
        assert (ev.value, ev.method, ev.terms_used, ev.err_estimate) == (
            series_from_public_pieces(point, K))
        assert 0.0 < ev.value < 1.0
        assert ev.err_estimate == abs(ev.value - tvd_exact(point).value)

    @pytest.mark.parametrize("n, tau, method", ((10**32, 0.3, METHOD_SERIES_LOW),
                                                 (10**53, 0.7, METHOD_SERIES_HIGH)))
    def test_overflowed_sum_is_accuracy_error(self, n, tau, method):
        # a coefficient overflows and a NaN term passes the pair-envelope
        # test (NaN compares false); the clamp printed that sum as V = 0
        with pytest.raises(AccuracyError, match=f"{method} sum is nan"):
            tvd_series(ChannelPoint.from_tau(n, tau))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tvd_series(ChannelPoint(n=50, theta=0.1))
        with pytest.raises(DomainError):
            tvd_series(ChannelPoint(n=1000, theta=0.0))


class TestLogTailWeight:
    @pytest.mark.parametrize("n", (1000, 10000, 10**12, 10**18))
    def test_equal_at_f_and_g(self, n):
        # e^(n/2 - z) (2z/n)^(n/2) takes the same value at z = f and z = g;
        # at huge n the log is large, so the bound there is relative
        point = ChannelPoint.from_tau(n, 0.3)
        pair = fg(point)
        at_f, at_g = log_tail_weight(n, pair.f), log_tail_weight(n, pair.g)
        assert abs(at_f - at_g) <= (1e-9 if n <= 10**4 else 1e-9 * abs(at_g))

    def test_zero_at_midpoint(self):
        assert log_tail_weight(1000, 500.0) == 0.0


class TestMpmathOracle:
    """tvd_exact and tvd_complement against 30-digit mpmath incomplete
    gamma values at the same double-precision snr, up to n = 1e6."""

    @staticmethod
    def reference(point):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            theta = mp.mpf(point.theta)
            a = mp.mpf(point.n) / 2
            ratio = mp.log1p(theta) / theta
            q_f = mp.gammainc(a, a * (1 + theta) * ratio, mp.inf, regularized=True)
            p_g = mp.gammainc(a, 0, a * ratio, regularized=True)
            return float(1 - q_f - p_g), float(q_f + p_g)

    @pytest.mark.parametrize("n", (10**3, 10**4, 10**5, 10**6))
    @pytest.mark.parametrize("tau", (0.3, 0.5, 0.7, 0.9, 0.95))
    def test_value_and_complement(self, n, tau):
        point = ChannelPoint.from_tau(n, tau)
        v_ref, c_ref = self.reference(point)
        assert abs(tvd_exact(point).value - v_ref) <= _BASELINE_PRECISION
        assert tvd_complement(point) == pytest.approx(c_ref, rel=1e-8)
