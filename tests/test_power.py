"""Covert power levels: closed forms, bisection inversions, sandwich."""

import math
import random
import sys

import pytest

import covertvd.power
import covertvd.tvd
from covertvd.cli import _figure_rows
from covertvd.divergences import hellinger_sq, tvd_bounds
from covertvd.errors import AccuracyError, ConsistencyError, DomainError
from covertvd.power import (
    _budget,
    _theta_of_eta,
    _theta_start,
    p_exact,
    p_nec,
    p_suf,
)
from covertvd.special import erfinv, gammainc
from covertvd.tvd import _tvd_value, tvd_exact
from covertvd.types import ChannelPoint

#: Blocklengths below power._N0 = 500, where p_exact solves by Brent's method.
_BELOW_N0 = (1, 2, 10, 13, 50, 100, 300, 499)


class TestCovertBudget:
    def test_limits_as_delta_vanishes(self):
        _, y, y0, lam, lam1 = _budget(2000, 1e-12)
        assert y == pytest.approx(0.25, rel=1e-12)
        assert y0 == pytest.approx(0.25, rel=1e-12)
        assert lam < 1e-5 and lam1 < 1e-5

    def test_ranges(self):
        for delta in (0.01, 0.1, 0.5, 0.99):
            _, y, y0, lam, lam1 = _budget(500, delta)
            assert 0.0 < y <= 0.25 and 0.0 < y0 <= 0.25
            assert 0.0 <= lam < 1.0 and 0.0 <= lam1 < 1.0

    def test_lambda_root_n_scaling(self):
        # lam * sqrt(n) tends to the constant 2 sqrt(-ln(1-delta))
        delta = 0.1
        limit = 2.0 * math.sqrt(-math.log1p(-delta))
        for n in (10**3, 10**4, 10**5, 10**6):
            scaled = _budget(n, delta)[3] * math.sqrt(n)
            assert 0.95 * limit <= scaled <= 1.0001 * limit

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_domain(self, delta):
        with pytest.raises(DomainError):
            _budget(100, delta)

    def test_blocklength_beyond_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            _budget(10**400, 0.1)
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

    def test_nec_inverts_hellinger(self, invert_monotone):
        n, delta = 2000, 0.1
        theta = invert_monotone(lambda t: hellinger_sq(ChannelPoint(n=n, theta=t)), delta)
        assert p_nec(n, delta) == pytest.approx(theta, rel=1e-9)

    def test_suf_inverts_sason_bound(self, invert_monotone):
        n, delta = 2000, 0.01
        theta = invert_monotone(
            lambda t: tvd_bounds(ChannelPoint(n=n, theta=t)).sason_upper, delta
        )
        assert p_suf(n, delta) == pytest.approx(theta, rel=1e-9)

    def test_suf_below_nec(self):
        assert p_suf(2000, 0.1) < p_nec(2000, 0.1)

    def test_sigma2_scaling(self):
        assert p_nec(500, 0.1, sigma2=3.0) == pytest.approx(3.0 * p_nec(500, 0.1), rel=1e-14)

    @pytest.mark.parametrize("n, delta, sigma2, bad", (
        (10, 0.5, 1e308, {p_nec}),
        (1, 0.999999, 1e308, {p_suf, p_nec}),
        (1000, 0.5, 1e-320, {p_suf, p_nec}),
        (10**20, 7e-299, 1.0, {p_suf}),
    ))
    def test_level_outside_normal_range_raises_accuracy_error(self, n, delta, sigma2, bad):
        # inf above the double range, and subnormal levels with 2-3 digits
        # below it; in the last case p_suf is subnormal in snr units too,
        # while p_exact's theta is still normal
        for level in (p_suf, p_nec):
            if level in bad:
                with pytest.raises(AccuracyError, match="outside the normal double range"):
                    level(n, delta, sigma2)
            else:
                assert math.isfinite(level(n, delta, sigma2))
        with pytest.raises(AccuracyError, match="outside the normal double range"):
            p_exact(n, delta, sigma2)

    @pytest.mark.parametrize("n, delta", (
        (10**6, 1e-170), (10**200, 1e-60), (10**292, 0.5), (10**300, 1e-3),
        (10**300, 1e-15), (10**308, 0.1), (10**308, 1e-15), (int(1.7e308), 1e-300),
    ), ids=lambda v: f"{v:.2g}")
    def test_budget_below_normal_range_keeps_its_digits(self, n, delta):
        # 1 - 4y or 1 - 4y0 is subnormal or 0.0 here (p_suf read 0.0 at
        # delta = 1e-170 and 1e-15); 50-digit mpmath of the same closed forms
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            N, D = mp.mpf(n), mp.mpf(delta)
            for level, log_4y in ((p_suf, 2 / N * mp.log1p(-D * D)), (p_nec, 4 / N * mp.log1p(-D))):
                lam = mp.sqrt(-mp.expm1(log_4y))
                ref = 2 * lam * (1 + lam) / mp.exp(log_4y)
                if ref < sys.float_info.min:
                    continue  # p_suf at delta = 1e-300, below the normal range
                assert abs(level(n, delta) - ref) <= 4e-16 * ref, level

    def test_levels_at_the_edges_of_the_normal_range(self):
        # the largest and smallest sigma2 that keep every level of
        # (10, 0.5) a normal double scale them exactly as in snr units
        snr = p_exact(10, 0.5)
        for sigma2 in (1.7e308 / snr.p_nec, 2.3e-308 / snr.p_suf):
            interval = p_exact(10, 0.5, sigma2)
            assert interval.p_suf == snr.p_suf * sigma2
            assert interval.p_exact == snr.p_exact * sigma2
            assert interval.p_nec == snr.p_nec * sigma2


#: (p_suf, p_exact, p_nec) as float.hex, recorded on CPython 3.11.7 with
#: scipy 1.17.1 (x86-64 Linux).  Every row is the closed form, so a change
#: to _theta_start or to the budget formulas moves these bits.  Residuals
#: |V(p_exact) - delta| / delta against 30-digit mpmath at delta = 1e-6,
#: 0.01, 0.1 and 0.5, with the Newton polish of the earlier solver -> now:
#:   n = 500: 2.1e-10 -> 5.8e-14, 6.8e-14 -> 5.8e-14, 2.8e-15 -> 5.8e-14, 8.8e-16 -> 6.0e-14
#:   n = 2000: 8.5e-11 -> 1.6e-16, 9.4e-14 -> 3.3e-17, 2.2e-15 -> 1.6e-16, 1.8e-15 -> 1.9e-16
#:   n = 10**5: 7.3e-9 -> 1.7e-16, 2.7e-13 -> 3.1e-16, 6.3e-14 -> 1.5e-16, 1.0e-15 -> 5.9e-17
#:   n = 10**6: 1.2e-8 -> 2.3e-16, 1.3e-12 -> 4.1e-16, 2.1e-13 -> 7.5e-17, 6.6e-14 -> 6.0e-17
#:   n = 10**18: 2.9e-2 -> 1.7e-16, 8.1e-7 -> 3.4e-16, 1.7e-7 -> 8.1e-17, 3.5e-8 -> 6.2e-17
P_EXACT_HEX = {
    (500, 1e-06): ("0x1.0fa339bda9f98p-23", "0x1.548f8d5d4392bp-23", "0x1.772f00bc6593cp-13"),
    (500, 0.01): ("0x1.4bce950511465p-10", "0x1.a01073808df0bp-10", "0x1.28799e56e5182p-6"),
    (500, 0.1): ("0x1.a22cd602056b2p-7", "0x1.06980321b65a0p-6", "0x1.e9c8cc9ce1f6fp-5"),
    (500, 0.5): ("0x1.1f90779fd6829p-4", "0x1.6cf1e426cd365p-4", "0x1.490f5cd602264p-3"),
    (2000, 1e-06): ("0x1.0fa3392d8c7bfp-24", "0x1.5479c16ef453dp-24", "0x1.772ab51cf4583p-14"),
    (2000, 0.01): ("0x1.4bb3b7d61490fp-11", "0x1.9fcb98712b878p-11", "0x1.2724f59f773e9p-7"),
    (2000, 0.1): ("0x1.a0d92f6d0908dp-8", "0x1.057be65996dbap-7", "0x1.e2a614879b773p-6"),
    (2000, 0.5): ("0x1.1aaa8d0d613d4p-5", "0x1.650dd67c0a74bp-5", "0x1.3cb1b8e81b133p-4"),
    (10**5, 1e-06): ("0x1.3352a5e91aadcp-27", "0x1.812c3690f0a78p-27", "0x1.a86fbf566cf59p-17"),
    (10**5, 0.01): ("0x1.772d15b336e61p-14", "0x1.d6385e74f1af7p-14", "0x1.4ca21a0b450b6p-10"),
    (10**5, 0.1): ("0x1.d653b7b196e8cp-11", "0x1.26cd7cf5ab615p-10", "0x1.0da1b49dcaf79p-8"),
    (10**5, 0.5): ("0x1.3b27954482259p-8", "0x1.8c900859db536p-8", "0x1.5ae811e7b17d7p-7"),
    (10**6, 1e-06): ("0x1.84bc6eb9e4327p-29", "0x1.e7355f635a3c8p-29", "0x1.0c6fa1a07d002p-18"),
    (10**6, 0.01): ("0x1.da8cc6771e56dp-16", "0x1.2961ab1c8d4bfp-15", "0x1.a491aafcc8596p-12"),
    (10**6, 0.1): ("0x1.295ea71bc9343p-12", "0x1.74c15dd450d50p-12", "0x1.5494d2385b833p-10"),
    (10**6, 0.5): ("0x1.8dfd1f0f480d7p-10", "0x1.f494d485e7a3dp-10", "0x1.b539e2e11d0c5p-9"),
    (10**18, 1e-06): ("0x1.979e8ae80281dp-49", "0x1.fee002a1be137p-49", "0x1.19799caf78aa6p-38"),
    (10**18, 0.01): ("0x1.f19837d8b8be6p-36", "0x1.37d2509f8959dp-35", "0x1.b8e9002c80c15p-32"),
    (10**18, 0.1): ("0x1.37c543a1d906bp-32", "0x1.86caf3916b584p-32", "0x1.64e4c389bc5b2p-30"),
    (10**18, 0.5): ("0x1.a101458bf85ecp-30", "0x1.0632d04d80832p-29", "0x1.c9b3a5247e22dp-29"),
}

#: the erfinv bits the table was recorded with; another scipy build may
#: round them differently, and the table then says nothing about the code
ERFINV_HEX = {1e-06: "0x1.dbca19e678b8ep-21", 0.5: "0x1.e861fbb24c00ap-2"}

def count_kernel_calls(monkeypatch) -> list:
    """The list that collects the z of every P(n/2, z) the distance kernel
    computes from here on; a distance evaluation is two of them."""
    calls = []

    def counting_gammainc(a, z):
        calls.append(z)
        return gammainc(a, z)

    monkeypatch.setattr(covertvd.tvd, "gammainc", counting_gammainc)
    return calls


class TestPExact:
    @pytest.mark.parametrize("n, delta", sorted(P_EXACT_HEX))
    def test_recorded_bits(self, n, delta):
        if any(erfinv(d).hex() != h for d, h in ERFINV_HEX.items()):
            pytest.skip("erfinv rounds differently from the recording build")
        interval = p_exact(n, delta)
        got = (interval.p_suf.hex(), interval.p_exact.hex(), interval.p_nec.hex())
        assert got == P_EXACT_HEX[n, delta]

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
        assert _budget(n, delta)[3] == 1.0
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

    @pytest.mark.parametrize("n", (2, 10, 100, 300))
    @pytest.mark.parametrize("delta", (1e-3, 0.01, 0.1, 0.5))
    def test_brent_call_count_and_residual(self, monkeypatch, n, delta):
        # every distance evaluation of the Brent solve, the two bracket ends
        # included, is two P(n/2, .) calls of the kernel; measured 6 to 9
        # evaluations on this grid
        calls = count_kernel_calls(monkeypatch)
        interval = p_exact(n, delta)
        assert len(calls) <= 2 * 9
        assert interval.p_suf <= interval.p_exact <= interval.p_nec
        achieved = tvd_exact(ChannelPoint(n=n, theta=interval.p_exact)).value
        assert abs(achieved - delta) <= 1e-8 * delta

    @pytest.mark.parametrize("n", _BELOW_N0)
    @pytest.mark.parametrize("delta", (1e-3, 1.2e-3, 0.01, 0.1, 0.5, 0.999))
    def test_solve_against_mpmath(self, tvd_mpmath, n, delta):
        # the truth gate below n = 500, where Brent solves at rtol 1e-12:
        # residual against 30-digit mpmath within 1.8e-12 delta, the worst
        # of the Newton polish it replaced (measured at most 5.3e-13 delta
        # on this grid)
        interval = p_exact(n, delta)
        assert interval.p_suf <= interval.p_exact <= interval.p_nec
        assert abs(tvd_mpmath(n, interval.p_exact, dps=30) - delta) <= 1.8e-12 * delta

    @pytest.mark.parametrize("n", _BELOW_N0)
    @pytest.mark.parametrize("delta", (1e-14, 1e-12, 1e-9, 1e-6))
    def test_small_budget_solve_within_kernel_noise(self, tvd_mpmath, n, delta):
        # below delta ~ 1e-3 the kernel's ~1e-16 absolute noise, not the
        # tolerance, sets the residual: measured at most 1.5e-15 absolute
        # over 300 seeded draws with n < 500 and delta in [1e-14, 1e-3];
        # from delta = 1e-14 up the solve returns rather than raising
        interval = p_exact(n, delta)
        assert interval.p_suf <= interval.p_exact <= interval.p_nec
        assert abs(tvd_mpmath(n, interval.p_exact, dps=30) - delta) <= 3e-15

    def test_distance_evaluations_per_solve(self, monkeypatch):
        # from n = 500 up p_exact is the closed form and evaluates no
        # distance, at every budget and at blocklengths where the kernel
        # cannot resolve V; below, the Brent solve evaluates both bracket
        # ends and five iterates at (200, 0.1)
        calls = count_kernel_calls(monkeypatch)
        for n in (500, 2000, 10**6, 10**13, 10**26, 10**308):
            for delta in (1e-15, 1e-6, 0.1, 1 - 1e-6):
                interval = p_exact(n, delta)
                assert interval.p_suf <= interval.p_exact <= interval.p_nec
        assert calls == []
        p_exact(200, 0.1)
        assert len(calls) == 2 * 7

    def test_mean_evaluations_on_figure_domain(self, monkeypatch):
        # the domain of the power figures: n in [500, 5000] at delta in
        # [0.01, 0.1], and n ~ 2000 at delta in [0.01, 0.5].  The closed
        # form evaluates no distance there (2.01 per solve with the Newton
        # polish it replaced)
        calls = count_kernel_calls(monkeypatch)
        rng = random.Random(27)
        points = [(round(10 ** rng.uniform(math.log10(500), math.log10(5000))),
                   10 ** rng.uniform(-2, -1)) for _ in range(100)]
        points += [(rng.randint(1800, 2200), 10 ** rng.uniform(-2, math.log10(0.5)))
                   for _ in range(50)]
        for n, delta in points:
            p_exact(n, delta)
        assert calls == []

    def test_later_scipy_optimize_import(self, run_python):
        # _brentq is loaded without scipy.optimize's package init, which a
        # later import of scipy.optimize then runs as usual
        run_python("""
            import sys
            from covertvd.power import p_exact
            before = p_exact(100, 0.1)
            assert "scipy.optimize" not in sys.modules
            import scipy.optimize
            assert scipy.optimize.__file__.endswith("__init__.py")
            assert abs(scipy.optimize.brentq(lambda x: x * x - 2.0, 0.0, 2.0) - 2.0 ** 0.5) <= 1e-11
            assert p_exact(100, 0.1) == before
        """)

    @pytest.mark.parametrize("error", (DomainError, ValueError, RuntimeError))
    def test_distance_errors_pass_through_the_solve(self, monkeypatch, error):
        # DomainError is a ValueError, as is the bracket failure of _brentq;
        # an error of the distance at the first iterate, after both bracket
        # ends, must not be read as either
        thetas = []

        def failing(n, theta):
            thetas.append(theta)
            if len(thetas) == 3:
                raise error("from the distance")
            return _tvd_value(n, theta)

        monkeypatch.setattr(covertvd.power, "_tvd_value", failing)
        with pytest.raises(error, match="from the distance"):
            p_exact(200, 0.1)

    def test_unconverged_solve_raises_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(covertvd.power, "_MAX_ITER", 2)
        with pytest.raises(AccuracyError, match="did not converge in 2 iterations"):
            p_exact(200, 0.1)

    @pytest.mark.parametrize("shift", (0.5, -1.0))
    def test_unbracketed_root_raises(self, monkeypatch, shift):
        # +0.5 lifts V(p_suf) above delta, -1 drops V(p_nec) below it; the
        # Brent solve runs below n = 500 only
        monkeypatch.setattr(
            covertvd.power, "_tvd_value", lambda n, theta: _tvd_value(n, theta) + shift
        )
        with pytest.raises(ConsistencyError, match="not bracketed"):
            p_exact(200, 0.1)

    @pytest.mark.parametrize("factor", (0.5, 4.0))
    def test_unbracketed_closed_form_raises(self, monkeypatch, factor):
        # half the start lies below p_suf at delta = 0.1, four times it
        # above p_nec
        monkeypatch.setattr(covertvd.power, "_theta_start",
                            lambda n, delta: factor * _theta_start(n, delta))
        with pytest.raises(ConsistencyError, match="not bracketed"):
            p_exact(2000, 0.1)

    @pytest.mark.parametrize("n, delta", ((10**300, 1e-300), (500, 1e-320)))
    def test_closed_form_below_normal_range_raises_accuracy_error(self, n, delta):
        with pytest.raises(AccuracyError, match="below the normal double range"):
            p_exact(n, delta)

    @pytest.mark.parametrize("n", (1, 500, 10**6))
    def test_interval_matches_closed_forms(self, n):
        interval = p_exact(n, 0.1, sigma2=2.5)
        assert interval.p_suf == p_suf(n, 0.1, sigma2=2.5)
        assert interval.p_nec == p_nec(n, 0.1, sigma2=2.5)

    @pytest.mark.parametrize("n", (10**32, 10**40, 10**308))
    def test_closed_form_where_kernel_cannot_resolve_v(self, n):
        # f and g are at most a few ulps of n/2 apart up to p_nec, so the
        # kernel cannot resolve V there; the closed form is the square-root
        # law 4 erfinv(delta)/sqrt(n), whose 1/n terms are below its ulp
        interval = p_exact(n, 0.1)
        assert interval.p_exact == pytest.approx(4.0 * erfinv(0.1) / math.sqrt(n), rel=1e-15)
        assert interval.p_suf < interval.p_exact < interval.p_nec

    @pytest.mark.parametrize("n, delta", ((1, 1e-40), (499, 1e-35)))
    def test_kernel_that_cannot_resolve_v_raises_accuracy_error(self, n, delta):
        # below n = 500, where Brent runs, f and g round to n/2 at every
        # theta up to p_nec at these budgets, so the kernel reads V = 0 on
        # the whole bracket: the kernel fails, not the solver
        with pytest.raises(AccuracyError, match="round to the same double"):
            p_exact(n, delta)

    @pytest.mark.parametrize("n", (100, 10**3, 10**4, 10**5, 10**6, 10**9, 10**12, 10**32))
    @pytest.mark.parametrize("delta", (1e-6, 1e-3, 0.05, 0.3, 0.8))
    def test_nondecreasing_in_delta(self, n, delta):
        # 200 relative steps of 1e-7 in the budget never lower the power
        powers = [p_exact(n, delta * (1.0 + 1e-7) ** k).p_exact for k in range(200)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    @pytest.mark.parametrize("n", (500, 10**4, 10**9, 10**32, 10**300))
    @pytest.mark.parametrize("delta", (1e-6, 0.1, 0.8))
    def test_nonincreasing_in_blocklength(self, n, delta):
        # 200 steps of ceil(n 1e-7) in the blocklength never raise the power
        step = -(-n // 10**7)
        powers = [p_exact(n + k * step, delta).p_exact for k in range(200)]
        assert all(b <= a for a, b in zip(powers, powers[1:]))


def eta_mpmath(theta):
    """eta(theta) = sqrt(phi(d_f) + phi(d_g)) in 50-digit mpmath, with
    phi(x) = x - ln(1 + x), d_g = ln(1 + theta)/theta - 1, d_f = d_g + ln(1 + theta)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        t = mp.mpf(theta)
        d_g = mp.log1p(t) / t - 1
        d_f = d_g + mp.log1p(t)
        return mp.sqrt(d_f - mp.log1p(d_f) + d_g - mp.log1p(d_g))


class TestStart:
    """The closed form of p_exact from n = 500 up: the reverted eta series
    and how close the inverted square-root law lands."""

    def test_reverted_series_inverts_eta(self):
        rng = random.Random(4)
        etas = [0.05 * k / 50 for k in range(1, 51)] + [10 ** rng.uniform(-12, math.log10(0.05))
                                                       for _ in range(50)]
        for eta in etas:
            assert abs(eta_mpmath(_theta_of_eta(eta)) / eta - 1) <= 1e-15, eta

    def test_reverted_series_up_to_the_largest_closed_form_eta(self):
        # eta_0 reaches 0.31 at n = 500, delta = 1 - 1e-6; the truncation
        # grows like eta^10 past 0.05 (measured 3.8e-14 at 0.1, 3.3e-11 at
        # 0.2 and 2.2e-9 at 0.31)
        for eta in [0.05 + 0.26 * k / 26 for k in range(27)]:
            err = abs(eta_mpmath(_theta_of_eta(eta)) / eta - 1)
            assert err <= max(1e-15, 2.5e-9 * (eta / 0.31) ** 9), eta

    def test_start_lands_near_the_root(self, tvd_mpmath):
        # below n = 500, where p_exact solves instead, the start's residual
        # against mpmath falls like n^-4 for delta <= 0.5 (measured at most
        # 3.8e-3/n^4 over 60 seeded draws); from n = 500 up the start is
        # p_exact itself, and test_closed_form_meets_stated_bound covers it
        rng = random.Random(5)
        for _ in range(40):
            n = round(10 ** rng.uniform(2, math.log10(500)))
            delta = 10 ** rng.uniform(-6, math.log10(0.5))
            resid = abs(tvd_mpmath(n, _theta_start(n, delta), dps=30) - delta)
            assert resid <= 5e-3 / n**4 * delta, (n, delta)

    def test_closed_form_meets_stated_bound(self, monkeypatch, tvd_mpmath):
        # p_exact's stated bound for n >= 500 and delta in [1e-15, 1 - 1e-6]:
        # |V - delta| <= 1e-12 delta, and 1e-15 delta from n = 2000 up
        # (measured 6.1e-13 at n = 500, delta ~ 0.9985, and at most 4.2e-16
        # from n = 3000 to 1e300); no distance is evaluated
        calls = count_kernel_calls(monkeypatch)
        rng = random.Random(31)
        ns = [round(10 ** rng.uniform(math.log10(500), 300)) for _ in range(40)]
        ns += [rng.randint(500, 2000) for _ in range(20)]
        for n in ns:
            if rng.random() < 0.5:
                delta = 10 ** rng.uniform(-15, math.log10(0.5))
            else:
                delta = 1.0 - 10 ** rng.uniform(-6, math.log10(0.5))
            resid = abs(tvd_mpmath(n, p_exact(n, delta).p_exact, dps=30) - delta)
            assert resid <= (1e-12 if n < 2000 else 1e-15) * delta, (n, delta)
        assert calls == []


# distance figure -> (column, ceiling, relative?): each column's worst error
# against 30-digit mpmath, measured 1.27e-12 (fig7), 6.9e-16 (fig8) and
# 1.10e-13 (fig9) relative for tvd_exact, 0.0808 absolute for fig8's series
# (the optimal-truncation floor at n = 1000) and 5.5e-15 for fig9's
_DISTANCE_CEILINGS = {
    "fig7": (("tvd_exact", 1.3e-12, True),),
    "fig8": (("tvd_exact", 7e-16, True), ("series_low_tau", 0.081, False)),
    "fig9": (("tvd_exact", 1.2e-13, True), ("series_high_tau", 6e-15, False)),
}


@pytest.mark.parametrize("name", ("fig2", "fig3", "fig6", *_DISTANCE_CEILINGS))
def test_figure_powers_against_mpmath(name, tvd_mpmath):
    # the figure truth gate: every p_exact meets its budget to 1e-12
    # relative in 30-digit arithmetic (worst 5.8e-14, in fig2 at n = 500,
    # delta = 0.1), and every distance column stays within its ceiling;
    # ceilings only go down
    for row in _figure_rows(name):
        if name not in _DISTANCE_CEILINGS:
            resid = abs(tvd_mpmath(row["n"], row["p_exact"], dps=30) - row["delta"])
            assert resid <= 1e-12 * row["delta"], row
            continue
        truth = tvd_mpmath(row["n"], row["theta"], dps=30)
        for column, ceiling, relative in _DISTANCE_CEILINGS[name]:
            assert abs(row[column] - truth) <= ceiling * (truth if relative else 1), (column, row)
