"""Quadrature and Monte Carlo oracles, and their agreement with the exact
evaluation path."""

import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertvd import oracles
from covertvd.errors import AccuracyError, DomainError
from covertvd.oracles import lrt_threshold, simulate_test, tvd_quadrature
from covertvd.special import reg_lower_gamma, reg_upper_gamma
from covertvd.tvd import fg, tvd_exact
from covertvd.types import METHOD_QUADRATURE, ChannelPoint


class TestLrtThreshold:
    def test_small_snr_limit(self):
        # R^2 / sigma^2 -> n as theta -> 0
        point = ChannelPoint(n=800, sigma2=2.0, theta=1e-10)
        assert lrt_threshold(point) / point.sigma2 == pytest.approx(800.0, rel=1e-6)

    def test_two_sample_unit_snr(self):
        assert lrt_threshold(ChannelPoint(n=2, theta=1.0)) == pytest.approx(
            2.772588722239781, rel=1e-14
        )

    @given(n=st.integers(2, 10**5), theta=st.floats(1e-5, 5.0), sigma2=st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_scaled_thresholds_are_f_and_g(self, n, theta, sigma2):
        point = ChannelPoint(n=n, sigma2=sigma2, theta=theta)
        pair = fg(point)
        r2 = lrt_threshold(point)
        assert r2 / (2.0 * point.sigma2) == pytest.approx(pair.f, rel=1e-12)
        assert r2 / (2.0 * point.sigma1_sq) == pytest.approx(pair.g, rel=1e-12)

    def test_degenerate_at_zero_snr(self):
        with pytest.raises(DomainError):
            lrt_threshold(ChannelPoint(n=10, theta=0.0))

    @pytest.mark.parametrize("theta", (1e307, 1e308, 1.7e308))
    def test_finite_where_n_theta_overflows(self, theta):
        # n sigma^2 (1 + theta) passes the double range; R^2 ~ ln(1 + theta) does not
        point = ChannelPoint(n=1, theta=theta)
        assert lrt_threshold(point) == pytest.approx(math.log1p(theta), rel=1e-15)

    @given(n=st.integers(1, 10**6), theta=st.floats(1e-8, 1e300), sigma2=st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_finite_threshold_bits_unchanged(self, n, theta, sigma2):
        # R^2 is 2 sigma^2 f at the kernel's own f, bit for bit
        point = ChannelPoint(n=n, sigma2=sigma2, theta=theta)
        assert lrt_threshold(point) == 2.0 * point.sigma2 * fg(point).f


def one_shot_simulate_test(point, m, seed, threshold_sq):
    """Reference: simulate_test with all m energies drawn in one call."""
    r2 = lrt_threshold(point) if threshold_sq is None else threshold_sq
    child = np.random.SeedSequence(seed).spawn(1)[0]
    x = np.random.Generator(np.random.PCG64(child)).chisquare(point.n, size=m)
    with np.errstate(over="ignore"):
        false_alarms = int(np.count_nonzero(point.sigma2 * x > r2))
        missed = int(np.count_nonzero(point.sigma1_sq * x <= r2))
    p = (false_alarms + missed) / m
    return oracles.DetectionEstimate(
        alpha_hat=false_alarms / m, beta_hat=missed / m, samples=m, seed=seed,
        std_err=math.sqrt(p * (1.0 - p) / m),
    )


class TestSimulateTest:
    def test_deterministic_given_seed(self):
        point = ChannelPoint(n=200, theta=0.2)
        a = simulate_test(point, m=20000, seed=123)
        b = simulate_test(point, m=20000, seed=123)
        assert a == b

    def test_seed_changes_stream(self):
        point = ChannelPoint(n=200, theta=0.2)
        a = simulate_test(point, m=20000, seed=123)
        b = simulate_test(point, m=20000, seed=124)
        assert (a.alpha_hat, a.beta_hat) != (b.alpha_hat, b.beta_hat)

    def test_identical_hypotheses_sum_to_one(self):
        # theta = 0 has no optimal threshold; any fixed one gives
        # alpha + beta = 1 in expectation
        point = ChannelPoint(n=500, theta=0.0)
        est = simulate_test(point, m=10**5, seed=11, threshold_sq=500.0)
        assert abs((est.alpha_hat + est.beta_hat) - 1.0) <= 3.0 * est.std_err

    def test_matches_exact_distance(self):
        point = ChannelPoint(n=500, theta=0.1)
        est = simulate_test(point, m=10**5, seed=20260808)
        exact = tvd_exact(point).value
        assert abs(est.tvd_hat - exact) <= 4.0 * est.std_err

    def test_coverage_over_seeds(self):
        point = ChannelPoint(n=500, theta=0.1)
        exact = tvd_exact(point).value
        covered = 0
        for seed in range(20):
            est = simulate_test(point, m=10**5, seed=seed)
            if abs(est.tvd_hat - exact) <= 3.0 * est.std_err:
                covered += 1
        assert covered >= 18

    def test_threshold_sweep_never_beats_optimum(self):
        # TVD is the supremum over tests; detuning R^2 by up to 20% must
        # not raise the empirical decision statistic beyond noise
        point = ChannelPoint(n=500, theta=0.1)
        r2 = lrt_threshold(point)
        base = simulate_test(point, m=10**5, seed=3)
        for factor in (0.8, 0.9, 0.95, 1.05, 1.1, 1.2):
            est = simulate_test(point, m=10**5, seed=3, threshold_sq=factor * r2)
            assert est.tvd_hat - base.tvd_hat <= 3.0 * est.std_err

    def test_std_err_formula(self):
        # one draw per trial: the error count is Binomial(m, alpha + beta)
        est = simulate_test(ChannelPoint(n=100, theta=0.3), m=50000, seed=5)
        p = round((est.alpha_hat + est.beta_hat) * est.samples) / est.samples
        manual = math.sqrt(p * (1 - p) / est.samples)
        assert est.std_err == pytest.approx(manual, rel=1e-15)

    @pytest.mark.parametrize("point", [
        ChannelPoint.from_tau(10**3, 0.5),
        ChannelPoint.from_tau(10**5, 0.7),
        ChannelPoint.from_tau(10**6, 0.9),
        ChannelPoint(n=100, theta=0.3),
        ChannelPoint(n=500, theta=0.1),
    ])
    def test_std_err_matches_spread_over_seeds(self, point):
        # std_err must be the true standard error of tvd_hat: under the
        # coupling the independent-draw formula claims 20x the spread at
        # n = 1e6, tau = 0.9, and with independent draws the coupled
        # formula claims far too little
        runs = [simulate_test(point, m=10**4, seed=seed) for seed in range(200)]
        spread = statistics.pstdev(est.tvd_hat for est in runs)
        claimed = statistics.fmean(est.std_err for est in runs)
        assert 0.8 <= spread / claimed <= 1.25

    @pytest.mark.parametrize("point", [
        ChannelPoint(n=500, theta=0.1),
        ChannelPoint.from_tau(10**6, 0.9),
        ChannelPoint(n=200, sigma2=2.5, theta=0.2),
    ])
    def test_marginals_match_exact_error_probabilities(self, point):
        # alpha = Q(n/2, f) and beta = P(n/2, g), each a binomial proportion
        m = 10**6
        est = simulate_test(point, m=m, seed=42)
        pair = fg(point)
        alpha = reg_upper_gamma(0.5 * point.n, pair.f)
        beta = reg_lower_gamma(0.5 * point.n, pair.g)
        assert abs(est.alpha_hat - alpha) <= 4.0 * math.sqrt(alpha * (1 - alpha) / m)
        assert abs(est.beta_hat - beta) <= 4.0 * math.sqrt(beta * (1 - beta) / m)

    @pytest.mark.parametrize("seed", (0, 9, 2**32))
    def test_one_chisquare_stream_serves_both_hypotheses(self, seed):
        # pins the stream: m variates of one SeedSequence child, used once
        point = ChannelPoint(n=200, sigma2=2.5, theta=0.2)
        m = 20001
        est = simulate_test(point, m=m, seed=seed)
        child = np.random.SeedSequence(seed).spawn(1)[0]
        x = np.random.Generator(np.random.PCG64(child)).chisquare(point.n, m)
        r2 = lrt_threshold(point)
        assert est.alpha_hat == np.count_nonzero(point.sigma2 * x > r2) / m
        assert est.beta_hat == np.count_nonzero(point.sigma1_sq * x <= r2) / m

    @pytest.mark.parametrize("m", (1, 8191, 8192, 8193, 100003))
    @pytest.mark.parametrize("n", (1, 2, 3, 10**6))
    @pytest.mark.parametrize("threshold", (None, "half"))
    @pytest.mark.parametrize("theta", (0.05, 1e308))
    def test_blocks_match_one_shot_draw(self, m, n, threshold, theta):
        # the counts of one m-long draw, at block edges and past several
        # blocks; at theta = 1e308, sigma1^2 X overflows to inf in some trials
        point = ChannelPoint(n=n, sigma2=1.5, theta=theta)
        r2 = None if threshold is None else 0.5 * lrt_threshold(point)
        est = simulate_test(point, m=m, seed=77, threshold_sq=r2)
        assert est == one_shot_simulate_test(point, m, 77, r2)

    def test_memory_constant_in_m(self):
        point = ChannelPoint.from_tau(54321, 0.7)
        simulate_test(point, m=20000, seed=3)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            simulate_test(point, m=2_000_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # one m-long draw would be 16 MB

    def test_error_events_are_disjoint(self):
        # alpha_hat + beta_hat <= 1 at any threshold, and = 1 with no
        # sampling error when the hypotheses coincide
        point = ChannelPoint(n=50, theta=0.5)
        for r2 in (1.0, 50.0, 60.0, 1e4):
            est = simulate_test(point, m=1000, seed=1, threshold_sq=r2)
            assert est.alpha_hat + est.beta_hat <= 1.0
        est = simulate_test(ChannelPoint(n=50, theta=0.0), m=1000, seed=1, threshold_sq=50.0)
        assert est.alpha_hat + est.beta_hat == 1.0
        assert est.std_err == 0.0

    def test_small_m_allowed_with_wide_error(self):
        est = simulate_test(ChannelPoint(n=100, theta=0.3), m=100, seed=1)
        assert est.std_err > 1e-2

    def test_domain(self):
        point = ChannelPoint(n=100, theta=0.3)
        with pytest.raises(DomainError):
            simulate_test(point, m=0, seed=1)


class TestTvdQuadrature:
    def test_zero_snr(self):
        ev = tvd_quadrature(ChannelPoint(n=100, theta=0.0))
        assert ev.value == 0.0
        assert ev.method == METHOD_QUADRATURE

    def test_two_sample_closed_form(self):
        ev = tvd_quadrature(ChannelPoint(n=2, theta=1.0))
        assert abs(ev.value - 0.25) <= 1e-10

    @pytest.mark.parametrize("n", (2, 10, 100, 1000, 2000, 10**4, 10**5, 10**6))
    @pytest.mark.parametrize("tau", (0.3, 0.5, 0.8))
    def test_agrees_with_exact_path(self, n, tau):
        point = ChannelPoint.from_tau(n, tau)
        assert abs(tvd_quadrature(point).value - tvd_exact(point).value) <= 1e-12

    def test_err_estimate_holds_against_mpmath(self, tvd_mpmath):
        rng = random.Random(96)
        for _ in range(48):
            n, tau = round(10 ** rng.uniform(0, 7)), rng.uniform(0.02, 0.99)
            point = ChannelPoint.from_tau(n, tau)
            ev = tvd_quadrature(point)
            assert abs(ev.value - tvd_mpmath(n, point.theta, dps=30)) <= ev.err_estimate, (n, tau)

    def test_error_estimate_reported(self):
        ev = tvd_quadrature(ChannelPoint(n=500, theta=0.05))
        assert 0.0 <= ev.err_estimate <= 1e-10
        assert ev.terms_used > 0

    @staticmethod
    def fake_qagse(monkeypatch, *result):
        # _qagse(func, a, b, args, full_output, epsabs, epsrel, limit) returns
        # (value, abserr, infodict, ier)
        monkeypatch.setattr(oracles, "_qagse", lambda *args: result)

    def test_quad_warning_within_target_is_accepted(self, monkeypatch):
        for ier in (1, 2, 3, 4, 5):
            self.fake_qagse(monkeypatch, 0.125, 1e-12, {"neval": 21}, ier)
            ev = tvd_quadrature(ChannelPoint(n=500, theta=0.05))
            assert ev.value == 0.125
            assert ev.terms_used == 21

    @pytest.mark.parametrize("n, tau", ((10**18, 0.5), (10**20, 0.3), (10**306, 0.5)))
    def test_density_overflow_is_accuracy_error(self, n, tau):
        # the old lgamma-form density overflowed at all three points; now
        # rounding the nodes to the ulp of n/2 misses the target at the first
        # two, and the limits round together at the third
        reason = "round together" if n > 10**300 else "exceeds target"
        with pytest.raises(AccuracyError, match=reason):
            tvd_quadrature(ChannelPoint.from_tau(n, tau))

    def test_quad_warning_reported_in_accuracy_error(self, monkeypatch):
        self.fake_qagse(monkeypatch, 0.125, 1e-6, {"neval": 21}, 1)
        with pytest.raises(AccuracyError, match=r"maximum number of subdivisions \(300\)"):
            tvd_quadrature(ChannelPoint(n=500, theta=0.05))

    @pytest.mark.parametrize("ier", (6, 7, 80))
    def test_unknown_quadpack_code_is_accuracy_error(self, monkeypatch, ier):
        # quad raised ValueError for ier = 6; no other code is a dqagse warning
        self.fake_qagse(monkeypatch, 0.125, 1e-12, {"neval": 21}, ier)
        with pytest.raises(AccuracyError, match=f"ier={ier}"):
            tvd_quadrature(ChannelPoint(n=500, theta=0.05))

    def test_nan_error_estimate_is_accuracy_error(self, monkeypatch):
        self.fake_qagse(monkeypatch, 0.0, math.nan, {"neval": 441}, 0)
        with pytest.raises(AccuracyError, match="error estimate nan exceeds target"):
            tvd_quadrature(ChannelPoint(n=500, theta=0.05))

    def test_non_finite_limits_never_reach_quadpack(self, monkeypatch):
        # f = (n/2)(1 + theta) ln(1 + theta)/theta passes the double range
        self.fake_qagse(monkeypatch, 0.125, 1e-12, {"neval": 21}, 0)
        with pytest.raises(AccuracyError, match="not finite"):
            tvd_quadrature(ChannelPoint(n=int(1.7e308), theta=1e300))

    @pytest.mark.parametrize("theta", (1e307, 1e308))
    def test_huge_snr_saturates(self, theta):
        # f is regrouped where (n/2)(1 + theta) overflows; V = 1 - O(1e-153)
        ev = tvd_quadrature(ChannelPoint(n=1, theta=theta))
        assert 0.0 <= ev.err_estimate <= 1e-10
        assert abs(ev.value - 1.0) <= ev.err_estimate


def test_package_import_leaves_scipy_integrate_unloaded(run_python):
    run_python("""
        import sys, covertvd
        assert "scipy.integrate" not in sys.modules
    """)


class TestBareQuadLoad:
    """tvd_quadrature calls QUADPACK's dqagse, bound at import from the
    compiled extension scipy.integrate._quadpack, without running
    scipy.integrate's package init or loading scipy's Python quad wrapper,
    and leaves scipy.integrate importable as usual."""

    def test_package_init_not_run(self, run_python):
        run_python("""
            import sys

            class Requests:
                # records every module the import system is asked to find
                names = []

                def find_spec(self, name, path=None, target=None):
                    self.names.append(name)
                    return None

            sys.meta_path.insert(0, Requests())
            from covertvd import oracles
            from covertvd.types import ChannelPoint
            assert Requests.names.count("scipy.integrate._quadpack") == 1
            for _ in range(2):
                ev = oracles.tvd_quadrature(ChannelPoint(n=2, theta=1.0))
                assert abs(ev.value - 0.25) <= 1e-10
            assert Requests.names.count("scipy.integrate._quadpack") == 1
            for name in ("scipy.integrate", "scipy.integrate._quadpack_py"):
                assert name not in Requests.names, name
            assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.")
                           for m in sys.modules)
            for name in ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy._lib._array_api",
                         "numpy.f2py", "numpy.testing"):
                assert name not in sys.modules, name
        """)

    def test_scipy_integrate_loads_afterwards(self, run_python):
        run_python("""
            import math
            from covertvd import oracles
            from covertvd.types import ChannelPoint
            point = ChannelPoint.from_tau(1000, 0.3)
            ev = oracles.tvd_quadrature(point)
            import scipy.integrate
            assert scipy.integrate.__file__.endswith("__init__.py")
            # quad's call for finite, ordered limits is this positional _qagse call
            for f, lo, hi in ((math.exp, 0.0, 1.0), (lambda t: t ** 9 * math.exp(-t), 1.0, 40.0),
                              (lambda t: t ** -0.5, 1e-300, 2.0),
                              (lambda t: abs(math.sin(1.0 / t)), 1e-9, 1.0)):  # ier = 1
                value, abserr, info, ier = oracles._qagse(f, lo, hi, (), 1, 1e-13, 1e-12, 300)
                b = scipy.integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=300,
                                         full_output=1)
                assert (value, abserr, info["neval"]) == (b[0], b[1], b[2]["neval"])
                assert (ier == 0) == (len(b) == 3)
            assert oracles.tvd_quadrature(point) == ev
            sol = scipy.integrate.solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0],
                                            rtol=1e-10, atol=1e-12)
            assert sol.success and abs(sol.y[0, -1] - math.exp(-1.0)) <= 1e-8
        """)

    def test_concurrent_first_calls(self, run_python):
        # threads that make the first import of covertvd at once wait on
        # Python's import lock for the one import that binds _qagse, instead
        # of finding the bare scipy.integrate stand-in
        run_python("""
            import sys
            import threading

            class Requests:
                names = []

                def find_spec(self, name, path=None, target=None):
                    self.names.append(name)
                    return None

            sys.meta_path.insert(0, Requests())
            taus = (0.2, 0.4, 0.6, 0.8)
            start = threading.Barrier(8)
            results, errors = {}, []

            def run(n, tau):
                start.wait()
                try:
                    from covertvd import oracles
                    from covertvd.types import ChannelPoint
                    results[n, tau] = oracles.tvd_quadrature(ChannelPoint.from_tau(n, tau))
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [threading.Thread(target=run, args=(n, tau))
                       for n in (100, 1000) for tau in taus]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            from covertvd import oracles
            from covertvd.tvd import tvd_exact
            from covertvd.types import ChannelPoint
            assert len(results) == 8
            for (n, tau), ev in results.items():
                point = ChannelPoint.from_tau(n, tau)
                assert ev == oracles.tvd_quadrature(point)
                assert abs(ev.value - tvd_exact(point).value) <= 1e-8
            assert Requests.names.count("scipy.integrate._quadpack") == 1
            assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.")
                           for m in sys.modules)
        """)

    def test_failed_bare_import_falls_back(self, run_python):
        run_python("""
            import sys

            class NeedsPackageInit:
                # refuses the extension while scipy.integrate is the bare stand-in
                def find_spec(self, name, path=None, target=None):
                    parent = sys.modules.get("scipy.integrate")
                    if name == "scipy.integrate._quadpack" and not hasattr(parent, "__file__"):
                        raise ImportError("needs scipy.integrate's package init")
                    return None

            sys.meta_path.insert(0, NeedsPackageInit())
            from covertvd import oracles
            from covertvd.types import ChannelPoint
            ev = oracles.tvd_quadrature(ChannelPoint(n=2, theta=1.0))
            assert abs(ev.value - 0.25) <= 1e-10
            import scipy.integrate
            assert scipy.integrate.__file__.endswith("__init__.py")
            assert oracles._qagse is scipy.integrate._quadpack._qagse
        """)
