"""Scaling-law sweeps, rate fits, and the stationarity check."""

import math
import random

import numpy as np
import pytest

from covertvd.asymptotics import (
    RateFit,
    ScalingSeries,
    TRANSFORM_LOG_LOG,
    TRANSFORM_LOG_NEG_LOG,
    default_n_grid,
    expected_exponent_range,
    fit_rate,
    stationarity_check,
    sweep_tvd,
)
from covertvd.divergences import kl_divergences
from covertvd.errors import DomainError, FitError
from covertvd.tvd import tvd_complement, tvd_exact
from covertvd.types import ChannelPoint


class TestSweep:
    def test_values_in_unit_interval_and_ordered(self):
        grid = default_n_grid(1000, 10000, 8)
        low = sweep_tvd(0.3, grid)
        high = sweep_tvd(0.8, grid)
        for _, v in low.points + high.points:
            assert 0.0 <= v <= 1.0
        lows = [v for _, v in low.points]
        highs = [v for _, v in high.points]
        assert all(b > a for a, b in zip(lows, lows[1:]))      # toward 1
        assert all(b < a for a, b in zip(highs, highs[1:]))    # toward 0

    def test_near_constant_at_half(self):
        series = sweep_tvd(0.5, default_n_grid(1000, 100000, 8))
        vals = [v for _, v in series.points]
        assert max(vals) - min(vals) <= 0.05

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sweep_tvd(0.5, ())
        with pytest.raises(DomainError):
            sweep_tvd(0.5, (100, 100))
        with pytest.raises(DomainError):
            sweep_tvd(1.5, (100, 200))
        with pytest.raises(DomainError):
            sweep_tvd(0.5, (True, 2, 3))

    def test_grid_beyond_double_range(self):
        with pytest.raises(DomainError, match="double range"):
            sweep_tvd(0.5, (100, 10**400))
        with pytest.raises(DomainError, match="double range"):
            default_n_grid(1000, 10**400, 3)


def fit_inputs(series):
    """The (ln n, transformed v) pairs fit_rate regresses, rebuilt from the
    series (complements re-evaluated in tail space where v saturates)."""
    x = [math.log(n) for n, _ in series.points]
    if series.tau > 0.5:
        return x, [math.log(v) for _, v in series.points]
    comp = [1.0 - v for _, v in series.points]
    if min(comp) <= 0.0:
        comp = [tvd_complement(ChannelPoint.from_tau(n, series.tau)) for n, _ in series.points]
    return x, [math.log(-math.log(c)) for c in comp]


class TestFitRateClosedForm:
    """fit_rate's centred fsum OLS against numpy lstsq and a 50-digit
    mpmath OLS on the same inputs, on seeded random grids."""

    def test_agrees_with_lstsq_and_is_closer_to_exact(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(23)
        err_fit, err_lstsq, transforms = [], [], set()
        for _ in range(200):
            tau = rng.uniform(0.2, 0.47) if rng.random() < 0.5 else rng.uniform(0.53, 0.95)
            grid = default_n_grid(rng.randint(100, 3000), rng.randint(20000, 10**6),
                                  rng.randint(6, 30))
            series = sweep_tvd(tau, grid)
            fit = fit_rate(series)
            transforms.add(fit.transform)
            x, y = fit_inputs(series)
            design = np.vstack([x, np.ones(len(x))]).T
            lstsq = float(np.linalg.lstsq(design, np.array(y), rcond=None)[0][0])
            assert abs(fit.exponent - lstsq) <= 1e-12 * max(1.0, abs(lstsq))
            with mp.workdps(50):
                xs, ys = [mp.mpf(v) for v in x], [mp.mpf(v) for v in y]
                x_mean, y_mean = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
                exact = mp.fsum((u - x_mean) * (v - y_mean) for u, v in zip(xs, ys)) / mp.fsum(
                    (u - x_mean) ** 2 for u in xs)
                ulp = math.ulp(float(exact))
                err_fit.append(float(abs(fit.exponent - exact)) / ulp)
                err_lstsq.append(float(abs(lstsq - exact)) / ulp)
        assert transforms == {TRANSFORM_LOG_LOG, TRANSFORM_LOG_NEG_LOG}
        # within a few ulps of exact, so never behind lstsq by more than
        # that, and in total far closer (lstsq errs by up to ~25 ulps here)
        assert all(e <= max(el, 4.0) for e, el in zip(err_fit, err_lstsq))
        assert sum(err_fit) <= sum(err_lstsq)
        assert max(err_fit) <= max(err_lstsq)


class TestFitRate:
    def test_recovers_synthetic_saturation_law(self):
        # v = 1 - exp(-0.25 n^0.4): the fit returns its own generator
        # (grid capped where 1 - v stays well-representable in doubles)
        ns = default_n_grid(500, 10000, 12)
        pts = tuple((n, 1.0 - math.exp(-0.25 * n**0.4)) for n in ns)
        fit = fit_rate(ScalingSeries(tau=0.3, points=pts))
        assert fit.transform == TRANSFORM_LOG_NEG_LOG
        assert fit.exponent == pytest.approx(0.4, abs=1e-9)
        assert fit.prefactor == pytest.approx(0.25, rel=1e-8)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_recovers_synthetic_decay_law(self):
        ns = default_n_grid(1000, 100000, 12)
        pts = tuple((n, 0.7 * n**-0.3) for n in ns)
        fit = fit_rate(ScalingSeries(tau=0.7, points=pts))
        assert fit.transform == TRANSFORM_LOG_LOG
        assert fit.exponent == pytest.approx(-0.3, abs=1e-9)
        assert fit.prefactor == pytest.approx(0.7, rel=1e-9)

    @pytest.mark.parametrize("tau", (0.6, 0.7, 0.8))
    def test_decay_exponent_within_claimed_bracket(self, tau):
        fit = fit_rate(sweep_tvd(tau, default_n_grid(1000, 100000, 12)))
        lo, hi = expected_exponent_range(tau)
        assert lo - 0.05 <= fit.exponent <= hi + 0.05
        assert fit.r_squared >= 0.999

    @pytest.mark.parametrize("tau", (0.2, 0.3, 0.4))
    def test_saturation_fit_is_clean_and_positive(self, tau):
        # the fitted exponent is positive with a tight fit; its absolute
        # agreement with 1 - 2 tau at these blocklengths is exercised (and
        # documented as failing) in the acceptance suite
        fit = fit_rate(sweep_tvd(tau, default_n_grid(1000, 100000, 12)))
        assert fit.transform == TRANSFORM_LOG_NEG_LOG
        assert fit.exponent > 0.0
        assert fit.r_squared >= 0.999

    def test_saturated_values_fall_back_to_tail_space(self):
        # at tau = 0.2 the stored distances hit 1.0 exactly; the fit must
        # still produce finite transformed coordinates
        fit = fit_rate(sweep_tvd(0.2, default_n_grid(1000, 100000, 12)))
        assert math.isfinite(fit.exponent)
        assert math.isfinite(fit.prefactor)

    def test_too_few_points(self):
        pts = tuple((n, 0.1 * n**-0.2) for n in (10, 20, 30, 40, 50))
        with pytest.raises(FitError):
            fit_rate(ScalingSeries(tau=0.7, points=pts))

    def test_non_monotone_rejected(self):
        ns = (100, 200, 300, 400, 500, 600)
        vals = (0.5, 0.4, 0.45, 0.3, 0.2, 0.1)
        with pytest.raises(FitError):
            fit_rate(ScalingSeries(tau=0.7, points=tuple(zip(ns, vals))))

    def test_zero_distance_rejected(self):
        # ln 0 would make the fit NaN, and a NaN fit must not pass as
        # conclusive
        ns = (100, 200, 300, 400, 500, 600)
        vals = (0.5, 0.4, 0.3, 0.2, 0.1, 0.0)
        with pytest.raises(FitError, match="underflows"):
            fit_rate(ScalingSeries(tau=0.7, points=tuple(zip(ns, vals))))

    def test_zero_distance_rejected_on_approach_to_one(self):
        # 1 - v = 1 gives ln(-ln 1) = ln 0; that fit was NaN with r^2 = 1
        ns = (100, 200, 300, 400, 500, 600)
        vals = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        with pytest.raises(FitError, match="must be positive"):
            fit_rate(ScalingSeries(tau=0.3, points=tuple(zip(ns, vals))))

    def test_coincident_log_blocklengths_rejected(self):
        # distinct integers past 2^53 with one ln n: no line through them
        ns = tuple(10**17 + k for k in range(6))
        vals = (0.5, 0.4, 0.3, 0.2, 0.1, 0.05)
        with pytest.raises(FitError, match="differ in double precision"):
            fit_rate(ScalingSeries(tau=0.7, points=tuple(zip(ns, vals))))

    def test_stationary_exponent_rejected(self):
        series = sweep_tvd(0.5, default_n_grid(1000, 10000, 8))
        with pytest.raises(FitError):
            fit_rate(series)

    def test_expected_range_helper(self):
        assert expected_exponent_range(0.3) == (0.4, 0.4)
        lo, hi = expected_exponent_range(0.7)
        assert lo == pytest.approx(-0.4) and hi == pytest.approx(-0.2)
        with pytest.raises(DomainError):
            expected_exponent_range(0.5)

    def test_conclusive_flag(self):
        fit = fit_rate(sweep_tvd(0.7, default_n_grid(1000, 100000, 12)))
        assert fit.conclusive
        noisy = RateFit(exponent=-0.3, prefactor=1.0, r_squared=0.5,
                        transform=TRANSFORM_LOG_LOG)
        assert not noisy.conclusive


class TestKlSmallThetaScaling:
    def test_reverse_divergence_ratio_tends_to_one(self):
        # D(P0||P1) in nats over n^(1-2tau)/4 climbs toward 1 along the grid
        tau = 0.4
        ratios = []
        for n in (10**3, 10**4, 10**5, 10**6):
            _, rev = kl_divergences(ChannelPoint.from_tau(n, tau), units="nats")
            ratios.append(rev / (0.25 * float(n) ** (1.0 - 2.0 * tau)))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert 0.9 < ratios[0] < 1.0
        assert ratios[-1] > 0.99


class TestKernelParity:
    """The sweeps evaluate V through the scalar kernel behind tvd_exact,
    so their values equal tvd_exact's exactly."""

    GRID = default_n_grid(1, 10**6, 40)

    @pytest.mark.parametrize("tau", (0.05, 0.3, 0.5, 0.7, 0.98))
    def test_sweep_points_equal_tvd_exact(self, tau):
        expected = tuple((n, tvd_exact(ChannelPoint.from_tau(n, tau)).value) for n in self.GRID)
        assert sweep_tvd(tau, self.GRID).points == expected

    @pytest.mark.parametrize("c", (0.3, 1.0, 4.0))
    def test_stationarity_equals_tvd_exact_spread(self, c):
        vals = [tvd_exact(ChannelPoint(n=n, theta=c / math.sqrt(n))).value for n in self.GRID]
        assert stationarity_check(self.GRID, c) == max(vals) - min(vals)


class TestStationarity:
    def test_root_n_law_is_flat(self):
        spread = stationarity_check(default_n_grid(1000, 1000000, 12))
        assert spread <= 0.05

    def test_single_point_grid(self):
        assert stationarity_check((1000,)) == 0.0

    def test_spread_shrinks_with_grid_minimum(self):
        wide = stationarity_check(default_n_grid(1000, 1000000, 8))
        narrow = stationarity_check(default_n_grid(10000, 1000000, 8))
        assert narrow <= wide

    def test_scaling_constant_domain(self):
        with pytest.raises(DomainError):
            stationarity_check((1000, 2000), c=0.0)


def test_default_grid_shape():
    grid = default_n_grid(1000, 100000, 12)
    assert len(grid) == 12
    assert grid[0] == 1000 and grid[-1] == 100000
    assert all(b > a for a, b in zip(grid, grid[1:]))


def unique_grid(n_min, n_max, points):
    """Reference: default_n_grid as np.unique of the rounded geomspace."""
    if points == 1:
        return (n_min,)
    grid = np.unique(np.round(np.geomspace(float(n_min), float(n_max), points)))
    return tuple(int(v) for v in grid)


def test_default_grid_matches_unique_reference():
    rng = random.Random(2024)
    cases = [(7, 7, 5), (1, 30, 40), (1, 2, 50), (1000, 1001, 12), (10**300, 10**300, 4),
             (10**299, 10**300, 30), (1, 10**300, 200), (500, 100000, 12)]
    for _ in range(2000):
        n_min = int(10.0 ** rng.uniform(0.0, rng.choice((2.0, 6.0, 20.0, 300.0))))
        n_max = n_min + int(n_min * 10.0 ** rng.uniform(-3.0, 3.0) * rng.random())
        cases.append((n_min, n_max, rng.randint(1, 60)))
    duplicated = 0
    for n_min, n_max, points in cases:
        want = unique_grid(n_min, n_max, points)
        assert default_n_grid(n_min, n_max, points) == want, (n_min, n_max, points)
        duplicated += len(want) < points
    assert duplicated >= 100  # the rounding merges entries on many of these grids


@pytest.mark.parametrize("call", [
    "default_n_grid(500, 5000, 12)",
    "sweep_tvd(0.7, default_n_grid())",
    "fit_rate(sweep_tvd(0.2, default_n_grid(1000, 1000000, 12)))",
    "assert main(['sweep', '--tau', '0.7', '--output', os.devnull]) == 0",
])
def test_grids_leave_numpy_ma_unloaded(run_python, call):
    # np.unique would import all of numpy.ma; numpy 1.x imports it with numpy
    run_python(f"""
        import os, sys
        from covertvd.asymptotics import default_n_grid, fit_rate, sweep_tvd
        from covertvd.cli import main
        eager = "numpy.ma" in sys.modules
        {call}
        assert eager or "numpy.ma" not in sys.modules
    """)
