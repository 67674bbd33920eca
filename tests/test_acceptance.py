"""Acceptance suite: every release criterion at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (run with -s
to see them on passing tests).  Two criteria are marked xfail(strict):

* criterion 7: the claimed saturation-rate fit (slope 1-2*tau, prefactor
  1/4) is not what the exact distance does on n in [1e3, 1e5] - the true
  asymptotic constant is 1/16 and the gamma-tail log corrections drag the
  fitted slope below the band (measured slopes 0.566/0.327/0.137 against
  bands 0.60/0.40/0.20 +- 0.05, prefactor 0.085 at tau=0.2 against
  [0.125, 0.5]);
* criterion 4 (low-exponent half): the tau < 1/2 expansion is asymptotic
  with an optimal-truncation floor of 8.1e-2 / 3.3e-2 absolute at
  n = 1000 / 2000 (tau = 0.3), above the 1e-2 bar; it passes from
  n = 5000 on.

Both tests assert the criteria verbatim; if either ever passes, the
strict marker turns it into a failure so the documentation stays honest.
"""

import math
import time

import numpy as np
import pytest

from covertvd.asymptotics import default_n_grid, fit_rate, stationarity_check, sweep_tvd
from covertvd.cli import FIGURES, main as cli_main
from covertvd.divergences import tvd_bounds
from covertvd.expansions import coeffs_c, phi_linear, stirling_gamma_halfn
from covertvd.oracles import simulate_test, tvd_quadrature
from covertvd.power import p_exact, p_nec, p_suf
from covertvd.throughput import covert_throughput_bounds
from covertvd.tvd import fg, log_tail_weight, tvd_exact, tvd_series
from covertvd.types import ChannelPoint
from test_expansions import phi_linear_closed_form

GRID_N = (2, 10, 100, 500, 1000, 2000)
GRID_TAU = (0.3, 0.5, 0.8)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")


def ols_slope(xs, ys) -> float:
    design = np.vstack([xs, np.ones(len(xs))]).T
    (slope, _), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(slope)


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in GRID_N:
        for tau in GRID_TAU:
            point = ChannelPoint.from_tau(n, tau)
            diff = abs(tvd_exact(point).value - tvd_quadrature(point).value)
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "oracle equivalence", ok, f"max |diff| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_closed_form_spot_check():
    value = tvd_exact(ChannelPoint(n=2, theta=1.0)).value
    ok = abs(value - 0.25) <= 1e-12
    report(2, "n=2 closed form", ok, f"|value - 0.25| = {abs(value - 0.25):.2e}")
    assert abs(value - 0.25) <= 1e-12


def test_criterion_03_monte_carlo_identity():
    start = time.perf_counter()
    point = ChannelPoint(n=500, theta=0.1)
    est = simulate_test(point, m=10**6, seed=42)
    exact = tvd_exact(point).value
    gap = abs(exact - est.tvd_hat)
    elapsed = time.perf_counter() - start
    ok = gap <= 4.0 * est.std_err and est.std_err < 2e-3 and elapsed < 30.0
    report(3, "Monte Carlo identity", ok,
           f"|exact - hat| = {gap:.2e} vs 4se = {4 * est.std_err:.2e}, {elapsed:.1f}s")
    assert gap <= 4.0 * est.std_err
    assert est.std_err < 2e-3
    assert elapsed < 30.0


def test_criterion_04_series_accuracy_high_tau():
    worst = 0.0
    for n in (500, 1000, 2000):
        for tau in (0.5, 0.6, 0.8):
            point = ChannelPoint.from_tau(n, tau)
            rel = tvd_series(point, K=20).err_estimate / tvd_exact(point).value
            worst = max(worst, rel)
    ok = worst <= 1e-2
    report(4, "series accuracy, high tau", ok, f"max rel err = {worst:.2e}")
    assert worst <= 1e-2


@pytest.mark.xfail(
    strict=True,
    reason="asymptotic-series floor: optimal truncation of the low-exponent "
    "expansion leaves 8.1e-2 / 3.3e-2 absolute error at n = 1000 / 2000 "
    "(tau = 0.3); the 1e-2 bar is only reached from n = 5000 on",
)
def test_criterion_04_series_accuracy_low_tau():
    worst = 0.0
    for n in (1000, 2000, 5000):
        point = ChannelPoint.from_tau(n, 0.3)
        err = tvd_series(point, K=20).err_estimate
        worst = max(worst, err)
    ok = worst <= 1e-2
    report(4, "series accuracy, low tau", ok, f"max abs err = {worst:.2e}")
    assert worst <= 1e-2


def test_criterion_05_bound_sandwich():
    slack = 1e-12
    worst_violation = 0.0
    for n in GRID_N:
        for tau in GRID_TAU:
            point = ChannelPoint.from_tau(n, tau)
            rep = tvd_bounds(point)
            v = tvd_exact(point).value
            checks = (
                rep.hellinger_sq - v,
                v - rep.sason_upper,
                rep.sason_upper - rep.sqrt2h_upper,
                v - rep.pinsker_upper,
                v - rep.kl_exp_upper,
            )
            if tau > 0.5:
                checks += (rep.sason_upper - rep.pinsker_upper,)
            worst_violation = max(worst_violation, *checks)
    ok = worst_violation <= slack
    report(5, "bound sandwich", ok, f"worst violation = {worst_violation:.2e}")
    assert worst_violation <= slack


def test_criterion_06_power_sandwich(invert_monotone):
    worst_inv = 0.0
    for n in (500, 1000, 2000, 5000):
        for delta in (0.01, 0.05, 0.1, 0.3):
            interval = p_exact(n, delta)
            assert interval.p_suf <= interval.p_exact <= interval.p_nec
            assert tvd_exact(ChannelPoint(n=n, theta=interval.p_suf)).value <= delta
            assert tvd_exact(ChannelPoint(n=n, theta=interval.p_nec)).value >= delta
            # independent bisection inversions of the two bounds
            theta_nec = invert_monotone(
                lambda t, p=n: tvd_bounds(ChannelPoint(n=p, theta=t)).hellinger_sq, delta)
            theta_suf = invert_monotone(
                lambda t, p=n: tvd_bounds(ChannelPoint(n=p, theta=t)).sason_upper, delta)
            worst_inv = max(
                worst_inv,
                abs(p_nec(n, delta) - theta_nec) / theta_nec,
                abs(p_suf(n, delta) - theta_suf) / theta_suf,
            )
    ok = worst_inv <= 1e-9
    report(6, "power sandwich", ok, f"worst inversion mismatch = {worst_inv:.2e}")
    assert worst_inv <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the saturation-rate claim does not match the exact distance on "
    "n in [1e3, 1e5]: measured slopes 0.566/0.327/0.137 for tau = 0.2/0.3/0.4 "
    "against bands (1 - 2 tau) +- 0.05, fitted prefactor 0.085 at tau = 0.2 "
    "against [1/8, 1/2]; the true decay constant is ~1/16, not 1/4",
)
def test_criterion_07_saturation_rate_fit():
    grid = default_n_grid(1000, 100000, 12)
    oks, details = [], []
    for tau in (0.2, 0.3, 0.4):
        fit = fit_rate(sweep_tvd(tau, grid))
        slope_ok = abs(fit.exponent - (1.0 - 2.0 * tau)) <= 0.05
        pref_ok = 0.125 <= fit.prefactor <= 0.5
        r2_ok = fit.r_squared >= 0.999
        oks.append(slope_ok and pref_ok and r2_ok)
        details.append(f"tau={tau}: slope={fit.exponent:.3f} pref={fit.prefactor:.3f} r2={fit.r_squared:.4f}")
    report(7, "saturation rate fit", all(oks), "; ".join(details))
    assert all(oks)


def test_criterion_08_decay_rate_bracket():
    grid = default_n_grid(1000, 100000, 12)
    details = []
    ok = True
    for tau in (0.6, 0.7, 0.8):
        fit = fit_rate(sweep_tvd(tau, grid))
        lo = 1.0 - 2.0 * tau - 0.05
        hi = 0.5 * (1.0 - 2.0 * tau) + 0.05
        ok = ok and (lo <= fit.exponent <= hi)
        details.append(f"tau={tau}: slope={fit.exponent:.3f} in [{lo:.2f},{hi:.2f}]")
        assert lo <= fit.exponent <= hi
    report(8, "decay rate bracket", ok, "; ".join(details))


def test_criterion_09_root_n_stationarity():
    spread = stationarity_check(default_n_grid(1000, 1000000, 12))
    ok = spread <= 0.05
    report(9, "square-root-law stationarity", ok, f"spread = {spread:.4f}")
    assert spread <= 0.05


def test_criterion_10_covert_throughput_exponents():
    grid = default_n_grid(1000, 1000000, 12)
    firsts, seconds = [], []
    for n in grid:
        suf, nec = covert_throughput_bounds(n, 1e-3, 0.1)
        assert suf.bits <= nec.bits
        firsts.append(abs(nec.term_first))
        seconds.append(abs(nec.term_second))
    logs = np.log(np.asarray(grid, dtype=float))
    slope1 = ols_slope(logs, np.log(firsts))
    slope2 = ols_slope(logs, np.log(seconds))
    ok = abs(slope1 - 0.5) <= 0.05 and abs(slope2 - 0.25) <= 0.05
    report(10, "covert throughput exponents", ok,
           f"first = {slope1:.3f} (0.50), second = {slope2:.3f} (0.25)")
    assert abs(slope1 - 0.5) <= 0.05
    assert abs(slope2 - 0.25) <= 0.05


def test_criterion_11_expansion_machinery():
    # coefficient identity, k <= 15
    worst_c = 0.0
    for a in (10.0, 100.0, 1000.0):
        cf = coeffs_c(a, 15)
        fact = 1.0
        for k in range(16):
            if k:
                fact *= k
            ident = (-1.0) ** k * fact * cf.c[k]
            if ident != 0.0:
                worst_c = max(worst_c, abs(cf.c_star[k] - ident) / abs(ident))
    # Phi dual evaluation
    worst_phi = 0.0
    for a, z in ((500.0, 450.0), (500.0, 550.0), (2000.0, 1900.0)):
        rec = phi_linear(a, z, 10).values
        closed = phi_linear_closed_form(a, z, 10)
        for r, c in zip(rec, closed):
            worst_phi = max(worst_phi, abs(r - c) / abs(c))
    # Stirling ratio
    ratio = math.exp(stirling_gamma_halfn(10**4) - math.lgamma(5000.0))
    # tail-weight identity
    worst_tail = 0.0
    for n in (10**3, 10**4):
        pair = fg(ChannelPoint.from_tau(n, 0.3))
        worst_tail = max(worst_tail, abs(log_tail_weight(n, pair.f) - log_tail_weight(n, pair.g)))
    ok = worst_c <= 1e-12 and worst_phi <= 1e-10 and abs(ratio - 1.0) <= 1e-4 and worst_tail <= 1e-9
    report(11, "expansion machinery", ok,
           f"c* = {worst_c:.1e}, phi = {worst_phi:.1e}, stirling = {abs(ratio - 1):.1e}, "
           f"tail = {worst_tail:.1e}")
    assert worst_c <= 1e-12
    assert worst_phi <= 1e-10
    assert abs(ratio - 1.0) <= 1e-4
    assert worst_tail <= 1e-9


def test_criterion_12_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["figures", "--outdir", str(d1), "--seed", "7"]) == 0
    assert cli_main(["figures", "--outdir", str(d2), "--seed", "7"]) == 0
    capsys.readouterr()
    identical = all(
        (d1 / f"{name}.csv").read_bytes() == (d2 / f"{name}.csv").read_bytes()
        for name in FIGURES
    )
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 120.0
    report(12, "CLI determinism", ok, f"byte-identical = {identical}, {elapsed:.1f}s")
    assert identical
    assert elapsed < 120.0
