"""Command-line interface: schemas, exit codes, determinism, roundtrips."""

import contextlib
import csv
import io
import json
import math
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfinv

from covertvd import __version__
from covertvd.asymptotics import default_n_grid
from covertvd.cli import EXIT_ACCURACY, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, FIGURES, main
from covertvd.errors import AccuracyError
from covertvd.special import _gamma_log_norm, reg_lower_gamma
from covertvd.tvd import tvd_exact
from covertvd.types import ChannelPoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "tvd", "--n", "2", "--theta", "1")
        assert code == EXIT_OK
        assert "0.25" in out

    def test_domain_violation(self, capsys):
        code, _, err = run_cli(capsys, "tvd", "--n", "0", "--theta", "1")
        assert code == EXIT_DOMAIN
        assert "blocklength" in err

    @pytest.mark.parametrize("argv", [
        ("tvd", "--n", str(10**400), "--theta", "1"),
        ("power", "--n", str(10**400), "--delta", "0.1"),
        ("sweep", "--tau", "0.5", "--n-max", str(10**400), "--points", "3"),
    ])
    def test_blocklength_beyond_double_range(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN
        assert "double range" in err

    @pytest.mark.parametrize("command", ("sweep", "fit-rate"))
    def test_grid_past_int64_range(self, capsys, command):
        # within double range the grid is built from floats, so no int64
        # cast overflows; fit-rate may still reject the series (exit 3)
        code, _, err = run_cli(capsys, command, "--tau", "0.7", "--n-max", str(10**308),
                               "--points", "6")
        assert code in (EXIT_OK, EXIT_DOMAIN), err

    def test_budget_domain_violation(self, capsys):
        code, _, _ = run_cli(capsys, "power", "--n", "100", "--delta", "1.5")
        assert code == EXIT_DOMAIN

    def test_regime_violation_maps_to_domain_exit(self, capsys):
        # full achievability is vacuous at this blocklength
        code, _, err = run_cli(
            capsys, "throughput", "--kind", "ach-full", "--n", "2000",
            "--eps", "0.001", "--power", "0.0224", "--mu", "0.8",
        )
        assert code == EXIT_DOMAIN
        assert "vacuous" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tvd", "--n", "2", "--theta", "1", "--tau", "0.5"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["tvd", "--n", "2"])
        assert exc.value.code == 2

    def test_version_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"covertvd {__version__}\n"

    def test_accuracy_exit_code_reserved(self):
        assert EXIT_ACCURACY == 4
        assert issubclass(AccuracyError, ArithmeticError)


class TestBudgetNearOne:
    # lambda = sqrt(1 - (1 - delta)^(4/n)) rounds to 1 at n = 1 for these budgets
    @pytest.mark.parametrize("delta", ["0.999999", "0.9999999987967297"])
    def test_power(self, capsys, delta):
        code, out, _ = run_cli(capsys, "power", "--n", "1", "--delta", delta, "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out)[0]
        assert row["p_suf"] <= row["p_exact"] <= row["p_nec"]

    def test_covert_throughput(self, capsys):
        code, out, _ = run_cli(capsys, "throughput", "--kind", "covert", "--n", "1",
                               "--eps", "0.5", "--delta", "0.999999", "--format", "json")
        assert code == EXIT_OK
        suf, nec = json.loads(out)
        assert suf["bits"] <= nec["bits"]


class TestHugeBlocklengthPower:
    # from n = 500 up p_exact is the closed form, which calls no kernel;
    # it must land on V ~ erf(sqrt(n) theta / 4) = delta
    @pytest.mark.parametrize("exponent", [18, 20, 21, 22, 26])
    def test_power(self, capsys, exponent):
        n, delta = 10**exponent, 0.1
        code, out, err = run_cli(capsys, "power", "--n", str(n), "--delta", str(delta),
                                 "--format", "json")
        assert code == EXIT_OK, err
        row = json.loads(out)[0]
        assert row["p_suf"] <= row["p_exact"] <= row["p_nec"]
        assert row["p_exact"] == pytest.approx(4.0 * erfinv(delta) / math.sqrt(n), rel=1e-2)

    @pytest.mark.parametrize("exponent", [32, 40, 308])
    def test_closed_form_exits_ok(self, capsys, exponent):
        # f and g are at most a few ulps of n/2 apart up to p_nec, where the
        # kernel cannot resolve V; the closed form is the square-root law
        n = 10**exponent
        code, out, err = run_cli(capsys, "power", "--n", str(n), "--delta", "0.1",
                                 "--format", "json")
        assert code == EXIT_OK, err
        row = json.loads(out)[0]
        assert row["p_exact"] == pytest.approx(4.0 * erfinv(0.1) / math.sqrt(n), rel=1e-12)

    @pytest.mark.parametrize("n, delta, sigma2, level", (
        ("10", "0.5", "1e308", "p_nec"),
        ("1", "0.999999", "1e308", "p_suf"),
        ("1000", "0.5", "1e-320", "p_suf"),
    ))
    def test_level_outside_normal_range_exits_accuracy(self, capsys, n, delta, sigma2, level):
        # these printed inf, or subnormal levels with 2-3 digits, and exited 0
        code, out, err = run_cli(capsys, "power", "--n", n, "--delta", delta, "--sigma2", sigma2)
        assert code == EXIT_ACCURACY
        assert out == ""
        assert f"{level} at n={n}" in err and "outside the normal double range" in err

    def test_unresolved_kernel_exits_accuracy(self, capsys):
        # below n = 500 Brent runs, and at this budget f and g round to the
        # same double on the whole bracket
        code, _, err = run_cli(capsys, "power", "--n", "1", "--delta", "1e-40")
        assert code == EXIT_ACCURACY
        assert "round to the same double" in err


class TestSeriesTermOverflow:
    # d^(k+1) in the upper-tail series terms passes the double range at K = 60
    @pytest.mark.parametrize("argv, point", [
        (("--n", "602559", "--tau", "0.001"), ChannelPoint.from_tau(602559, 0.001)),
        (("--n", "1000000", "--theta", "1"), ChannelPoint(n=10**6, theta=1.0)),
        (("--n", "100000", "--theta", "100"), ChannelPoint(n=10**5, theta=100.0)),
    ])
    def test_series_exits_ok(self, capsys, argv, point):
        code, out, err = run_cli(capsys, "tvd", *argv, "--method", "series", "--k", "60",
                                 "--format", "json")
        assert code == EXIT_OK, err
        assert abs(json.loads(out)[0]["value"] - tvd_exact(point).value) <= 1e-12


class TestHugeBlocklengthDensity:
    # the quadrature's nodes round to the ulp of n/2, which moves the
    # Gamma(n/2) density by about ulp/sqrt(n/2) relative: 9e-8 and 1.2e-6
    # here, above the target (the old lgamma form's exp overflowed)
    @pytest.mark.parametrize("argv", [
        ("--n", str(10**18), "--tau", "0.5", "--method", "quadrature"),
        ("--n", str(10**20), "--tau", "0.3", "--method", "quadrature"),
    ])
    def test_tvd_exits_accuracy(self, capsys, argv):
        code, _, err = run_cli(capsys, "tvd", *argv)
        assert code == EXIT_ACCURACY, err
        assert "exceeds target 1e-10" in err

    def test_lgamma_overflow_exits_accuracy(self, capsys):
        # lgamma(n/2) overflows here (a traceback once); the quadrature no
        # longer calls it, and theta = 1e-153 rounds its limits together
        code, _, err = run_cli(capsys, "tvd", "--n", str(10**306), "--tau", "0.5",
                               "--method", "quadrature")
        assert code == EXIT_ACCURACY, err
        assert "round together" in err

    @pytest.mark.parametrize("argv, point", [
        (("--n", str(10**18), "--tau", "0.45"), ChannelPoint.from_tau(10**18, 0.45)),
        (("--n", "398107170553497250", "--tau", "0.45", "--k", "0"),
         ChannelPoint.from_tau(398107170553497250, 0.45)),
        # V = 0.97427; the series gives 0.97266
        (("--n", str(10**16), "--tau", "0.45"), ChannelPoint.from_tau(10**16, 0.45)),
    ])
    def test_series_exits_ok(self, capsys, argv, point):
        # the series prefactors keep their digits at any n, and err_estimate
        # is the series' deviation from the exact kernel
        code, out, err = run_cli(capsys, "tvd", *argv, "--method", "series", "--format", "json")
        assert code == EXIT_OK, err
        row = json.loads(out)[0]
        assert row["err_estimate"] == abs(row["value"] - tvd_exact(point).value)

    @pytest.mark.parametrize("n", (10**200, 10**300))
    def test_series_gap_below_ulp_exits_accuracy(self, capsys, n):
        # f - a and a - g are below the ulp of a = n/2 - 1, so f, g and a
        # all round to n/2: an accuracy limit, not a regime violation
        code, _, err = run_cli(capsys, "tvd", "--n", str(n), "--tau", "0.3", "--method", "series")
        assert code == EXIT_ACCURACY, err
        assert "below its ulp" in err

    @pytest.mark.parametrize("n, tau", ((10**32, "0.3"), (10**53, "0.7")))
    def test_series_overflow_exits_accuracy(self, capsys, n, tau):
        # the series sum is NaN here; this printed value 0 and exited 0
        code, out, err = run_cli(capsys, "tvd", "--n", str(n), "--tau", tau, "--method", "series")
        assert code == EXIT_ACCURACY, err
        assert out == ""
        assert "overflow the double range" in err

    def test_series_prefactors_below_double_range(self, capsys):
        # both series prefactors are exp(-O(1e12)) = 0.0
        code, out, err = run_cli(capsys, "tvd", "--n", str(10**14), "--tau", "0.01",
                                 "--method", "series")
        assert code == EXIT_OK, err
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["method"], row["value"], row["err_estimate"]) == ("series-low-tau", "1", "0")


class TestQuadraturePeakInsideWideLimits:
    # V = 1, with a Gamma(n/2) peak of width sqrt(n/2) far narrower than
    # [g, f]: every QUADPACK node missed it, and the value printed was 0 or
    # 5.6e-17 with err_estimate 0 and exit 0
    @pytest.mark.parametrize("n, tau", [(10**8, 0.05), (10**9, 0.1)])
    def test_value_within_err_estimate(self, capsys, n, tau):
        code, out, err = run_cli(capsys, "tvd", "--n", str(n), "--tau", str(tau),
                                 "--method", "quadrature", "--format", "json")
        assert code == EXIT_OK, err
        row = json.loads(out)[0]
        assert 0.0 < row["err_estimate"] <= 1e-10
        exact = tvd_exact(ChannelPoint.from_tau(n, tau)).value
        assert abs(row["value"] - exact) <= row["err_estimate"]


class TestQuadratureLimitsRoundTogether:
    # at theta = 1e-17, f and g both round to n/2, so both quadrature limits
    # are one double; V ~ erf(sqrt(n) theta / 4) is then known to first order
    def test_estimate_within_target_is_err_estimate(self, capsys):
        # this printed err_estimate 0
        code, out, err = run_cli(capsys, "tvd", "--n", "1000", "--theta", "1e-17",
                                 "--method", "quadrature", "--format", "json")
        assert code == EXIT_OK, err
        row = json.loads(out)[0]
        assert (row["value"], row["terms_used"]) == (0.0, 0)
        assert row["err_estimate"] == pytest.approx(math.erf(math.sqrt(1000) * 1e-17 / 4),
                                                    rel=1e-3)

    @pytest.mark.parametrize("n", (10**20, 10**32))
    def test_estimate_above_target_exits_accuracy(self, capsys, n):
        # this printed V = 0 with err_estimate 0, where V ~ 2.8e-8 and 0.028
        code, out, err = run_cli(capsys, "tvd", "--n", str(n), "--theta", "1e-17",
                                 "--method", "quadrature")
        assert code == EXIT_ACCURACY, err
        assert out == ""
        assert "round together" in err
        # the first-order term of the erf law
        assert f"V is about {math.sqrt(n / math.pi) * 1e-17 / 2:.3e}" in err


def test_import_footprint(run_python, tmp_path):
    # no subcommand loads scipy.integrate's package init, scipy.optimize,
    # scipy.linalg, scipy.sparse, the full scipy.special or scipy's array-API
    # layer; the compiled scipy.integrate._quadpack (for tvd --method
    # quadrature) and scipy.optimize._zeros (for power below n = 500) are
    # loaded bare at import and dropped from sys.modules
    run_python(f"""
        import sys
        from covertvd.cli import main
        point = ["--n", "1000", "--tau", "0.7"]
        snr = ["--n", "100000", "--eps", "0.1", "--power", "0.05"]
        for argv in (
            ["tvd", *point],
            ["tvd", *point, "--method", "series"],
            ["tvd", *point, "--method", "quadrature"],
            ["bounds", *point],
            ["power", "--n", "2000", "--delta", "0.1"],
            ["power", "--n", "100", "--delta", "0.1"],
            ["throughput", "--kind", "covert", "--n", "2000", "--eps", "1e-3", "--delta", "0.1"],
            ["throughput", "--kind", "converse", *snr],
            ["throughput", "--kind", "ach-na", *snr, "--mu", "0.5", "--tau0", "0.05"],
            ["throughput", "--kind", "ach-full", *snr, "--mu", "0.5"],
            ["sweep", "--tau", "0.5", "--n-min", "1000", "--n-max", "100000", "--points", "4"],
            ["mc", *point, "--m", "1000", "--seed", "1"],
            ["fit-rate", "--tau", "0.7"],
            ["figures", "--outdir", {str(tmp_path)!r}],
        ):
            assert main(argv) == 0, argv
        for name in ("scipy.integrate", "scipy.integrate._quadpack_py", "scipy.optimize",
                     "scipy.linalg", "scipy.sparse", "numpy.f2py", "numpy.testing",
                     "scipy._lib.array_api_compat", "scipy._lib._array_api", "scipy.special"):
            assert name not in sys.modules, name
    """)


# The documented domain: n <= 1e6, tau in (0, 1), delta in [1e-6, 1).  Sample
# counts stay small so no case allocates much or runs long.
N = st.integers(1, 10**6)
TAU = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
DELTA = st.floats(1e-6, 1.0, exclude_max=True)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
POINTS = st.integers(1, 20)


def command(name, **flags):
    """argv strategy for one subcommand: --flag value for each keyword."""
    return st.fixed_dictionaries(flags).map(
        lambda values: [name] + [item for key, value in values.items()
                                 for item in (f"--{key.replace('_', '-')}", str(value))]
    )


COMMANDS = st.one_of(
    command("tvd", n=N, tau=TAU, method=st.sampled_from(["exact", "series", "quadrature"]),
            k=st.integers(0, 60)),
    command("bounds", n=N, tau=TAU),
    command("power", n=N, delta=DELTA),
    command("throughput", kind=st.just("covert"), n=N, eps=UNIT, delta=DELTA),
    command("throughput", kind=st.just("converse"), n=N, eps=UNIT, power=UNIT),
    command("throughput", kind=st.just("ach-na"), n=N, eps=UNIT, power=UNIT, mu=UNIT, tau0=UNIT),
    command("throughput", kind=st.just("ach-full"), n=N, eps=UNIT, power=UNIT, mu=UNIT),
    command("sweep", tau=TAU, n_min=N, n_max=N, points=POINTS),
    command("mc", n=N, tau=TAU, m=st.integers(1, 20000), seed=st.integers(0, 2**32)),
    command("fit-rate", tau=TAU, n_min=N, n_max=N, points=POINTS),
    command("figures", seed=st.integers(-2**63, 2**63), format=st.sampled_from(["csv", "json"])),
)


class TestLargeSnrBounds:
    @pytest.mark.parametrize("theta", ("1e16", "1e30", "1e200", "1e308"))
    def test_bounds_exit_ok(self, capsys, theta):
        code, _, err = run_cli(capsys, "bounds", "--n", "100", "--theta", theta)
        assert code == EXIT_OK, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("theta", ("1e20", "1e300"))
    def test_series_where_g_is_below_an_ulp_of_a(self, capsys, theta):
        # g/a < 2^-53, so (g - a)/a rounds to -1 in the lower prefactor
        code, out, err = run_cli(capsys, "tvd", "--n", "100", "--theta", theta,
                                 "--method", "series", "--format", "json")
        assert code == EXIT_OK, err
        assert json.loads(out)[0]["value"] == 1.0

    def test_pinsker_where_kl_overflows(self, capsys):
        # D = (n/2) phi(theta) ~ 5e309 overflows; sqrt(D/2) ~ 5e154 does not
        code, out, err = run_cli(capsys, "bounds", "--n", "100", "--theta", "1e308",
                                 "--format", "json")
        assert code == EXIT_OK, err
        row = json.loads(out)[0]
        assert row["pinsker_upper"] == pytest.approx(5e154, rel=1e-14)
        assert row["kl_fwd_bits"] == math.inf

    @pytest.mark.parametrize("theta", ("1e307", "1e308"))
    def test_quadrature_where_threshold_product_overflows(self, capsys, theta):
        # n sigma^2 (1 + theta) overflows although R^2 ~ ln(1 + theta) is
        # finite; this printed V = 0 (err 0 or nan), and V = 1 - O(1e-153)
        code, out, err = run_cli(capsys, "tvd", "--n", "1", "--theta", theta,
                                 "--method", "quadrature", "--format", "json")
        assert code == EXIT_OK, err
        row = json.loads(out)[0]
        assert 0.0 <= row["err_estimate"] <= 1e-10
        assert abs(row["value"] - 1.0) <= row["err_estimate"]

    def test_monte_carlo_where_threshold_product_overflows(self, capsys):
        # this exited 3 with "threshold must be finite and positive, got inf"
        code, out, err = run_cli(capsys, "mc", "--n", "1", "--theta", "1e308", "--m", "1000",
                                 "--seed", "1", "--format", "json")
        assert code == EXIT_OK, err
        assert err == ""
        row = json.loads(out)[0]
        assert row["tvd_hat"] == row["tvd_exact"] == 1.0

    @pytest.mark.parametrize("n", ("100", "1000000"))
    @pytest.mark.parametrize("theta", ("1e308", "1.7e308"))
    def test_tvd_saturates_where_n_theta_overflows(self, capsys, n, theta):
        # (n/2)(1 + theta) overflows here although f stays finite
        code, out, err = run_cli(capsys, "tvd", "--n", n, "--theta", theta, "--format", "json")
        assert code == EXIT_OK, err
        assert json.loads(out)[0]["value"] == 1.0


class TestContract:
    @given(argv=COMMANDS)
    @example(argv=["tvd", "--n", "602559", "--tau", "0.001", "--method", "series", "--k", "60"])
    @settings(max_examples=200, deadline=None)
    def test_every_subcommand_exits_cleanly(self, argv):
        # any escaping exception fails the test; the exit code must be a
        # documented one (success, domain or accuracy)
        with (
            tempfile.TemporaryDirectory() as outdir,
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(io.StringIO()),
        ):
            if argv[0] == "figures":
                argv = argv + ["--outdir", outdir]
            code = main(argv)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_ACCURACY), argv


class TestSweepSchema:
    def test_csv_columns_and_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--tau", "0.5", "--n-min", "1000", "--n-max", "100000",
            "--points", "12", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,theta,tvd_exact"
        assert len(lines) == 13

    def test_csv_floats_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--tau", "0.5", "--points", "6")
        for line in out.strip().splitlines()[1:]:
            n_s, theta_s, v_s = line.split(",")
            point = ChannelPoint(n=int(n_s), theta=float(theta_s))
            assert float(v_s) == tvd_exact(point).value


class TestQuadratureMethod:
    def test_large_blocklength_with_quad_warning(self, capsys):
        # dqagse warns at this point but its error estimate meets the target
        code, out, _ = run_cli(capsys, "tvd", "--n", "100000", "--tau", "0.7",
                               "--method", "quadrature", "--format", "json")
        assert code == EXIT_OK
        row = json.loads(out)[0]
        exact = tvd_exact(ChannelPoint.from_tau(100000, 0.7)).value
        assert abs(row["value"] - exact) <= 1e-9


class TestJsonRoundtrip:
    def test_bit_identical_values(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "1000", "--tau", "0.5",
                            "--format", "json")
        row = json.loads(out)[0]
        point = ChannelPoint(n=1000, theta=1000.0 ** -0.5)
        assert row["theta"] == point.theta
        assert row["tvd_exact"] == tvd_exact(point).value

    def test_mc_deterministic(self, capsys):
        args = ("mc", "--n", "200", "--theta", "0.2", "--m", "20000",
                "--seed", "77", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        row = json.loads(out1)[0]
        assert row["seed"] == 77
        assert abs(row["tvd_hat"] - row["tvd_exact"]) <= 5 * row["std_err"]


class TestThroughputCommand:
    def test_covert_emits_both_sides(self, capsys):
        _, out, _ = run_cli(capsys, "throughput", "--kind", "covert", "--n", "2000",
                            "--eps", "0.001", "--delta", "0.1", "--format", "json")
        rows = json.loads(out)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"covert-suf", "covert-nec"}
        suf = next(r for r in rows if r["kind"] == "covert-suf")
        nec = next(r for r in rows if r["kind"] == "covert-nec")
        assert suf["bits"] <= nec["bits"]

    def test_missing_flag_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "throughput", "--kind", "covert", "--n", "100",
                             "--eps", "0.1")
        assert code == EXIT_DOMAIN


class TestFitRateCommand:
    def test_decay_fit(self, capsys):
        _, out, _ = run_cli(capsys, "fit-rate", "--tau", "0.7", "--format", "json")
        row = json.loads(out)[0]
        assert row["transform"] == "log-log"
        assert -0.45 <= row["exponent"] <= -0.15


#: the kernel and normaliser bits FIG8_HEX and FIG9_HEX were recorded with;
#: another scipy or libm build may round them differently, and the tables
#: then say nothing about the code
KERNEL_HEX = {
    (250.0, 251.5): "0x1.17973bd9188ffp-1",
    (5e5, 499300.0): "0x1.49efa68dc3767p-3",
}
NORM_HEX = {250.0: "0x1.d769d49007b9dp+0", 5e5: "0x1.691a82564746bp+2"}


def kernel_rounds_differently() -> bool:
    """True when this build's kernel or normaliser bits differ from the
    recording build's, so recorded output bits say nothing."""
    return any(reg_lower_gamma(a, z).hex() != h for (a, z), h in KERNEL_HEX.items()) or any(
        _gamma_log_norm(a).hex() != h for a, h in NORM_HEX.items())


#: (n, theta, tvd_exact, bound column, sason_upper, series) of every fig8
#: and fig9 row as float.hex, on the build of KERNEL_HEX
FIG8_HEX = [
    (1000, "0x1.01d3f2d9684d0p-3", "0x1.a1415bb96b38ap-1", "0x1.2b428dbaaf98fp-1",
     "0x1.d1b5b9f4a8094p-1", "0x1.caa625b551d6bp-1"),
    (1313, "0x1.db3459136828ep-4", "0x1.ae35d85469533p-1", "0x1.416ac7dd24665p-1",
     "0x1.db351e5cc6191p-1", "0x1.cb85881285e2ap-1"),
    (1724, "0x1.b5ec8cc1bb7fep-4", "0x1.ba5f75db1a96ep-1", "0x1.577afc879f502p-1",
     "0x1.e378d34b6df14p-1", "0x1.cee5294d06683p-1"),
    (2264, "0x1.938cb8ad85b5ap-4", "0x1.c5a43154ee4fcp-1", "0x1.6d277ccc89602p-1",
     "0x1.ea7d68f58aea8p-1", "0x1.d3cf9cfcfc4e2p-1"),
    (2972, "0x1.73ea97e6ded0ap-4", "0x1.cfe737c244e98p-1", "0x1.82131398f91bep-1",
     "0x1.f045db9025eefp-1", "0x1.d989109bd28d5p-1"),
    (3903, "0x1.56b88231ccb41p-4", "0x1.d91df25824c4dp-1", "0x1.95fa4d17f60f0p-1",
     "0x1.f4e707fdefe8ep-1", "0x1.d9bf64fa1d730p-1"),
    (5125, "0x1.3bd42ef2312aep-4", "0x1.e137a818c704bp-1", "0x1.a883a63aa3ef4p-1",
     "0x1.f878630a19a48p-1", "0x1.dc5b9f36c728ap-1"),
    (6729, "0x1.230e0867f36d8p-4", "0x1.e830d1e0e11d3p-1", "0x1.b969e2f88b0bbp-1",
     "0x1.fb1c6a464de39p-1", "0x1.e56773b835c2ap-1"),
    (8835, "0x1.0c39661be2796p-4", "0x1.ee0e29c526749p-1", "0x1.c87625f4a794cp-1",
     "0x1.fcfa965f3d6e7p-1", "0x1.ec7f4b668798cp-1"),
    (11601, "0x1.ee5b932a67b1bp-5", "0x1.f2dc3ceebd78ep-1", "0x1.d583255ad471cp-1",
     "0x1.fe3beb40ffb38p-1", "0x1.f2c5e2d94d745p-1"),
    (15232, "0x1.c7940019aaa5cp-5", "0x1.f6ae523f12427p-1", "0x1.e07ea6e1ad124p-1",
     "0x1.ff079e84ad116p-1", "0x1.f72a93bcde5e7p-1"),
    (20000, "0x1.a3d6548313c57p-5", "0x1.f99f2ffa1163ap-1", "0x1.e970874449429p-1",
     "0x1.ff80b1e242261p-1", "0x1.f9d7da5f60a70p-1"),
]
FIG9_HEX = [
    (500, "0x1.a6d5c2c466817p-7", "0x1.4a9650b1a5278p-4", "0x1.a0110ef4d1bf3p-4",
     "0x1.9e1cacafdb869p-4", "0x1.4a9650b1a527dp-4"),
    (699, "0x1.4e702f9f3d82dp-7", "0x1.35ab33d8f3b60p-4", "0x1.85726884f925cp-4",
     "0x1.83e9b4465b761p-4", "0x1.35ab33d8f3b65p-4"),
    (978, "0x1.085ecee20f024p-7", "0x1.21ee9531b113cp-4", "0x1.6c676c9bc95d8p-4",
     "0x1.6b32d0c54b86ep-4", "0x1.21ee9531b113fp-4"),
    (1367, "0x1.a2417c01074c4p-8", "0x1.0f6f5bc76a060p-4", "0x1.54fd11c049c4cp-4",
     "0x1.5409e47c621bap-4", "0x1.0f6f5bc76a05ap-4"),
    (1912, "0x1.4ab405805a144p-8", "0x1.fc1042802b6f0p-5", "0x1.3eff92632dec5p-4",
     "0x1.3e3fa8762ed87p-4", "0x1.fc1042802b6fbp-5"),
    (2674, "0x1.057f44c60aa75p-8", "0x1.db6b6e22d67d8p-5", "0x1.2a67a9d59d3d8p-4",
     "0x1.29cfe34dc2f40p-4", "0x1.db6b6e22d67ccp-5"),
    (3740, "0x1.9d85ebbeb9201p-9", "0x1.bcce8fd17ea68p-5", "0x1.171da8cf226f1p-4",
     "0x1.16a5649e047fdp-4", "0x1.bcce8fd17ea75p-5"),
    (5230, "0x1.47021e60f7288p-9", "0x1.a022f8402f1d8p-5", "0x1.05116f82f4ec9p-4",
     "0x1.04b1efb81cd7cp-4", "0x1.a022f8402f1e1p-5"),
    (7313, "0x1.029bcf9dfa620p-9", "0x1.8549b3df590b0p-5", "0x1.e85c437cc9c3ep-5",
     "0x1.e7c44c3e97c83p-5", "0x1.8549b3df590b2p-5"),
    (10227, "0x1.98fe45c5fe115p-10", "0x1.6c2315cecc608p-5", "0x1.c8bd95ba4ca2ap-5",
     "0x1.c84475dc90b9ep-5", "0x1.6c2315cecc5f2p-5"),
    (14302, "0x1.436aa01bcf8a5p-10", "0x1.5497e4e1757f8p-5", "0x1.ab2814a66f995p-5",
     "0x1.aac75d37ef43fp-5", "0x1.5497e4e1757eap-5"),
    (20000, "0x1.ff80fd5f9ebe3p-11", "0x1.3e8f6c89db788p-5", "0x1.8f7b85fcfbb57p-5",
     "0x1.8f2e2961d5d11p-5", "0x1.3e8f6c89db77ep-5"),
]


class TestFigures:
    def test_deterministic_and_complete(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        code1, _, _ = run_cli(capsys, "figures", "--outdir", str(d1), "--seed", "1")
        code2, _, _ = run_cli(capsys, "figures", "--outdir", str(d2), "--seed", "1")
        assert code1 == code2 == EXIT_OK
        for name in FIGURES:
            f1, f2 = d1 / f"{name}.csv", d2 / f"{name}.csv"
            assert f1.exists() and f2.exists()
            assert f1.read_bytes() == f2.read_bytes()

    def test_outdir_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVERTVD_OUTDIR", str(tmp_path / "envdir"))
        code, _, _ = run_cli(capsys, "figures")
        assert code == EXIT_OK
        assert (tmp_path / "envdir" / "fig7.csv").exists()

    def test_figure_schemas(self, tmp_path, capsys):
        run_cli(capsys, "figures", "--outdir", str(tmp_path))
        assert (tmp_path / "fig2.csv").read_text().splitlines()[0] == \
            "n,delta,sigma2,p_suf,p_exact,p_nec"
        assert (tmp_path / "fig8.csv").read_text().splitlines()[0] == \
            "tau,n,theta,tvd_exact,hellinger_sq,sason_upper,series_low_tau"
        assert (tmp_path / "fig9.csv").read_text().splitlines()[0] == \
            "tau,n,theta,tvd_exact,pinsker_upper,sason_upper,series_high_tau"


    def test_fig7_blocks_are_sweep_rows(self, tmp_path, capsys):
        run_cli(capsys, "figures", "--outdir", str(tmp_path))
        fig7 = list(csv.DictReader(io.StringIO((tmp_path / "fig7.csv").read_text())))
        taus = sorted({row["tau"] for row in fig7}, key=float)
        assert [float(tau) for tau in taus] == [0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        for tau in taus:
            block = [{k: v for k, v in row.items() if k != "tau"}
                     for row in fig7 if row["tau"] == tau]
            _, out, _ = run_cli(capsys, "sweep", "--tau", tau, "--n-min", "500",
                                "--n-max", "100000", "--points", "12")
            assert block == list(csv.DictReader(io.StringIO(out)))

    @pytest.mark.parametrize("name, tau, n_min", (("fig8", 0.3, 1000), ("fig9", 0.7, 500)))
    def test_bounds_figure_grid(self, tmp_path, capsys, name, tau, n_min):
        run_cli(capsys, "figures", "--outdir", str(tmp_path), "--format", "json")
        rows = json.loads((tmp_path / f"{name}.json").read_text())
        assert {row["tau"] for row in rows} == {tau}
        assert [row["n"] for row in rows] == list(default_n_grid(n_min, 20000, 12))

    @pytest.mark.parametrize("name, table", (("fig8", FIG8_HEX), ("fig9", FIG9_HEX)))
    def test_bounds_figure_bits(self, tmp_path, capsys, name, table):
        # the series, exact and bound columns keep every bit
        if kernel_rounds_differently():
            pytest.skip("kernel or normaliser rounds differently from the recording build")
        run_cli(capsys, "figures", "--outdir", str(tmp_path), "--format", "json")
        rows = json.loads((tmp_path / f"{name}.json").read_text())
        got = [(n, *(value.hex() for value in rest)) for _, n, *rest in (row.values() for row in rows)]
        assert got == table


class TestOutputFile:
    def test_output_written_to_path(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "tvd", "--n", "2", "--theta", "1",
                               "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert "0.25" in target.read_text()

    @pytest.mark.parametrize("argv", (
        ("tvd", "--n", "100", "--tau", "0.5"),
        ("bounds", "--n", "100", "--tau", "0.5"),
        ("power", "--n", "100", "--delta", "0.1"),
        ("throughput", "--n", "2000", "--eps", "0.001", "--delta", "0.1"),
        ("sweep", "--tau", "0.5", "--points", "3"),
        ("mc", "--n", "100", "--theta", "0.1", "--m", "100", "--seed", "1"),
        ("fit-rate", "--tau", "0.7"),
    ))
    def test_unwritable_output_exits_usage(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "v.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("covertvd: cannot write output: ") and str(target) in err

    def test_figures_outdir_that_is_a_file_exits_usage(self, tmp_path, capsys):
        outdir = tmp_path / "taken"
        outdir.write_text("")
        code, _, err = run_cli(capsys, "figures", "--outdir", str(outdir))
        assert code == EXIT_USAGE
        assert err.startswith("covertvd: cannot write output: ") and str(outdir) in err
        assert outdir.read_text() == ""
