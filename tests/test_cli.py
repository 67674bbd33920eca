"""Command-line interface: schemas, exit codes, determinism, roundtrips."""

import contextlib
import csv
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertvd.asymptotics import default_n_grid
from covertvd.cli import EXIT_ACCURACY, EXIT_DOMAIN, EXIT_OK, FIGURES, main
from covertvd.errors import AccuracyError
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

    @pytest.mark.parametrize("n", ("100", "1000000"))
    @pytest.mark.parametrize("theta", ("1e308", "1.7e308"))
    def test_tvd_saturates_where_n_theta_overflows(self, capsys, n, theta):
        # (n/2)(1 + theta) overflows here although f stays finite
        code, out, err = run_cli(capsys, "tvd", "--n", n, "--theta", theta, "--format", "json")
        assert code == EXIT_OK, err
        assert json.loads(out)[0]["value"] == 1.0


class TestContract:
    @given(argv=COMMANDS)
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
        # quad warns at this point but its error estimate meets the target
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


class TestOutputFile:
    def test_output_written_to_path(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "tvd", "--n", "2", "--theta", "1",
                               "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert "0.25" in target.read_text()
