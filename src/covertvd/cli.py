"""Command-line front end.

Emits CSV or JSON sweep data for every library operation, plus a
``figures`` subcommand that writes the six standard figure datasets
(power-vs-blocklength at two budgets, power-vs-budget, TVD scaling sweeps,
and the two bound-comparison sweeps).

Exit codes: 0 success, 2 usage error (argparse), 3 numeric domain/regime
violation, 4 internal accuracy/consistency failure.  The environment
variable COVERTVD_OUTDIR supplies the default output directory for
``figures``.

Example:
  covertvd sweep --tau 0.5 --n-min 1000 --n-max 100000 --points 12 --format csv
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, divergences, oracles, power, throughput, tvd
from .errors import AccuracyError, ConsistencyError, DomainError, FitError, OrderError, RegimeError
from .types import ChannelPoint

_ENV_OUTDIR = "COVERTVD_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_ACCURACY = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _emit(rows: list[dict], fmt: str, out_path: str | None) -> None:
    """Write rows (all sharing one key set) as CSV or JSON."""
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        header = list(rows[0].keys())
        lines = [",".join(header)]
        lines += [",".join(_fmt(row[key]) for key in header) for row in rows]
        text = "\n".join(lines) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _resolve_point(args) -> ChannelPoint:
    if args.tau is not None:
        return ChannelPoint.from_tau(args.n, args.tau, sigma2=args.sigma2)
    return ChannelPoint(n=args.n, sigma2=args.sigma2, theta=args.theta)


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="blocklength")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, help="snr")
    group.add_argument("--tau", type=float, help="snr exponent: theta = n^(-tau)")
    parser.add_argument("--sigma2", type=float, default=1.0, help="noise variance")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau", type=float, required=True)
    parser.add_argument("--n-min", type=int, default=1000)
    parser.add_argument("--n-max", type=int, default=100000)
    parser.add_argument("--points", type=int, default=12)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default="-", help="output file path, '-' for stdout")


def _cmd_tvd(args) -> list[dict]:
    point = _resolve_point(args)
    if args.method == "series":
        ev = tvd.tvd_series(point, K=args.k)
    elif args.method == "quadrature":
        ev = oracles.tvd_quadrature(point)
    else:
        ev = tvd.tvd_exact(point)
    return [{
        "n": point.n, "sigma2": point.sigma2, "theta": point.theta,
        "method": ev.method, "value": ev.value,
        "terms_used": ev.terms_used, "err_estimate": ev.err_estimate,
    }]


def _cmd_bounds(args) -> list[dict]:
    point = _resolve_point(args)
    rep = divergences.tvd_bounds(point)
    return [{
        "n": point.n, "sigma2": point.sigma2, "theta": point.theta,
        "tvd_exact": tvd.tvd_exact(point).value,
        "kl_fwd_bits": rep.kl_fwd, "kl_rev_bits": rep.kl_rev,
        "hellinger_sq": rep.hellinger_sq, "pinsker_upper": rep.pinsker_upper,
        "sason_upper": rep.sason_upper, "sqrt2h_upper": rep.sqrt2h_upper,
        "kl_exp_upper": rep.kl_exp_upper,
    }]


def _power_row(n: int, delta: float, sigma2: float) -> dict:
    interval = power.p_exact(n, delta, sigma2)
    return {
        "n": n, "delta": delta, "sigma2": sigma2,
        "p_suf": interval.p_suf, "p_exact": interval.p_exact, "p_nec": interval.p_nec,
    }


def _cmd_power(args) -> list[dict]:
    return [_power_row(args.n, args.delta, args.sigma2)]


def _throughput_row(args, report) -> dict:
    return {
        "n": args.n, "eps": args.eps,
        "delta": getattr(args, "delta", None), "power": getattr(args, "power", None),
        "mu": getattr(args, "mu", None), "tau0": getattr(args, "tau0", None),
        "kind": report.kind, "bits": report.bits,
        "term_first": report.term_first, "term_second": report.term_second,
        "term_logn": report.term_logn, "residuals": report.residuals,
    }


def _cmd_throughput(args) -> list[dict]:
    if args.kind == "covert":
        if args.delta is None:
            raise DomainError("throughput --kind covert requires --delta")
        suf, nec = throughput.covert_throughput_bounds(args.n, args.eps, args.delta)
        return [_throughput_row(args, suf), _throughput_row(args, nec)]
    if args.power is None:
        raise DomainError(f"throughput --kind {args.kind} requires --power")
    if args.kind == "converse":
        return [_throughput_row(args, throughput.converse_na(args.n, args.eps, args.power))]
    if args.mu is None:
        raise DomainError(f"throughput --kind {args.kind} requires --mu")
    if args.kind == "ach-na":
        if args.tau0 is None:
            raise DomainError("throughput --kind ach-na requires --tau0")
        rep = throughput.achievability_na(args.n, args.eps, args.power, args.mu, args.tau0)
        return [_throughput_row(args, rep)]
    rep = throughput.achievability_full(args.n, args.eps, args.power, args.mu)
    return [_throughput_row(args, rep)]


def _sweep_rows(tau: float, grid) -> list[dict]:
    points = asymptotics.sweep_tvd(tau, grid).points
    return [{"n": n, "theta": float(n) ** (-tau), "tvd_exact": v} for n, v in points]


def _cmd_sweep(args) -> list[dict]:
    return _sweep_rows(args.tau, asymptotics.default_n_grid(args.n_min, args.n_max, args.points))


def _cmd_mc(args) -> list[dict]:
    point = _resolve_point(args)
    est = oracles.simulate_test(point, m=args.m, seed=args.seed)
    return [{
        "n": point.n, "sigma2": point.sigma2, "theta": point.theta,
        "m": est.samples, "seed": est.seed,
        "alpha_hat": est.alpha_hat, "beta_hat": est.beta_hat,
        "tvd_hat": est.tvd_hat, "std_err": est.std_err,
        "tvd_exact": tvd.tvd_exact(point).value,
    }]


def _cmd_fit_rate(args) -> list[dict]:
    grid = asymptotics.default_n_grid(args.n_min, args.n_max, args.points)
    fit = asymptotics.fit_rate(asymptotics.sweep_tvd(args.tau, grid))
    return [{
        "tau": args.tau, "n_min": args.n_min, "n_max": args.n_max, "points": args.points,
        "exponent": fit.exponent, "prefactor": fit.prefactor,
        "r_squared": fit.r_squared, "transform": fit.transform,
        "conclusive": fit.conclusive,
    }]


# bounds figure -> (tau, smallest n, first bound column, series column);
# both grids end at n = 20000
_BOUNDS_FIGURES = {
    "fig8": (0.3, 1000, "hellinger_sq", "series_low_tau"),
    "fig9": (0.7, 500, "pinsker_upper", "series_high_tau"),
}


def _figure_rows(name: str) -> list[dict]:
    if name in ("fig2", "fig3"):
        delta = 0.1 if name == "fig2" else 0.01
        return [_power_row(n, delta, 1.0) for n in asymptotics.default_n_grid(500, 5000, 12)]
    if name == "fig6":
        deltas = [float(d) for d in np.geomspace(0.01, 0.5, 15)]
        return [_power_row(2000, d, 1.0) for d in deltas]
    if name == "fig7":
        grid = asymptotics.default_n_grid(500, 100000, 12)
        return [{"tau": tau, **row} for tau in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
                for row in _sweep_rows(tau, grid)]
    if name in _BOUNDS_FIGURES:
        tau, n_min, bound, series = _BOUNDS_FIGURES[name]
        rows = []
        for n in asymptotics.default_n_grid(n_min, 20000, 12):
            point = ChannelPoint.from_tau(n, tau)
            rep = divergences.tvd_bounds(point)
            rows.append({
                "tau": tau, "n": n, "theta": point.theta,
                "tvd_exact": tvd.tvd_exact(point).value,
                bound: getattr(rep, bound), "sason_upper": rep.sason_upper,
                series: tvd.tvd_series(point, K=20).value,
            })
        return rows
    raise DomainError(f"unknown figure {name!r}")


FIGURES = ("fig2", "fig3", "fig6", "fig7", "fig8", "fig9")


def _cmd_figures(args) -> list[dict]:
    outdir = Path(args.outdir or os.environ.get(_ENV_OUTDIR, "."))
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIGURES:
        path = outdir / f"{name}.{args.format}"
        _emit(_figure_rows(name), args.format, str(path))
        written.append({"figure": name, "path": str(path), "seed": args.seed})
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertvd",
        description="Total variation distance, covert power levels and throughput bounds "
                    "for Gaussian channels at finite blocklength.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tvd", help="distance at one channel point")
    _add_point_flags(p)
    p.add_argument("--method", choices=("exact", "series", "quadrature"), default="exact")
    p.add_argument("--k", type=int, default=20, help="series truncation order")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_tvd)

    p = sub.add_parser("bounds", help="divergences and sandwich bounds at one point")
    _add_point_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("power", help="sufficient / exact / necessary covert power")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True, help="TVD budget in (0,1)")
    p.add_argument("--sigma2", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("throughput", help="finite-blocklength throughput bounds")
    p.add_argument("--kind", choices=("covert", "converse", "ach-na", "ach-full"), default="covert")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, help="TVD budget (kind=covert)")
    p.add_argument("--power", type=float, help="snr (kind=converse/ach-*)")
    p.add_argument("--mu", type=float, help="shell parameter (kind=ach-*)")
    p.add_argument("--tau0", type=float, help="threshold slack (kind=ach-na)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_throughput)

    p = sub.add_parser("sweep", help="exact TVD along theta = n^(-tau)")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mc", help="seeded Monte Carlo detection test")
    _add_point_flags(p)
    p.add_argument("--m", type=int, required=True,
                   help="trials (each gives one energy per hypothesis)")
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("fit-rate", help="fit the TVD convergence rate along n^(-tau)")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_fit_rate)

    p = sub.add_parser("figures", help="write the six standard figure datasets")
    p.add_argument("--outdir", default=None, help=f"output directory (default ${_ENV_OUTDIR} or '.')")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded for reproducibility; the figure datasets are deterministic")
    p.set_defaults(func=_cmd_figures, output="-")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = args.func(args)
        _emit(rows, args.format, args.output)
    except (DomainError, RegimeError, OrderError, FitError) as exc:
        print(f"covertvd: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (AccuracyError, ConsistencyError) as exc:
        print(f"covertvd: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
