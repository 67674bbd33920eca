"""Seeded operation streams for the three workloads, and their execution.

Each op is a plain dict of inputs drawn from the seed.  execute() runs an
in-process op against the public API and returns a record of inputs and
outputs for oracle.check; run_cli() runs a cli_cold op as a fresh
``covertvd`` subprocess and cli_record() turns its output into a record.
Op kinds repeat in a fixed cycle per workload, so every run has the same
mix.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import subprocess
import sys

import covertvd as cv
from covertvd import asymptotics

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

# the eleven curves of one ``covertvd figures`` run (cli._figure_rows):
# fig2, fig3 (power vs n), fig6 (power vs delta), fig7 (six sweeps, one of
# them with a rate fit, as in ``covertvd fit-rate``), fig8 and fig9
# (bounds curves at low and at high tau)
FIGURE_CYCLE = ("power_vs_n", "power_vs_n", "power_vs_delta", "sweep_fit") + ("sweep",) * 5 + (
    "bounds_curve", "bounds_curve")

# mostly scalar point evaluators, plus one each of the other queries; the
# three slow kinds (fit < achievability_full < simulate_test) make up 3/16
# of the ops, which puts p90 inside the achievability_full ops
POINT_CYCLE = ("tvd_exact", "tvd_complement", "tvd_series", "tvd_bounds") * 3 + (
    "covert_throughput", "achievability_full", "simulate_test", "fit")

# every subcommand but figures; tvd once per method
CLI_CYCLE = ("tvd-exact", "bounds", "power", "tvd-series", "throughput", "sweep",
             "tvd-quadrature", "mc", "fit-rate")

CYCLES = {"figure_grids": FIGURE_CYCLE, "point_queries": POINT_CYCLE, "cli_cold": CLI_CYCLE}

# Rate fits need a power law: fit_rate refuses tau = 1/2 and the nearly
# flat series within ~0.01 of it (FitError), so fits draw tau outside this
# band.
FIT_TAU_GAP = 0.02

CLI_TIMEOUT_S = 120


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _logu_int(rng: random.Random, lo: float, hi: float) -> int:
    return int(round(_logu(rng, lo, hi)))


def _radical_inverse(i: int, base: int) -> float:
    inv, scale = 0.0, 1.0
    while i:
        scale /= base
        inv += scale * (i % base)
        i //= base
    return inv


class Points:
    """(n, tau) for point queries: per op kind, a randomly shifted 2-D
    Halton sequence over log10 n in [3, 6] and tau in [0.2, 0.95], so
    every run, and its first checked ops, cover the domain evenly and no
    point repeats."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.streams: dict[str, list] = {}

    def __call__(self, kind: str) -> tuple[int, float]:
        if kind not in self.streams:
            self.streams[kind] = [0, self.rng.random(), self.rng.random()]
        stream = self.streams[kind]
        stream[0] += 1
        u = (_radical_inverse(stream[0], 2) + stream[1]) % 1.0
        v = (_radical_inverse(stream[0], 3) + stream[2]) % 1.0
        return int(round(10.0 ** (3.0 + 3.0 * u))), 0.2 + 0.75 * v


def _distinct(draw, k: int) -> list:
    values = set()
    while len(values) < k:
        values.add(draw())
    return sorted(values)


def _fit_tau(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        tau = rng.uniform(lo, hi)
        if abs(tau - 0.5) >= FIT_TAU_GAP:
            return tau


def _figure_op(rng: random.Random, kind: str, nth: int) -> dict:
    """Op of a kind; nth counts the earlier ops of that kind."""
    if kind == "power_vs_n":
        return {"kind": kind, "delta": _logu(rng, 0.01, 0.1),
                "ns": _distinct(lambda: _logu_int(rng, 500, 5000), 12)}
    if kind == "power_vs_delta":
        return {"kind": kind, "n": rng.randint(1800, 2200),
                "deltas": _distinct(lambda: _logu(rng, 0.01, 0.5), 15)}
    if kind in ("sweep", "sweep_fit"):
        grid = asymptotics.default_n_grid(_logu_int(rng, 500, 2000), _logu_int(rng, 2e4, 1e5), 12)
        tau = _fit_tau(rng, 0.3, 0.8) if kind == "sweep_fit" else rng.uniform(0.3, 0.8)
        return {"kind": kind, "tau": tau, "ns": list(grid)}
    tau = rng.uniform(0.2, 0.45) if nth % 2 == 0 else rng.uniform(0.55, 0.95)
    return {"kind": kind, "tau": tau, "ns": _distinct(lambda: _logu_int(rng, 500, 20000), 12)}


def _point_op(rng: random.Random, points: Points, kind: str) -> dict:
    if kind == "covert_throughput":
        return {"kind": kind, "n": _logu_int(rng, 1e3, 1e6), "eps": _logu(rng, 1e-4, 0.1),
                "delta": _logu(rng, 1e-3, 0.5)}
    if kind == "achievability_full":
        # the Berry-Esseen margin 2 B / sqrt(n) reaches 0.10 at n = 1e5 on
        # this (P, mu) range; for eps below it the bound is vacuous
        # (RegimeError by design)
        return {"kind": kind, "n": _logu_int(rng, 1e5, 1e6), "eps": rng.uniform(0.12, 0.25),
                "P": _logu(rng, 1e-3, 1.0), "mu": rng.uniform(0.8, 0.95)}
    if kind == "fit":
        grid = asymptotics.default_n_grid(_logu_int(rng, 1e3, 1e4), _logu_int(rng, 1e5, 1e6), 12)
        return {"kind": kind, "tau": _fit_tau(rng, 0.2, 0.95), "ns": list(grid)}
    n, tau = points(kind)
    op = {"kind": kind, "n": n, "tau": tau}
    if kind == "simulate_test":
        op.update(m=100_000, seed=rng.randrange(2**31))
    return op


def _cli_op(rng: random.Random, points: Points, kind: str) -> dict:
    def point():
        n, tau = points(kind)
        return ["--n", str(n), "--tau", repr(tau)]


    if kind.startswith("tvd-"):
        args = ["tvd", *point(), "--method", kind[len("tvd-"):]]
    elif kind == "bounds":
        args = ["bounds", *point()]
    elif kind == "power":
        args = ["power", "--n", str(_logu_int(rng, 500, 1e6)), "--delta", repr(_logu(rng, 0.01, 0.5))]
    elif kind == "throughput":
        args = ["throughput", "--kind", "covert", "--n", str(_logu_int(rng, 1e3, 1e6)),
                "--eps", repr(_logu(rng, 1e-4, 0.1)), "--delta", repr(_logu(rng, 1e-3, 0.5))]
    elif kind == "sweep":
        # 48 points up to n = 1e6 at tau in [0.8, 0.95], where the kernel's
        # relative error peaks (ROADMAP item 2): every run's few CLI ops
        # then reach that region, so the known loss shows in each run's
        # accuracy_digits instead of only in runs that happen to draw it
        args = ["sweep", "--tau", repr(rng.uniform(0.8, 0.95)),
                "--n-min", str(_logu_int(rng, 1e3, 1e4)), "--n-max", "1000000", "--points", "48"]
    elif kind == "mc":
        args = ["mc", *point(), "--m", "100000", "--seed", str(rng.randrange(2**31))]
    else:
        args = ["fit-rate", "--tau", repr(_fit_tau(rng, 0.2, 0.95)), "--n-min", str(_logu_int(rng, 1e3, 1e4)),
                "--n-max", str(_logu_int(rng, 1e5, 1e6)), "--points", "12"]
    return {"kind": kind, "args": args}


def generate(workload: str, seed: int):
    """Endless op stream of a workload; the same seed gives the same ops."""
    cycle = CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    points = Points(rng)
    seen: dict[str, int] = {}
    i = 0
    while True:
        kind = cycle[i % len(cycle)]
        if workload == "figure_grids":
            op = _figure_op(rng, kind, seen.get(kind, 0))
            seen[kind] = seen.get(kind, 0) + 1
        elif workload == "point_queries":
            op = _point_op(rng, points, kind)
        else:
            op = _cli_op(rng, points, kind)
        op["i"] = i
        yield op
        i += 1


# ------------------------------------------------------------- in-process

def _interval_row(n, delta, pi) -> list:
    return [n, delta, pi.p_suf, pi.p_exact, pi.p_nec]


def _bounds_dict(rep) -> dict:
    return {k: getattr(rep, k) for k in ("kl_fwd", "kl_rev", "hellinger_sq", "pinsker_upper",
                                         "sason_upper", "sqrt2h_upper", "kl_exp_upper")}


def _report_dict(rep) -> dict:
    return {k: getattr(rep, k) for k in ("bits", "term_first", "term_second", "term_logn")}


def execute(op: dict) -> dict:
    """Run one in-process op through the public API; returns its record."""
    kind = op["kind"]
    if kind == "power_vs_n":
        return {"kind": kind, "rows": [_interval_row(n, op["delta"], cv.p_exact(n, op["delta"]))
                                       for n in op["ns"]]}
    if kind == "power_vs_delta":
        return {"kind": kind, "rows": [_interval_row(op["n"], d, cv.p_exact(op["n"], d))
                                       for d in op["deltas"]]}
    if kind in ("sweep", "sweep_fit", "fit"):
        series = cv.sweep_tvd(op["tau"], op["ns"])
        record = {"kind": kind, "tau": op["tau"], "ns": op["ns"], "points": list(series.points)}
        if kind != "sweep":
            record["exponent"] = cv.fit_rate(series).exponent
        return record
    if kind == "bounds_curve":
        rows = []
        for n in op["ns"]:
            point = cv.ChannelPoint.from_tau(n, op["tau"])
            series = cv.tvd_series(point, K=20)
            rows.append({"n": n, "theta": point.theta, "tvd_exact": cv.tvd_exact(point).value,
                         "bounds": _bounds_dict(cv.tvd_bounds(point)),
                         "series": series.value, "series_err": series.err_estimate})
        return {"kind": kind, "rows": rows}
    if kind == "covert_throughput":
        suf, nec = cv.covert_throughput_bounds(op["n"], op["eps"], op["delta"])
        return {"kind": kind, "n": op["n"], "eps": op["eps"], "delta": op["delta"],
                "suf": _report_dict(suf), "nec": _report_dict(nec)}
    if kind == "achievability_full":
        rep = cv.achievability_full(op["n"], op["eps"], op["P"], op["mu"])
        return {"kind": kind, "n": op["n"], "eps": op["eps"], "P": op["P"], "report": _report_dict(rep)}
    point = cv.ChannelPoint.from_tau(op["n"], op["tau"])
    record = {"kind": kind, "n": op["n"], "theta": point.theta}
    if kind == "tvd_exact":
        record["value"] = cv.tvd_exact(point).value
    elif kind == "tvd_complement":
        record["value"] = cv.tvd_complement(point)
    elif kind == "tvd_series":
        ev = cv.tvd_series(point, K=20)
        record.update(value=ev.value, err_estimate=ev.err_estimate)
    elif kind == "tvd_bounds":
        record["bounds"] = _bounds_dict(cv.tvd_bounds(point))
    elif kind == "simulate_test":
        est = cv.simulate_test(point, m=op["m"], seed=op["seed"])
        record.update(m=op["m"], alpha_hat=est.alpha_hat, beta_hat=est.beta_hat)
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return record


# --------------------------------------------------------------------- CLI

def run_cli(args: list[str], trace: bool = False) -> subprocess.CompletedProcess:
    """One fresh ``covertvd`` process, as the console script would start it.

    It inherits this process's environment, where run.py pinned the
    BLAS/OpenMP thread counts."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [CHILD, "cli-trace" if trace else "cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)


def _rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


_BOUND_COLUMNS = {"kl_fwd_bits": "kl_fwd", "kl_rev_bits": "kl_rev", "hellinger_sq": "hellinger_sq",
                  "pinsker_upper": "pinsker_upper", "sason_upper": "sason_upper",
                  "sqrt2h_upper": "sqrt2h_upper", "kl_exp_upper": "kl_exp_upper"}


def cli_record(op: dict, stdout: str) -> dict:
    """Record for oracle.check from a CLI op's CSV output."""
    kind = op["kind"]
    rows = _rows(stdout)
    args = op["args"]
    row = rows[0]
    if kind.startswith("tvd-"):
        method = kind[len("tvd-"):]
        record = {"kind": {"exact": "tvd_exact", "series": "tvd_series",
                           "quadrature": "tvd_quadrature"}[method],
                  "n": int(row["n"]), "theta": float(row["theta"]), "value": float(row["value"])}
        if method == "series":
            record["err_estimate"] = float(row["err_estimate"])
        return record
    if kind == "bounds":
        return {"kind": "tvd_bounds", "n": int(row["n"]), "theta": float(row["theta"]),
                "tvd_exact": float(row["tvd_exact"]),
                "bounds": {dst: float(row[src]) for src, dst in _BOUND_COLUMNS.items()}}
    if kind == "power":
        return {"kind": "power", "rows": [[int(r["n"]), float(r["delta"]), float(r["p_suf"]),
                                           float(r["p_exact"]), float(r["p_nec"])] for r in rows]}
    if kind == "throughput":
        def rep(r):
            return {k: float(r[k]) for k in ("bits", "term_first", "term_second", "term_logn")}
        return {"kind": "covert_throughput", "n": int(row["n"]), "eps": float(row["eps"]),
                "delta": float(row["delta"]), "suf": rep(rows[0]), "nec": rep(rows[1])}
    if kind == "sweep":
        tau = float(args[args.index("--tau") + 1])
        points = [(int(r["n"]), float(r["tvd_exact"])) for r in rows]
        return {"kind": "sweep", "tau": tau, "points": points}
    if kind == "mc":
        return {"kind": "simulate_test", "n": int(row["n"]), "theta": float(row["theta"]),
                "m": int(row["m"]), "alpha_hat": float(row["alpha_hat"]),
                "beta_hat": float(row["beta_hat"]), "tvd_exact": float(row["tvd_exact"])}
    grid = asymptotics.default_n_grid(int(row["n_min"]), int(row["n_max"]), int(row["points"]))
    return {"kind": "fit", "tau": float(row["tau"]), "ns": list(grid), "exponent": float(row["exponent"])}
