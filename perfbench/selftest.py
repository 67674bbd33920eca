"""Self-tests of the benchmark's checker, tracer and percentile rule.

  python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The runs here are short and use one set-up interpreter instead of five.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import mpmath  # noqa: E402

import covertvd  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@contextlib.contextmanager
def replaced(original, replacement):
    """Swap a function at every covertvd binding of it."""
    patched = tracing.rebind(original, replacement)
    try:
        yield
    finally:
        tracing.undo(patched)


@contextlib.contextmanager
def settings(**values):
    old = {k: getattr(run, k) for k in values}
    for k, v in values.items():
        setattr(run, k, v)
    try:
        yield
    finally:
        for k, v in old.items():
            setattr(run, k, v)


def short_run(workload="figure_grids", seed=11, seconds=1.0):
    with settings(SETUP_REPEATS=1):
        return run.measured_run(workload, seed, seconds)


class ReferenceTest(unittest.TestCase):
    def test_integer_shape_closed_form(self):
        # Q(a, z) = e^-z sum_{k<a} z^k / k! for integer a
        for a, z in ((5, 3.0), (40, 52.5), (200, 180.0)):
            p, q = oracle.gamma_pq(a, z)
            with mpmath.workdps(oracle.DPS):
                want = mpmath.exp(-z) * mpmath.fsum(mpmath.mpf(z) ** k / mpmath.factorial(k)
                                                    for k in range(a))
                self.assertLess(abs(q - want) / want, 1e-40)
                self.assertLess(abs(p + q - 1), 1e-45)

    def test_half_shape_is_erf(self):
        for z in (0.1, 2.0, 30.0):
            p, q = oracle.gamma_pq(0.5, z)
            with mpmath.workdps(oracle.DPS):
                root = mpmath.sqrt(z)
                self.assertLess(abs(p - mpmath.erf(root)), 1e-45)
                self.assertLess(abs(q - mpmath.erfc(root)) / mpmath.erfc(root), 1e-40)

    def test_agrees_with_mpmath_gammainc_where_it_converges(self):
        for a, z in ((5e3, 4.9e3), (5e3, 5.2e3), (5e4 + 0.5, 5.01e4)):
            p, _ = oracle.gamma_pq(a, z)
            with mpmath.workdps(oracle.DPS):
                want = mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(z), regularized=True)
                self.assertLess(abs(p - want), 1e-40)

    def test_series_and_continued_fraction_agree_at_large_shape(self):
        # beyond z ~ a the reference switches method; at a = 5e5, where
        # mpmath's own gammainc raises NoConvergence, the two must agree
        with mpmath.workdps(oracle.DPS):
            a = mpmath.mpf(5e5)
            for z in (5.02e5, 5.05e5):
                z = mpmath.mpf(z)
                p, q = oracle._lower(a, z), oracle._upper_cf(a, z)
                self.assertLess(abs(p + q - 1), 1e-40)

    def test_known_kernel_error_is_reported_not_rejected(self):
        point = covertvd.ChannelPoint.from_tau(1_000_000, 0.95)
        record = {"kind": "tvd_exact", "n": point.n, "theta": point.theta,
                  "value": covertvd.tvd_exact(point).value}
        verdict = oracle.check(record)
        self.assertTrue(verdict.ok, verdict.problems)
        self.assertGreater(verdict.errors[0][1], 1e-8)

    def test_monte_carlo_rare_errors(self):
        # mean error count ~2e-3: one error is unlikely but possible, five are not
        point = covertvd.ChannelPoint.from_tau(63122, 0.2469)
        record = {"kind": "simulate_test", "n": point.n, "theta": point.theta, "m": 100_000,
                  "alpha_hat": 0.0}
        self.assertTrue(oracle.check({**record, "beta_hat": 1e-5}).ok)
        self.assertFalse(oracle.check({**record, "beta_hat": 5e-5}).ok)


class CheckerTest(unittest.TestCase):
    def test_correct_run_has_no_failures(self):
        result = short_run()
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0, result["detail"])
        self.assertEqual(result["detail"]["fail_ratio"], 0.0)
        self.assertTrue(result["correct"])

    def test_perturbed_v_raises_fail_ratio(self):
        original = covertvd.tvd.tvd_exact

        def perturbed(point):
            ev = original(point)
            return dataclasses.replace(ev, value=ev.value * (1 - 1e-6))

        with replaced(original, perturbed):
            result = short_run()
        self.assertGreater(result["detail"]["fail_ratio"], 0.0)
        self.assertFalse(result["correct"])

    def test_p_exact_outside_bracket_raises_fail_ratio(self):
        original = covertvd.power.p_exact

        def outside(n, delta, sigma2=1.0):
            pi = original(n, delta, sigma2)
            return dataclasses.replace(pi, p_exact=pi.p_nec * 1.01)

        with replaced(original, outside):
            result = short_run()
        self.assertGreater(result["detail"]["fail_ratio"], 0.0)
        self.assertTrue(any("outside [p_suf, p_nec]" in r for r in result["detail"]["rejections"]))


    def test_raised_op_fails_the_run_and_is_not_timed(self):
        def broken(point):
            raise RuntimeError("injected")

        with replaced(covertvd.divergences.tvd_bounds, broken):
            result = short_run()
        detail = result["detail"]
        self.assertFalse(result["correct"])
        self.assertGreater(detail["ops_raised"], 0)
        self.assertEqual(result["failed"], detail["ops_raised"])
        self.assertEqual(result["attempted"], detail["ops_run"])
        self.assertNotIn("bounds_curve", detail["p50_ms_by_kind"])
        self.assertIn("sweep", detail["p50_ms_by_kind"])

    def test_cli_figures_come_from_a_fixed_block(self):
        # a zero-second run still completes and checks the whole block
        with settings(SETUP_REPEATS=1, CLI_BLOCK_CYCLES=1):
            result = run.measured_run("cli_cold", 3, 0.0)
        block = len(workloads.CLI_CYCLE)
        self.assertEqual(result["attempted"], block)
        self.assertEqual(result["detail"]["ops_run"], block)
        self.assertEqual(result["detail"]["ops_checked"] + result["failed"], block)
        self.assertTrue(result["correct"], result["detail"]["rejections"])


class TraceTest(unittest.TestCase):
    def traced(self, workload, block):
        with settings(TRACE_BLOCK={**run.TRACE_BLOCK, workload: block}, IMPORT_REPEATS=1):
            return run.traced_run(workload, 5, 0.0)

    def test_counts_repeat_exactly_for_a_seed(self):
        for workload, block in (("point_queries", 20), ("figure_grids", 5)):
            a, b = self.traced(workload, block), self.traced(workload, block)
            counts = {k: v for k, v in a["metrics"].items()
                      if k.endswith((".calls", "_per_op", "_per_solve"))}
            self.assertTrue(counts)
            self.assertEqual(counts, {k: b["metrics"][k] for k in counts})
            self.assertEqual(a["failed"], 0)

    def test_counts_see_every_binding(self):
        m = self.traced("figure_grids", 5)["metrics"]
        # p_exact reaches tvd_exact through covertvd.power's own binding
        self.assertGreater(m["power.p_exact.tvd_calls_per_solve"][0], 10)
        self.assertGreater(m["special.reg_lower_gamma.calls"][0], m["tvd.tvd_exact.calls"][0])

    def test_vanished_target_reports_zero_calls(self):
        special = sys.modules["covertvd.special"]
        saved = special.q_inv
        del special.q_inv
        try:
            result = self.traced("point_queries", 20)
        finally:
            special.q_inv = saved
        self.assertIn("special.q_inv", result["detail"]["missing_targets"])
        self.assertEqual(result["metrics"]["special.q_inv.calls"][0], 0)
        self.assertEqual(result["metrics"]["special.q_inv.us_per_call"][0], 0.0)

    def test_self_time_excludes_children(self):
        rec = tracing.Recorder()
        rec.extend([["power.p_exact", -1, 0, 100, 0], ["tvd.tvd_exact", 0, 10, 40, 0],
                    ["tvd.tvd_exact", 0, 50, 70, 0]], op=0)
        stats = tracing.reduce_spans(rec)
        self.assertEqual(stats["power.p_exact"]["self_ns"], 50)
        self.assertEqual(stats["tvd.tvd_exact"]["calls"], 2)
        self.assertEqual(stats["tvd.tvd_exact"]["by_parent"], {"power.p_exact": 2})

    def test_parse_importtime(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:      1200 |     108000 |   numpy\n"
                "import time:       900 |     924000 | covertvd\n")
        ms = tracing.parse_importtime(text)
        self.assertEqual(ms["numpy"], 108.0)
        self.assertEqual(ms["covertvd"], 924.0)
        self.assertEqual(ms["scipy.integrate"], 0.0)


class PercentileTest(unittest.TestCase):
    def test_rule(self):
        value, label = run.tail_percentile(list(range(1, 201)))
        self.assertTrue(label.startswith("p90 of 200"))
        self.assertAlmostEqual(value, 180.9)
        value, label = run.tail_percentile(list(range(1, 24)))
        self.assertEqual(value, 13)  # ten values (14..23) lie above it
        value, _ = run.tail_percentile(list(range(1, 18)))
        self.assertEqual(value, 9)  # never below the median
        value, _ = run.tail_percentile([3, 1, 2])
        self.assertEqual(value, 2)
        value, _ = run.tail_percentile([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(value, 3.0)  # even count: not below the median 2.5


if __name__ == "__main__":
    unittest.main()
