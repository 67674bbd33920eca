"""Span recording around the package's public functions, from outside.

install() replaces each function named in TARGETS with a recording
wrapper at every module binding of it under ``covertvd`` (so
``covertvd.tvd.reg_lower_gamma`` is wrapped as well as
``covertvd.special.reg_lower_gamma``) and returns a function that puts
the originals back.  A target that no longer exists is skipped and later
reported with zero calls.  Spans stay in memory; layer_metrics() reduces
them and dump() gives them as plain lists for writing out.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> functions timed in that module; each name becomes the span
# name "<module>.<function>"
TARGETS: dict[str, tuple[str, ...]] = {
    "special": ("reg_lower_gamma", "reg_upper_gamma", "chi2_cdf", "q_inv"),
    "tvd": ("tvd_exact", "tvd_complement", "tvd_series"),
    "expansions": ("phi_transition", "_transition_coeffs", "_gamma_series_lower", "_gamma_series_upper"),
    "divergences": ("tvd_bounds",),
    "power": ("p_exact",),
    "throughput": ("achievability_full", "t_mu"),
    "oracles": ("simulate_test",),
    "asymptotics": ("sweep_tvd", "fit_rate"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# a traced CLI child prints its spans as JSON to stderr after this
SPANS_MARK = "perfbench-spans: "

# modules whose -X importtime cumulative time is reported as cli.import_ms.*
IMPORT_MODULES = ("covertvd", "covertvd.oracles", "scipy.integrate", "scipy.special", "numpy")


class Recorder:
    """Spans of one traced block: name, parent span index, start, end, op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.ops: list[int] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def dump(self) -> list[list]:
        return [list(s) for s in zip(self.names, self.parents, self.starts, self.ends, self.ops)]

    def extend(self, spans: list[list], op: int) -> None:
        """Append spans recorded elsewhere (a CLI child) under op."""
        offset = len(self.names)
        for name, parent, start, end, _ in spans:
            self.names.append(name)
            self.parents.append(parent + offset if parent >= 0 else -1)
            self.starts.append(start)
            self.ends.append(end)
            self.ops.append(op)


def rebind(original, replacement) -> list[tuple]:
    """Point every covertvd module binding of original at replacement;
    returns the (module, name, original) triples to undo it with."""
    patched = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "covertvd" or name.startswith("covertvd.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def undo(patched: list[tuple]) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


def install(recorder: Recorder) -> tuple[callable, list[str]]:
    """Wrap every target at every covertvd binding; returns (restore, missing)."""
    patched = []
    missing = []
    for mod_name, fns in TARGETS.items():
        home = sys.modules.get(f"covertvd.{mod_name}")
        for fn_name in fns:
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                missing.append(f"{mod_name}.{fn_name}")
                continue
            patched += rebind(original, recorder.wrap(f"{mod_name}.{fn_name}", original))
    return (lambda: undo(patched)), missing


def reduce_spans(recorder: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self ns, and calls by parent name."""
    n = len(recorder.names)
    child_ns = [0] * n
    for i in range(n):
        p = recorder.parents[i]
        if p >= 0:
            child_ns[p] += recorder.ends[i] - recorder.starts[i]
    stats = {name: {"calls": 0, "self_ns": 0, "by_parent": {}} for name in SPAN_NAMES}
    for i, name in enumerate(recorder.names):
        s = stats.setdefault(name, {"calls": 0, "self_ns": 0, "by_parent": {}})
        s["calls"] += 1
        s["self_ns"] += recorder.ends[i] - recorder.starts[i] - child_ns[i]
        p = recorder.parents[i]
        parent = recorder.names[p] if p >= 0 else ""
        s["by_parent"][parent] = s["by_parent"].get(parent, 0) + 1
    return stats


def layer_metrics(blocks: list[dict], ops: int) -> dict[str, float]:
    """Per-layer metrics from the reduced spans of repeated traced blocks.

    Every block runs the same ops, so call counts come from the first
    block (the others repeat them); self times are means over blocks.
    """
    first = blocks[0]
    nb = len(blocks)

    def calls(name):
        return first[name]["calls"]

    def self_ms(name):
        return sum(b[name]["self_ns"] for b in blocks) / nb / 1e6

    def us_per_call(name):
        return 1e3 * self_ms(name) / calls(name) if calls(name) else 0.0

    def per(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    special = [f"special.{fn}" for fn in TARGETS["special"]]
    for name in special:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
        m[f"{name}.us_per_call"] = us_per_call(name)
    m["special.calls_per_op"] = per(sum(calls(n) for n in special), ops)
    m["power.p_exact.calls"] = calls("power.p_exact")
    m["power.p_exact.self_ms"] = self_ms("power.p_exact")
    m["power.p_exact.tvd_calls_per_solve"] = per(
        first["tvd.tvd_exact"]["by_parent"].get("power.p_exact", 0), calls("power.p_exact"))
    for fn in TARGETS["tvd"]:
        m[f"tvd.{fn}.calls"] = calls(f"tvd.{fn}")
        m[f"tvd.{fn}.self_ms"] = self_ms(f"tvd.{fn}")
    m["expansions.calls"] = sum(calls(f"expansions.{fn}") for fn in TARGETS["expansions"])
    m["expansions.self_ms"] = sum(self_ms(f"expansions.{fn}") for fn in TARGETS["expansions"])
    m["divergences.tvd_bounds.calls"] = calls("divergences.tvd_bounds")
    m["divergences.tvd_bounds.us_per_call"] = us_per_call("divergences.tvd_bounds")
    m["throughput.achievability_full.calls"] = calls("throughput.achievability_full")
    m["throughput.achievability_full.self_ms"] = self_ms("throughput.achievability_full")
    m["throughput.t_mu.calls_per_solve"] = per(
        first["throughput.t_mu"]["by_parent"].get("throughput.achievability_full", 0),
        calls("throughput.achievability_full"))
    m["oracles.simulate_test.calls"] = calls("oracles.simulate_test")
    m["oracles.simulate_test.self_ms"] = self_ms("oracles.simulate_test")
    for fn in TARGETS["asymptotics"]:
        m[f"asymptotics.{fn}.self_ms"] = self_ms(f"asymptotics.{fn}")
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_ms"] = self_ms("cli.main")
    return m


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms of IMPORT_MODULES from ``-X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in IMPORT_MODULES and name not in found:
            try:
                found[name] = int(parts[1]) / 1e3
            except ValueError:
                continue
    return {name: found.get(name, 0.0) for name in IMPORT_MODULES}
