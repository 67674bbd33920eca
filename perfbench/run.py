"""Benchmark of the covertvd package: end-to-end metrics per workload, or
per-layer metrics from a traced run.

  python3 perfbench/run.py --workload figure_grids --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the src/ directory next
to this benchmark, never from an installed copy.  One single-threaded
process makes all the load (BLAS/OpenMP pinned to one thread), as one
closed-loop client: each op starts when the previous one has returned.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see NOTES.md).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with the environment it was
measured in, is also written to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# fresh interpreters per run for setup_s; the median is reported
SETUP_REPEATS = 5
# ops per traced block: whole cycles of each workload's op mix
TRACE_BLOCK = {"figure_grids": 22, "point_queries": 400, "cli_cold": 9}
# completed ops checked against the reference, per op kind: the first ones
# of the run, so a seed always checks the same ops.  Kinds that take long
# to check are capped lower (a fit ~0.1 s, a Monte Carlo op ~10 ms).
CHECKED_PER_KIND = {"figure_grids": 8, "point_queries": 400}
CHECK_CAPS = {"fit": 25, "sweep_fit": 25, "simulate_test": 50}
# cli_cold checks its first CLI_BLOCK_CYCLES cycles of ops, and its
# attempted, failed and accuracy_digits come from them alone: every run
# completes them however long its ops take, so the figures do not depend
# on how many ops fit in a run.  Later ops are timed only.
CLI_BLOCK_CYCLES = 2
# traced ops checked per traced run: the first ones of the block
CHECKED_TRACED_OPS = 10
# -X importtime children per traced run of an in-process workload
IMPORT_REPEATS = 3
# p90 needs at least this many ops; below it the highest percentile with
# ten ops beyond it is reported instead
P90_MIN_OPS = 100
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (no package, a set-up child failed)."""


def _checked_child(*args: str, importtime: bool = False) -> subprocess.CompletedProcess:
    """Run child.py with args; a failure means the benchmark cannot run."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "child.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    try:  # only when ROOT itself is the top of a git work tree
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=False).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ------------------------------------------------------------------ timing

def tail_percentile(lat: list[float]) -> tuple[float, str]:
    """(value, label): p90 with >= P90_MIN_OPS ops, else the highest
    percentile with TAIL_BEYOND ops above it, but never below the median."""
    n = len(lat)
    if n >= P90_MIN_OPS:
        return statistics.quantiles(lat, n=10)[8], f"p90 of {n} ops"
    ordered = sorted(lat)
    k = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[k - 1], f"p{100 * k / n:.0f} of {n} ops ({n - k} ops above it)"


def setup_seconds(workload: str, seed: int, first_op) -> list[float]:
    """Seconds of fresh interpreters through import and the first op."""
    wall = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workload == "cli_cold":
            _checked_child("cli", *first_op["args"])
        else:
            _checked_child("setup", workload, str(seed))
        wall.append(time.perf_counter() - t0)
    return wall


def run_op(workloads, workload: str, op: dict):
    """Execute one op; returns a record, or a CLI op's stdout.  Raises on
    failure: an exception, or a CLI exit code other than 0."""
    if workload != "cli_cold":
        return workloads.execute(op)
    proc = workloads.run_cli(op["args"])
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {(proc.stderr.strip().splitlines() or [''])[-1]}")
    return proc.stdout


def check_outputs(workloads, workload: str, picked: list[tuple[dict, object]]
                  ) -> tuple[list[str], int, list[tuple[str, float]]]:
    """Check (op, output) pairs; returns (rejection messages, number of
    rejected ops, relative errors)."""
    import oracle

    rejected, bad_ops, errors = [], 0, []
    for op, output in picked:
        try:
            record = workloads.cli_record(op, output) if workload == "cli_cold" else output
            verdict = oracle.check(record)
            problems = verdict.problems
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        else:
            errors += verdict.errors
        rejected += [f"op {op['i']} ({op['kind']}): {p}" for p in problems]
        bad_ops += bool(problems)
    return rejected, bad_ops, errors


def _wants_check(workload: str, kind: str, counts: dict[str, int]) -> bool:
    quota = min(CHECKED_PER_KIND[workload], CHECK_CAPS.get(kind, math.inf))
    if counts.get(kind, 0) >= quota:
        return False
    counts[kind] = counts.get(kind, 0) + 1
    return True


def _timings(lat_s: list[float], setup_s: list[float]) -> dict[str, float]:
    tail, _ = tail_percentile(lat_s)
    return {"setup_s": statistics.median(setup_s), "ops_per_s": len(lat_s) / sum(lat_s),
            "p50_ms": 1e3 * statistics.median(lat_s), "p90_ms": 1e3 * tail}


def measured_run(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    first_op = next(workloads.generate(workload, seed))
    _checked_child("import")  # compiles bytecode once, as an installed package has it
    setup_s = setup_seconds(workload, seed, first_op)

    if workload != "cli_cold":  # lazy imports and caches, on ops of another stream
        warm = workloads.generate(workload, f"warm-up:{seed}")
        for _ in workloads.CYCLES[workload]:
            try:
                workloads.execute(next(warm))
            except Exception:  # the timed ops fail the same way and are counted
                pass

    cli = workload == "cli_cold"
    block = CLI_BLOCK_CYCLES * len(workloads.CYCLES[workload]) if cli else 0
    gen = workloads.generate(workload, seed)
    lat, kinds, raised, sample = [], [], [], []
    checked_kinds: dict[str, int] = {}
    ops = 0
    deadline = time.perf_counter() + seconds
    while ops < block or time.perf_counter() < deadline:
        op = next(gen)
        ops += 1
        t0 = time.perf_counter()
        try:
            output = run_op(workloads, workload, op)
        except Exception as exc:  # a failed op is counted but not timed, and the run goes on
            raised.append((op["i"], f"op {op['i']} ({op['kind']}): {type(exc).__name__}: {exc}"))
            continue
        lat.append(time.perf_counter() - t0)
        kinds.append(op["kind"])
        if (op["i"] < block) if cli else _wants_check(workload, op["kind"], checked_kinds):
            sample.append((op, output))
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # before the checker's imports
    if not lat:
        raise BenchError(f"every op raised, e.g. {raised[0][1]}")

    rejected, bad_ops, errors = check_outputs(workloads, workload, sample)
    if not errors:
        raise BenchError("no output of the run could be checked")
    worst = max(e for _, e in errors)
    if cli:  # the known quadrature crash is expected here; it counts in failed only
        counted = [msg for i, msg in raised if i < block]
        attempted = block
    else:  # no op of these workloads should ever raise
        counted = [msg for _, msg in raised]
        attempted = ops
    failed = len(counted) + bad_ops
    metrics = {name: (value, unit) for (name, value), unit in
               zip(_timings(lat, setup_s).items(), ("s", "1/s", "ms", "ms"))}
    metrics["accuracy_digits"] = (-math.log10(worst), "digits")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return {
        "correct": not rejected and (cli or not raised),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "fail_ratio": failed / attempted,
            "ops_run": ops,
            "ops_raised": len(raised),
            "p90_ms_is": tail_percentile(lat)[1],
            "setup_s_all": setup_s,
            "ops_checked": len(sample),
            "values_checked": len(errors),
            "worst_relative_error": {q: max((e for k, e in errors if k == q), default=None)
                                     for q in ("V", "1-V", "p_exact residual")},
            "exceptions": [msg for _, msg in raised][:20],
            "rejections": rejected[:20],
            "p50_ms_by_kind": {kind: 1e3 * statistics.median(t for o, t in zip(kinds, lat) if o == kind)
                               for kind in dict.fromkeys(workloads.CYCLES[workload]) if kind in kinds},
        },
    }


# ------------------------------------------------------------------ tracing

def _import_ms(stderrs: list[str]) -> dict[str, float]:
    per_child = [tracing.parse_importtime(s) for s in stderrs]
    return {mod: statistics.median(c[mod] for c in per_child) for mod in tracing.IMPORT_MODULES}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced runs of one fixed block of ops until
    the time is spent; counts come from the block, times are means."""
    import workloads

    gen = workloads.generate(workload, seed)
    block = [next(gen) for _ in range(TRACE_BLOCK[workload])]
    cli = workload == "cli_cold"
    _checked_child("import")
    if not cli:
        for op in block:  # warm-up
            try:
                workloads.execute(op)
            except Exception:  # the traced ops fail the same way and are counted
                pass

    reduced, import_stderr, missing = [], [], []
    first_outputs, first_raised, first_spans = None, None, None
    block_s = {"untraced": [], "traced": []}

    def run_block(name, run):
        """Run the block; returns (outputs of completed ops, messages of raised ones)."""
        outputs, raised = [], []
        t0 = time.perf_counter()
        for op in block:
            try:
                outputs.append((op, run(op)))
            except Exception as exc:  # counted, as in the measured run
                raised.append(f"op {op['i']} ({op['kind']}): {type(exc).__name__}: {exc}")
        block_s[name].append(time.perf_counter() - t0)
        return outputs, raised

    def traced_cli(op):
        proc = workloads.run_cli(op["args"], trace=True)
        kept = []
        for line in proc.stderr.splitlines():
            if line.startswith(tracing.SPANS_MARK):
                recorder.extend(json.loads(line[len(tracing.SPANS_MARK):]), op["i"])
            else:
                kept.append(line)
        import_stderr.append("\n".join(kept))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}")
        return proc.stdout

    def traced_execute(op):
        recorder.op = op["i"]
        return workloads.execute(op)

    deadline = time.perf_counter() + seconds
    while not reduced or time.perf_counter() < deadline:
        run_block("untraced", lambda op: run_op(workloads, workload, op))
        recorder = tracing.Recorder()
        if cli:
            outputs, raised = run_block("traced", traced_cli)
        else:
            restore, missing = tracing.install(recorder)
            try:
                outputs, raised = run_block("traced", traced_execute)
            finally:
                restore()
        reduced.append(tracing.reduce_spans(recorder))
        if first_outputs is None:
            first_outputs, first_raised, first_spans = outputs, raised, recorder.dump()

    if not cli:
        import_stderr = [_checked_child("import", importtime=True).stderr for _ in range(IMPORT_REPEATS)]
    rejected, bad_ops, _ = check_outputs(workloads, workload, first_outputs[:CHECKED_TRACED_OPS])

    metrics = {name: (value, _layer_unit(name))
               for name, value in tracing.layer_metrics(reduced, len(block)).items()}
    for mod, ms in _import_ms(import_stderr).items():
        metrics[f"cli.import_ms.{mod}"] = (ms, "ms")
    metrics["trace.overhead_ratio"] = (sum(block_s["untraced"]) / sum(block_s["traced"]), "ratio")
    # every block runs the same ops and raises the same way: the figures
    # come from the first traced block
    failed = len(first_raised) + bad_ops
    return {
        "correct": not rejected and (cli or not first_raised),
        "attempted": len(block),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "fail_ratio": failed / len(block),
            "traced_blocks": len(reduced),
            "untraced_block_ms": [1e3 * t for t in block_s["untraced"]],
            "traced_block_ms": [1e3 * t for t in block_s["traced"]],
            "missing_targets": missing,
            "ops_checked": min(len(first_outputs), CHECKED_TRACED_OPS),
            "exceptions": first_raised[:20],
            "rejections": rejected[:20],
        },
        "spans": first_spans,
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(("_ms", ".self_ms")):
        return "ms"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_per_op"):
        return "calls/op"
    return "calls/solve"


# ------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figure_grids", "point_queries", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "covertvd", "__init__.py")):
        print(f"perfbench: no covertvd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import covertvd

    if not os.path.abspath(covertvd.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported covertvd from {covertvd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds)
        else:
            result = measured_run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    spans = result.pop("spans", None)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "environment": env,
                   **result}, fh, indent=1, default=list)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write("# name, parent span index, start ns, end ns, op index\n")
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  load {env['loadavg'][0]:.2f}  commit {env['git_commit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"fail_ratio {result['detail']['fail_ratio']:.4f} ratio  correct {result['correct']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if "p90_ms_is" in result["detail"]:
        print(f"  (p90_ms is the {result['detail']['p90_ms_is']})")
    for line in result["detail"]["exceptions"][:5] + result["detail"]["rejections"][:5]:
        print(f"  ! {line}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
