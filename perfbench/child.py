"""Entry point of every process the benchmark starts.

  child.py cli ARGS...        run ``covertvd ARGS...`` like the console script
  child.py cli-trace ARGS...  the same with spans, printed to stderr after
                              tracing.SPANS_MARK
  child.py setup WORKLOAD SEED
                              import covertvd, then run the workload's first op
  child.py import             import covertvd only (for -X importtime)

The package is imported from the src/ directory next to this benchmark.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _cli(argv: list[str], trace: bool) -> int:
    import covertvd.cli

    if not trace:
        return covertvd.cli.main(argv)
    import tracing

    recorder = tracing.Recorder()
    restore, _ = tracing.install(recorder)
    try:
        return covertvd.cli.main(argv)
    finally:
        restore()
        print(tracing.SPANS_MARK + json.dumps(recorder.dump()), file=sys.stderr)


def main() -> int:
    mode = sys.argv[1]
    if mode in ("cli", "cli-trace"):
        return _cli(sys.argv[2:], trace=mode == "cli-trace")
    if mode == "setup":
        import covertvd  # noqa: F401  (the import is what is being timed)
        import workloads

        workload, seed = sys.argv[2], int(sys.argv[3])
        workloads.execute(next(workloads.generate(workload, seed)))
        return 0
    if mode == "import":
        import covertvd  # noqa: F401
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
