"""The repository benchmark: one seeded workload, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced run (plus the
overhead of tracing against an untraced run of the same inputs).  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a human-readable account of the run.  Workloads and
the reasons for them are described in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind (stopping any server subprocess) when asked to terminate.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # Engine-selecting variables would change what is measured.
    for name in ("REPRO_TRACE", "REPRO_KERNEL", "REPRO_CACHE_BACKEND"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    if args.workload not in bench.plans.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {bench.plans.WORKLOADS})")

    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}"
    )
    runner = bench.run_traced if args.trace else bench.run_untraced
    result = runner(args.workload, args.seed, args.seconds)
    report = result.pop("report")
    for key, value in report.items():
        print(f"# {key}: {json.dumps(value)}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
