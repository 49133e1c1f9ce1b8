"""Smoke check of the benchmark itself (a few seconds per workload).

Run from the repository root::

    python3 perfbench/smoke.py          # check
    python3 perfbench/smoke.py --pin    # re-pin the answer digests first

Checks that

* every workload, run tiny, traced and untraced, prints every metric named in
  ``BENCHMARK.json`` with its unit, and reports ``correct``;
* the answers at the committed seed match the digests pinned in
  ``perfbench/answers.json`` (the run itself compares them);
* two plans built from the same seed are identical, and another seed changes
  the request stream but not the workload's shape.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import plans  # noqa: E402

TINY_SECONDS = 2.5


def run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(bench.COMMITTED_SEED),
            "--seconds",
            str(TINY_SECONDS),
            "--trace",
            str(trace),
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace} failed:\n{out.stderr}")
    report = {
        line[2:].split(":", 1)[0]: line.split(":", 1)[1].strip()
        for line in lines[:-1]
        if line.startswith("# ") and ":" in line
    }
    return json.loads(lines[-1]), report


def shape(plan: plans.Plan) -> tuple:
    requests = plan.requests(2000)
    new = sum(1 for request in requests if request.base is None)
    return (
        len(plan.bases),
        [len(variants) for variants in plan.variants],
        len(plan.fixed),
        sorted(plan.expected.items()),
        round(new / len(requests), 1),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description="smoke check of perfbench")
    parser.add_argument("--pin", action="store_true", help="re-pin answer digests")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    if args.pin:
        digests = {}
        for workload in plans.WORKLOADS:
            _result, report = run(workload, 0)
            digests[workload] = json.loads(report["digest"])
        bench.ANSWERS.write_text(
            json.dumps(
                {
                    "seed": bench.COMMITTED_SEED,
                    "requests": bench.DIGEST_REQUESTS,
                    "digests": digests,
                },
                indent=2,
            )
            + "\n"
        )

    for workload in plans.WORKLOADS:
        if workload not in bench.pinned_digests():
            failures.append(f"{workload}: no pinned answer digest")
        for trace in (0, 1):
            result, report = run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{workload} trace={trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: {report.get('problems')}")
            print(f"{workload} trace={trace}: {result['attempted']} requests, correct={result['correct']}")

        first = plans.build_plan(workload, 7, TINY_SECONDS)
        again = plans.build_plan(workload, 7, TINY_SECONDS)
        other = plans.build_plan(workload, 8, TINY_SECONDS)
        if first.digest() != again.digest():
            failures.append(f"{workload}: the same seed gave different plans")
        if first.digest() == other.digest():
            failures.append(f"{workload}: another seed gave the same stream")
        if shape(first) != shape(other):
            failures.append(f"{workload}: another seed changed the shape")

    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
