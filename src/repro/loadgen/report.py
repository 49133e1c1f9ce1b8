"""The SLO report: one JSON document per load run, plus a human summary.

:func:`build_report` folds a finished :class:`~repro.loadgen.driver.RunResult`
into the ``repro.loadgen/1`` schema (documented in ``docs/loadgen.md``):
stream identity (count, unique keys, SHA-256 digest), outcome tallies,
exact latency percentiles per priority class, throughput, dedup ratio,
cache-hit and deadline-miss rates, the sessions' stats snapshots, and — when
a spec was given — the SLO verdict.  The committed ``BENCH_loadgen.json``
trajectory file is exactly this document, so every consumer (CI gates,
re-anchor reviews, dashboards) reads one shape.

Percentiles here are **exact** (nearest-rank over the recorded samples),
unlike the scheduler's O(1) bucket histograms: a load run holds every
sample anyway, and an SLO verdict should not inherit bucket rounding.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from .driver import RequestRecord, RunResult
from .slo import SLOSpec
from .workload import Request, WorkloadSpec, stream_digest

SCHEMA = "repro.loadgen/1"
"""Schema identifier carried by every report (bump on breaking changes)."""

LATENCY_CLASSES = ("all", "interactive", "batch", "warm")
"""The per-class latency sections every report carries."""


def _percentile(sorted_ms: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list (non-empty)."""
    rank = max(1, math.ceil(q * len(sorted_ms)))
    return sorted_ms[rank - 1]


def _latency_section(records: List[RequestRecord]) -> Dict[str, Any]:
    if not records:
        return {"count": 0}
    ordered = sorted(record.latency_ms for record in records)
    # The worst request travels *identified*: its request id (when the
    # session ran with observability on) is directly feedable to
    # `repro trace` / `session.trace()` to pull the span tree
    # behind the class's max latency.
    worst = max(records, key=lambda record: record.latency_ms)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "p50": _percentile(ordered, 0.50),
        "p90": _percentile(ordered, 0.90),
        "p99": _percentile(ordered, 0.99),
        "max": ordered[-1],
        "slowest": {
            "request_id": worst.request_id,
            "index": worst.index,
            "key": worst.key,
            "latency_ms": worst.latency_ms,
            "session_index": worst.session_index,
            "outcome": worst.outcome,
        },
    }


def build_report(
    endpoint: str,
    spec: WorkloadSpec,
    plan: Sequence[Request],
    result: RunResult,
    slo: Optional[SLOSpec] = None,
) -> Dict[str, Any]:
    """Fold one finished run into the ``repro.loadgen/1`` report document."""
    records = result.records
    total = len(records)
    tallies = {"ok": 0, "timeout": 0, "cancelled": 0, "error": 0}
    for record in records:
        tallies[record.outcome] = tallies.get(record.outcome, 0) + 1
    ok = tallies["ok"]
    hits = sum(1 for r in records if r.outcome == "ok" and r.from_cache)
    with_deadline = [r for r in records if r.deadline is not None]
    missed = sum(1 for r in with_deadline if r.outcome == "timeout")
    unique_keys = len({request.key for request in plan})
    latency: Dict[str, Any] = {"all": _latency_section(list(records))}
    for cls in LATENCY_CLASSES[1:]:
        latency[cls] = _latency_section(
            [r for r in records if r.priority == cls]
        )
    error_codes: Dict[str, int] = {}
    for record in records:
        if record.outcome == "error" and record.error_code:
            error_codes[record.error_code] = error_codes.get(record.error_code, 0) + 1
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "endpoint": endpoint,
        "workload": spec.describe(),
        "stream": {
            "requests": len(plan),
            "unique_keys": unique_keys,
            "adversarial": sum(1 for request in plan if request.adversarial),
            "digest": stream_digest(list(plan)),
        },
        "run": {
            "mode": result.mode,
            "concurrency": result.concurrency,
            "connections": result.sessions,
            "wall_seconds": result.wall_seconds,
            "throughput_rps": (
                total / result.wall_seconds if result.wall_seconds > 0 else 0.0
            ),
            "backpressure_stalls": result.backpressure_stalls,
        },
        "outcomes": {
            **tallies,
            "timeout_rate": tallies["timeout"] / total if total else 0.0,
            "cancelled_rate": tallies["cancelled"] / total if total else 0.0,
            "error_rate": tallies["error"] / total if total else 0.0,
            "error_codes": error_codes,
        },
        "cache": {
            "ok_requests": ok,
            "hits": hits,
            "hit_rate": hits / ok if ok else 0.0,
        },
        "dedup": {
            "unique_keys": unique_keys,
            "duplicate_requests": len(plan) - unique_keys,
            "dedup_ratio": (len(plan) - unique_keys) / len(plan) if plan else 0.0,
        },
        "deadlines": {
            "with_deadline": len(with_deadline),
            "missed": missed,
            "miss_rate": missed / len(with_deadline) if with_deadline else 0.0,
        },
        "latency_ms": latency,
        "stats": result.stats,
    }
    if slo is not None:
        violations = slo.evaluate(report)
        report["slo"] = {
            "spec": slo.as_dict(),
            "violations": violations,
            "passed": not violations,
        }
    return report


# ----------------------------------------------------------------------
# Human summary
# ----------------------------------------------------------------------
def summarize_report(report: Dict[str, Any]) -> str:
    """The terminal rendering of a report (one screen, scannable)."""
    workload = report["workload"]
    stream = report["stream"]
    run = report["run"]
    outcomes = report["outcomes"]
    lines = [
        f"loadgen: {workload['name']} workload, seed {workload['seed']}, "
        f"{workload['duration']:g}s of traffic at {workload['rate']:g} req/s "
        f"-> {report['endpoint']}",
        f"stream:  {stream['requests']} request(s), {stream['unique_keys']} "
        f"unique orbit(s) (dedup ratio {report['dedup']['dedup_ratio']:.0%}), "
        f"{stream['adversarial']} adversarial; digest {stream['digest'][:12]}",
        f"run:     {run['mode']} loop, {run['connections']} connection(s), "
        f"{run['wall_seconds']:.2f}s wall, "
        f"{run['throughput_rps']:.1f} req/s completed"
        + (
            f", {run['backpressure_stalls']} backpressure stall(s)"
            if run["backpressure_stalls"]
            else ""
        ),
        f"outcome: {outcomes['ok']} ok, {outcomes['timeout']} timeout, "
        f"{outcomes['cancelled']} cancelled, {outcomes['error']} error; "
        f"cache hit rate {report['cache']['hit_rate']:.0%}",
    ]
    deadlines = report["deadlines"]
    if deadlines["with_deadline"]:
        lines.append(
            f"deadlines: {deadlines['missed']}/{deadlines['with_deadline']} "
            f"missed ({deadlines['miss_rate']:.1%})"
        )
    for cls in LATENCY_CLASSES:
        section = report["latency_ms"][cls]
        if not section["count"]:
            continue
        slowest = section.get("slowest") or {}
        traced = (
            f" [slowest: request {slowest['request_id']}]"
            if slowest.get("request_id") is not None
            else ""
        )
        lines.append(
            f"latency[{cls}]: p50 {section['p50']:.1f} ms, "
            f"p90 {section['p90']:.1f} ms, p99 {section['p99']:.1f} ms, "
            f"max {section['max']:.1f} ms ({section['count']} sample(s))"
            + traced
        )
    slo = report.get("slo")
    if slo is not None:
        if slo["passed"]:
            lines.append(f"SLO: PASS ({len(slo['spec'])} objective(s))")
        else:
            lines.append(f"SLO: FAIL ({len(slo['violations'])} violation(s))")
            lines.extend(f"  - {violation}" for violation in slo["violations"])
    return "\n".join(lines)


__all__ = ["LATENCY_CLASSES", "SCHEMA", "build_report", "summarize_report"]
