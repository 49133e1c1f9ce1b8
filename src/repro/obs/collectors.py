"""The metrics snapshot: one rendering of the ``stats()`` payload.

``ClassificationSession.metrics()`` and the service's ``metrics`` operation
both answer with :func:`metrics_snapshot` of their engine's own ``stats()``
payload, so ``repro metrics`` and ``repro stats`` agree by construction, on
every endpoint.  Each family reads one stats field, named in the tables
below.  The scheduler's families come from its ``workers`` section, which
:meth:`~repro.workers.scheduler.ClassificationScheduler.stats_payload` reads
under one lock: no snapshot shows a flight created but neither finished nor
in flight.  ``docs/observability.md`` lists every family with its field.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..workers.metrics import BUCKET_BOUNDS_MS
from .metrics import COUNTER, GAUGE, HISTOGRAM, METRICS_SCHEMA

# (name, type, stats section, field, help) of each family with one unlabeled sample.
_FIELDS = (
    ("repro_service_requests_total", COUNTER, "service", "requests_served",
     "Requests served by this session or service front door."),
    ("repro_service_uptime_seconds", GAUGE, "service", "uptime_seconds",
     "Seconds since this session or service opened."),
    ("repro_cache_hits_total", COUNTER, "cache", "hits",
     "Classification cache lookups answered from the cache."),
    ("repro_cache_misses_total", COUNTER, "cache", "misses",
     "Classification cache lookups that missed."),
    ("repro_cache_evictions_total", COUNTER, "cache", "evictions",
     "Entries evicted by the cache's LRU budget."),
    ("repro_cache_flushes_total", COUNTER, "cache", "flushes",
     "Write-behind flushes and full snapshots persisted to the backend."),
    ("repro_cache_flushed_entries_total", COUNTER, "cache", "flushed_entries",
     "Entries written by write-behind flushes and full snapshots."),
    ("repro_cache_entries", GAUGE, "cache", "entries",
     "Entries currently held by the classification cache."),
    ("repro_cache_max_entries", GAUGE, "cache", "max_entries",
     "The cache's LRU budget (NaN when unbounded)."),
    ("repro_cache_dirty_entries", GAUGE, "cache", "dirty",
     "Keys (upserts + deletions) awaiting a write-behind flush."),
    ("repro_batch_submitted_total", COUNTER, "batch", "submitted",
     "Problems submitted to the batch engine."),
    ("repro_batch_full_searches_total", COUNTER, "batch", "full_searches",
     "Full decision procedures actually run (the non-amortized work)."),
    ("repro_scheduler_in_flight", GAUGE, "workers", "in_flight",
     "Searches currently queued or running."),
    ("repro_scheduler_queued", GAUGE, "workers", "queued",
     "Searches waiting in the priority heap (admitted ones excluded)."),
    ("repro_scheduler_slots_in_use", GAUGE, "workers", "slots_in_use",
     "Worker slots currently held by dispatched searches."),
    ("repro_scheduler_workers", GAUGE, "workers", "workers",
     "The scheduler's admission limit (worker pool size)."),
)

# (name, help, label key, ((label value, ``workers`` field), ...)) of each
# labeled scheduler counter.
_WORKER_COUNTERS = (
    ("repro_scheduler_flights_total",
     "Scheduler flights that reached each terminal outcome.",
     "outcome",
     (("completed", "completed"), ("failed", "failed"),
      ("cancelled", "cancelled"), ("timeout", "timeouts"))),
    ("repro_scheduler_submissions_total",
     "Scheduler submissions by how they were answered (scheduled / shared / hit).",
     "kind",
     (("scheduled", "flights"), ("shared", "deduped"), ("hit", "cache_hits"))),
)

_TRACE_OUTCOMES = ("ok", "timeout", "cancelled", "error")

_BUCKET_LES = [None if bound == float("inf") else bound for bound in BUCKET_BOUNDS_MS]


def _family(
    name: str, metric_type: str, help_text: str, samples: List[Dict[str, Any]]
) -> Dict[str, Any]:
    return {"name": name, "type": metric_type, "help": help_text, "samples": samples}


def _search_histogram(search_times: Mapping[str, Any]) -> Dict[str, Any]:
    # The stats section lists only the buckets that have counts; the
    # exposition needs every bound, or it loses `le` series.
    counts = {bucket["le_ms"]: bucket["count"] for bucket in search_times["buckets"]}
    return {
        "labels": {},
        "buckets": [[le, counts.get(le, 0)] for le in _BUCKET_LES],
        "sum": search_times["total_ms"],
        "count": search_times["count"],
    }


def metrics_snapshot(stats: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``repro.metrics/1`` document of one ``stats()`` payload.

    ``stats`` must carry the ``trace`` section, which exists only while
    observability is on.  Families are sorted by name.
    """
    workers, trace = stats["workers"], stats["trace"]
    families = [
        _family(name, metric_type, help_text,
                [{"labels": {}, "value": stats[section][field]}])
        for name, metric_type, section, field, help_text in _FIELDS
    ]
    families.extend(
        _family(name, COUNTER, help_text, [
            {"labels": {key: value}, "value": workers[field]}
            for value, field in rows
        ])
        for name, help_text, key, rows in _WORKER_COUNTERS
    )
    # The four terminal outcomes always appear; any others follow, sorted.
    outcomes = dict(trace["outcomes"])
    trace_samples = [
        {"labels": {"outcome": outcome}, "value": outcomes.pop(outcome, 0)}
        for outcome in _TRACE_OUTCOMES
    ]
    trace_samples.extend(
        {"labels": {"outcome": outcome}, "value": value}
        for outcome, value in sorted(outcomes.items())
    )
    families += [
        _family("repro_cache_backend_info", GAUGE,
                "The cache's durable backend, as a constant info gauge.",
                [{"labels": {"backend": stats["cache"]["backend"]}, "value": 1}]),
        _family("repro_search_duration_ms", HISTOGRAM,
                "Completed certificate-search durations in milliseconds.",
                [_search_histogram(workers["search_times"])]),
        _family("repro_trace_finished_total", COUNTER,
                "Finished request traces by terminal outcome.", trace_samples),
        _family("repro_trace_enabled", GAUGE,
                "Whether request tracing is enabled (1) or disabled (0).",
                [{"labels": {}, "value": int(trace["enabled"])}]),
    ]
    families.sort(key=lambda family: family["name"])
    return {"schema": METRICS_SCHEMA, "families": families}


__all__ = ["metrics_snapshot"]
