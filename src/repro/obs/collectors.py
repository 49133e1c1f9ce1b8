"""The one registry builder both the local session and the service use.

Local-vs-remote metrics parity is an acceptance criterion of the
observability layer: ``ClassificationSession.metrics()`` must expose
field-identical family names and types whether the engine runs in-process
or behind ``tcp://``.  Rather than testing two hand-maintained registries
into agreement, there is exactly one builder — :func:`build_registry` — fed
the same :class:`~repro.api.session.LocalDriver` on both sides (a local
session runs one, the service hosts one): its scheduler, cache, search-time
histogram, batch counters, tracer, and front-door request counter and start
time.  The parity test then pins what construction already guarantees.

Metric catalog (all prefixed ``repro_``; durations in milliseconds, the
repo's histogram idiom):

===================================== ========= =================================
``repro_service_requests_total``      counter   requests served by the front door
``repro_service_uptime_seconds``      gauge     seconds since the front door opened
``repro_cache_hits_total``            counter   cache lookups answered
``repro_cache_misses_total``          counter   cache lookups missed
``repro_cache_evictions_total``       counter   LRU evictions
``repro_cache_expirations_total``     counter   entries dropped past their TTL
``repro_cache_flushes_total``         counter   write-behind flushes/snapshots
``repro_cache_flushed_entries_total`` counter   entries written by those flushes
``repro_cache_entries``               gauge     entries currently cached
``repro_cache_max_entries``           gauge     LRU budget (NaN when unbounded)
``repro_cache_dirty_entries``         gauge     keys awaiting a write-behind flush
``repro_cache_backend_info``          gauge     1, labeled by durable ``backend``
``repro_batch_submitted_total``       counter   problems submitted to the engine
``repro_batch_full_searches_total``   counter   full decision procedures run
``repro_scheduler_flights_total``     counter   flights by terminal ``outcome``
``repro_scheduler_submissions_total`` counter   submissions by ``kind``
``repro_scheduler_in_flight``         gauge     searches queued or running
``repro_scheduler_queued``            gauge     searches waiting in the heap
``repro_scheduler_slots_in_use``      gauge     worker slots currently held
``repro_scheduler_workers``           gauge     admission limit (pool size)
``repro_search_duration_ms``          histogram completed search durations
``repro_trace_finished_total``        counter   finished traces by ``outcome``
``repro_trace_enabled``               gauge     1 when request tracing is on
===================================== ========= =================================
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List

from .metrics import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry
from .trace import Tracer

if TYPE_CHECKING:  # import-light: the scheduler itself imports repro.obs
    from ..api.session import LocalDriver
    from ..workers.scheduler import ClassificationScheduler


def _scheduler_outcomes(scheduler: ClassificationScheduler) -> List[Dict[str, Any]]:
    stats = scheduler.stats
    return [
        {"labels": {"outcome": "completed"}, "value": stats.completed},
        {"labels": {"outcome": "failed"}, "value": stats.failed},
        {"labels": {"outcome": "cancelled"}, "value": stats.cancelled},
        {"labels": {"outcome": "timeout"}, "value": stats.timeouts},
    ]


def _scheduler_submissions(scheduler: ClassificationScheduler) -> List[Dict[str, Any]]:
    stats = scheduler.stats
    return [
        {"labels": {"kind": "scheduled"}, "value": stats.flights},
        {"labels": {"kind": "shared"}, "value": stats.deduped},
        {"labels": {"kind": "hit"}, "value": stats.cache_hits},
    ]


def _search_histogram(scheduler: ClassificationScheduler) -> List[Dict[str, Any]]:
    export = scheduler.search_times.export()
    return [
        {
            "labels": {},
            "buckets": export["buckets"],
            "sum": export["sum_ms"],
            "count": export["count"],
        }
    ]


def _trace_outcomes(tracer: Tracer) -> List[Dict[str, Any]]:
    counts = tracer.outcome_counts()
    # Stable family shape: the four terminal outcomes always appear, extras
    # (defensive) append after them.
    samples = [
        {"labels": {"outcome": outcome}, "value": counts.pop(outcome, 0)}
        for outcome in ("ok", "timeout", "cancelled", "error")
    ]
    samples.extend(
        {"labels": {"outcome": outcome}, "value": value}
        for outcome, value in sorted(counts.items())
    )
    return samples


def build_registry(driver: LocalDriver) -> MetricsRegistry:
    """One registry over a local driver's engine, tracer and counters.

    ``driver.started_at`` is the front door's ``time.monotonic()`` birth
    timestamp.  Every collector reads live state at snapshot time — nothing
    is pushed on the request path.
    """
    registry = MetricsRegistry()
    scheduler = driver.scheduler
    cache = driver.cache
    tracer = driver.tracer

    registry.counter(
        "repro_service_requests_total",
        "Requests served by this session or service front door.",
        lambda: driver.requests_served,
    )
    registry.gauge(
        "repro_service_uptime_seconds",
        "Seconds since this session or service opened.",
        lambda: time.monotonic() - driver.started_at,
    )
    registry.counter(
        "repro_cache_hits_total",
        "Classification cache lookups answered from the cache.",
        lambda: cache.stats.hits,
    )
    registry.counter(
        "repro_cache_misses_total",
        "Classification cache lookups that missed.",
        lambda: cache.stats.misses,
    )
    registry.counter(
        "repro_cache_evictions_total",
        "Entries evicted by the cache's LRU budget.",
        lambda: cache.stats.evictions,
    )
    registry.counter(
        "repro_cache_expirations_total",
        "Entries dropped because they outlived the cache TTL.",
        lambda: cache.stats.expirations,
    )
    registry.counter(
        "repro_cache_flushes_total",
        "Write-behind flushes and full snapshots persisted to the backend.",
        lambda: cache.stats.flushes,
    )
    registry.counter(
        "repro_cache_flushed_entries_total",
        "Entries written by write-behind flushes and full snapshots.",
        lambda: cache.stats.flushed_entries,
    )
    registry.gauge(
        "repro_cache_entries",
        "Entries currently held by the classification cache.",
        lambda: len(cache),
    )
    registry.gauge(
        "repro_cache_max_entries",
        "The cache's LRU budget (NaN when unbounded).",
        lambda: cache.max_entries,
    )
    registry.gauge(
        "repro_cache_dirty_entries",
        "Keys (upserts + deletions) awaiting a write-behind flush.",
        lambda: cache.pending_dirty,
    )
    registry.register(
        "repro_cache_backend_info",
        GAUGE,
        "The cache's durable backend, as a constant info gauge.",
        lambda: [{"labels": {"backend": cache.backend_name}, "value": 1}],
    )
    registry.counter(
        "repro_batch_submitted_total",
        "Problems submitted to the batch engine.",
        lambda: driver.batch_stats.submitted,
    )
    registry.counter(
        "repro_batch_full_searches_total",
        "Full decision procedures actually run (the non-amortized work).",
        lambda: driver.batch_stats.full_searches,
    )
    registry.register(
        "repro_scheduler_flights_total",
        COUNTER,
        "Scheduler flights that reached each terminal outcome.",
        lambda: _scheduler_outcomes(scheduler),
    )
    registry.register(
        "repro_scheduler_submissions_total",
        COUNTER,
        "Scheduler submissions by how they were answered "
        "(scheduled / shared / hit).",
        lambda: _scheduler_submissions(scheduler),
    )
    registry.gauge(
        "repro_scheduler_in_flight",
        "Searches currently queued or running.",
        lambda: scheduler.in_flight,
    )
    registry.gauge(
        "repro_scheduler_queued",
        "Searches waiting in the priority heap (admitted ones excluded).",
        lambda: scheduler.gauges()["queued"],
    )
    registry.gauge(
        "repro_scheduler_slots_in_use",
        "Worker slots currently held by dispatched searches.",
        lambda: scheduler.slots_in_use,
    )
    registry.gauge(
        "repro_scheduler_workers",
        "The scheduler's admission limit (worker pool size).",
        lambda: scheduler.backend.workers,
    )
    registry.register(
        "repro_search_duration_ms",
        HISTOGRAM,
        "Completed certificate-search durations in milliseconds.",
        lambda: _search_histogram(scheduler),
    )
    registry.register(
        "repro_trace_finished_total",
        COUNTER,
        "Finished request traces by terminal outcome.",
        lambda: _trace_outcomes(tracer),
    )
    registry.register(
        "repro_trace_enabled",
        GAUGE,
        "Whether request tracing is enabled (1) or disabled (0).",
        lambda: [{"labels": {}, "value": int(tracer.enabled)}],
    )
    return registry


__all__ = ["build_registry"]
