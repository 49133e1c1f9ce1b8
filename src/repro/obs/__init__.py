"""Observability: request tracing and unified Prometheus-style metrics.

Two cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — per-request span trees (``repro.trace/1``)
  propagated session → scheduler → backend → kernel, with a bounded
  in-memory ring, slow-request exemplars, and an optional JSONL event log
  switched on by ``REPRO_TRACE``.  Disabled by default; the disabled path's
  overhead on the warm classify hot path is pinned by the ``obs`` gate of
  ``benchmarks/bench_gates.py``.
* :mod:`repro.obs.metrics` — one pull-based registry unifying the cache,
  batch, scheduler, search-time and service counters (``repro.metrics/1``)
  with Prometheus text exposition, surfaced by
  ``ClassificationSession.metrics()``, the protocol-v3 ``metrics``
  operation, and the ``repro metrics`` CLI.

:mod:`repro.obs.collectors` holds the single registry builder both the
local session and the remote service use — metrics parity by construction.
"""

from .collectors import build_registry
from .metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    metric_names_and_types,
    render_prometheus,
)
from .trace import (
    DISABLED_TRACER,
    STAGES,
    TRACE_ENV,
    TRACE_SCHEMA,
    RequestTrace,
    Span,
    Tracer,
    new_request_id,
)

__all__ = [
    "DISABLED_TRACER",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "RequestTrace",
    "STAGES",
    "Span",
    "TRACE_ENV",
    "TRACE_SCHEMA",
    "Tracer",
    "build_registry",
    "metric_names_and_types",
    "new_request_id",
    "render_prometheus",
]
