"""Observability: request tracing and unified Prometheus-style metrics.

Two cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — per-request span trees (``repro.trace/1``)
  propagated session → scheduler → backend → kernel, with a bounded
  in-memory ring, slow-request exemplars, and an optional JSONL event log
  switched on by ``REPRO_TRACE``.  Disabled by default; the disabled path's
  overhead on the warm classify hot path is pinned by the ``obs`` gate of
  ``benchmarks/bench_gates.py``.
* :mod:`repro.obs.metrics` — the ``repro.metrics/1`` snapshot of the
  cache, batch, scheduler, search-time and service counters, with
  Prometheus text exposition, surfaced by
  ``ClassificationSession.metrics()``, the protocol-v3 ``metrics``
  operation, and the ``repro metrics`` CLI.

:func:`repro.obs.collectors.metrics_snapshot` builds that snapshot from an
engine's own ``stats()`` payload, on the local session and the remote
service alike: ``repro metrics`` is a rendering of ``repro stats``.
"""

from .collectors import metrics_snapshot
from .metrics import (
    METRICS_SCHEMA,
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
    "RequestTrace",
    "STAGES",
    "Span",
    "TRACE_ENV",
    "TRACE_SCHEMA",
    "Tracer",
    "metric_names_and_types",
    "metrics_snapshot",
    "new_request_id",
    "render_prometheus",
]
