"""The ``repro.metrics/1`` snapshot shape and its Prometheus text rendering.

The engine already counts everything that matters — cache hits
(:class:`~repro.engine.cache.CacheStats`), scheduler flight outcomes
(:class:`~repro.workers.scheduler.SchedulerStats`), search durations
(:class:`~repro.workers.metrics.SearchTimeStats`), service request tallies —
and reports it all in one ``stats()`` payload.  A metrics snapshot is a
rendering of that payload (:func:`repro.obs.collectors.metrics_snapshot`),
built only when a caller asks for one, so the request path pays nothing
for it.

A snapshot is the ``repro.metrics/1`` document::

    {"schema": "repro.metrics/1",
     "families": [{"name": ..., "type": "counter"|"gauge"|"histogram",
                   "help": ..., "samples": [...]}, ...]}

Counter/gauge samples are ``{"labels": {...}, "value": n}``; histogram
samples carry ``{"labels", "buckets": [[le_ms, count], ...], "sum", "count"}``
with **non-cumulative** per-bucket counts (the renderer accumulates).
:func:`render_prometheus` turns a snapshot into Prometheus text exposition
format — ``# HELP``/``# TYPE`` lines, ``_total`` counter names, cumulative
``_bucket{le=...}`` series, escaped label values.  Both the local session
and the remote service render *the same snapshot shape through the same
function*, which is what makes local-vs-remote metrics parity structural
rather than tested-by-luck (the parity test pins it anyway).
"""

from __future__ import annotations

from typing import Any, List, Mapping, Tuple

METRICS_SCHEMA = "repro.metrics/1"
"""Schema identifier carried by every metrics snapshot."""

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format (\\\\, \\", \\n)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return repr(value)
    return str(value)


def _format_labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render one metrics snapshot as Prometheus text exposition format.

    Histograms expose cumulative ``<name>_bucket{le="..."}`` series (the
    snapshot's per-bucket counts are accumulated here), a closing
    ``le="+Inf"`` bucket equal to ``_count``, and ``_sum``/``_count``
    series.  Counters keep their ``_total`` names.
    """
    lines: List[str] = []
    for family in snapshot.get("families", []):
        name = family["name"]
        metric_type = family["type"]
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {metric_type}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if metric_type == HISTOGRAM:
                cumulative = 0
                for le, count in sample.get("buckets", []):
                    if le is None:
                        # The open-ended bucket is the closing +Inf series
                        # below (always equal to _count); emitting it here
                        # too would duplicate the le="+Inf" line.
                        continue
                    cumulative += count
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(float(le))
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                total = sample.get("count", cumulative)
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(f"{name}_bucket{_format_labels(inf_labels)} {total}")
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample.get('sum', 0.0))}"
                )
                lines.append(f"{name}_count{_format_labels(labels)} {total}")
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(sample.get('value'))}"
                )
    return "\n".join(lines) + "\n"


def metric_names_and_types(snapshot: Mapping[str, Any]) -> List[Tuple[str, str]]:
    """The ``(name, type)`` pairs of a snapshot — the parity-test fingerprint."""
    return [
        (family["name"], family["type"]) for family in snapshot.get("families", [])
    ]


__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "METRICS_SCHEMA",
    "escape_label_value",
    "metric_names_and_types",
    "render_prometheus",
]
