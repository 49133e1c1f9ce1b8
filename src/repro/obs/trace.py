"""Request tracing: one span tree per classification request.

Every classify/submit entering a :class:`~repro.api.ClassificationSession`
(or the classification service) can carry a :class:`RequestTrace` — a
request id plus a list of timestamped spans recording where the time went:

``request``
    The root span (stage ``session``): opened when the request enters the
    front door, closed when its outcome is known.
``queued``
    Stage ``scheduler``: from scheduler submission to backend admission —
    the time spent waiting in the priority heap behind other searches.
``admitted``
    Stage ``scheduler``: a zero-length mark at the moment the scheduler
    hands the flight to the worker backend.
``search``
    Stage ``backend``: from dispatch to the backend future resolving.  Its
    attributes carry the backend name and the number of cancellation
    checkpoints the search polled (read off the flight's
    :class:`~repro.core.cancellation.CancelToken` — the kernel needs no new
    plumbing).
``kernel``
    Stage ``kernel``, child of ``search``: the pure decision-procedure time,
    derived from the result payload's ``elapsed_seconds`` (the backend span
    minus the kernel span is scheduling/serialization overhead).
``cache-write``
    Stage ``scheduler``: persisting the fresh canonical payload.
``reply``
    Stage ``scheduler``: resolving this submission's future.

Spans a request never reached stay absent; spans still open when the
request reaches a terminal outcome are closed by :meth:`RequestTrace.finish`
with that outcome as their status — so every finished trace is a *closed*
span tree for ``ok``, ``timeout``, ``cancelled`` and ``error`` alike, with
no per-failure-path bookkeeping in the scheduler.

The :class:`Tracer` owns the retention policy: a bounded in-memory ring of
finished traces (indexed by request id), top-K slow-request exemplars over a
threshold (attached to ``stats``), and an optional JSONL event log — one
``repro.trace/1`` document per line — enabled with ``REPRO_TRACE=path``.
Tracing is **disabled by default**: a disabled tracer's :meth:`Tracer.start`
returns ``None`` and every call site guards on that, so the warm hot path
pays one attribute read (the ``obs`` gate of ``benchmarks/bench_gates.py``
pins the total disabled-path overhead under 5%).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

TRACE_SCHEMA = "repro.trace/1"
"""Schema identifier of every emitted trace document (JSONL log, ``trace`` op)."""

TRACE_ENV = "REPRO_TRACE"
"""Environment switch: unset/empty = disabled, ``1``/``true``/``on``/``mem`` =
in-memory only, anything else = path of the JSONL event log (implies enabled)."""

DEFAULT_RING_SIZE = 256
"""Finished traces retained in memory (and addressable by request id)."""

DEFAULT_SLOW_THRESHOLD_MS = 1_000.0
"""Requests slower than this are retained as slow exemplars."""

DEFAULT_SLOW_KEPT = 5
"""How many of the slowest over-threshold traces the exemplar list retains."""

STAGE_SESSION = "session"
STAGE_SCHEDULER = "scheduler"
STAGE_BACKEND = "backend"
STAGE_KERNEL = "kernel"
STAGES = (STAGE_SESSION, STAGE_SCHEDULER, STAGE_BACKEND, STAGE_KERNEL)
"""The four layers a request crosses, in order."""

ROOT_SPAN = "request"

_pid_counter = None
_pid_counter_lock = threading.Lock()


def new_request_id() -> str:
    """A process-unique request id (``req-<pid hex>-<n>``), cheap to mint."""
    global _pid_counter
    with _pid_counter_lock:
        if _pid_counter is None:
            import itertools

            _pid_counter = itertools.count(1)
        n = next(_pid_counter)
    return f"req-{os.getpid():x}-{n}"


class Span:
    """One timed interval inside a request, relative to the trace origin."""

    __slots__ = ("name", "stage", "parent", "start_ms", "end_ms", "status", "attrs")

    def __init__(
        self,
        name: str,
        stage: str,
        parent: Optional[str],
        start_ms: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.stage = stage
        self.parent = parent
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs = attrs

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "stage": self.stage,
            "parent": self.parent,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": (
                self.end_ms - self.start_ms if self.end_ms is not None else None
            ),
            "status": self.status,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


class RequestTrace:
    """The live span tree of one request, thread-safe and idempotent.

    All methods are no-ops after :meth:`finish`, and :meth:`end` on a span
    that was never begun is a no-op too — scheduler code paths can therefore
    emit events without coordinating over who got there first.  Timestamps
    are milliseconds relative to the trace origin (`time.monotonic` based).
    """

    __slots__ = (
        "request_id",
        "op",
        "started_unix",
        "_origin",
        "_spans",
        "_open",
        "_lock",
        "_tracer",
        "outcome",
        "duration_ms",
    )

    def __init__(self, request_id: str, op: str, tracer: "Tracer") -> None:
        self.request_id = request_id
        self.op = op
        self.started_unix = time.time()
        self._origin = time.monotonic()
        self._spans: List[Span] = []
        self._open: Dict[str, Span] = {}
        self._lock = threading.Lock()
        self._tracer = tracer
        self.outcome: Optional[str] = None
        self.duration_ms: float = 0.0
        root = Span(ROOT_SPAN, STAGE_SESSION, None, 0.0)
        self._spans.append(root)
        self._open[ROOT_SPAN] = root

    def now_ms(self) -> float:
        """Milliseconds since the trace origin (for hand-measured spans)."""
        return (time.monotonic() - self._origin) * 1000.0

    def at_ms(self, monotonic_time: float) -> float:
        """Trace-relative milliseconds of an absolute ``time.monotonic`` stamp.

        Lets callers measure an interval once with two ``time.monotonic()``
        reads and then record it into several traces (every waiter sharing a
        flight) without re-measuring per trace.
        """
        return (monotonic_time - self._origin) * 1000.0

    def begin(
        self,
        name: str,
        stage: str,
        parent: str = ROOT_SPAN,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Open a span now (replacing any same-named span still open)."""
        at = self.now_ms()
        with self._lock:
            if self.outcome is not None:
                return
            span = Span(name, stage, parent, at, attrs)
            self._spans.append(span)
            self._open[name] = span

    def end(
        self,
        name: str,
        status: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Close an open span with ``status`` (no-op when not open)."""
        at = self.now_ms()
        with self._lock:
            if self.outcome is not None:
                return
            span = self._open.pop(name, None)
            if span is None:
                return
            span.end_ms = at
            span.status = status
            if attrs:
                span.attrs = {**(span.attrs or {}), **attrs}

    def mark(
        self,
        name: str,
        stage: str,
        parent: str = ROOT_SPAN,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a zero-length span at the current instant."""
        at = self.now_ms()
        self.add(name, stage, at, at, parent=parent, attrs=attrs)

    def add(
        self,
        name: str,
        stage: str,
        start_ms: float,
        end_ms: float,
        parent: str = ROOT_SPAN,
        status: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record an already-measured (closed) span retroactively."""
        with self._lock:
            if self.outcome is not None:
                return
            span = Span(name, stage, parent, start_ms, attrs)
            span.end_ms = end_ms
            span.status = status
            self._spans.append(span)

    def finish(self, outcome: str) -> None:
        """Seal the trace: close every still-open span with ``outcome``.

        Idempotent — the first terminal outcome wins; later calls (e.g. a
        zombie search completing after a cancel already finished the trace)
        are discarded.  Hands the sealed trace to the tracer for retention
        and logging.
        """
        at = self.now_ms()
        with self._lock:
            if self.outcome is not None:
                return
            self.outcome = outcome
            self.duration_ms = at
            for span in self._open.values():
                span.end_ms = at
                span.status = outcome
            self._open.clear()
        self._tracer._finished(self)

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro.trace/1`` document of this trace (JSON-friendly)."""
        with self._lock:
            return {
                "schema": TRACE_SCHEMA,
                "request_id": self.request_id,
                "op": self.op,
                "started_unix": self.started_unix,
                "outcome": self.outcome,
                "duration_ms": self.duration_ms,
                "spans": [span.as_dict() for span in self._spans],
            }


class Tracer:
    """Retention and emission policy for finished :class:`RequestTrace` trees.

    Disabled by default: :meth:`start` then returns ``None`` and nothing is
    recorded anywhere.  When enabled, finished traces land in a bounded ring
    (addressable via :meth:`get`), slow ones additionally in the top-K
    exemplar list surfaced by :meth:`as_dict` (the ``trace`` stats section),
    and — when a log path is configured — as one JSON line each.
    """

    def __init__(
        self,
        enabled: bool = False,
        log_path: Optional[str] = None,
        ring_size: int = DEFAULT_RING_SIZE,
        slow_threshold_ms: float = DEFAULT_SLOW_THRESHOLD_MS,
        slow_kept: int = DEFAULT_SLOW_KEPT,
    ) -> None:
        self.enabled = bool(enabled or log_path)
        self.log_path = log_path
        self.ring_size = max(1, int(ring_size))
        self.slow_threshold_ms = float(slow_threshold_ms)
        self.slow_kept = max(0, int(slow_kept))
        self._lock = threading.Lock()
        self._ring: Deque[RequestTrace] = deque()
        self._by_id: Dict[str, RequestTrace] = {}
        # Ascending by duration; the head is the cheapest exemplar to evict.
        self._slow: List[RequestTrace] = []
        self._finished_count = 0
        self._outcomes: Dict[str, int] = {}
        self._log_file: Optional[Any] = None
        self._log_failed = False

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> "Tracer":
        """Build a tracer from the ``REPRO_TRACE`` env variable."""
        env = environ if environ is not None else os.environ
        raw = (env.get(TRACE_ENV) or "").strip()
        enabled = bool(raw)
        log_path: Optional[str] = None
        if raw and raw.lower() not in ("1", "true", "on", "mem", "memory"):
            log_path = raw
        return cls(enabled=enabled, log_path=log_path)

    # ------------------------------------------------------------------
    # Trace lifecycle
    # ------------------------------------------------------------------
    def start(
        self, op: str, request_id: Optional[str] = None
    ) -> Optional[RequestTrace]:
        """Open a trace for one request; ``None`` when tracing is disabled."""
        if not self.enabled:
            return None
        return RequestTrace(request_id or new_request_id(), op, self)

    def _finished(self, trace: RequestTrace) -> None:
        """Retain (and log) one sealed trace.  Called by ``finish`` only."""
        with self._lock:
            self._finished_count += 1
            outcome = trace.outcome or "unknown"
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1
            self._ring.append(trace)
            self._by_id[trace.request_id] = trace
            while len(self._ring) > self.ring_size:
                evicted = self._ring.popleft()
                if self._by_id.get(evicted.request_id) is evicted:
                    del self._by_id[evicted.request_id]
            if self.slow_kept and trace.duration_ms >= self.slow_threshold_ms:
                if len(self._slow) < self.slow_kept:
                    self._slow.append(trace)
                    self._slow.sort(key=lambda t: t.duration_ms)
                elif trace.duration_ms > self._slow[0].duration_ms:
                    self._slow[0] = trace
                    self._slow.sort(key=lambda t: t.duration_ms)
        if self.log_path and not self._log_failed:
            self._log(trace)

    def _log(self, trace: RequestTrace) -> None:
        try:
            with self._lock:
                if self._log_file is None:
                    self._log_file = open(  # noqa: SIM115 - held for appends
                        self.log_path, "a", encoding="utf-8"
                    )
                self._log_file.write(
                    json.dumps(trace.as_dict(), separators=(",", ":")) + "\n"
                )
                self._log_file.flush()
        except OSError:
            # A vanished log target must never take requests down with it.
            self._log_failed = True

    # ------------------------------------------------------------------
    # Retrieval / stats
    # ------------------------------------------------------------------
    def get(self, request_id: str) -> Optional[Dict[str, Any]]:
        """The finished trace document for ``request_id`` (ring-bounded)."""
        with self._lock:
            trace = self._by_id.get(request_id)
        return trace.as_dict() if trace is not None else None

    def as_dict(self) -> Dict[str, Any]:
        """The ``trace`` stats section: config, tallies, slow exemplars."""
        with self._lock:
            slow = [t for t in reversed(self._slow)]
            payload: Dict[str, Any] = {
                "enabled": self.enabled,
                "log_path": self.log_path,
                "ring_size": self.ring_size,
                "retained": len(self._ring),
                "finished": self._finished_count,
                "outcomes": dict(self._outcomes),
                "slow_threshold_ms": self.slow_threshold_ms,
            }
        payload["slow"] = [trace.as_dict() for trace in slow]
        return payload

    def close(self) -> None:
        """Close the JSONL log file, if one was opened."""
        with self._lock:
            if self._log_file is not None:
                try:
                    self._log_file.close()
                except OSError:  # pragma: no cover - best-effort teardown
                    pass
                self._log_file = None


DISABLED_TRACER = Tracer(enabled=False)
"""A shared no-op tracer for obs-off configurations (start() returns None)."""


__all__ = [
    "DEFAULT_RING_SIZE",
    "DEFAULT_SLOW_KEPT",
    "DEFAULT_SLOW_THRESHOLD_MS",
    "DISABLED_TRACER",
    "ROOT_SPAN",
    "RequestTrace",
    "STAGES",
    "STAGE_BACKEND",
    "STAGE_KERNEL",
    "STAGE_SCHEDULER",
    "STAGE_SESSION",
    "Span",
    "TRACE_ENV",
    "TRACE_SCHEMA",
    "Tracer",
    "new_request_id",
]
