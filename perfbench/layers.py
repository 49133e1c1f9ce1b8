"""Per-layer tracing for the benchmark: wrappers installed from outside ``src``.

The program under test carries no benchmark hooks.  :func:`install` replaces
each layer's public function *at the module attribute through which its
callers look it up* (``engine/batch.py`` imports ``canonical_form`` and the
result codec by name, ``core/classifier.py`` imports the kernel phases by
name, ``api/session.py`` imports ``parse_problem`` by name), so patching only
the defining module would miss those calls.

Each wrapped call is one span.  Spans nest per thread; a span's *self* time
is its duration minus the time of the spans directly inside it.  Every span
end is appended to :attr:`Recorder.events` as ``(layer, end, dur, self, tag)``
with ``end`` on ``time.perf_counter()`` -- CLOCK_MONOTONIC on Linux, shared by
every process on the machine -- so the benchmark can cut the events of its
timed window out of a server process's dump as well as its own.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Event = Tuple[str, float, float, float, Any]


class Recorder:
    """Collects span events from every thread of one process."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._local = threading.local()
        # Submit start per canonical key, popped when its search starts:
        # the scheduler queue wait (submit -> entry into execute_search).
        self.submit_started: Dict[str, float] = {}
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        tag: Optional[Callable[[Any, tuple], Any]] = None,
        before: Optional[Callable[[tuple], Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as one span of ``layer``.

        ``before(args)`` runs at span start and its value is passed to
        ``tag(result, (args, before_value))``, whose value is stored as the
        event's tag (hit/miss, scheduler kind, rows flushed, ...).
        """
        events = self.events
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            state = before(args) if before is not None else None
            start = clock()
            stack.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                events.append(
                    (
                        layer,
                        end,
                        duration,
                        duration - child,
                        tag(result, (args, state)) if tag is not None else None,
                    )
                )

        return wrapper

    def wrap_async(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A coroutine function timed wall-clock (it yields, so no self time)."""
        events = self.events
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                events.append((layer, end, end - start, end - start, None))

        return wrapper

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Set ``owner.name`` (a class, module or dict) until :meth:`uninstall`."""
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = replacement
            self._restore.append(lambda: owner.__setitem__(name, original))
            return
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.events, handle)


# (layer, module, attribute) for plain module-level functions.
_MODULE_SITES: Sequence[Tuple[str, str, str]] = (
    ("core.parser", "repro.api.session", "parse_problem"),
    ("engine.canonical", "repro.engine.batch", "canonical_form"),
    ("engine.serialization.decode", "repro.engine.batch", "result_from_dict"),
    ("engine.serialization.decode", "repro.engine.batch", "relabel_result"),
    ("engine.serialization.decode", "repro.api.outcome", "result_from_dict"),
    ("engine.serialization.problem_codec", "repro.workers.scheduler", "problem_to_dict"),
    ("engine.serialization.problem_codec", "repro.workers.scheduler", "problem_from_dict"),
    ("engine.serialization.problem_codec", "repro.api.session", "problem_to_dict"),
    ("engine.serialization.problem_codec", "repro.service.server", "problem_from_dict"),
    ("core.kernel.alg2", "repro.core.classifier", "find_log_certificate"),
    ("core.kernel.alg4", "repro.core.classifier", "find_certificate_builder"),
    ("core.kernel.alg5", "repro.core.classifier", "find_constant_certificate_builder"),
    ("core.kernel.certificate_build", "repro.core.classifier", "build_uniform_certificate"),
    ("core.kernel.certificate_build", "repro.core.classifier", "build_constant_certificate"),
    ("service.protocol.encode", "repro.service.client", "encode_frame"),
    ("service.protocol.decode", "repro.service.client", "decode_frame"),
    ("service.protocol.encode", "repro.service.server", "encode_frame"),
    ("service.protocol.decode", "repro.service.server", "decode_request"),
)


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points in this process."""
    from repro.api.session import ClassificationSession
    from repro.core.problem import LCLProblem
    from repro.engine.cache import ClassificationCache
    from repro.service.client import ServiceClient
    from repro.service.server import ClassificationService
    from repro.workers import scheduler as scheduler_module

    for layer, module_name, attribute in _MODULE_SITES:
        module = importlib.import_module(module_name)
        recorder.patch(module, attribute, recorder.wrap(layer, getattr(module, attribute)))

    def method(layer: str, owner: type, name: str, **hooks: Any) -> None:
        recorder.patch(owner, name, recorder.wrap(layer, owner.__dict__[name], **hooks))

    method("api.session", ClassificationSession, "classify")
    method("core.kernel.solvable", LCLProblem, "is_solvable")
    method(
        "engine.cache.lookup",
        ClassificationCache,
        "lookup",
        tag=lambda result, _call: result is not None,
    )
    method("engine.cache.store", ClassificationCache, "store")
    method(
        "engine.cache.flush",
        ClassificationCache,
        "flush",
        tag=lambda written, _call: written or 0,
    )
    method("service.client.rtt", ServiceClient, "request")

    submit_started = recorder.submit_started

    def submit_before(args: tuple) -> Tuple[str, float]:
        key, started = args[1].key, time.perf_counter()
        submit_started.setdefault(key, started)
        return key, started

    def submit_tag(job: Any, call: tuple) -> Optional[str]:
        _args, (key, started) = call
        if job is None:
            return None
        if job.kind != "scheduled" and submit_started.get(key) == started:
            # Answered without a search: no execute_search will pop it.
            submit_started.pop(key, None)
        return job.kind

    method(
        "workers.scheduler.submit",
        scheduler_module.ClassificationScheduler,
        "submit",
        before=submit_before,
        tag=submit_tag,
    )

    def search_before(args: tuple) -> None:
        started = submit_started.pop(args[0][0], None)
        if started is not None:
            now = time.perf_counter()
            wait = now - started
            recorder.events.append(("workers.scheduler.queue_wait", now, wait, wait, None))

    # The scheduler binds its search function as a constructor default, so
    # the module attribute is not where it is looked up: swap the default.
    init = scheduler_module.ClassificationScheduler.__init__
    original_search = scheduler_module.execute_search
    traced_search = recorder.wrap(
        "workers.backends.search", original_search, before=search_before
    )
    recorder.patch(
        init,
        "__defaults__",
        tuple(traced_search if value is original_search else value for value in init.__defaults__),
    )
    handlers = ClassificationService._HANDLERS
    recorder.patch(
        handlers, "classify", recorder.wrap_async("service.server.classify", handlers["classify"])
    )


def window(events: Iterable[Sequence[Any]], start: float, end: float) -> List[Sequence[Any]]:
    """The events that ended inside ``(start, end]``."""
    return [event for event in events if start < event[1] <= end]


def _p99(values: List[float]) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(0.99 * len(values)))]


def summarize(events: Iterable[Sequence[Any]]) -> Dict[str, Dict[str, Any]]:
    """Per layer: calls, total and self seconds, durations, and tag counts."""
    layers: Dict[str, Dict[str, Any]] = {}
    for layer, _end, duration, self_time, tag in events:
        entry = layers.setdefault(
            layer, {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "tags": Counter()}
        )
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += self_time
        entry["durations"].append(duration)
        if tag is not None:
            entry["tags"][tag] += 1
    return layers


def _mean_us(layers: Dict[str, Dict[str, Any]], name: str, field: str) -> float:
    entry = layers.get(name)
    return entry[field] / entry["calls"] * 1e6 if entry else 0.0


def _tags(layers: Dict[str, Dict[str, Any]], name: str) -> Counter:
    return layers[name]["tags"] if name in layers else Counter()


def _calls(layers: Dict[str, Dict[str, Any]], name: str) -> int:
    return layers[name]["calls"] if name in layers else 0


KERNEL_PHASES = ("solvable", "alg2", "alg4", "alg5", "certificate_build")


def layer_metrics(
    local: Sequence[Sequence[Any]], server: Sequence[Sequence[Any]]
) -> Dict[str, float]:
    """The per-layer metrics of one traced window (client + server events)."""
    both = summarize([*local, *server])
    request_total = both.get("api.session", {}).get("total", 0.0)

    def share(names: Iterable[str]) -> float:
        busy = sum(both.get(name, {}).get("total", 0.0) for name in names)
        return 100.0 * busy / request_total if request_total else 0.0

    lookups = _calls(both, "engine.cache.lookup")
    flushed = _tags(both, "engine.cache.flush")
    metrics: Dict[str, float] = {
        "core.parser.calls": _calls(both, "core.parser"),
        "core.parser.self_us": _mean_us(both, "core.parser", "self"),
        "engine.canonical.calls": _calls(both, "engine.canonical"),
        "engine.canonical.self_us": _mean_us(both, "engine.canonical", "self"),
        "engine.canonical.p99_us": 1e6
        * _p99(both.get("engine.canonical", {}).get("durations", [])),
        "engine.canonical.share_pct": share(["engine.canonical"]),
        "engine.cache.lookups": lookups,
        "engine.cache.hit_ratio": _tags(both, "engine.cache.lookup")[True] / lookups
        if lookups
        else 0.0,
        "engine.cache.lookup_us": _mean_us(both, "engine.cache.lookup", "total"),
        "engine.cache.stores": _calls(both, "engine.cache.store"),
        "engine.cache.store_us": _mean_us(both, "engine.cache.store", "total"),
        "engine.cache.flushes": sum(count for rows, count in flushed.items() if rows),
        "engine.cache.flushed_entries": sum(rows * count for rows, count in flushed.items()),
        "engine.cache.flush_us": _mean_us(both, "engine.cache.flush", "total"),
        "engine.serialization.decode_calls": _calls(both, "engine.serialization.decode"),
        "engine.serialization.decode_us": _mean_us(both, "engine.serialization.decode", "self"),
        "engine.serialization.problem_codec_us": _mean_us(
            both, "engine.serialization.problem_codec", "self"
        ),
        "workers.scheduler.submit_us": _mean_us(both, "workers.scheduler.submit", "self"),
        "workers.scheduler.queue_wait_us": _mean_us(
            both, "workers.scheduler.queue_wait", "total"
        ),
        "workers.scheduler.flights": _tags(both, "workers.scheduler.submit")["scheduled"],
        "workers.scheduler.deduped": _tags(both, "workers.scheduler.submit")["shared"],
        "workers.backends.search_calls": _calls(both, "workers.backends.search"),
        "workers.backends.search_us": _mean_us(both, "workers.backends.search", "total"),
        "core.kernel.share_pct": share("core.kernel." + phase for phase in KERNEL_PHASES),
        "service.protocol.encode_us": _mean_us(both, "service.protocol.encode", "self"),
        "service.protocol.decode_us": _mean_us(both, "service.protocol.decode", "self"),
        "service.client.rtt_us": _mean_us(both, "service.client.rtt", "total"),
        "api.session.self_us": _mean_us(both, "api.session", "self"),
    }
    for phase in KERNEL_PHASES:
        metrics[f"core.kernel.{phase}_us"] = _mean_us(both, "core.kernel." + phase, "total")
        metrics[f"core.kernel.{phase}_calls"] = _calls(both, "core.kernel." + phase)
    # The round trip minus the server's own span of the request (its frame
    # decode plus the classify handler, which encodes and sends the reply).
    on_server = summarize(server)
    rtt = metrics["service.client.rtt_us"]
    metrics["service.wire.self_us"] = (
        rtt
        - _mean_us(on_server, "service.server.classify", "total")
        - _mean_us(on_server, "service.protocol.decode", "total")
        if rtt
        else 0.0
    )
    return metrics


def counter_counts(events: Sequence[Sequence[Any]]) -> Dict[str, int]:
    """What each cross-checked ``repro metrics`` counter should have moved by."""
    layers = summarize(events)
    lookups = _tags(layers, "engine.cache.lookup")
    searches = _calls(layers, "workers.backends.search")
    return {
        "repro_cache_hits_total": lookups[True],
        "repro_cache_misses_total": lookups[False],
        "repro_cache_flushes_total": sum(
            count for rows, count in _tags(layers, "engine.cache.flush").items() if rows
        ),
        "repro_scheduler_flights_total": searches,
        "repro_batch_full_searches_total": _tags(layers, "workers.scheduler.submit")["scheduled"],
        "repro_search_duration_ms_count": searches,
    }
