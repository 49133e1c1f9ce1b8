"""Deadline-aware, priority-ordered single-flight scheduler for searches.

:class:`ClassificationScheduler` is the concurrency heart of the engine: it
accepts :class:`~repro.engine.canonical.CanonicalForm` jobs, answers them
from the shared :class:`~repro.engine.cache.ClassificationCache` when
possible, and otherwise executes the certificate search on a pluggable
:class:`~repro.workers.backends.WorkerBackend` — with the guarantee that

    **at any moment, at most one live search per canonical key is running.**

Concurrent submissions of the same uncached key share one in-flight *flight*
("single flight"), so N clients hammering the same census cost exactly one
exponential search per renaming orbit, not N.  On top of the PR-3 design this
scheduler adds three fairness mechanisms:

**Priority classes.**  Every submission carries one of :data:`PRIORITIES`
(``interactive`` > ``batch`` > ``warm``).  The scheduler admits at most
``backend.workers`` searches to the backend at a time and keeps the rest in
a priority heap, so an interactive ``classify`` overtakes a queued census
fan-out instead of waiting behind it.  A higher-priority duplicate submission
escalates the queued flight it joins.

**Per-submission deadlines.**  ``submit(..., deadline=seconds)`` bounds the
*total* time (queue wait + search) this submission will wait.  A dedicated
monitor thread expires waiters: the expired waiter's future resolves with
:class:`~repro.core.cancellation.SearchTimeout`, and when it was the
flight's last waiter the search itself is cancelled and its worker slot
released.  Deadlines are strictly **per waiter** — the flight's own cancel
token carries no deadline, so a deadline-less client sharing a search is
never timed out by another client's budget: the expired waiter detaches
alone and the search keeps running for whoever still wants it.

**Cancellation.**  Every job exposes :meth:`ClassificationJob.cancel`, which
detaches that one waiter (other clients sharing the search are unaffected);
cancelling the last waiter — or calling :meth:`ClassificationScheduler.cancel`
with the key — cancels the flight: its token trips (the cooperative
``inline``/``threads`` searches unwind at their next checkpoint), the backend
handle is killed (a hard ``terminate()`` for deadline-carrying ``processes``
searches), the key leaves the in-flight table so a later submission can retry
fresh, and the outcome is recorded in the scheduler statistics as
``cancelled``/``timeouts`` — **nothing is stored in the cache**, so an
aborted search never poisons future lookups.

A search whose cancellation is purely cooperative may keep a pool thread
busy until its next checkpoint (a *zombie*); its slot is released logically
at cancel time so new work dispatches immediately, and the zombie's eventual
completion is discarded.  :meth:`wait_idle` waits for zombies too, so
shutdown never races a straggler.

Completion flow of a scheduled job: the backend future resolves → the
canonical result payload is stored in the cache and the key leaves the
in-flight table (store-then-retire, so a racing submit always observes
either the in-flight entry or the cache entry, never neither) → every
waiter's future resolves.

:meth:`ClassificationScheduler.submit` takes every submission, cache warming
included: ``LocalDriver.start_warm`` (:mod:`repro.api.session`) sends each
problem of an upcoming batch or census through
:func:`repro.engine.batch.submit` at ``warm`` priority, with what is left of
a warm budget as each submission's deadline.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.cancellation import (
    CANCELLED,
    CancelToken,
    SearchCancelled,
    SearchInterrupted,
    SearchTimeout,
    TIMEOUT,
)
from ..core.classifier import classify_with_certificates
from ..engine.cache import ClassificationCache
from ..engine.canonical import CanonicalForm
from ..engine.serialization import (
    problem_from_dict,
    problem_to_dict,
    relabel_result,
    result_to_dict,
)
from ..obs.trace import RequestTrace, STAGE_BACKEND, STAGE_KERNEL, STAGE_SCHEDULER
from .backends import InlineBackend, TaskHandle, WorkerBackend
from .metrics import SearchTimeStats

_SearchTask = Tuple[str, Dict[str, Any], Dict[str, str]]

JOB_CACHE_HIT = "hit"
JOB_SHARED = "shared"
JOB_SCHEDULED = "scheduled"

PRIORITIES: Tuple[str, ...] = ("interactive", "batch", "warm")
"""Priority classes, most urgent first: interactive > batch > warm (census)."""

PRIORITY_RANK: Dict[str, int] = {name: rank for rank, name in enumerate(PRIORITIES)}
DEFAULT_PRIORITY = "batch"

# Flight lifecycle states.
_QUEUED = "queued"  # in the ready heap, not yet handed to the backend
_RUNNING = "running"  # dispatched to the backend, holding a worker slot
_SETTLED = "settled"  # retired: completed, failed, cancelled, or timed out


def validate_priority(priority: str) -> str:
    """Return ``priority`` if it is a known class, else raise ``ValueError``."""
    if priority not in PRIORITY_RANK:
        raise ValueError(
            f"unknown priority {priority!r} (known: {', '.join(PRIORITIES)})"
        )
    return priority


def execute_search(task: _SearchTask) -> Tuple[str, Dict[str, Any]]:
    """Run one full certificate search; return ``(key, canonical payload)``.

    Module-level (and dict-in/dict-out) so :class:`ProcessBackend` can pickle
    it across the process boundary.  The submitted problem is the *original*
    representative; the result is relabeled through ``forward`` into canonical
    labels before it is returned, matching what the cache stores.  The search
    runs under whatever cancel scope the backend installed, so a deadline or
    cancellation raises :class:`SearchInterrupted` out of this function.
    """
    key, problem_payload, forward = task
    problem = problem_from_dict(problem_payload)
    artifacts = classify_with_certificates(problem)
    payload = result_to_dict(relabel_result(artifacts.result, forward))
    payload["elapsed_seconds"] = artifacts.elapsed_seconds
    return key, payload


@dataclass
class SchedulerStats:
    """Work accounting of a :class:`ClassificationScheduler`.

    ``flights`` counts searches *created* (one per distinct uncached key
    submission), ``scheduled`` those actually handed to the backend (a flight
    cancelled while still queued never dispatches).  ``deduped`` counts
    submissions that piggybacked on an in-flight search, ``cache_hits`` those
    answered straight from the cache at submit time.  Every flight ends in
    exactly one of ``completed``/``failed``/``cancelled``/``timeouts`` —
    conservation the randomized scheduler tests assert after every run.
    """

    flights: int = 0
    scheduled: int = 0
    deduped: int = 0
    cache_hits: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    timeouts: int = 0

    @property
    def submitted(self) -> int:
        """Total jobs submitted, however they were answered."""
        return self.flights + self.deduped + self.cache_hits

    @property
    def finished(self) -> int:
        """Flights that reached a terminal outcome."""
        return self.completed + self.failed + self.cancelled + self.timeouts

    def as_dict(self) -> Dict[str, Any]:
        """The counters as a JSON-friendly dictionary."""
        return {
            "submitted": self.submitted,
            "flights": self.flights,
            "scheduled": self.scheduled,
            "deduped": self.deduped,
            "cache_hits": self.cache_hits,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timeouts": self.timeouts,
        }


class _Waiter:
    """One submission waiting on a flight: its own future and deadline.

    ``trace`` is the submission's :class:`RequestTrace` (or ``None`` — the
    overwhelmingly common case): traces belong to *submissions*, not
    flights, so every client sharing one single-flight search still gets
    its own span tree.
    """

    __slots__ = ("future", "deadline", "flight", "seq", "trace")

    def __init__(
        self,
        flight: "_Flight",
        deadline: Optional[float],
        seq: int,
        trace: Optional[RequestTrace] = None,
    ) -> None:
        self.future: "Future[Dict[str, Any]]" = Future()
        self.deadline = deadline  # absolute monotonic, or None
        self.flight = flight
        self.seq = seq
        self.trace = trace


class _Flight:
    """One single-flight search: token, waiters, slot accounting."""

    __slots__ = (
        "key",
        "task",
        "token",
        "rank",
        "seq",
        "state",
        "waiters",
        "handle",
        "slot_held",
        "outcome",
        "killable",
    )

    def __init__(
        self, key: str, task: _SearchTask, token: CancelToken, rank: int, seq: int
    ) -> None:
        self.key = key
        self.task = task
        self.token = token
        self.rank = rank
        self.seq = seq
        self.state = _QUEUED
        self.waiters: List[_Waiter] = []
        self.handle: Optional[TaskHandle] = None
        self.slot_held = False
        self.outcome: Optional[str] = None  # completed/failed/cancelled/timeout
        # Whether a hard-killing backend should run this search on a
        # dedicated terminable worker (set when the creating submission
        # carried a deadline — the case where reclaiming the worker matters).
        self.killable = False


@dataclass(frozen=True)
class ClassificationJob:
    """A submitted job: the canonical key, a private future, and provenance.

    ``kind`` records how the submission was answered: ``"hit"`` (cache),
    ``"shared"`` (merged into an in-flight search of the same key), or
    ``"scheduled"`` (this submission started the search).  The future
    resolves to the canonical-label result payload — or raises
    :class:`SearchTimeout`/:class:`SearchCancelled` when this submission's
    deadline expired or it was cancelled.  Callers relabel payloads through
    their own bijection.
    """

    key: str
    future: "Future[Dict[str, Any]]"
    kind: str
    priority: str = DEFAULT_PRIORITY
    _canceller: Optional[Callable[[], bool]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the payload is available (propagating search errors)."""
        return self.future.result(timeout=timeout)

    def cancel(self) -> bool:
        """Detach this submission from its search; ``True`` when it was live.

        Other submissions sharing the search are unaffected; cancelling the
        *last* waiter cancels the search itself and releases its worker.
        Cache hits and already-resolved jobs return ``False``.
        """
        if self._canceller is None:
            return False
        return self._canceller()


class _DeadlineMonitor:
    """A lazy daemon thread expiring waiters at their deadlines."""

    def __init__(self, expire: Callable[[_Waiter], None]) -> None:
        self._expire = expire
        self._cv = threading.Condition()
        self._heap: List[Tuple[float, int, _Waiter]] = []
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def register(self, waiter: _Waiter) -> None:
        assert waiter.deadline is not None
        with self._cv:
            if self._closed:
                return
            heapq.heappush(self._heap, (waiter.deadline, waiter.seq, waiter))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, daemon=True, name="repro-deadlines"
                )
                self._thread.start()
            self._cv.notify()

    def _run(self) -> None:
        while True:
            expired: List[_Waiter] = []
            with self._cv:
                if self._closed:
                    return
                if not self._heap:
                    self._cv.wait()
                    continue
                now = time.monotonic()
                while self._heap and self._heap[0][0] <= now:
                    expired.append(heapq.heappop(self._heap)[2])
                if not expired:
                    self._cv.wait(timeout=self._heap[0][0] - now)
            for waiter in expired:
                if not waiter.future.done():
                    self._expire(waiter)

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5)


class ClassificationScheduler:
    """Canonical-keyed scheduler: single flight, priorities, deadlines.

    Parameters
    ----------
    cache:
        The shared :class:`ClassificationCache` consulted before scheduling
        and filled on completion.  A fresh in-memory cache when omitted.
    backend:
        The :class:`WorkerBackend` executing searches.  Defaults to
        :class:`InlineBackend` (synchronous, zero overhead).  Its ``workers``
        count is the scheduler's admission limit: at most that many searches
        are handed to the backend at a time, the rest wait in the priority
        heap.
    task:
        The search function, ``(key, problem_dict, forward) -> (key,
        payload)``.  Overridable for tests that need controllable blocking;
        must stay picklable for process backends.
    """

    def __init__(
        self,
        cache: Optional[ClassificationCache] = None,
        backend: Optional[WorkerBackend] = None,
        task: Any = execute_search,
    ) -> None:
        self.cache = cache if cache is not None else ClassificationCache()
        self.backend = backend if backend is not None else InlineBackend()
        self.stats = SchedulerStats()
        # Completed-search durations, per canonical key: the histogram
        # operators read (via `stats`) to pick deadlines from data.
        self.search_times = SearchTimeStats()
        self._task = task
        self._lock = threading.Lock()
        self._in_flight: Dict[str, _Flight] = {}
        self._ready: List[Tuple[int, int, _Flight]] = []
        self._slots_used = 0
        self._unsettled: Dict[int, "Future[Any]"] = {}
        self._seq = itertools.count()
        self._pumping = False
        self._pump_requests = 0
        self._monitor = _DeadlineMonitor(self._expire_waiter)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        form: CanonicalForm,
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
        trace: Optional[RequestTrace] = None,
    ) -> ClassificationJob:
        """Submit one canonical form; dedupe against cache and in-flight work.

        ``priority`` is one of :data:`PRIORITIES`; ``deadline`` is a budget in
        seconds covering this submission's queue wait plus search time.
        ``trace`` (when given) receives this submission's scheduler spans —
        ``queued``/``admitted``/``search``/``cache-write``/``reply`` — as the
        flight progresses; the common ``trace=None`` case costs one ``is
        None`` test per event site.  Returns immediately in every case; only
        ``kind == "scheduled"`` jobs put new work on the backend.
        """
        rank = PRIORITY_RANK[validate_priority(priority)]
        key = form.key
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        new_flight: Optional[_Flight] = None
        with self._lock:
            payload = self.cache.lookup(key)
            if payload is not None:
                self.stats.cache_hits += 1
                future: "Future[Dict[str, Any]]" = Future()
                future.set_result(payload)
                if trace is not None:
                    trace.mark(
                        "reply",
                        STAGE_SCHEDULER,
                        attrs={"key": key, "from_cache": True},
                    )
                return ClassificationJob(
                    key=key, future=future, kind=JOB_CACHE_HIT, priority=priority
                )
            flight = self._in_flight.get(key)
            if flight is not None:
                self.stats.deduped += 1
                waiter = _Waiter(flight, deadline_at, next(self._seq), trace)
                flight.waiters.append(waiter)
                if flight.state == _QUEUED and rank < flight.rank:
                    # A more urgent duplicate escalates the queued search;
                    # the stale heap entry is skipped when popped.
                    flight.rank = rank
                    heapq.heappush(self._ready, (rank, flight.seq, flight))
                if trace is not None:
                    shared_attrs = {"key": key, "priority": priority, "shared": True}
                    if flight.state == _RUNNING:
                        # Joined a search already on the backend: this
                        # submission never queues, it goes straight to
                        # waiting on the running search.
                        trace.begin(
                            "search",
                            STAGE_BACKEND,
                            attrs={**shared_attrs, "backend": self.backend.name},
                        )
                    else:
                        trace.begin("queued", STAGE_SCHEDULER, attrs=shared_attrs)
                kind = JOB_SHARED
            else:
                # The token is a pure cancel flag: per-submission deadlines
                # live on the *waiters* (enforced by the monitor), never on
                # the flight, so one client's budget cannot time out a
                # deadline-less client sharing the same search.
                seq = next(self._seq)
                flight = _Flight(
                    key=key,
                    task=(key, problem_to_dict(form.problem), dict(form.forward)),
                    token=CancelToken(),
                    rank=rank,
                    seq=seq,
                )
                flight.killable = deadline is not None
                waiter = _Waiter(flight, deadline_at, seq, trace)
                flight.waiters.append(waiter)
                self._in_flight[key] = flight
                heapq.heappush(self._ready, (rank, seq, flight))
                self.stats.flights += 1
                new_flight = flight
                kind = JOB_SCHEDULED
                if trace is not None:
                    trace.begin(
                        "queued",
                        STAGE_SCHEDULER,
                        attrs={"key": key, "priority": priority},
                    )
        if waiter.deadline is not None:
            if waiter.deadline <= time.monotonic():
                # Already expired at submit time: resolve deterministically
                # instead of racing the monitor against a fast search.
                self._expire_waiter(waiter)
            else:
                self._monitor.register(waiter)
        if new_flight is not None:
            self._pump()
        return ClassificationJob(
            key=key,
            future=waiter.future,
            kind=kind,
            priority=priority,
            _canceller=lambda waiter=waiter: self._detach_waiter(
                waiter, SearchCancelled(key=key), CANCELLED
            ),
        )

    # ------------------------------------------------------------------
    # Dispatch pump (admission control + priority order)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Hand queued flights to the backend while worker slots are free.

        Re-entrancy safe: whoever finds the pump idle runs the drain loop;
        everyone else just records that another pass is needed.  Dispatch
        happens outside the scheduler lock, so a synchronous (inline) backend
        executing the search right here cannot deadlock the bookkeeping.
        """
        with self._lock:
            self._pump_requests += 1
            if self._pumping:
                return
            self._pumping = True
        while True:
            with self._lock:
                self._pump_requests = 0
                batch: List[_Flight] = []
                traced: List[List[RequestTrace]] = []
                while self._ready and self._slots_used < self.backend.workers:
                    _rank, _seq, flight = heapq.heappop(self._ready)
                    if flight.state != _QUEUED:
                        continue  # stale escalation entry or cancelled flight
                    flight.state = _RUNNING
                    flight.slot_held = True
                    self._slots_used += 1
                    self.stats.scheduled += 1
                    batch.append(flight)
                    # Snapshot traces in the same critical section that flips
                    # the state: a shared waiter joining after this sees
                    # _RUNNING and opens its own "search" span directly.
                    traced.append(
                        [w.trace for w in flight.waiters if w.trace is not None]
                    )
            for flight, traces in zip(batch, traced):
                for trace in traces:
                    trace.end("queued")
                    trace.mark("admitted", STAGE_SCHEDULER)
                    trace.begin(
                        "search",
                        STAGE_BACKEND,
                        attrs={
                            "backend": self.backend.name,
                            "killable": flight.killable,
                        },
                    )
                self._dispatch(flight)
            with self._lock:
                if self._pump_requests == 0:
                    self._pumping = False
                    return

    def _dispatch(self, flight: _Flight) -> None:
        try:
            handle = self.backend.submit_task(
                self._task, flight.task, token=flight.token, killable=flight.killable
            )
        except BaseException as error:  # noqa: BLE001 - undo the reservation
            with self._lock:
                if flight.slot_held:
                    flight.slot_held = False
                    self._slots_used -= 1
                flight.state = _SETTLED
                if self._in_flight.get(flight.key) is flight:
                    del self._in_flight[flight.key]
                waiters: List[_Waiter] = []
                if flight.outcome is None:
                    flight.outcome = "failed"
                    self.stats.failed += 1
                    # Nothing reached the backend: `scheduled` keeps meaning
                    # "searches actually started" (a later retry counts itself).
                    self.stats.scheduled -= 1
                    waiters, flight.waiters = flight.waiters, []
            for waiter in waiters:
                if not waiter.future.done():
                    waiter.future.set_exception(error)
            return
        flight.handle = handle
        with self._lock:
            if flight.state != _SETTLED:
                self._unsettled[flight.seq] = handle.future
        if flight.outcome is not None:
            # Cancelled in the window before the handle existed: kill now so
            # a hard-killable backend does not run the search to completion.
            handle.kill()
        handle.future.add_done_callback(
            lambda done, flight=flight: self._on_backend_done(flight, done)
        )

    def _on_backend_done(self, flight: _Flight, backend_future: "Future[Any]") -> None:
        """Store the result, retire the flight, wake waiters, refill slots."""
        try:
            error = backend_future.exception()
        except CancelledError as cancelled:  # killed while still pool-queued
            error = cancelled
        payload: Optional[Dict[str, Any]] = None
        if error is None:
            _key, payload = backend_future.result()
        waiters: List[_Waiter] = []
        with self._lock:
            self._unsettled.pop(flight.seq, None)
            if flight.slot_held:
                flight.slot_held = False
                self._slots_used -= 1
            flight.state = _SETTLED
            # Claim the terminal outcome under the lock so a racing cancel
            # cannot double-count (it observes `outcome` set and backs off).
            claimed = flight.outcome is None
            if claimed:
                if error is None:
                    flight.outcome = "completed"
                    self.stats.completed += 1
                elif isinstance(error, SearchTimeout):
                    flight.outcome = TIMEOUT
                    self.stats.timeouts += 1
                elif isinstance(error, (SearchCancelled, CancelledError)):
                    flight.outcome = CANCELLED
                    self.stats.cancelled += 1
                else:
                    flight.outcome = "failed"
                    self.stats.failed += 1
                if error is not None and self._in_flight.get(flight.key) is flight:
                    # Errors retire immediately; the success path keeps the
                    # key in flight until the cache holds the result (below).
                    del self._in_flight[flight.key]
                if error is not None:
                    waiters, flight.waiters = flight.waiters, []
            # else: a zombie completing after cancellation — its waiters were
            # already resolved and its slot already released at cancel time.
        store_span: Optional[Tuple[float, float]] = None
        if claimed and error is None:
            self.search_times.record(
                flight.key, payload.get("elapsed_seconds", 0.0)
            )
            # Store *before* retiring the key, and outside the scheduler
            # lock: a racing submit then sees the entry cached or in flight
            # (briefly both), never neither — so single flight stays exact —
            # and an autosaving cache's disk write cannot stall every other
            # submission on our mutex.
            store_start = time.monotonic()
            self.cache.store(flight.key, payload)
            store_span = (store_start, time.monotonic())
            with self._lock:
                if self._in_flight.get(flight.key) is flight:
                    del self._in_flight[flight.key]
                waiters, flight.waiters = flight.waiters, []
        if error is None:
            trace_status = "ok"
        elif isinstance(error, SearchTimeout):
            trace_status = TIMEOUT
        elif isinstance(error, (SearchCancelled, CancelledError)):
            trace_status = CANCELLED
        else:
            trace_status = "error"
        for waiter in waiters:
            if waiter.trace is not None:
                self._trace_settled(
                    waiter.trace, flight, trace_status, payload, store_span
                )
            if waiter.future.done():
                continue
            if error is None:
                waiter.future.set_result(payload)
            else:
                waiter.future.set_exception(error)
        self._pump()

    def _trace_settled(
        self,
        trace: RequestTrace,
        flight: _Flight,
        status: str,
        payload: Optional[Dict[str, Any]],
        store_span: Optional[Tuple[float, float]],
    ) -> None:
        """Emit one settled submission's kernel/search/cache-write/reply spans.

        The ``kernel`` span is derived retroactively from the payload's
        ``elapsed_seconds`` — the searches measure themselves already, so the
        pure decision-procedure time needs no new kernel plumbing.  The
        ``checkpoints`` attribute reads the flight token's poll counter (it
        stays 0 for searches that ran inside a process backend's child, whose
        token copy never crosses back).  The ``reply`` mark lands *before*
        the waiter future resolves, so a client thread racing to
        ``finish()`` the trace can never miss it.
        """
        search_end = trace.now_ms()
        if payload is not None:
            kernel_ms = float(payload.get("elapsed_seconds", 0.0)) * 1000.0
            trace.add(
                "kernel",
                STAGE_KERNEL,
                start_ms=max(0.0, search_end - kernel_ms),
                end_ms=search_end,
                parent="search",
            )
        trace.end("search", status, attrs={"checkpoints": flight.token.checkpoints})
        if store_span is not None:
            trace.add(
                "cache-write",
                STAGE_SCHEDULER,
                start_ms=trace.at_ms(store_span[0]),
                end_ms=trace.at_ms(store_span[1]),
            )
        trace.mark("reply", STAGE_SCHEDULER, attrs={"from_cache": False})

    # ------------------------------------------------------------------
    # Cancellation and deadlines
    # ------------------------------------------------------------------
    def _detach_waiter(
        self, waiter: _Waiter, error: SearchInterrupted, reason: str
    ) -> bool:
        """Resolve one waiter with ``error``; cancel the flight if it was last."""
        flight = waiter.flight
        with self._lock:
            if waiter.future.done():
                return False
            try:
                flight.waiters.remove(waiter)
            except ValueError:  # pragma: no cover - resolved concurrently
                return False
            last = flight.outcome is None and not flight.waiters
        if last:
            # Settle the flight before waking its waiter, so a client that
            # has seen the timeout also sees it in the scheduler's counters.
            self._cancel_flight(flight, reason)
        waiter.future.set_exception(error)
        return True

    def _expire_waiter(self, waiter: _Waiter) -> None:
        self._detach_waiter(
            waiter, SearchTimeout(key=waiter.flight.key), TIMEOUT
        )

    def _cancel_flight(self, flight: _Flight, reason: str) -> bool:
        """Cancel a whole flight: free its key and slot, stop the search."""
        with self._lock:
            if flight.outcome is not None:
                return False
            flight.outcome = reason
            if reason == TIMEOUT:
                self.stats.timeouts += 1
            else:
                self.stats.cancelled += 1
            if self._in_flight.get(flight.key) is flight:
                del self._in_flight[flight.key]
            if flight.state == _QUEUED:
                flight.state = _SETTLED  # never dispatched; heap entry skipped
            elif flight.slot_held:
                # Logical release: new work may dispatch immediately.  The
                # physical worker frees itself at the search's next
                # checkpoint (cooperative) or via the kill below (processes).
                flight.slot_held = False
                self._slots_used -= 1
            waiters, flight.waiters = flight.waiters, []
        flight.token.cancel(reason)
        if flight.handle is not None:
            flight.handle.kill()
        error_type = SearchTimeout if reason == TIMEOUT else SearchCancelled
        for waiter in waiters:
            if not waiter.future.done():
                waiter.future.set_exception(error_type(key=flight.key))
        self._pump()
        return True

    def cancel(self, key: str, reason: str = CANCELLED) -> bool:
        """Cancel the in-flight (or queued) search for ``key``, if any.

        Resolves **every** waiter of that search with
        :class:`SearchCancelled`/:class:`SearchTimeout`; use
        :meth:`ClassificationJob.cancel` to detach a single submission
        instead.  Returns ``True`` when a live search was cancelled.
        """
        with self._lock:
            flight = self._in_flight.get(key)
        if flight is None:
            return False
        return self._cancel_flight(flight, reason)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no work is queued, running, **or lingering**.

        Covers queued flights, dispatched searches, and cancelled zombies
        still unwinding on the backend, so ``True`` means a moment of genuine
        quiescence was observed.  Work submitted while draining extends the
        wait (snapshot-and-wait loop).
        """
        start = time.monotonic()
        while True:
            with self._lock:
                pending = list(self._unsettled.values())
                queued = bool(self._in_flight)
            if not pending and not queued:
                return True
            remaining: Optional[float] = None
            if timeout is not None:
                remaining = timeout - (time.monotonic() - start)
                if remaining <= 0:
                    return False
            if pending:
                futures_wait(pending, timeout=remaining)
            else:
                # Queued flights with no dispatched future yet: give the
                # pump a beat to admit them.
                time.sleep(min(0.01, remaining) if remaining else 0.01)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Number of searches currently queued or running."""
        with self._lock:
            return len(self._in_flight)

    @property
    def slots_in_use(self) -> int:
        """Worker slots currently held by dispatched, non-cancelled searches."""
        with self._lock:
            return self._slots_used

    def _gauges_locked(self) -> Dict[str, int]:
        in_flight = len(self._in_flight)
        running = sum(
            1 for flight in self._in_flight.values() if flight.state == _RUNNING
        )
        return {
            "in_flight": in_flight,
            "queued": in_flight - running,
            "slots_in_use": self._slots_used,
        }

    def gauges(self) -> Dict[str, int]:
        """The live occupancy gauges, read in one lock acquisition."""
        with self._lock:
            return self._gauges_locked()

    def stats_payload(self) -> Dict[str, Any]:
        """Live scheduler + backend report (the ``workers`` stats section).

        Counters and gauges are read under a **single** lock acquisition —
        every mutation of :attr:`stats` happens inside the same lock — so a
        snapshot can never observe the conservation invariants
        (``finished == completed + failed + cancelled + timeouts``,
        ``submitted == flights + deduped + cache_hits``) mid-update, no
        matter how hard concurrent completions hammer the scheduler.
        """
        with self._lock:
            counters = self.stats.as_dict()
            gauges = self._gauges_locked()
        workers = self.backend.workers
        payload = self.backend.describe()
        payload.update(counters)
        payload.update(gauges)
        slots = gauges["slots_in_use"]
        payload["utilization"] = min(1.0, slots / workers) if workers else 0.0
        payload["priorities"] = list(PRIORITIES)
        payload["search_times"] = self.search_times.as_dict()
        return payload

    def close(self) -> None:
        """Shut the backend down, wait until idle, then stop the deadline monitor.

        The backend drains its running searches first, then :meth:`wait_idle`
        waits out every flight still queued or running, such as a search
        running inside another thread's submission on a synchronous backend.
        The monitor keeps expiring their waiters meanwhile: a search with a
        deadline stops at that deadline instead of holding ``close()`` until
        it finishes.
        """
        self.backend.close()
        self.wait_idle()
        self._monitor.close()

    def __enter__(self) -> "ClassificationScheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
