"""The classification session: one front door over every execution path.

:class:`ClassificationSession` is *the* supported way to classify LCL
problems.  It is constructed from a URL-style endpoint (or a
:class:`~repro.api.config.SessionConfig`) and presents one typed surface —
:meth:`classify`, :meth:`classify_many`, :meth:`submit`, :meth:`census`,
:meth:`warm`, :meth:`stats` — whose behavior is identical whether the work
runs

* inline in the calling thread (``local://inline``),
* on an in-process worker pool through the single-flight scheduler
  (``local://threads``, ``local://processes``), or
* on a remote service over the JSON-lines protocol (``tcp://host:port``,
  ``stdio:``).

Every call returns :class:`~repro.api.outcome.Outcome` objects with the same
fields on every endpoint, and every failure raises the unified
:mod:`repro.api.errors` hierarchy; the endpoint parity tests assert both.

Two interchangeable drivers implement the surface.  :class:`LocalDriver`
owns the worker backend, the single-flight scheduler, the cache, the tracer
and the metrics registry; ``_RemoteDriver`` builds each call's wire params
and sends them through a :class:`~repro.service.client.ServiceClient`
connection, which only frames them.  The service
on the other end of that connection hosts a :class:`LocalDriver` of its own
and validates requests with the functions below (:func:`resolve_problem`,
:func:`census_problems`, :func:`validate_priority`), so a remote request
runs the local path and fails with literally the same error.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.cancellation import SearchInterrupted
from ..core.parser import parse_problem
from ..core.problem import LCLError, LCLProblem
from ..engine import batch
from ..engine.batch import OUTCOME_TIMEOUT, BatchStats, PendingClassification
from ..engine.cache import ClassificationCache
from ..engine.serialization import problem_from_dict, problem_to_dict
from ..obs import build_registry, render_prometheus
from ..obs.trace import DISABLED_TRACER, RequestTrace, Tracer
from ..problems.random_problems import random_problem
from ..workers.backends import create_backend
from ..workers.scheduler import (
    JOB_CACHE_HIT,
    JOB_SCHEDULED,
    JOB_SHARED,
    PRIORITIES,
    ClassificationScheduler,
)
from .config import MODE_LOCAL, MODE_TCP, SessionConfig, parse_endpoint
from .errors import (
    InternalError,
    ProblemFormatError,
    RequestError,
    SessionError,
    TransportError,
    UnsupportedOperationError,
    from_service_error,
)
from .outcome import Outcome

ProblemSpec = Union[LCLProblem, str, Mapping[str, Any]]
"""Anything a session accepts as a problem: a parsed :class:`LCLProblem`,
paper-notation text, or a serialized problem dict."""


def resolve_problem(spec: ProblemSpec, default_name: str = "<session>") -> LCLProblem:
    """Turn any accepted problem spec into an :class:`LCLProblem`.

    The one problem resolver: sessions call it before any dispatch and the
    service calls it on every spec it decodes, so a malformed spec fails
    with the same :class:`ProblemFormatError` on every endpoint.
    """
    try:
        if isinstance(spec, LCLProblem):
            return spec
        if isinstance(spec, str):
            return parse_problem(spec, name=default_name)
        if isinstance(spec, Mapping):
            return problem_from_dict(spec)
    except (LCLError, ValueError, KeyError, TypeError) as error:
        raise ProblemFormatError(f"bad problem: {error}") from error
    raise ProblemFormatError(
        "a problem must be paper-notation text, a serialized problem object, "
        "or an LCLProblem"
    )


def validate_census_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a census parameter object; return its normalized echo form.

    Sessions apply it before any dispatch, and the service's ``census``/
    ``warm`` handlers apply it through :func:`census_problems`.
    """
    try:
        labels = int(params.get("labels", 2))
        delta = int(params.get("delta", 2))
        density = float(params.get("density", 0.5))
        count = int(params.get("count", 100))
        seed = int(params.get("seed", 0))
    except (TypeError, ValueError) as error:
        raise RequestError(f"bad census parameter: {error}") from error
    if count < 1:
        raise RequestError("census requires count >= 1")
    return {
        "labels": labels,
        "delta": delta,
        "density": density,
        "count": count,
        "seed": seed,
    }


def census_problems(params: Mapping[str, Any]) -> Tuple[List[LCLProblem], Dict[str, Any]]:
    """A census's problem list from its parameter object, plus the echo.

    The one census generator, ``seed + index`` per draw.  Remote drivers
    skip it and ship only the (validated) parameter object; the service
    expands that object with this same function.
    """
    echo = validate_census_params(params)
    problems = [
        random_problem(
            echo["labels"],
            delta=echo["delta"],
            density=echo["density"],
            seed=echo["seed"] + index,
        )
        for index in range(echo["count"])
    ]
    return problems, echo


def validate_priority(priority: Any) -> str:
    """Return ``priority`` if it names a scheduler class, else raise.

    Sessions check their resolved priority with it and the service checks
    the wire's ``priority`` field with it, so both reject with one message.
    """
    if priority not in PRIORITIES:
        raise RequestError(
            f"bad priority {priority!r} (known: {', '.join(PRIORITIES)})"
        )
    return priority


class PendingOutcome:
    """A submitted problem whose classification may still be running.

    Returned by :meth:`ClassificationSession.submit`.  :meth:`result` blocks
    until the :class:`Outcome` is available (an interrupted search resolves
    to an Outcome with ``outcome="timeout"``/``"cancelled"``, it does not
    raise).  :meth:`cancel` detaches this submission from its search when the
    endpoint supports it: local sessions detach in-process, TCP sessions
    open a short-lived second connection and invoke the service's ``cancel``
    operation with this submission's reserved wire id (stdio sessions have
    a single pipe and return ``False``).

    ``request_id`` is the tracing/wire id of this submission — pass it to
    :meth:`ClassificationSession.trace` to fetch the finished span tree.
    ``None`` when the session runs with observability off (``obs=0``, or a
    local session with tracing disabled).
    """

    __slots__ = ("_result", "_done", "_cancel", "request_id")

    def __init__(
        self,
        result: Callable[[Optional[float]], Outcome],
        done: Callable[[], bool],
        cancel: Optional[Callable[[], bool]] = None,
        request_id: Optional[Any] = None,
    ) -> None:
        self._result = result
        self._done = done
        self._cancel = cancel
        self.request_id = request_id

    @property
    def done(self) -> bool:
        return self._done()

    def cancel(self) -> bool:
        """Detach from the search; ``True`` when a live submission was detached."""
        if self._cancel is None:
            return False
        return self._cancel()

    def result(self, timeout: Optional[float] = None) -> Outcome:
        """Block until classified (``timeout`` bounds the *wait*, in seconds).

        A wait that outlasts ``timeout`` raises the standard
        :class:`TimeoutError` (the submission keeps running — call again);
        this is "not ready yet", deliberately distinct from the session's
        :class:`~repro.api.errors.ClassificationTimeout`, which means the
        *search* blew its deadline.
        """
        return self._result(timeout)


# ----------------------------------------------------------------------
# Local driver
# ----------------------------------------------------------------------
def open_cache(config: SessionConfig) -> ClassificationCache:
    """The result cache a configuration describes.

    One rule for local sessions and ``repro serve``: every cache parameter
    of the endpoint (``cache``, ``cache_max_entries``, ``cache_ttl``,
    ``cache_flush_interval``, ``cache_flush_count``) is applied.  With none
    of them set this is an unbounded in-memory cache.
    """
    return ClassificationCache(
        path=config.cache_path,
        max_entries=config.cache_max_entries,
        ttl_seconds=config.cache_ttl,
        flush_interval=config.cache_flush_interval,
        flush_max_dirty=config.cache_flush_count,
    )


class WarmSweep:
    """The submissions of one ``warm``, and the summary they add up to.

    :meth:`LocalDriver.start_warm` fills it.  ``pendings`` holds every
    submission in workload order; ``entries`` holds one per distinct key,
    the key's first submission, whose job kind (``hit``/``shared``/
    ``scheduled``) the summary counts.  A submission without a key (a
    problem reached after the budget was spent, or one interrupted while
    being canonicalized) is an entry of its own: one key, one interruption.
    """

    def __init__(self, waited: bool, budget: Optional[float]) -> None:
        self.waited = waited
        self.budget = budget
        self.budget_ends = time.monotonic() + budget if budget is not None else None
        self.pendings: List[PendingClassification] = []
        self.entries: List[PendingClassification] = []
        self._keys: set = set()

    def add(self, pending: PendingClassification) -> None:
        self.pendings.append(pending)
        if pending.job is None:
            self.entries.append(pending)
        elif pending.job.key not in self._keys:
            self._keys.add(pending.job.key)
            self.entries.append(pending)

    def summary(self) -> Dict[str, Any]:
        """The warm summary; when the sweep waits, block until each entry settles.

        A waited entry is completed, ``interrupted`` (its search raised
        :class:`SearchInterrupted`, or it has no key) or ``failed``, so
        ``within_budget + interrupted + failed == unique_keys``.
        """
        kinds = Counter(
            entry.job.kind for entry in self.entries if entry.job is not None
        )
        summary: Dict[str, Any] = {
            "unique_keys": len(self.entries),
            "already_cached": kinds[JOB_CACHE_HIT],
            "shared": kinds[JOB_SHARED],
            "scheduled": kinds[JOB_SCHEDULED],
            "waited": self.waited,
        }
        if self.budget is not None:
            summary["budget_seconds"] = self.budget
        if self.waited:
            verdicts = Counter(_warm_verdict(entry) for entry in self.entries)
            summary["failed"] = verdicts["failed"]
            summary["interrupted"] = verdicts["interrupted"]
            if self.budget is not None:
                summary["within_budget"] = verdicts["completed"]
                summary["budget_exhausted"] = (
                    verdicts["interrupted"] > 0
                    and time.monotonic() >= self.budget_ends
                )
        summary["count"] = len(self.pendings)
        return summary


def _warm_verdict(entry: PendingClassification) -> str:
    if entry.job is None:
        return "interrupted"
    error = entry.job.future.exception()
    if error is None:
        return "completed"
    return "interrupted" if isinstance(error, SearchInterrupted) else "failed"


def _failed(trace: Optional[RequestTrace], error: Exception) -> SessionError:
    """Close ``trace`` as an error; return ``error`` as a :class:`SessionError`."""
    if trace is not None:
        trace.finish("error")
    if isinstance(error, SessionError):
        return error
    internal = InternalError(f"{type(error).__name__}: {error}")
    internal.__cause__ = error
    return internal


class LocalDriver:
    """The in-process engine behind local sessions and the service.

    Owns the worker backend the config names, the
    :class:`~repro.workers.scheduler.ClassificationScheduler` running
    searches on it, the cache, the env-gated tracer, and the metrics
    registry built by :func:`~repro.obs.build_registry`.  A ``local://``
    session calls it directly;
    :class:`~repro.service.server.ClassificationService` hosts one and only
    translates frames into calls on it.  Every classification goes through
    :func:`repro.engine.batch.submit`.

    ``cache`` replaces the config's cache parameters with a ready cache.
    ``requests_served`` counts front-door requests: a session's
    classifications count themselves, while the service calls
    :meth:`count_request` once per decoded request line.  ``batch_stats``
    counts submissions and the full searches they started.
    """

    def __init__(
        self, config: SessionConfig, cache: Optional[ClassificationCache] = None
    ) -> None:
        self.cache = cache if cache is not None else open_cache(config)
        self.scheduler = ClassificationScheduler(
            cache=self.cache, backend=create_backend(config.backend, config.workers)
        )
        self.batch_stats = BatchStats()
        self._batch_lock = threading.Lock()
        # `obs=0` skips the tracer and the registry; `self.tracer.start()`
        # then returns None and every trace branch below is dead.
        self._obs = config.obs
        self.tracer = Tracer.from_env() if config.obs else DISABLED_TRACER
        self.requests_served = 0
        self._served_lock = threading.Lock()
        self.started_at = time.monotonic()
        self.registry = build_registry(self) if config.obs else None

    def count_request(self) -> None:
        with self._served_lock:
            self.requests_served += 1

    def _start_trace(self, op: str) -> Optional[RequestTrace]:
        self.count_request()
        return self.tracer.start(op)

    # ------------------------------------------------------------------
    # The two halves of every classification
    # ------------------------------------------------------------------
    def submit_item(
        self,
        problem: LCLProblem,
        priority: str,
        deadline: Optional[float],
        trace: Optional[RequestTrace] = None,
    ) -> PendingClassification:
        """Submit ``problem`` without waiting; :meth:`resolve` collects it."""
        try:
            pending = batch.submit(self.scheduler, problem, priority, deadline, trace)
        except Exception as error:  # noqa: BLE001 - one internal-error surface
            raise _failed(trace, error)
        with self._batch_lock:
            self.batch_stats.submitted += 1
            if pending.job is not None and pending.job.kind == JOB_SCHEDULED:
                self.batch_stats.full_searches += 1
        return pending

    def resolve(
        self,
        pending: PendingClassification,
        trace: Optional[RequestTrace] = None,
        timeout: Optional[float] = None,
    ) -> Outcome:
        """Wait for ``pending`` (at most ``timeout`` s), finish ``trace``."""
        try:
            item = pending.result(timeout=timeout)
        except FuturesTimeoutError:
            # "Not ready within the wait" is not an engine failure: let the
            # standard TimeoutError through, identically to remote pendings.
            # The submission (and its trace) keeps running — don't finish.
            raise
        except Exception as error:  # noqa: BLE001 - one internal-error surface
            raise _failed(trace, error)
        if trace is not None:
            trace.finish(item.outcome)
        return Outcome.from_batch_item(
            item, request_id=trace.request_id if trace is not None else None
        )

    # ------------------------------------------------------------------
    # Session surface
    # ------------------------------------------------------------------
    def classify(
        self, problem: LCLProblem, priority: str, deadline: Optional[float]
    ) -> Outcome:
        trace = self._start_trace("classify")
        return self.resolve(self.submit_item(problem, priority, deadline, trace), trace)

    def submit(
        self, problem: LCLProblem, priority: str, deadline: Optional[float]
    ) -> PendingOutcome:
        trace = self._start_trace("submit")
        pending = self.submit_item(problem, priority, deadline, trace)
        return PendingOutcome(
            result=lambda timeout=None: self.resolve(pending, trace, timeout),
            done=lambda: pending.done,
            cancel=lambda: self._cancel_pending(pending, trace),
            request_id=trace.request_id if trace is not None else None,
        )

    @staticmethod
    def _cancel_pending(
        pending: PendingClassification, trace: Optional[RequestTrace]
    ) -> bool:
        detached = pending.cancel()
        # A detached submission may never be result()ed again; close its
        # trace now so cancelled span trees are complete (finish is
        # idempotent, so a later result() call is harmless).
        if detached and trace is not None:
            trace.finish("cancelled")
        return detached

    def iter_outcomes(
        self,
        problems: Sequence[LCLProblem],
        priority: str,
        deadline: Optional[float],
    ) -> Iterator[Outcome]:
        # Fan everything out up front (the pooled backends overlap searches),
        # then stream outcomes in submission order as each future resolves.
        # One trace per item, like the service's per-item sub-traces.
        submissions = []
        for problem in problems:
            trace = self._start_trace("classify_batch")
            submissions.append(
                (self.submit_item(problem, priority, deadline, trace), trace)
            )
        return (self.resolve(pending, trace) for pending, trace in submissions)

    def start_warm(
        self,
        problems: Sequence[LCLProblem],
        census: Optional[Mapping[str, Any]],
        wait: bool,
        priority: str,
        deadline: Optional[float],
        budget: Optional[float],
    ) -> WarmSweep:
        """Submit a warm's workload through :meth:`submit_item`; return the sweep.

        Each problem's deadline is ``deadline`` capped at what is left of
        ``budget``, so the budget bounds canonicalization and search alike;
        problems reached after it is spent are not submitted.  A budget
        implies waiting.
        """
        sweep = WarmSweep(wait or budget is not None, budget)
        workload = list(problems)
        if census is not None:
            workload.extend(census_problems(census)[0])
        for problem in workload:
            item_deadline = deadline
            if sweep.budget_ends is not None:
                left = sweep.budget_ends - time.monotonic()
                item_deadline = left if deadline is None else min(deadline, left)
            if item_deadline is not None and item_deadline <= 0:
                # The budget is spent: the problem is not submitted.
                pending = PendingClassification(problem, None, None, OUTCOME_TIMEOUT)
            else:
                pending = self.submit_item(problem, priority, item_deadline)
            sweep.add(pending)
        return sweep

    def warm(
        self,
        problems: Sequence[LCLProblem],
        census: Optional[Mapping[str, Any]],
        wait: bool,
        priority: str,
        deadline: Optional[float],
        budget: Optional[float],
    ) -> Dict[str, Any]:
        sweep = self.start_warm(problems, census, wait, priority, deadline, budget)
        return sweep.summary()

    def stats(self) -> Dict[str, Any]:
        payload = {
            "service": {
                "requests_served": self.requests_served,
                "uptime_seconds": time.monotonic() - self.started_at,
            },
            # cache.info() is the one source of the cache-section shape.
            "cache": self.cache.info(),
            "batch": self.batch_stats.as_dict(),
            "workers": self.scheduler.stats_payload(),
        }
        if self._obs:
            payload["trace"] = self.tracer.as_dict()
        return payload

    def metrics(self) -> Dict[str, Any]:
        if self.registry is None:
            raise UnsupportedOperationError(
                "observability is disabled on this session (obs=0)"
            )
        snapshot = self.registry.snapshot()
        return {"snapshot": snapshot, "text": render_prometheus(snapshot)}

    def trace(self, request_id: Any) -> Dict[str, Any]:
        if not self._obs:
            raise UnsupportedOperationError(
                "observability is disabled on this session (obs=0)"
            )
        document = self.tracer.get(request_id)
        return {
            "request_id": request_id,
            "found": document is not None,
            "trace": document,
        }

    def cancel(self, request_id: Any) -> Dict[str, Any]:
        raise UnsupportedOperationError(
            "local sessions have no request ids; cancel a PendingOutcome instead"
        )

    def shutdown(self) -> Dict[str, Any]:
        raise UnsupportedOperationError(
            "local sessions have no remote service to shut down; close() the session"
        )

    def close(self) -> None:
        # close() drains in-flight searches (a background warm, say) into
        # the cache first; cache.close() then persists everything
        # outstanding (a full snapshot when a durable path is configured)
        # and stops the write-behind flusher, so shutdown loses nothing.
        self.scheduler.close()
        self.cache.close()
        self.tracer.close()


# ----------------------------------------------------------------------
# Remote driver
# ----------------------------------------------------------------------
class _RemoteDriver:
    """Session driver speaking the service protocol over TCP or stdio pipes.

    The one place a session call becomes a wire request: each method builds
    its operation's params (:meth:`_scheduled` adds ``priority`` and
    ``deadline_ms``) and sends them through ``ServiceClient.request`` or
    ``ServiceClient.stream``.  One connection, used sequentially: an
    internal lock serializes requests, so :meth:`submit`'s background
    thread and direct calls never interleave frames.
    """

    def __init__(self, config: SessionConfig) -> None:
        # Imported lazily so `import repro.api` works (and local sessions
        # run) even where the service subpackage's asyncio machinery is
        # unwanted; only remote sessions pay for it.
        from ..service.client import ServiceClient, ServiceError

        self.config = config
        self._service_client = ServiceClient
        self._service_error = ServiceError
        try:
            if config.mode == MODE_TCP:
                self.client = ServiceClient.connect_tcp(
                    config.host, config.port, retries=config.retries
                )
            else:
                self.client = ServiceClient.spawn_stdio(config.endpoint())
        except OSError as error:
            raise TransportError(
                f"cannot reach service at {config.endpoint()}: {error}"
            ) from error
        except ServiceError as error:
            raise from_service_error(error) from error
        # One connection, used sequentially.  The lock serializes requests
        # across threads; `_stream_owner` additionally catches the same
        # thread issuing a call while one of its own streaming iterators is
        # still live — without it that call would self-deadlock on the
        # non-reentrant lock (and with a reentrant one it would eat the
        # stream's frames), so it raises a clear error instead.
        self._io = threading.Lock()
        self._stream_owner: Optional[threading.Thread] = None

    def _acquire(self) -> None:
        if self._stream_owner is threading.current_thread():
            raise RequestError(
                "a streaming request is still being consumed on this session; "
                "exhaust the iterator (or open a second session) before "
                "issuing another call"
            )
        self._io.acquire()

    def _request(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        request_id: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """One request on the session's connection; its terminal data.

        Error frames raise the session's :mod:`repro.api.errors` types.
        """
        self._acquire()
        try:
            return self.client.request(op, params, request_id=request_id)
        except self._service_error as error:
            raise from_service_error(error) from error
        finally:
            self._io.release()

    @staticmethod
    def _scheduled(
        params: Dict[str, Any], priority: str, deadline: Optional[float]
    ) -> Dict[str, Any]:
        """``params`` plus the scheduling fields every problem request carries."""
        params["priority"] = priority
        if deadline is not None:
            params["deadline_ms"] = deadline * 1000.0
        return params

    def classify(
        self,
        problem: LCLProblem,
        priority: str,
        deadline: Optional[float],
        request_id: Optional[Any] = None,
    ) -> Outcome:
        # Reserve the wire id up front (when observability is on) so the
        # outcome can carry it — that id is what `trace`/`cancel` address.
        if request_id is None and self.config.obs:
            request_id = self.client.reserve_request_id()
        params = self._scheduled(
            {"problem": problem_to_dict(problem)}, priority, deadline
        )
        payload = self._request("classify", params, request_id)
        return Outcome.from_payload(payload, problem, request_id=request_id)

    def submit(
        self, problem: LCLProblem, priority: str, deadline: Optional[float]
    ) -> PendingOutcome:
        # The wire id is minted *before* the background thread sends the
        # request: it is the handle a concurrent `cancel` (below) or `trace`
        # addresses.  itertools.count makes reservation thread-safe.
        request_id: Optional[Any] = None
        cancel: Optional[Callable[[], bool]] = None
        if self.config.obs:
            request_id = self.client.reserve_request_id()
            if self.config.mode == MODE_TCP:
                # The session's own connection is busy carrying this very
                # request, so cancellation travels on a short-lived second
                # connection — exactly how the protocol intends `cancel`
                # ("necessarily from another client").  stdio services have
                # a single pipe pair: no second connection, no remote cancel.
                reserved = request_id
                cancel = lambda: self._cancel_over_second_connection(reserved)
        future: "Future[Outcome]" = Future()

        def run() -> None:
            try:
                future.set_result(
                    self.classify(problem, priority, deadline, request_id)
                )
            except BaseException as error:  # noqa: BLE001 - ferried to waiter
                future.set_exception(error)

        threading.Thread(target=run, daemon=True, name="repro-session-submit").start()
        return PendingOutcome(
            result=lambda timeout=None: future.result(timeout),
            done=future.done,
            cancel=cancel,
            request_id=request_id,
        )

    def _cancel_over_second_connection(self, request_id: Any) -> bool:
        try:
            client = self._service_client.connect_tcp(
                self.config.host, self.config.port
            )
        except OSError:
            return False
        try:
            payload = client.request("cancel", {"request_id": request_id})
        except (OSError, self._service_error):
            return False
        finally:
            client.close()
        # `found` — not the detach count — is the delivery signal: a cancel
        # racing the target's fan-out can detach 0 submissions at response
        # time yet still take effect (the server handles the late ones).
        return bool(payload.get("found"))

    def iter_outcomes(
        self,
        problems: Sequence[LCLProblem],
        priority: str,
        deadline: Optional[float],
    ) -> Iterator[Outcome]:
        specs = [problem_to_dict(problem) for problem in problems]
        params = self._scheduled({"problems": specs}, priority, deadline)
        return self._stream("classify_batch", params, problems)

    def iter_census(
        self,
        echo: Mapping[str, Any],
        priority: str,
        deadline: Optional[float],
    ) -> Iterator[Outcome]:
        # Only the five census parameters travel; the server generates the
        # identical `seed + index` draws itself.
        params = self._scheduled(dict(echo), priority, deadline)
        return self._stream("census", params, None)

    def _stream(
        self,
        op: str,
        params: Dict[str, Any],
        problems: Optional[Sequence[LCLProblem]],
    ) -> Iterator[Outcome]:
        def generate() -> Iterator[Outcome]:
            self._acquire()
            self._stream_owner = threading.current_thread()
            try:
                for index, payload in enumerate(self.client.stream(op, params)):
                    problem = problems[index] if problems is not None else None
                    yield Outcome.from_payload(payload, problem)
            except self._service_error as error:
                raise from_service_error(error) from error
            finally:
                self._stream_owner = None
                self._io.release()

        return generate()

    def warm(
        self,
        problems: Sequence[LCLProblem],
        census: Optional[Mapping[str, Any]],
        wait: bool,
        priority: str,
        deadline: Optional[float],
        budget: Optional[float],
    ) -> Dict[str, Any]:
        # Explicit problems serialize; a census travels as its compact
        # parameter object — the server expands it to the identical draws.
        params: Dict[str, Any] = {"wait": wait}
        if problems:
            params["problems"] = [problem_to_dict(problem) for problem in problems]
        if census is not None:
            params["census"] = dict(census)
        if budget is not None:
            params["budget_ms"] = budget * 1000.0
        return self._request("warm", self._scheduled(params, priority, deadline))

    def stats(self) -> Dict[str, Any]:
        return self._request("stats")

    def metrics(self) -> Dict[str, Any]:
        return self._request("metrics")

    def trace(self, request_id: Any) -> Dict[str, Any]:
        return self._request("trace", {"request_id": request_id})

    def cancel(self, request_id: Any) -> Dict[str, Any]:
        return self._request("cancel", {"request_id": request_id})

    def shutdown(self) -> Dict[str, Any]:
        return self._request("shutdown")

    def close(self) -> None:
        self.client.close()


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class ClassificationSession:
    """One typed handle on a classification engine, wherever it runs.

    Construct with :meth:`open` (or the module-level
    :func:`repro.api.connect`) from an endpoint URL or a
    :class:`SessionConfig`::

        with ClassificationSession.open("local://threads?workers=4") as session:
            outcome = session.classify("1 : 2 2\\n2 : 1 1")
            print(outcome.complexity)

    Sessions are context managers; :meth:`close` tears down whatever the
    session owns (worker pools, connections, a spawned stdio service) and
    persists a configured cache file.

    Scheduling defaults: each call's ``priority``/``deadline`` falls back to
    the config's ``default_priority``/``default_deadline``, then to the
    operation's own class — ``interactive`` for :meth:`classify`/
    :meth:`submit`, ``batch`` for :meth:`classify_many`, ``warm`` for
    :meth:`census` and :meth:`warm` — the same defaults the service applies
    on the wire.
    """

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        if config.mode == MODE_LOCAL:
            self._driver: Union[LocalDriver, _RemoteDriver] = LocalDriver(config)
        else:
            self._driver = _RemoteDriver(config)
        self._closed = False

    @classmethod
    def open(
        cls,
        endpoint: Union[str, SessionConfig] = "local://inline",
        **overrides: Any,
    ) -> "ClassificationSession":
        """Open a session on an endpoint URL or an explicit config.

        Keyword overrides patch individual :class:`SessionConfig` fields on
        top of whatever the URL specified.
        """
        if isinstance(endpoint, SessionConfig):
            config = endpoint
            if overrides:
                from dataclasses import replace

                config = replace(config, **overrides)
        else:
            config = SessionConfig.from_endpoint(endpoint, **overrides)
        return cls(config)

    # ------------------------------------------------------------------
    # Request shaping
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        """The canonical URL of this session's configuration."""
        return self.config.endpoint()

    def _scheduling(
        self, priority: Optional[str], deadline: Optional[float], op_default: str
    ) -> Tuple[str, Optional[float]]:
        """Apply config defaults and validate — before any dispatch."""
        priority = validate_priority(
            priority or self.config.default_priority or op_default
        )
        if deadline is None:
            deadline = self.config.default_deadline
        if deadline is not None and deadline <= 0:
            raise RequestError("deadline must be positive seconds")
        return priority, deadline

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(
        self,
        problem: ProblemSpec,
        *,
        name: str = "<session>",
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Outcome:
        """Classify one problem; return its :class:`Outcome`.

        An interrupted search returns an Outcome with ``outcome="timeout"``/
        ``"cancelled"`` (call :meth:`Outcome.require` to raise instead);
        malformed problems raise :class:`ProblemFormatError` before any work
        is scheduled.
        """
        priority, deadline = self._scheduling(priority, deadline, "interactive")
        resolved = resolve_problem(problem, default_name=name)
        return self._driver.classify(resolved, priority, deadline)

    def submit(
        self,
        problem: ProblemSpec,
        *,
        name: str = "<session>",
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> PendingOutcome:
        """Submit one problem without waiting; collect via the pending handle."""
        priority, deadline = self._scheduling(priority, deadline, "interactive")
        resolved = resolve_problem(problem, default_name=name)
        return self._driver.submit(resolved, priority, deadline)

    def classify_many(
        self,
        problems: Iterable[ProblemSpec],
        *,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Iterator[Outcome]:
        """Classify a stream of problems; yield outcomes in submission order.

        All problems are resolved and submitted up front (so pooled and
        remote endpoints overlap the searches), then outcomes stream as each
        resolves.  ``deadline`` is a per-problem budget covering
        canonicalization and search: a blown budget yields
        ``outcome="timeout"`` items while the rest completes.  No problems
        yield no outcomes, and send nothing to a remote service.
        """
        priority, deadline = self._scheduling(priority, deadline, "batch")
        resolved = [
            resolve_problem(problem, default_name=f"<session>#{index + 1}")
            for index, problem in enumerate(problems)
        ]
        if not resolved:
            return iter(())
        return self._driver.iter_outcomes(resolved, priority, deadline)

    def census(
        self,
        labels: int = 2,
        delta: int = 2,
        density: float = 0.5,
        count: int = 100,
        seed: int = 0,
        *,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Iterator[Outcome]:
        """Classify a seeded random-problem sweep; yield outcomes in order.

        Local sessions generate the problems in-process; remote sessions run
        the server-side ``census`` operation — the draws are identical
        (``seed + index``), so the outcomes are too.  Defaults to ``warm``
        priority: a census is bulk work and must never starve an interactive
        classify sharing the engine.
        """
        priority, deadline = self._scheduling(priority, deadline, "warm")
        echo = validate_census_params(
            {
                "labels": labels,
                "delta": delta,
                "density": density,
                "count": count,
                "seed": seed,
            }
        )
        if isinstance(self._driver, _RemoteDriver):
            # Only the parameters travel; the server generates the draws.
            return self._driver.iter_census(echo, priority, deadline)
        problems, _echo = census_problems(echo)
        return self._driver.iter_outcomes(problems, priority, deadline)

    # ------------------------------------------------------------------
    # Cache warming
    # ------------------------------------------------------------------
    def warm(
        self,
        problems: Optional[Iterable[ProblemSpec]] = None,
        census: Optional[Mapping[str, Any]] = None,
        *,
        wait: bool = False,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
        budget: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Pre-populate the engine's cache ahead of a batch or census.

        Name the workload as a non-empty list of problems, a census
        parameter object, or both.  Every problem is one submission, like a
        :meth:`classify_many` item.  ``deadline`` bounds each problem's
        canonicalization and search; ``budget`` is a *wall-clock* budget in
        seconds for the whole sweep, applied as each submission's deadline
        (the smaller of ``deadline`` and the budget left), and problems
        reached after it is spent are not submitted.  The summary then
        reports ``within_budget``/``interrupted``, so a census can be warmed
        with "spend at most N seconds" semantics (implies waiting).
        """
        priority, deadline = self._scheduling(priority, deadline, "warm")
        if budget is not None and budget < 0:
            raise RequestError("budget must be non-negative seconds")
        resolved = [
            resolve_problem(problem, default_name=f"<warm>#{index + 1}")
            for index, problem in enumerate(problems or ())
        ]
        if not resolved and census is None:
            raise RequestError("warm requires problems and/or census parameters")
        census_echo = validate_census_params(census) if census is not None else None
        return self._driver.warm(
            resolved, census_echo, wait, priority, deadline, budget
        )

    # ------------------------------------------------------------------
    # Introspection / control
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Uniform statistics: ``service``, ``cache``, ``batch``, ``workers``.

        The ``workers`` section includes the scheduler's ``search_times``
        histogram, which is how operators pick deadlines from data.  The
        ``service`` section counts the front door's requests and uptime (on
        a remote session, the server's).  A ``trace`` section is present
        unless observability is off.  The session's own endpoint is echoed
        under ``endpoint``.
        """
        payload = self._driver.stats()
        payload["endpoint"] = self.endpoint
        return payload

    def metrics(self) -> Dict[str, Any]:
        """The engine's metrics as a ``repro.metrics/1`` snapshot.

        Local and remote sessions expose the *same* metric families (names,
        types, labels) because both registries are built by the same
        :func:`repro.obs.build_registry` — the parity tests assert the
        fingerprints are equal.  Raises
        :class:`~repro.api.errors.UnsupportedOperationError` on a local
        session opened with ``obs=0``.
        """
        return self._driver.metrics()["snapshot"]

    def metrics_text(self) -> str:
        """The metrics rendered in the Prometheus text exposition format."""
        return self._driver.metrics()["text"]

    def trace(self, request_id: Any) -> Dict[str, Any]:
        """Fetch a finished request's span tree by its request id.

        Returns ``{"request_id", "found", "trace"}`` — ``found`` is false
        when tracing is off (``REPRO_TRACE`` unset) or the retention ring
        has evicted the id.  Request ids come from
        :attr:`PendingOutcome.request_id` / :attr:`Outcome.request_id`.
        """
        return self._driver.trace(request_id)

    def cancel(self, request_id: Any) -> Dict[str, Any]:
        """Cancel an in-flight *remote* request by its id (remote sessions)."""
        return self._driver.cancel(request_id)

    def shutdown(self) -> Dict[str, Any]:
        """Ask a remote service to persist its cache and exit."""
        return self._driver.shutdown()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down owned resources; persist a configured local cache."""
        if self._closed:
            return
        self._closed = True
        self._driver.close()

    def __enter__(self) -> "ClassificationSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<ClassificationSession {self.endpoint} ({state})>"


def connect(
    endpoint: Union[str, SessionConfig] = "local://inline", **overrides: Any
) -> ClassificationSession:
    """Open a :class:`ClassificationSession` — the package's front door."""
    return ClassificationSession.open(endpoint, **overrides)


__all__ = [
    "ClassificationSession",
    "LocalDriver",
    "PendingOutcome",
    "ProblemSpec",
    "census_problems",
    "connect",
    "open_cache",
    "resolve_problem",
    "validate_census_params",
    "validate_priority",
]
