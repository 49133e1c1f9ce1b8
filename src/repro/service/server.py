"""The asyncio classification service: a wire codec over one local driver.

:class:`ClassificationService` hosts one :class:`~repro.api.session.LocalDriver`
— the engine a ``local://`` session runs: the shared cache, the
single-flight scheduler and the tracer — and only translates the
JSON-lines frames of :mod:`repro.service.protocol` into calls on it.  Problems are resolved by :func:`~repro.api.session.resolve_problem`,
censuses generated by :func:`~repro.api.session.census_problems`, priorities
checked by :func:`~repro.api.session.validate_priority`, and summaries
computed by :func:`~repro.api.outcome.summarize_outcomes`, exactly as for a
local session; a :class:`~repro.api.errors.SessionError` becomes an error
frame carrying its own code.  So a ``tcp://`` request answers and fails like
a ``local://`` one by construction.  Two transports speak the identical
protocol:

* **stdio** (:meth:`ClassificationService.serve_stdio`) — one connection on
  stdin/stdout, for supervisors and piping (``python -m repro serve stdio:``),
* **TCP** (:meth:`ClassificationService.serve_tcp`) — any number of
  concurrent connections on a listening socket.

Batch and census requests *stream*: every classified problem is written as an
``item`` frame, in request order, as soon as it and every problem before it
are answered, followed by a terminal ``done`` frame with the request summary.
All searches execute through the driver's single-flight
:class:`~repro.workers.ClassificationScheduler` on a configurable worker
backend (``--worker-backend inline|threads|processes``, ``--workers N``).
On a pooled backend a problem that is cheap to canonicalize (at most
:data:`ON_LOOP_MAX_LABELS` labels and :data:`ON_LOOP_MAX_OCCURRENCES` label
occurrences) is canonicalized and submitted on the event loop itself, so a
cache hit costs no thread hop; any other problem, and every problem on
``inline``, is submitted on an executor thread.  The scheduler's future is
then awaited on the event loop, so no thread waits on a search and slow
requests never starve the other connections.  The loop yields once per
request and once per streamed item, so a long batch or a pipelining client
cannot hold it.  A batch's
uncached representatives fan out across a pooled backend while its hits
stream at once, independent problems from concurrent connections classify
concurrently, and concurrent requests for the same uncached canonical key
share exactly one search.  The ``warm`` operation pre-schedules a future
batch or census's canonical keys so the shared cache is hot before the real
request arrives.

Protocol version 3 exposes the scheduler's fairness controls: every
scheduling operation accepts ``priority`` (``interactive`` > ``batch`` >
``warm``; per-op defaults match those classes) and ``deadline_ms`` (a per-
problem budget covering canonicalization and search — blown budgets stream
as ``outcome: "timeout"`` items instead of stalling the request), and the
``cancel`` operation detaches an in-flight request's searches when addressed
— from a second connection — by its request id.  Interrupted searches
release their workers and are never written to the cache.
When the cache has a durable backend (a bare/``json:`` path or a
``sqlite:`` database — see :mod:`repro.engine.backends`) persistence is
**write-behind**: stores mark keys dirty and a background flusher persists
them once an interval elapses or enough keys are pending
(:data:`~repro.engine.cache.FLUSH_INTERVAL_SECONDS` /
:data:`~repro.engine.cache.FLUSH_MAX_DIRTY`).  Shutdown persists a final
full snapshot, so a killed service loses at most the not-yet-flushed
increment.

:class:`ThreadedService` runs the TCP variant on a background thread of the
current process — the embedding used by ``tests/test_service.py`` and the
warm-service benchmark in ``benchmarks/bench_random_census.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Any, Awaitable, Callable, Dict, IO, List, Mapping, Optional, Tuple

from ..api.config import SessionConfig
from ..api.errors import InternalError, RequestError, SessionError
from ..api.outcome import (
    OUTCOME_CANCELLED,
    Outcome,
    summarize_outcomes,
    tally_outcomes,
)
from ..api.session import (
    LocalDriver,
    WarmSweep,
    census_problems,
    resolve_problem,
    validate_priority,
)
from ..core.problem import LCLProblem
from ..engine.batch import PendingClassification
from ..engine.cache import ClassificationCache

# Unused here since problems resolve through `resolve_problem`, but kept
# bound: perfbench/layers.py wraps `problem_from_dict` at this attribute.
from ..engine.serialization import problem_from_dict  # noqa: F401
from ..obs.trace import RequestTrace, new_request_id
from ..workers.backends import DEFAULT_WORKERS, InlineBackend
from .protocol import (
    ProtocolError,
    Request,
    decode_frame,
    decode_request,
    done_frame,
    encode_frame,
    error_frame,
    hello_frame,
    item_frame,
    result_frame,
)

MAX_LINE_BYTES = 16 * 1024 * 1024
"""Per-line read limit: batch requests serialize many problems on one line."""

ON_LOOP_MAX_LABELS = 4
"""Largest alphabet canonicalized on the event loop: at most 4! = 24 orders."""

ON_LOOP_MAX_OCCURRENCES = 256
"""Most label occurrences (configurations times ``delta + 1``) canonicalized
on the event loop.  Within both bounds canonicalization takes under ~1 ms
(0.84 ms at worst: 4 labels in one signature group, delta 3, 64
configurations, on a 2-CPU host).  That is less than the interpreter's 5 ms
switch interval, for which an executor thread holding the GIL can already
stall the loop."""

_SendFrame = Callable[[Dict[str, Any]], Awaitable[None]]


def _cheap_to_canonicalize(problem: LCLProblem) -> bool:
    """Whether ``problem`` is within the on-loop bounds above."""
    return (
        len(problem.labels) <= ON_LOOP_MAX_LABELS
        and len(problem.configurations) * (problem.delta + 1)
        <= ON_LOOP_MAX_OCCURRENCES
    )


def _resolve_all(specs: List[Any], name: str) -> List[LCLProblem]:
    """Resolve every spec of a list request, named ``<name>#1``, ``#2``, ..."""
    return [
        resolve_problem(spec, default_name=f"{name}#{index + 1}")
        for index, spec in enumerate(specs)
    ]


def _milliseconds(
    params: Mapping[str, Any], field: str, positive: bool
) -> Optional[float]:
    """Validate an optional ``*_ms`` parameter; return it in seconds."""
    value = params.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{field} must be a number")
    if value < 0 or (positive and value == 0):
        bound = "positive" if positive else "non-negative"
        raise RequestError(f"{field} must be {bound}")
    return value / 1000.0


def _request_options(
    params: Mapping[str, Any], default_priority: str
) -> Tuple[str, Optional[float]]:
    """The protocol-v3 ``priority``/``deadline_ms`` fields as ``(priority, seconds)``.

    Omitted fields fall back to the operation's default priority and no
    deadline — the exact protocol-v2 behavior.
    """
    priority = validate_priority(params.get("priority", default_priority))
    return priority, _milliseconds(params, "deadline_ms", positive=True)


def _target_id(request: Request) -> Any:
    """The ``params.request_id`` a ``cancel``/``trace`` request addresses."""
    target = request.params.get("request_id")
    if target is None:
        raise RequestError(f"{request.op} requires params.request_id")
    if not isinstance(target, (str, int)):
        raise RequestError(
            f"{request.op} params.request_id must be a string or integer"
        )
    return target


class _ActiveRequest:
    """One in-flight classify, streaming or warm request, addressable by ``cancel``.

    ``pendings`` collects the scheduler submissions made for the request;
    ``cancel_requested`` tells a streaming handler to stop submitting further
    items.  All mutation happens on the service's event loop thread.
    """

    __slots__ = ("pendings", "cancel_requested")

    def __init__(self) -> None:
        self.pendings: List[PendingClassification] = []
        self.cancel_requested = False

    def track(self, pending: PendingClassification) -> None:
        self.pendings.append(pending)
        if self.cancel_requested:
            # A cancel raced the submission: honor it now.
            pending.cancel()

    def cancel(self) -> int:
        """Detach every live submission; return how many were detached."""
        self.cancel_requested = True
        return sum(1 for pending in self.pendings if pending.cancel())


class ClassificationService:
    """A long-running classifier sharing one local driver across all clients.

    Parameters
    ----------
    cache:
        The shared :class:`ClassificationCache`.  A fresh unbounded in-memory
        cache is created when omitted (``repro serve`` builds it from the
        endpoint's cache parameters with :func:`~repro.api.session.open_cache`,
        like a local session).  Persistent caches flush dirty keys in the
        background (write-behind, see the module docstring).
    backend:
        Worker backend name executing the certificate searches (``inline``,
        ``threads``, ``processes``).  Defaults to ``threads``: in-process
        concurrency so independent requests never block each other, without
        process-spawn cost (use ``processes`` for CPU parallelism on cold
        censuses).
    workers:
        Pool size for the backend (default: CPU count, but at least 4 so a
        single-core host still overlaps independent requests).
    """

    def __init__(
        self,
        cache: Optional[ClassificationCache] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        if workers is None:
            workers = max(DEFAULT_WORKERS, 4)
        self.driver = LocalDriver(
            SessionConfig(backend=backend or "threads", workers=workers), cache=cache
        )
        # A persistent cache writes behind (a no-op on memory caches).
        self.driver.cache.enable_write_behind()
        # Spawn pool workers now, so the first request does not pay for it.
        backend = self.driver.scheduler.backend
        backend.probe()
        # On a pooled backend a submission only hands a miss's search to the
        # pool, so a cheap one may run on the loop; on `inline` it searches.
        self._submits_on_loop = not isinstance(backend, InlineBackend)
        # In-flight requests addressable by `cancel`, keyed by request id.
        # Ids are client-chosen, so several connections may reuse one id;
        # cancel then targets all of them.  Only touched on the loop thread.
        self._active_requests: Dict[Any, List[_ActiveRequest]] = {}
        self._shutdown_event: Optional[asyncio.Event] = None
        self._writers: List[asyncio.StreamWriter] = []
        self._connection_tasks: "set" = set()
        self.tcp_address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Engine access
    # ------------------------------------------------------------------
    async def _submit(
        self,
        problem: LCLProblem,
        priority: str,
        deadline: Optional[float],
        active: _ActiveRequest,
        trace: Optional[RequestTrace],
    ) -> PendingClassification:
        """Canonicalize and submit one problem, on the loop when that is cheap.

        On a pooled backend a problem within the on-loop bounds
        (:func:`_cheap_to_canonicalize`) is submitted right here: its
        canonicalization holds the loop for under a millisecond, less than
        an executor round trip costs, and a miss only hands its search to
        the pool.  Any other problem is submitted on an executor thread,
        which keeps a long canonicalization, and on ``inline`` the search
        itself, off the event loop.  An on-loop submission never suspends,
        so the callers yield the loop after each response or item.  No
        global lock: the scheduler single-flights per canonical key, so
        concurrent connections classifying *different* problems proceed in
        parallel, and ones racing on the *same* problem share one search.
        The submission is tracked on ``active`` at once, so a concurrent
        ``cancel`` can detach it.
        """
        if self._submits_on_loop and _cheap_to_canonicalize(problem):
            pending = self.driver.submit_item(problem, priority, deadline, trace)
        else:
            pending = await asyncio.get_running_loop().run_in_executor(
                None, self.driver.submit_item, problem, priority, deadline, trace
            )
        active.track(pending)
        return pending

    @staticmethod
    async def _settle(*pendings: PendingClassification) -> None:
        """Await the scheduler futures of ``pendings`` on the loop.

        No thread waits on a search, so slow requests cannot take the
        executor threads every other connection's submissions hop through.
        """
        waiting = []
        for pending in pendings:
            if not pending.done:
                settled = asyncio.wrap_future(pending.job.future)
                # The caller reads a failed search's error from the job, so
                # mark the copy's error retrieved, even when this handler is
                # cancelled before then.
                settled.add_done_callback(asyncio.Future.exception)
                waiting.append(settled)
        if waiting:
            # `wait` rather than `await`: a cancelled handler must not
            # cancel the scheduler's futures underneath it.
            await asyncio.wait(waiting)

    async def _resolve(
        self, pending: PendingClassification, trace: Optional[RequestTrace]
    ) -> Outcome:
        """Await ``pending``'s scheduler future on the loop; collect it."""
        if not pending.done:
            await self._settle(pending)
        return self.driver.resolve(pending, trace)

    @contextlib.contextmanager
    def _track_active(self, request: Request):
        """Register an in-flight request for ``cancel`` addressing."""
        active = _ActiveRequest()
        if request.id is not None:
            self._active_requests.setdefault(request.id, []).append(active)
        try:
            yield active
        finally:
            if request.id is not None:
                entries = self._active_requests.get(request.id, [])
                if active in entries:
                    entries.remove(active)
                if not entries:
                    self._active_requests.pop(request.id, None)

    # ------------------------------------------------------------------
    # Operation handlers
    # ------------------------------------------------------------------
    async def _handle_classify(self, request: Request, send: _SendFrame) -> None:
        spec = request.params.get("problem")
        if spec is None:
            raise RequestError("classify requires params.problem")
        priority, deadline = _request_options(request.params, "interactive")
        problem = resolve_problem(spec, default_name="<request>")
        self.driver.count_request()
        # The trace is keyed by the *wire* request id, so the client that
        # sent this frame can fetch its span tree back with the `trace` op.
        trace = self.driver.tracer.start("classify", request_id=request.id)
        with self._track_active(request) as active:
            pending = await self._submit(problem, priority, deadline, active, trace)
            outcome = await self._resolve(pending, trace)
        await send(result_frame(request.id, outcome.as_dict()))

    async def _stream_items(
        self,
        request: Request,
        problems: List[LCLProblem],
        send: _SendFrame,
        priority: str,
        deadline: Optional[float],
    ) -> List[Outcome]:
        """Stream one ``item`` frame per problem, in order; return the outcomes.

        One loop serves every backend: submit the next problem, then write
        every leading item whose outcome is already known; after the last
        submission, await the rest in order.  On a pooled backend uncached
        representatives fan out across the workers while hits stream at
        once; on ``inline`` each search runs inside its submission, so every
        item is written before the next search starts.  ``deadline`` bounds
        each problem's canonicalization and search; expired or cancelled
        keys stream as ``outcome: "timeout"``/``"cancelled"`` items while
        the rest of the request completes.  Problems reached after a
        ``cancel`` or once shutdown has begun are not submitted: they stream
        as ``cancelled`` with ``canonical_key: null``.  The loop yields after
        each submission and after each item written once all are submitted,
        since on-loop hits and a ready send would otherwise never suspend.
        """
        driver = self.driver
        driver.count_request()
        # Per-item traces under sub-ids "<request id>.<seq>", so any item of
        # a batch/census is individually retrievable via the `trace` op.
        traces: List[Optional[RequestTrace]] = [None] * len(problems)
        if driver.tracer.enabled:
            base = request.id if request.id is not None else new_request_id()
            traces = [
                driver.tracer.start(request.op, request_id=f"{base}.{seq}")
                for seq in range(len(problems))
            ]
        pendings: List[PendingClassification] = []
        outcomes: List[Outcome] = []

        async def write_next() -> None:
            seq = len(outcomes)
            outcome = await self._resolve(pendings[seq], traces[seq])
            await send(item_frame(request.id, seq, outcome.as_dict()))
            outcomes.append(outcome)

        with self._track_active(request) as active:
            for problem, trace in zip(problems, traces):
                if active.cancel_requested or self.shutting_down:
                    pending = PendingClassification(
                        problem, None, None, OUTCOME_CANCELLED
                    )
                else:
                    pending = await self._submit(
                        problem, priority, deadline, active, trace
                    )
                pendings.append(pending)
                while len(outcomes) < len(pendings) and pendings[len(outcomes)].done:
                    await write_next()
                await asyncio.sleep(0)
            while len(outcomes) < len(pendings):
                await write_next()
                await asyncio.sleep(0)
        return outcomes

    async def _handle_classify_batch(self, request: Request, send: _SendFrame) -> None:
        specs = request.params.get("problems")
        if not isinstance(specs, list) or not specs:
            raise RequestError(
                "classify_batch requires params.problems: a non-empty list"
            )
        priority, deadline = _request_options(request.params, "batch")
        # Resolve everything up front so malformed input yields one error
        # frame instead of a half-finished stream; in one executor hop, as
        # a long list would hold the loop.
        problems = await asyncio.get_running_loop().run_in_executor(
            None, _resolve_all, specs, "<request>"
        )
        outcomes = await self._stream_items(request, problems, send, priority, deadline)
        summary = summarize_outcomes(outcomes)
        summary["stats"] = self.driver.stats()
        await send(done_frame(request.id, summary))

    async def _handle_census(self, request: Request, send: _SendFrame) -> None:
        # `count` is unbounded, so the draws are made off the loop.
        problems, echo_params = await asyncio.get_running_loop().run_in_executor(
            None, census_problems, request.params
        )
        # A census is bulk background work: it defaults to the lowest
        # priority class so interactive classifies overtake its fan-out.
        priority, deadline = _request_options(request.params, "warm")
        outcomes = await self._stream_items(request, problems, send, priority, deadline)
        summary = summarize_outcomes(outcomes)
        summary["counts"] = tally_outcomes(outcomes)
        summary["params"] = echo_params
        summary["stats"] = self.driver.stats()
        await send(done_frame(request.id, summary))

    async def _handle_warm(self, request: Request, send: _SendFrame) -> None:
        """Pre-populate the cache with a future batch/census's canonical keys.

        ``params.problems`` (a list of problem specs) and/or ``params.census``
        (the census parameter object) name the workload.  One executor hop
        resolves the problem list and runs :meth:`LocalDriver.start_warm`,
        which submits every problem like a batch item.  With
        ``params.wait=true`` the scheduler futures are then awaited on the
        loop and the response is sent once they settle; otherwise it returns
        immediately and the cache fills (and persists) in the background.
        ``params.budget_ms`` is a wall-clock budget for the whole sweep,
        applied as each submission's deadline (it implies waiting).  The
        submissions are tracked, so ``cancel`` reaches a waiting warm by its
        request id.
        """
        params = request.params
        specs = params.get("problems")
        census = params.get("census")
        priority, deadline = _request_options(params, "warm")
        budget = _milliseconds(params, "budget_ms", positive=False)
        if specs is None and census is None:
            raise RequestError("warm requires params.problems or params.census")
        if specs is not None and (not isinstance(specs, list) or not specs):
            raise RequestError("warm params.problems must be a non-empty list")
        wait = bool(params.get("wait", False))

        def start() -> WarmSweep:
            problems = _resolve_all(specs, "<warm>") if specs is not None else []
            if census is not None and not isinstance(census, dict):
                raise RequestError("warm params.census must be an object")
            return self.driver.start_warm(
                problems, census, wait, priority, deadline, budget
            )

        with self._track_active(request) as active:
            sweep = await asyncio.get_running_loop().run_in_executor(None, start)
            for pending in sweep.pendings:
                active.track(pending)
            if sweep.waited:
                await self._settle(*sweep.entries)
        await send(result_frame(request.id, sweep.summary()))

    async def _handle_cancel(self, request: Request, send: _SendFrame) -> None:
        """Cancel an in-flight request by its id (from another connection).

        Requests are processed sequentially per connection, so a ``cancel``
        necessarily arrives on a *different* connection than the stream it
        targets (the CLI's ``client cancel`` opens one).  Every submission of
        the addressed request is detached from its search; searches with no
        remaining waiters are cancelled and release their worker.  Ids are
        client-chosen — when several connections share one id, all of them
        are cancelled.  An id with nothing in flight answers ``found: false``
        (cancellation is inherently racy, so a miss is not an error).  The
        ``cancelled`` count covers submissions detached *at response time*: a
        cancel that races the target's fan-out can report 0 yet still take
        effect, because the target cancels late-recorded submissions itself
        when it sees ``cancel_requested``.
        """
        target = _target_id(request)
        entries = list(self._active_requests.get(target, []))
        cancelled = sum(entry.cancel() for entry in entries)
        await send(
            result_frame(
                request.id,
                {"request_id": target, "found": bool(entries), "cancelled": cancelled},
            )
        )

    async def _handle_stats(self, request: Request, send: _SendFrame) -> None:
        await send(result_frame(request.id, self.driver.stats()))

    async def _handle_metrics(self, request: Request, send: _SendFrame) -> None:
        """The ``repro.metrics/1`` snapshot plus its Prometheus rendering.

        Both shapes travel in one frame so scrapers take the ``text`` field
        verbatim while programmatic clients keep the structured snapshot.
        """
        await send(result_frame(request.id, self.driver.metrics()))

    async def _handle_trace(self, request: Request, send: _SendFrame) -> None:
        """Fetch the finished span tree of ``params.request_id``, if retained."""
        await send(result_frame(request.id, self.driver.trace(_target_id(request))))

    async def _handle_shutdown(self, request: Request, send: _SendFrame) -> None:
        cache = self.driver.cache
        if cache.path:
            cache.save()  # the cache snapshots under its own lock
        await send(
            result_frame(request.id, {"ok": True, "cache_saved": bool(cache.path)})
        )
        self.request_shutdown()

    _HANDLERS = {
        "classify": _handle_classify,
        "classify_batch": _handle_classify_batch,
        "census": _handle_census,
        "warm": _handle_warm,
        "cancel": _handle_cancel,
        "stats": _handle_stats,
        "metrics": _handle_metrics,
        "trace": _handle_trace,
        "shutdown": _handle_shutdown,
    }

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (safe to call from the event loop)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    @property
    def shutting_down(self) -> bool:
        return self._shutdown_event is not None and self._shutdown_event.is_set()

    # ------------------------------------------------------------------
    # Connection loop (transport-independent)
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        readline: Callable[[], Awaitable[bytes]],
        send: _SendFrame,
    ) -> None:
        """Speak the protocol on one connection until EOF or shutdown."""
        await send(hello_frame())
        while not self.shutting_down:
            try:
                raw = await readline()
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            if not raw:
                break  # EOF: client went away
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            await self._dispatch_line(line, send)
            # Neither an on-loop hit nor a buffered next line suspends, so
            # without this a pipelining client would hold the loop.
            await asyncio.sleep(0)

    async def _dispatch_line(self, line: str, send: _SendFrame) -> None:
        """Validate and execute one request line, answering on ``send``."""
        try:
            request = decode_request(line)
        except ProtocolError as error:
            await send(error_frame(_best_effort_id(line), error))
            return
        try:
            await self._HANDLERS[request.op](self, request, send)
        except SessionError as error:
            # Session error codes are the wire's error codes.
            await send(error_frame(request.id, error))
        except Exception as error:  # noqa: BLE001 - protocol boundary
            internal = InternalError(f"{type(error).__name__}: {error}")
            await send(error_frame(request.id, internal))

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------
    async def serve_stdio(
        self,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
    ) -> None:
        """Serve one connection on text streams (default: ``sys.stdin/out``).

        Lines are read on executor threads, which works for pipes, terminals
        and regular files alike; writes flush per frame so clients see items
        as they stream.
        """
        import sys

        in_stream = stdin if stdin is not None else sys.stdin
        out_stream = stdout if stdout is not None else sys.stdout
        loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()

        async def readline() -> bytes:
            line = await loop.run_in_executor(None, in_stream.readline)
            return line.encode("utf-8")

        async def send(frame: Dict[str, Any]) -> None:
            out_stream.write(encode_frame(frame))
            out_stream.flush()

        try:
            await self._serve_connection(readline, send)
        finally:
            self.driver.close()

    async def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_callback: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        """Serve concurrent connections on ``host:port`` until shutdown.

        ``port=0`` binds an ephemeral port; the actual address is stored in
        :attr:`tcp_address` and passed to ``ready_callback`` once listening.
        """
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_tcp_connection, host, port, limit=MAX_LINE_BYTES
        )
        sockname = server.sockets[0].getsockname()
        self.tcp_address = (sockname[0], sockname[1])
        if ready_callback is not None:
            ready_callback(self.tcp_address)
        try:
            await self._shutdown_event.wait()
        finally:
            # The driver's close is the teardown rule: it cancels every
            # request still waited on, drains a background warm and saves
            # the cache.  It runs off the loop, so the handlers it releases
            # unwind meanwhile; idle ones leave readline() once their
            # transport closes.
            closing = asyncio.get_running_loop().run_in_executor(
                None, self.driver.close
            )
            for writer in list(self._writers):
                writer.close()
            if self._connection_tasks:
                await asyncio.wait(set(self._connection_tasks), timeout=5)
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
            await closing

    async def _handle_tcp_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.append(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)

        async def send(frame: Dict[str, Any]) -> None:
            writer.write(encode_frame(frame).encode("utf-8"))
            await writer.drain()

        try:
            await self._serve_connection(reader.readline, send)
        except (ConnectionError, ValueError):
            # Client vanished, or sent a line over MAX_LINE_BYTES —
            # StreamReader.readline surfaces the overrun as ValueError.
            pass
        finally:
            self._writers.remove(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class ThreadedService:
    """A live TCP :class:`ClassificationService` on a background thread.

    Intended for embedding in tests, benchmarks, and notebooks::

        with ThreadedService(cache=ClassificationCache(path=...)) as address:
            client = ServiceClient.connect_tcp(*address)

    The context manager starts the event loop thread, yields the bound
    ``(host, port)`` address, and shuts the service down on exit.
    """

    def __init__(
        self,
        cache: Optional[ClassificationCache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.service = ClassificationService(
            cache=cache, backend=backend, workers=workers
        )
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        """Start serving; block until the socket is bound; return the address."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()

            def on_ready(address: Tuple[str, int]) -> None:
                self.address = address
                self._ready.set()

            await self.service.serve_tcp(self._host, self._port, on_ready)

        try:
            asyncio.run(main())
        finally:
            self._ready.set()  # unblock start() even if binding failed

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown and join the event loop thread."""
        if self._thread is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def _best_effort_id(line: str) -> Any:
    """Extract the request id from a malformed request line, if any."""
    try:
        frame = decode_frame(line)
    except ProtocolError:
        return None
    request_id = frame.get("id")
    return request_id if isinstance(request_id, (str, int)) else None
