"""Execution backends for the parallel classification scheduler.

A :class:`WorkerBackend` turns a picklable/callable task into a
:class:`concurrent.futures.Future`.  Three implementations cover the
trade-off space of the exponential certificate searches:

* :class:`InlineBackend` — runs the task synchronously in the caller's
  thread and returns an already-resolved future.  Zero overhead, zero
  concurrency: the behavior of the pre-workers engine, and the default of
  ``local://`` sessions (``local://inline``).
* :class:`ThreadBackend` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  The searches are pure-Python and hold the GIL, so threads buy *concurrency*
  (many requests in flight, streaming stays live, single-flight dedup gets a
  window to merge duplicates) rather than CPU parallelism.  This is the
  service default: it removes head-of-line blocking between independent
  requests without process-spawn cost.
* :class:`ProcessBackend` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  True CPU parallelism for cold, duplicate-poor workloads; tasks and results
  cross the process boundary as plain dicts (:mod:`repro.engine.serialization`).
  When the platform cannot spawn workers (sandboxes without ``/dev/shm`` or
  fork rights), submitted tasks transparently degrade to inline execution
  instead of failing the job.

Cancellation and deadlines
--------------------------
:meth:`WorkerBackend.submit_task` is the deadline-aware edge used by the
scheduler: it takes an optional :class:`~repro.core.cancellation.CancelToken`
and returns a :class:`TaskHandle` (a future plus a best-effort ``kill()``).
Each backend maps the token onto its own execution model:

* ``inline`` and ``threads`` install the token as the executing thread's
  *cancel scope* (:func:`repro.core.cancellation.cancel_scope`); the search
  loops poll it via ``checkpoint()`` and unwind cooperatively.  ``kill()``
  can only prevent a still-queued thread task (``Future.cancel``) — a running
  one stops at its next checkpoint.
* ``processes`` runs tasks marked ``killable`` (the scheduler marks searches
  whose creating submission carries a deadline) on a **dedicated,
  hard-killable** :class:`multiprocessing.Process` instead of the shared
  pool: the child installs a cancel scope armed with the token's remaining
  budget and a shared ``multiprocessing.Event`` mirror of the cancel flag,
  and ``kill()`` simply terminates the child — the only way to reclaim a
  worker from a search that never reaches a checkpoint.  Everything else
  keeps using the warm pool (a cancel there only detaches the waiters; the
  pool worker finishes and the result is discarded).

:func:`create_backend` maps the CLI/service spelling (``--worker-backend
inline|threads|processes``, ``--workers N``) onto an instance.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Optional, Tuple

from ..core.cancellation import (
    CancelToken,
    SearchCancelled,
    SearchTimeout,
    TIMEOUT,
    cancel_scope,
)

BACKEND_NAMES: Tuple[str, ...] = ("inline", "threads", "processes")
"""Valid ``--worker-backend`` spellings, in increasing order of parallelism."""


def usable_cpus() -> int:
    """CPUs this process may actually be scheduled on.

    ``sched_getaffinity`` respects cpuset/affinity masks (``taskset``,
    Kubernetes cpusets) that ``os.cpu_count()`` ignores, making it the less
    dishonest pool-sizing number on shared hosts.  CFS bandwidth quotas
    (``docker run --cpus=N``) are visible to neither call.  Falls back to
    ``cpu_count`` on platforms without affinity support.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


DEFAULT_WORKERS = max(usable_cpus(), 1)
"""Worker count used when a pool backend is requested without ``--workers``."""


class TaskHandle:
    """A running (or finished) backend task: its future plus best-effort kill.

    ``kill()`` uses the backend-specific hard kill when one exists
    (terminating the dedicated process of a cancellable ``processes`` task —
    its watcher thread then resolves the future with the token's verdict);
    otherwise it falls back to preventing a not-yet-started task
    (``Future.cancel``).  It returns ``True`` when the task was positively
    stopped; ``False`` means the task keeps running until it observes its
    cancel token at a checkpoint (the cooperative backends) or completes.
    """

    __slots__ = ("future", "_kill")

    def __init__(
        self, future: "Future[Any]", kill: Optional[Callable[[], bool]] = None
    ) -> None:
        self.future = future
        self._kill = kill

    def kill(self) -> bool:
        if self._kill is not None:
            # The hard kill owns the future's resolution: do NOT cancel the
            # future here, or the real terminate would be skipped and the
            # watcher would race an already-cancelled future.
            return self._kill()
        return self.future.cancel()


class WorkerBackend:
    """Interface of an execution backend: submit tasks, expose capacity."""

    name: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Run ``fn(*args)`` on the backend; return a future for its result."""
        raise NotImplementedError

    def submit_task(
        self,
        fn: Callable[..., Any],
        *args: Any,
        token: Optional[CancelToken] = None,
        killable: bool = False,
    ) -> TaskHandle:
        """Run ``fn(*args)`` under ``token``'s cancel scope; return a handle.

        ``killable=True`` asks for hard-kill support where the backend can
        provide it (the ``processes`` backend then uses a dedicated
        terminable worker instead of its pool); cooperative backends ignore
        the hint.  The default implementation ignores the token too (backends
        that cannot propagate one still execute the task); the concrete
        backends override it to install the scope where the task runs.
        """
        return TaskHandle(self.submit(fn, *args))

    def probe(self) -> None:
        """Eagerly verify the backend can actually execute work.

        Pool backends that initialize lazily (``processes``) spawn their
        workers here, so the first request does not pay the spawn.  A no-op
        for backends with nothing to spawn.
        """

    def close(self) -> None:
        """Release pool resources.  Safe to call twice; inline is a no-op."""

    def describe(self) -> dict:
        """JSON-friendly configuration of this backend (for stats frames)."""
        return {"backend": self.name, "workers": self.workers}

    def __enter__(self) -> "WorkerBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class InlineBackend(WorkerBackend):
    """Synchronous execution in the submitting thread (no pool at all)."""

    name = "inline"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers=1)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - future carries it
            future.set_exception(error)
        return future

    def submit_task(
        self,
        fn: Callable[..., Any],
        *args: Any,
        token: Optional[CancelToken] = None,
        killable: bool = False,
    ) -> TaskHandle:
        future: "Future[Any]" = Future()
        if token is not None:
            token.started_at = time.monotonic()
        try:
            with cancel_scope(token):
                future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - future carries it
            future.set_exception(error)
        return TaskHandle(future)


def _run_in_scope(fn: Callable[..., Any], args: Tuple[Any, ...], token: Optional[CancelToken]) -> Any:
    """Execute ``fn(*args)`` with ``token`` installed on the worker thread."""
    if token is not None:
        # Stamp when the task actually starts running (queue time excluded) —
        # the tracing layer turns this into the admitted→running gap.
        token.started_at = time.monotonic()
    with cancel_scope(token):
        return fn(*args)


class ThreadBackend(WorkerBackend):
    """A thread pool: concurrent (GIL-interleaved) in-process execution."""

    name = "threads"

    def __init__(self, workers: int = DEFAULT_WORKERS) -> None:
        super().__init__(workers=workers)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-worker"
        )

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        return self._executor.submit(fn, *args)

    def submit_task(
        self,
        fn: Callable[..., Any],
        *args: Any,
        token: Optional[CancelToken] = None,
        killable: bool = False,
    ) -> TaskHandle:
        return TaskHandle(self._executor.submit(_run_in_scope, fn, args, token))

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def _killable_child(
    conn: Any,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    budget: Optional[float],
    flag: Any,
) -> None:
    """Entry point of a dedicated killable worker process.

    Installs a cancel scope rebuilt from the parent token's *remaining*
    budget and the shared ``multiprocessing.Event`` flag, so the child both
    times itself out cooperatively and observes explicit cancellation — the
    parent's ``terminate()`` is only the backstop for searches that never
    reach a checkpoint.  The result (or the exception) is shipped back over
    ``conn``; unpicklable exceptions degrade to a ``RuntimeError`` repr.
    """
    deadline = time.monotonic() + budget if budget is not None else None
    token = CancelToken(deadline=deadline, flag=flag)
    try:
        with cancel_scope(token):
            result = fn(*args)
        payload: Tuple[str, Any] = ("ok", result)
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        payload = ("error", error)
    try:
        conn.send(payload)
    except Exception:  # noqa: BLE001 - e.g. unpicklable exception instance
        conn.send(("error", RuntimeError(repr(payload[1]))))
    finally:
        conn.close()


class ProcessBackend(WorkerBackend):
    """A process pool: true CPU parallelism for the certificate searches.

    The pool is created lazily on first submit, so merely opening a session
    with ``--worker-backend processes`` costs nothing until a cold
    representative actually needs a search.  If the pool cannot be created or
    breaks (sandboxed environments), tasks fall back to inline execution and
    :attr:`degraded` is set — the job still completes, just without
    parallelism.

    Tasks submitted with a cancel token run on a dedicated
    :class:`multiprocessing.Process` instead of the pool (see
    :func:`_killable_child`): the process boundary is the one place where a
    *hard* kill is possible, and a per-search process is what lets
    ``kill()`` reclaim the worker from a search that never checkpoints.
    """

    name = "processes"

    # How often the watcher thread of a killable task polls for its result
    # and for cancellation.  Bounds the latency between `token.cancel()` and
    # the terminate() backstop.
    _POLL_SECONDS = 0.05

    def __init__(self, workers: int = DEFAULT_WORKERS) -> None:
        super().__init__(workers=workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False
        self.degraded = False

    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed ProcessBackend")
            if self.degraded:
                return None
            if self._executor is None:
                try:
                    self._executor = ProcessPoolExecutor(max_workers=self.workers)
                except (OSError, ValueError):  # pragma: no cover - sandboxing
                    self.degraded = True
                    return None
            return self._executor

    def probe(self) -> None:
        """Spawn the pool and run one trivial task through it.

        After this returns the workers are up and :attr:`degraded` is
        accurate; the service probes at startup, so its first request does
        not pay the spawn.
        """
        self.submit(int).result(timeout=300)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        executor = self._ensure_executor()
        if executor is None:  # pragma: no cover - sandboxing
            return InlineBackend().submit(fn, *args)
        try:
            inner = executor.submit(fn, *args)
        except (RuntimeError, BrokenExecutor):  # pragma: no cover - pool died
            self.degraded = True
            return InlineBackend().submit(fn, *args)
        proxy: "Future[Any]" = Future()

        def relay(done: "Future[Any]") -> None:
            error = done.exception()
            if isinstance(error, (BrokenExecutor, OSError)):
                # The pool broke underneath the task (worker killed, spawn
                # denied): degrade to inline so the job is not lost.
                self.degraded = True  # pragma: no cover - sandboxing
                try:  # pragma: no cover
                    proxy.set_result(fn(*args))
                except BaseException as inline_error:  # noqa: BLE001
                    proxy.set_exception(inline_error)
            elif error is not None:
                proxy.set_exception(error)
            else:
                proxy.set_result(done.result())

        inner.add_done_callback(relay)
        return proxy

    def submit_task(
        self,
        fn: Callable[..., Any],
        *args: Any,
        token: Optional[CancelToken] = None,
        killable: bool = False,
    ) -> TaskHandle:
        if token is None or not killable:
            # Plain searches keep the warm pool (and its reuse).  A token
            # cannot cross into pool workers, so cancelling such a task only
            # detaches its waiters: the pool worker finishes the search and
            # the result is discarded (documented zombie).
            return TaskHandle(self.submit(fn, *args))
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed ProcessBackend")
            degraded = self.degraded
        if degraded:  # pragma: no cover - sandboxing
            return InlineBackend().submit_task(fn, *args, token=token)
        try:
            return self._spawn_killable(fn, args, token)
        except OSError:  # pragma: no cover - sandboxing
            self.degraded = True
            return InlineBackend().submit_task(fn, *args, token=token)

    def _spawn_killable(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], token: CancelToken
    ) -> TaskHandle:
        """One dedicated, terminable process for one cancellable search."""
        receiver, sender = multiprocessing.Pipe(duplex=False)
        flag = multiprocessing.Event()
        if token.cancelled:
            flag.set()
        process = multiprocessing.Process(
            target=_killable_child,
            args=(sender, fn, args, token.remaining(), flag),
            daemon=True,
        )
        token.started_at = time.monotonic()  # parent-side approximation
        process.start()
        sender.close()  # the parent only reads; EOF then means "child died"
        future: "Future[Any]" = Future()

        def kill() -> bool:
            token.cancel()
            flag.set()
            if process.is_alive():
                process.terminate()
            return True

        def resolve(action: Callable[[], None]) -> None:
            # The future is normally ours alone to resolve, but guard anyway:
            # racing a stray cancellation must not crash the watcher thread.
            try:
                action()
            except Exception:  # pragma: no cover - InvalidStateError race
                pass

        def watch() -> None:
            payload: Optional[Tuple[str, Any]] = None
            while True:
                if token.cancelled and not flag.is_set():
                    flag.set()  # mirror a cancel the parent token saw first
                try:
                    if receiver.poll(self._POLL_SECONDS):
                        payload = receiver.recv()
                        break
                except (EOFError, OSError):
                    break  # child died without reporting (killed or crashed)
                if not process.is_alive() and not receiver.poll(0):
                    break
            receiver.close()
            process.join(timeout=30)
            if payload is None:
                # No result crossed the pipe: the child was terminated (or
                # crashed).  Surface the token's verdict so the scheduler
                # records the right outcome.
                if token.reason == TIMEOUT or token.expired:
                    resolve(lambda: future.set_exception(SearchTimeout()))
                elif token.cancelled:
                    resolve(lambda: future.set_exception(SearchCancelled()))
                else:
                    resolve(
                        lambda: future.set_exception(
                            RuntimeError(
                                "search worker died with exit code "
                                f"{process.exitcode}"
                            )
                        )
                    )
                return
            kind, value = payload
            if kind == "ok":
                resolve(lambda: future.set_result(value))
            else:
                resolve(lambda: future.set_exception(value))

        watcher = threading.Thread(target=watch, daemon=True, name="repro-killer")
        watcher.start()
        return TaskHandle(future, kill=kill)

    def describe(self) -> dict:
        payload = super().describe()
        payload["degraded"] = self.degraded
        return payload

    def close(self) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._closed = True  # submits after close error out, like threads
        if executor is not None:
            executor.shutdown(wait=True)


def create_backend(name: Optional[str], workers: Optional[int] = None) -> WorkerBackend:
    """Build a backend from its CLI spelling.

    ``name=None`` means :class:`InlineBackend` — except that asking for more
    than one worker implies a pool, in which case threads are chosen (the
    cheap concurrent default).  ``workers=None`` sizes pools to the machine
    (:data:`DEFAULT_WORKERS`).
    """
    if name is None:
        name = "threads" if workers is not None and workers > 1 else "inline"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown worker backend {name!r} (known: {', '.join(BACKEND_NAMES)})"
        )
    if name == "inline":
        return InlineBackend()
    pool_workers = workers if workers is not None else DEFAULT_WORKERS
    if name == "threads":
        return ThreadBackend(workers=pool_workers)
    return ProcessBackend(workers=pool_workers)
