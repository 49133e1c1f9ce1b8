"""Execution backends for the parallel classification scheduler.

A :class:`WorkerBackend` runs a picklable/callable task under a cancel token
and returns a :class:`concurrent.futures.Future` for its result.  Three
implementations cover the trade-off space of the exponential certificate
searches:

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
* :class:`ProcessBackend` — a thread pool whose threads each drive one
  long-lived worker process.  True CPU parallelism for cold, duplicate-poor
  workloads; tasks and results cross the process boundary as plain dicts
  (:mod:`repro.engine.serialization`).  When the platform cannot start a
  worker (sandboxes without fork rights), the task runs on its pool thread
  instead of failing the job.

Cancellation and deadlines
--------------------------
:meth:`WorkerBackend.submit_task` takes an optional
:class:`~repro.core.cancellation.CancelToken`; cancelling the returned future
only stops a task that has not started.  Each backend maps the token onto its
own execution model:

* ``inline`` and ``threads`` install the token as the executing thread's
  *cancel scope* (:func:`repro.core.cancellation.cancel_scope`); the search
  loops poll it via ``checkpoint()`` and unwind cooperatively, so a running
  search stops at its next checkpoint.
* ``processes`` runs the task in a worker process with no cancel scope, while
  the pool thread waits for the reply and checks the token every
  :attr:`ProcessBackend._POLL_SECONDS`.  Once the token is cancelled or
  expired, the thread terminates the worker, which the next task replaces,
  and fails the task with :class:`SearchTimeout` or :class:`SearchCancelled`.
  So every search on ``processes`` stops within one poll of its cancel, even
  one that never reaches a checkpoint.

:func:`create_backend` maps the CLI/service spelling (``--worker-backend
inline|threads|processes``, ``--workers N``) onto an instance.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
from concurrent.futures import Future, ThreadPoolExecutor
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


class WorkerBackend:
    """Interface of an execution backend: submit tasks, expose capacity."""

    name: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def submit_task(
        self,
        fn: Callable[..., Any],
        *args: Any,
        token: Optional[CancelToken] = None,
    ) -> "Future[Any]":
        """Run ``fn(*args)`` under ``token``; return a future for its result.

        A running task stops when it sees ``token`` cancelled or expired (see
        the module docstring); ``future.cancel()`` only stops one that has not
        started.  Pool backends raise ``RuntimeError`` after :meth:`close`.
        """
        raise NotImplementedError

    def probe(self) -> None:
        """Eagerly verify the backend can actually execute work.

        ``processes`` starts its workers here, so the first request does not
        pay the spawn.  A no-op for backends with nothing to spawn.
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


def _run_in_scope(fn: Callable[..., Any], args: Tuple[Any, ...], token: Optional[CancelToken]) -> Any:
    """Execute ``fn(*args)`` with ``token`` installed on the current thread."""
    with cancel_scope(token):
        return fn(*args)


class InlineBackend(WorkerBackend):
    """Synchronous execution in the submitting thread (no pool at all)."""

    name = "inline"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers=1)

    def submit_task(
        self,
        fn: Callable[..., Any],
        *args: Any,
        token: Optional[CancelToken] = None,
    ) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(_run_in_scope(fn, args, token))
        except BaseException as error:  # noqa: BLE001 - future carries it
            future.set_exception(error)
        return future


class ThreadBackend(WorkerBackend):
    """A thread pool: concurrent (GIL-interleaved) in-process execution."""

    name = "threads"

    def __init__(self, workers: int = DEFAULT_WORKERS) -> None:
        super().__init__(workers=workers)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-worker"
        )

    def submit_task(
        self,
        fn: Callable[..., Any],
        *args: Any,
        token: Optional[CancelToken] = None,
    ) -> "Future[Any]":
        return self._executor.submit(self._run, fn, args, token)

    def _run(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], token: Optional[CancelToken]
    ) -> Any:
        """Execute one task on a pool thread."""
        return _run_in_scope(fn, args, token)

    def close(self) -> None:
        self._executor.shutdown(wait=True)


_Worker = Tuple[Any, Any]
"""A worker process and the parent's end of its pipe."""


def _serve(conn: Any) -> None:
    """Main loop of a worker process: run each task it is sent, until ``None``.

    Tasks run with no cancel scope, so a ``checkpoint()`` is one thread-local
    read: the parent stops a search by terminating this process.  Each reply
    is ``("ok", value)`` or ``("error", exception)``; a value or exception
    that cannot be pickled degrades to a ``RuntimeError`` of its repr.
    """
    while True:
        task = conn.recv()
        if task is None:
            return
        fn, args = task
        try:
            reply: Tuple[str, Any] = ("ok", fn(*args))
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            reply = ("error", error)
        try:
            conn.send(reply)
        except Exception:  # noqa: BLE001 - e.g. unpicklable exception instance
            conn.send(("error", RuntimeError(repr(reply[1]))))


def _stop(worker: _Worker, grace: float = 0.0) -> None:
    """Kill a worker process and close the parent's end of its pipe.

    With a ``grace``, the worker is first sent its stop message and given that
    long to exit.  It has to be told: under ``fork`` every later worker holds
    a copy of the parent's end, so closing that end gives the worker no EOF.
    The kill is ``SIGKILL``, which no signal handler inherited through
    ``fork`` can catch, so the join always returns.
    """
    process, conn = worker
    if grace:
        try:
            conn.send(None)
        except OSError:
            pass  # already dead
        process.join(grace)
    process.kill()  # a no-op once the worker has exited
    process.join()
    conn.close()


class ProcessBackend(ThreadBackend):
    """A thread pool whose threads each drive one long-lived worker process.

    A pool thread takes an idle worker (or starts one), sends it the task
    over its pipe and waits for the reply, checking the task's token and the
    worker's life every :attr:`_POLL_SECONDS`.  A worker that answers goes
    back to the idle queue.  A worker whose task is cancelled or expired is
    terminated, and one that dies mid-task fails its task with a
    ``RuntimeError``; either way the next task starts a fresh one.

    Workers start on first use (or in :meth:`probe`), so opening a session
    with ``--worker-backend processes`` costs nothing until a cold
    representative needs a search.  If a worker cannot start (sandboxed
    environments), :attr:`degraded` is set and tasks run on the pool thread
    under their token's cancel scope: the job still completes, just without
    parallelism.
    """

    name = "processes"

    # How often a waiting pool thread checks its task's token and worker.
    # Bounds the latency between a cancel and the worker's termination.
    _POLL_SECONDS = 0.05

    # How long close() gives an idle worker to exit on its stop message
    # before killing it.
    _STOP_GRACE_SECONDS = 1.0

    def __init__(self, workers: int = DEFAULT_WORKERS) -> None:
        super().__init__(workers=workers)
        self._idle: "queue.SimpleQueue[_Worker]" = queue.SimpleQueue()
        self.degraded = False

    def _take_worker(self) -> Optional[_Worker]:
        """An idle worker, else a new one; ``None`` when none can start."""
        try:
            return self._idle.get_nowait()
        except queue.Empty:
            pass
        if self.degraded:
            return None
        try:
            conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_serve, args=(child_conn,), daemon=True, name="repro-search"
            )
            process.start()
        except OSError:  # pragma: no cover - sandboxing
            self.degraded = True
            return None
        child_conn.close()
        return process, conn

    def _run(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], token: Optional[CancelToken]
    ) -> Any:
        worker = self._take_worker()
        if worker is None:  # pragma: no cover - sandboxing
            return _run_in_scope(fn, args, token)
        process, conn = worker
        try:
            conn.send((fn, args))
            while not conn.poll(self._POLL_SECONDS):
                if token is not None and (token.cancelled or token.expired):
                    if token.reason == TIMEOUT or token.expired:
                        raise SearchTimeout()
                    raise SearchCancelled()
                if not process.is_alive():
                    # Dead, but a later worker may hold the pipe open: no EOF.
                    raise EOFError
            kind, value = conn.recv()
        except (EOFError, OSError):
            _stop(worker)
            raise RuntimeError(
                f"search worker died with exit code {process.exitcode}"
            ) from None
        except BaseException:  # cancelled, expired, or the task cannot pickle
            _stop(worker)
            raise
        self._idle.put(worker)
        if kind == "error":
            raise value
        return value

    def probe(self) -> None:
        """Start every worker and run one trivial task on each.

        After this returns the workers are up and :attr:`degraded` is
        accurate; the service probes at startup, so its first request does
        not pay the spawn.
        """
        workers = [self._take_worker() for _ in range(self.workers)]
        for worker in workers:
            if worker is not None:
                self._idle.put(worker)
        for _ in workers:
            self._run(int, (), None)  # the idle queue is FIFO: one per worker

    def describe(self) -> dict:
        payload = super().describe()
        payload["degraded"] = self.degraded
        return payload

    def close(self) -> None:
        """Wait for running tasks, then stop every idle worker."""
        super().close()
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                return
            _stop(worker, self._STOP_GRACE_SECONDS)


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
