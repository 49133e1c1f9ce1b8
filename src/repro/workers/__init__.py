"""Parallel execution subsystem: worker backends + single-flight scheduling.

The exponential certificate searches dominate every census; this package
decides *where* they run, *in what order*, and *for how long*, and guarantees
each distinct canonical problem is searched **at most once at a time**,
however many callers ask for it:

* :mod:`repro.workers.backends` — pluggable execution backends behind one
  ``submit() -> Future`` interface: ``inline`` (synchronous, the classic
  serial path), ``threads`` (concurrent in-process execution, the service
  default), and ``processes`` (true CPU parallelism for cold censuses),
  selected by ``--worker-backend``/``--workers`` on the CLI.  The
  deadline-aware edge is :meth:`~repro.workers.backends.WorkerBackend.submit_task`,
  which installs a :class:`~repro.core.cancellation.CancelToken` where the
  task runs and returns a :class:`~repro.workers.backends.TaskHandle` whose
  ``kill()`` hard-terminates deadline-carrying ``processes`` searches.
* :mod:`repro.workers.scheduler` — :class:`ClassificationScheduler`, the
  canonical-keyed job scheduler with single-flight deduplication, a
  priority heap (``interactive`` > ``batch`` > ``warm``, admission-limited
  to the backend's worker count), per-submission deadlines enforced by a
  monitor thread, and per-waiter cancellation (cancelling the last waiter
  cancels the search and releases its slot).  Expired/cancelled searches
  are recorded as ``timeouts``/``cancelled`` in the live stats and never
  stored in the shared :class:`~repro.engine.cache.ClassificationCache`.
  A warm sweep (the service's ``warm`` operation and ``python -m repro
  warm``) is ordinary submissions at the ``warm`` priority, made by
  :meth:`~repro.api.session.LocalDriver.start_warm`.

Every classification — a local session's and the service's alike, through
:class:`~repro.api.session.LocalDriver` — routes its search execution
through this package; nothing holds a process-wide work lock.
"""

from ..core.cancellation import (
    CancelToken,
    SearchCancelled,
    SearchInterrupted,
    SearchTimeout,
)
from .backends import (
    BACKEND_NAMES,
    DEFAULT_WORKERS,
    InlineBackend,
    ProcessBackend,
    TaskHandle,
    ThreadBackend,
    WorkerBackend,
    create_backend,
    usable_cpus,
)
from .metrics import BUCKET_BOUNDS_MS, SearchTimeStats
from .scheduler import (
    DEFAULT_PRIORITY,
    JOB_CACHE_HIT,
    JOB_SCHEDULED,
    JOB_SHARED,
    PRIORITIES,
    PRIORITY_RANK,
    ClassificationJob,
    ClassificationScheduler,
    SchedulerStats,
    execute_search,
    validate_priority,
)

__all__ = [
    "BACKEND_NAMES",
    "BUCKET_BOUNDS_MS",
    "CancelToken",
    "ClassificationJob",
    "ClassificationScheduler",
    "DEFAULT_PRIORITY",
    "DEFAULT_WORKERS",
    "InlineBackend",
    "JOB_CACHE_HIT",
    "JOB_SCHEDULED",
    "JOB_SHARED",
    "PRIORITIES",
    "PRIORITY_RANK",
    "ProcessBackend",
    "SchedulerStats",
    "SearchCancelled",
    "SearchTimeStats",
    "SearchInterrupted",
    "SearchTimeout",
    "TaskHandle",
    "ThreadBackend",
    "WorkerBackend",
    "create_backend",
    "execute_search",
    "usable_cpus",
    "validate_priority",
]
