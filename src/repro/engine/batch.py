"""Batch classification: dedupe by canonical form, classify once, translate back.

:class:`BatchClassifier` is the amortizing front-end to the (exponential-time)
certificate searches of :mod:`repro.core.classifier`.  Given a stream of
problems it

1. computes every problem's canonical form (:mod:`repro.engine.canonical`),
2. deduplicates the stream by canonical key — one *representative* per
   renaming orbit,
3. routes representatives whose key is not already cached through a
   :class:`~repro.workers.scheduler.ClassificationScheduler`, which executes
   the full decision procedure on a pluggable worker backend (``inline``,
   ``threads``, or ``processes`` — see :mod:`repro.workers`) with
   single-flight deduplication against concurrently running searches,
4. lets the scheduler store each fresh result in the cache *in canonical
   labels*, and
5. answers every submitted problem by translating the cached canonical result
   back through that problem's own label bijection.

Because results are stored in canonical labels and translated per caller, a
cache hit on the *same* problem reproduces the fresh classification exactly;
a hit on a merely *isomorphic* problem yields an equally valid result whose
certificate label sets are the bijective image of the representative's.

The classifier is safe to call from many threads at once (the service does):
statistics are mutex-guarded, the cache locks internally, and the scheduler
guarantees one search per canonical key however many callers race on it.
:meth:`submit_item` exposes the asynchronous edge — submit now, fan work out,
stream each :class:`BatchItem` as its future resolves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.cancellation import CancelToken, SearchInterrupted, cancel_scope
from ..core.complexity import ClassificationResult
from ..core.problem import LCLProblem
from ..workers.backends import WorkerBackend, create_backend
from ..workers.scheduler import (
    DEFAULT_PRIORITY,
    JOB_SCHEDULED,
    ClassificationJob,
    ClassificationScheduler,
)
from .cache import CacheStats, ClassificationCache
from .canonical import CanonicalForm, canonical_form
from .serialization import relabel_result, result_from_dict

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CANCELLED = "cancelled"


@dataclass(frozen=True)
class BatchItem:
    """Classification of one submitted problem inside a batch.

    ``outcome`` is ``"ok"`` for a completed classification; a submission
    whose deadline expired or that was cancelled yields ``"timeout"`` or
    ``"cancelled"`` with ``result=None`` — the search was interrupted, so
    there is no (and never will be a cached) answer for it.
    ``canonical_key`` is ``None`` when the interruption came while the
    problem was still being canonicalized.
    """

    problem: LCLProblem
    canonical_key: Optional[str]
    result: Optional[ClassificationResult]
    from_cache: bool
    elapsed_seconds: float = 0.0
    outcome: str = OUTCOME_OK

    @property
    def ok(self) -> bool:
        """Whether the classification completed (``result`` is present)."""
        return self.outcome == OUTCOME_OK


@dataclass
class BatchStats:
    """Work accounting of a :class:`BatchClassifier`.

    ``full_searches`` counts actual runs of the complete decision procedure;
    the gap between it and ``submitted`` is the work amortized away by
    canonical deduplication, caching, and single-flight sharing.
    """

    submitted: int = 0
    full_searches: int = 0

    @property
    def amortized(self) -> int:
        """Problems answered without running the decision procedure."""
        return self.submitted - self.full_searches

    @property
    def speedup(self) -> float:
        """Ratio of submitted problems to full searches (1.0 when no sharing)."""
        if not self.full_searches:
            return float(self.submitted) if self.submitted else 1.0
        return self.submitted / self.full_searches

    def as_dict(self) -> Dict[str, Any]:
        """The statistics as a JSON-friendly dictionary."""
        return {
            "submitted": self.submitted,
            "full_searches": self.full_searches,
            "amortized": self.amortized,
            "speedup": self.speedup,
        }


def _key_counts(forms: Iterable[CanonicalForm]) -> Dict[str, int]:
    """Occurrences of each canonical key in a batch."""
    counts: Dict[str, int] = {}
    for form in forms:
        counts[form.key] = counts.get(form.key, 0) + 1
    return counts


def _canonicalize(
    problem: LCLProblem, deadline: Optional[float]
) -> Tuple[Optional[CanonicalForm], Optional[CancelToken], str]:
    """Canonicalize ``problem`` within a ``deadline`` budget in seconds.

    Returns ``(form, token, "ok")`` — ``token`` carries the budget and is
    ``None`` without one — or ``(None, None, outcome)`` when the cancel scope
    tripped first, with ``outcome`` ``"timeout"`` or ``"cancelled"``.
    """
    try:
        if deadline is None:  # the common case: skip the scope's set-up
            return canonical_form(problem), None, OUTCOME_OK
        token = CancelToken.with_budget(deadline)
        with cancel_scope(token):
            return canonical_form(problem), token, OUTCOME_OK
    except SearchInterrupted as interrupted:
        return None, None, interrupted.outcome


def _unspent(token: Optional[CancelToken]) -> Optional[float]:
    """The budget left for the scheduler after canonicalizing under ``token``."""
    return token.remaining() if token is not None else None


def _interrupted_item(
    problem: LCLProblem, key: Optional[str], outcome: str
) -> BatchItem:
    return BatchItem(
        problem=problem,
        canonical_key=key,
        result=None,
        from_cache=False,
        outcome=outcome,
    )


def _item_from_payload(
    form: CanonicalForm, payload: Mapping[str, Any], from_cache: bool
) -> BatchItem:
    """Translate a canonical-label payload into the submitter's alphabet."""
    canonical_result = result_from_dict(payload)
    return BatchItem(
        problem=form.problem,
        canonical_key=form.key,
        result=relabel_result(canonical_result, form.inverse),
        from_cache=from_cache,
        elapsed_seconds=0.0 if from_cache else payload.get("elapsed_seconds", 0.0),
    )


@dataclass(frozen=True)
class PendingClassification:
    """A submitted problem whose search may still be running.

    Returned by :meth:`BatchClassifier.submit_item`; :meth:`result` blocks
    until the underlying scheduler job resolves and translates the canonical
    payload back through this problem's bijection.  A deadline expiry or
    cancellation does **not** raise: it yields a :class:`BatchItem` whose
    ``outcome`` is ``"timeout"``/``"cancelled"`` and whose ``result`` is
    ``None``, so batch consumers can stream partial failures item by item.
    Genuine search errors still propagate as exceptions.

    ``form`` and ``job`` are ``None`` when canonicalization itself was
    interrupted: there was no key to look up or schedule, and ``outcome``
    says why.
    """

    problem: LCLProblem
    form: Optional[CanonicalForm]
    job: Optional[ClassificationJob]
    outcome: str = OUTCOME_OK

    @property
    def done(self) -> bool:
        return self.job is None or self.job.done

    @property
    def from_cache(self) -> bool:
        """Whether this submission was answered without starting a search."""
        return self.job is not None and self.job.kind != JOB_SCHEDULED

    def cancel(self) -> bool:
        """Detach this submission from its search (see ``ClassificationJob``)."""
        return self.job is not None and self.job.cancel()

    def result(self, timeout: Optional[float] = None) -> BatchItem:
        """Block until classified; raise what the search raised on failure."""
        if self.job is None:
            return _interrupted_item(self.problem, None, self.outcome)
        try:
            payload = self.job.result(timeout=timeout)
        except SearchInterrupted as interrupted:
            return _interrupted_item(self.problem, self.form.key, interrupted.outcome)
        return _item_from_payload(self.form, payload, from_cache=self.from_cache)


class BatchClassifier:
    """Canonical-form-deduplicating, caching classifier front-end.

    .. deprecated:: 1.2
        Constructing a ``BatchClassifier`` directly is the *legacy* front
        door.  New code should open a :class:`repro.api.ClassificationSession`
        (``repro.api.connect("local://threads?workers=8")``), which absorbs
        the ``cache``/``backend``/``workers`` kwargs into one endpoint and
        returns the uniform :class:`~repro.api.Outcome` type.  This class
        remains supported as the session's local execution engine.

    Parameters
    ----------
    cache:
        The :class:`ClassificationCache` to consult and fill.  A fresh
        in-memory cache is created when omitted.
    backend:
        Name of the worker backend executing uncached searches — ``"inline"``
        (default: synchronous, zero overhead), ``"threads"``, or
        ``"processes"`` — or an already-built
        :class:`~repro.workers.backends.WorkerBackend` instance.
    workers:
        Pool size for ``threads``/``processes`` backends (default: CPU count).
    scheduler:
        An existing :class:`ClassificationScheduler` to share (its cache wins
        over the ``cache`` argument).  Lets several classifiers — or a service
        — pool their single-flight tables and worker processes.
    """

    def __init__(
        self,
        cache: Optional[ClassificationCache] = None,
        backend: Optional[Any] = None,
        workers: Optional[int] = None,
        scheduler: Optional[ClassificationScheduler] = None,
    ) -> None:
        # close() only tears down resources this classifier created: an
        # injected scheduler — or an injected backend instance — is shared
        # property, and whoever built it decides when to close it.
        self._owns_scheduler = scheduler is None
        self._owns_backend = scheduler is None and not isinstance(
            backend, WorkerBackend
        )
        if scheduler is not None:
            self.scheduler = scheduler
            self.cache = scheduler.cache
        else:
            if isinstance(backend, WorkerBackend):
                backend_obj = backend
            else:
                backend_obj = create_backend(backend, workers)
            self.cache = cache if cache is not None else ClassificationCache()
            self.scheduler = ClassificationScheduler(
                cache=self.cache, backend=backend_obj
            )
        self.stats = BatchStats()
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Single-problem interface
    # ------------------------------------------------------------------
    def classify(self, problem: LCLProblem) -> ClassificationResult:
        """Classify one problem through the cache (decision only)."""
        item = self.classify_item(problem)
        assert item.result is not None  # no deadline was given
        return item.result

    def classify_item(
        self,
        problem: LCLProblem,
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
        trace: Optional[Any] = None,
    ) -> BatchItem:
        """Classify one problem through the cache, with provenance."""
        return self.submit_item(
            problem, priority=priority, deadline=deadline, trace=trace
        ).result()

    def submit_item(
        self,
        problem: LCLProblem,
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
        trace: Optional[Any] = None,
    ) -> PendingClassification:
        """Submit one problem for classification without waiting.

        The search (if one is needed) starts on the worker backend as soon
        as the scheduler admits it (ordered by ``priority``); concurrent
        submissions of the same renaming orbit share it.  ``deadline`` bounds
        this submission's total time in seconds, canonicalization included —
        on expiry the resulting :class:`BatchItem` reports
        ``outcome="timeout"``; when it expires during canonicalization the
        cache is never consulted and no search starts.  ``trace`` (a
        :class:`~repro.obs.trace.RequestTrace`, or the common ``None``)
        receives the scheduler's span events for this submission.  Call
        :meth:`PendingClassification.result` to collect the translated item.
        """
        form, token, outcome = _canonicalize(problem, deadline)
        if form is None:
            with self._stats_lock:
                self.stats.submitted += 1
            return PendingClassification(problem, None, None, outcome)
        job = self.scheduler.submit(
            form, priority=priority, deadline=_unspent(token), trace=trace
        )
        with self._stats_lock:
            self.stats.submitted += 1
            if job.kind == JOB_SCHEDULED:
                self.stats.full_searches += 1
        return PendingClassification(problem, form, job)

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def classify_many(
        self,
        problems: Iterable[LCLProblem],
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
    ) -> List[BatchItem]:
        """Classify a stream of problems, deduplicating by canonical form.

        Results are returned in submission order.  Representatives missing
        from the cache are all scheduled up front, so with a ``threads`` or
        ``processes`` backend they run concurrently while this call waits.
        ``deadline`` is a per-problem budget in seconds, canonicalization
        included: a problem whose canonicalization exceeds it yields a
        ``"timeout"`` item without a key, and a representative whose search
        exceeds what is left of it yields ``"timeout"`` items for every
        duplicate of that orbit, while the rest of the batch completes
        normally.
        """
        problems = list(problems)
        canonical = [_canonicalize(problem, deadline) for problem in problems]
        with self._stats_lock:
            self.stats.submitted += len(canonical)

        # One scheduler submission per *distinct* key: the first occurrence
        # decides hit or miss, duplicates within the batch count as hits.
        # Payloads are captured from the job futures (not re-read from the
        # cache afterwards) so that a tight ``max_entries`` budget evicting
        # entries mid-batch cannot lose answers.
        forms = [form for form, _token, _outcome in canonical if form is not None]
        first_by_key: Dict[str, Tuple[CanonicalForm, Optional[CancelToken]]] = {}
        for form, token, _outcome in canonical:
            if form is not None:
                first_by_key.setdefault(form.key, (form, token))
        jobs: Dict[str, ClassificationJob] = {
            key: self.scheduler.submit(
                form, priority=priority, deadline=_unspent(token)
            )
            for key, (form, token) in first_by_key.items()
        }
        searches = sum(1 for job in jobs.values() if job.kind == JOB_SCHEDULED)
        with self._stats_lock:
            self.stats.full_searches += searches

        payload_by_key: Dict[str, Optional[Dict[str, Any]]] = {}
        outcome_by_key: Dict[str, str] = {}
        for key, job in jobs.items():
            try:
                payload_by_key[key] = job.result()
            except SearchInterrupted as interrupted:
                payload_by_key[key] = None
                outcome_by_key[key] = interrupted.outcome
        # Duplicate submissions of the same orbit are answered from the
        # captured payloads; count them as hits only once their
        # representative actually resolved (a timed-out orbit produced no
        # answer, so its duplicates are not hits).
        duplicate_hits = sum(
            count - 1
            for key, count in _key_counts(forms).items()
            if count > 1 and payload_by_key[key] is not None
        )
        self.cache.add_hits(duplicate_hits)

        items: List[BatchItem] = []
        fresh_keys = {
            key for key, job in jobs.items() if job.kind == JOB_SCHEDULED
        }
        for problem, (form, _token, outcome) in zip(problems, canonical):
            if form is None:
                items.append(_interrupted_item(problem, None, outcome))
                continue
            payload = payload_by_key[form.key]
            if payload is None:
                items.append(
                    _interrupted_item(problem, form.key, outcome_by_key[form.key])
                )
            else:
                items.append(
                    _item_from_payload(
                        form,
                        payload,
                        from_cache=form.key not in fresh_keys,
                    )
                )
            fresh_keys.discard(form.key)  # only the first occurrence is "fresh"
        return items

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """The underlying cache's hit/miss statistics."""
        return self.cache.stats

    def stats_report(self) -> Dict[str, Any]:
        """Combined batch + cache + worker statistics (JSON-friendly)."""
        return {
            "batch": self.stats.as_dict(),
            "cache": self.cache.stats.as_dict(),
            "workers": self.scheduler.stats_payload(),
        }

    def close(self) -> None:
        """Shut the worker backend down.

        Only closes a backend this classifier created itself (from a backend
        *name*); an injected scheduler or backend instance stays alive for
        its other users — whoever built it decides when to close it.
        """
        if self._owns_scheduler and self._owns_backend:
            self.scheduler.close()

    def __enter__(self) -> "BatchClassifier":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
