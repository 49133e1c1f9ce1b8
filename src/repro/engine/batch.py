"""One submission: canonicalize within the deadline, then schedule the form.

:func:`submit` is the one path from a problem to the single-flight
scheduler, for local sessions and the service alike (both through
:class:`~repro.api.session.LocalDriver`).  It

1. computes the problem's canonical form (:mod:`repro.engine.canonical`)
   under the submission's deadline, so the budget covers canonicalization,
2. hands the form to a
   :class:`~repro.workers.scheduler.ClassificationScheduler`, which answers
   it from the cache or joins or starts the one search for its key on a
   worker backend (``inline``, ``threads`` or ``processes`` — see
   :mod:`repro.workers`) and stores the fresh result *in canonical labels*,
   and
3. returns a :class:`PendingClassification`, whose
   :meth:`~PendingClassification.result` translates the canonical result
   back through the problem's own label bijection into a :class:`BatchItem`.

Because results are stored in canonical labels and translated per caller, a
cache hit on the *same* problem reproduces the fresh classification exactly;
a hit on a merely *isomorphic* problem yields an equally valid result whose
certificate label sets are the bijective image of the representative's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..core.cancellation import CancelToken, SearchInterrupted, cancel_scope
from ..core.complexity import ClassificationResult
from ..core.problem import LCLProblem
from ..workers.scheduler import (
    DEFAULT_PRIORITY,
    JOB_SCHEDULED,
    ClassificationJob,
    ClassificationScheduler,
)
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
    """Work accounting of the submissions made through one engine.

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

    Returned by :func:`submit`; :meth:`result` blocks until the underlying
    scheduler job resolves and translates the canonical payload back
    through this problem's bijection.  A deadline expiry or
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


def submit(
    scheduler: ClassificationScheduler,
    problem: LCLProblem,
    priority: str = DEFAULT_PRIORITY,
    deadline: Optional[float] = None,
    trace: Optional[Any] = None,
) -> PendingClassification:
    """Submit one problem to ``scheduler`` without waiting.

    The search (if one is needed) starts on the worker backend as soon as
    the scheduler admits it (ordered by ``priority``); concurrent submissions
    of the same renaming orbit share it.  ``deadline`` bounds this
    submission's total time in seconds, canonicalization included: the
    scheduler gets only what canonicalizing left of it, and when it expires
    during canonicalization the cache is never consulted and no search
    starts.  ``trace`` (a :class:`~repro.obs.trace.RequestTrace`, or the
    common ``None``) receives the scheduler's span events for this
    submission.
    """
    try:
        if deadline is None:  # the common case: skip the scope's set-up
            form = canonical_form(problem)
        else:
            token = CancelToken.with_budget(deadline)
            with cancel_scope(token):
                form = canonical_form(problem)
            deadline = token.remaining()
    except SearchInterrupted as interrupted:
        return PendingClassification(problem, None, None, interrupted.outcome)
    job = scheduler.submit(form, priority=priority, deadline=deadline, trace=trace)
    return PendingClassification(problem, form, job)
