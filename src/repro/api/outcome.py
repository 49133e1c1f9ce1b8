"""The one result type of the session facade.

An :class:`Outcome` is what every classification call returns — whether the
search ran inline, on a worker pool, or on a remote service.  It unifies the
two result shapes that grew over the first four PRs:

* the local :class:`~repro.engine.batch.BatchItem` (a live
  :class:`~repro.core.complexity.ClassificationResult` plus provenance), and
* the service protocol's item payload (a JSON dict with ``outcome``/
  ``complexity``/``result`` fields).

``Outcome.as_dict()`` emits exactly the protocol item shape and
``Outcome.from_payload()`` reads it back, so a classification serializes
identically on every path — the service writes its item frames with it, and
the endpoint parity tests compare these dicts field by field across
``local://`` and ``tcp://`` sessions.  :func:`summarize_outcomes` and
:func:`tally_outcomes` are the one source of a batch/census ``done`` summary,
for the service and the CLI alike.

``outcome`` is one of :data:`OUTCOMES`: ``"ok"`` (the classification exists),
``"timeout"``/``"cancelled"`` (the search was interrupted; ``result`` is
``None``), or ``"error"`` (a structured failure surfaced as data rather than
an exception, carrying ``error_code``/``error_message``).  Callers that
prefer exceptions call :meth:`Outcome.require` and get the unified
:mod:`repro.api.errors` hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

from ..core.complexity import ClassificationResult
from ..core.problem import LCLProblem
from ..engine.batch import BatchItem
from ..engine.serialization import result_from_dict, result_to_dict
from .errors import SessionError, interruption_error

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CANCELLED = "cancelled"
OUTCOME_ERROR = "error"
OUTCOMES = (OUTCOME_OK, OUTCOME_TIMEOUT, OUTCOME_CANCELLED, OUTCOME_ERROR)
"""Every way a classification can resolve, identical on all endpoints."""


@dataclass(frozen=True)
class Outcome:
    """The classification of one problem through a session.

    ``result`` is the full :class:`ClassificationResult` (certificate label
    sets included) when ``outcome == "ok"``, else ``None``.  ``complexity``
    and ``details`` are its human-readable projections, pre-extracted so
    remote payloads and local results read the same.  ``problem`` is the
    submitted :class:`LCLProblem` when the session still holds it (local
    submissions and session-parsed text); payloads read off the wire carry
    only ``name``.
    """

    name: str
    outcome: str
    complexity: Optional[str] = None
    details: Optional[str] = None
    result: Optional[ClassificationResult] = None
    canonical_key: Optional[str] = None
    from_cache: bool = False
    elapsed_ms: float = 0.0
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    problem: Optional[LCLProblem] = None
    # The tracing request id of the call that produced this outcome (None
    # when tracing was off).  Deliberately NOT part of as_dict(): the item
    # payload shape is pinned to the wire format, and the id already travels
    # as the protocol frame id / PendingOutcome.request_id.
    request_id: Optional[Any] = None

    @property
    def ok(self) -> bool:
        """Whether the classification completed (``result`` is present)."""
        return self.outcome == OUTCOME_OK

    def require(self) -> "Outcome":
        """Return ``self`` when ok; raise the unified error otherwise.

        A ``timeout``/``cancelled`` outcome raises
        :class:`~repro.api.errors.ClassificationTimeout` /
        :class:`ClassificationCancelled`; an ``error`` outcome raises
        :class:`SessionError` with the carried code.  The message is built
        from fields that are identical across endpoints, so the raised
        error is too.
        """
        if self.ok:
            return self
        if self.outcome in (OUTCOME_TIMEOUT, OUTCOME_CANCELLED):
            raise interruption_error(self.outcome, key=self.canonical_key)
        raise SessionError(
            self.error_message or f"classification of {self.name} failed",
            code=self.error_code or "error",
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The protocol item payload of this outcome (JSON-friendly).

        The service writes its ``item``/``classify`` frames with this very
        method, so the wire shape and the facade shape cannot drift apart.
        """
        payload: Dict[str, Any] = {
            "name": self.name,
            "outcome": self.outcome,
            "complexity": self.complexity,
            "details": self.details,
            "from_cache": self.from_cache,
            "canonical_key": self.canonical_key,
            "result": result_to_dict(self.result) if self.result is not None else None,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.outcome == OUTCOME_ERROR:
            payload["error"] = {
                "code": self.error_code,
                "message": self.error_message,
            }
        return payload

    @classmethod
    def from_batch_item(
        cls, item: BatchItem, request_id: Optional[Any] = None
    ) -> "Outcome":
        """Lift a local :class:`BatchItem` into the unified shape."""
        result = item.result
        return cls(
            name=item.problem.name,
            outcome=item.outcome,
            complexity=result.complexity.value if result is not None else None,
            details=result.describe() if result is not None else None,
            result=result,
            canonical_key=item.canonical_key,
            from_cache=item.from_cache,
            elapsed_ms=item.elapsed_seconds * 1000.0,
            problem=item.problem,
            request_id=request_id,
        )

    @classmethod
    def from_payload(
        cls,
        payload: Mapping[str, Any],
        problem: Optional[LCLProblem] = None,
        request_id: Optional[Any] = None,
    ) -> "Outcome":
        """Read a protocol item/result payload back into an :class:`Outcome`."""
        result_dict = payload.get("result")
        result = result_from_dict(result_dict) if result_dict else None
        error = payload.get("error") or {}
        return cls(
            name=payload.get("name", "<unnamed>"),
            outcome=payload.get("outcome", OUTCOME_OK),
            complexity=payload.get("complexity"),
            details=payload.get("details"),
            result=result,
            canonical_key=payload.get("canonical_key"),
            from_cache=bool(payload.get("from_cache", False)),
            elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
            error_code=error.get("code"),
            error_message=error.get("message"),
            problem=problem,
            request_id=request_id,
        )


def summarize_outcomes(outcomes: Sequence[Outcome]) -> Dict[str, Any]:
    """The stream summary (hit/miss/interruption tallies) of a batch or census.

    The service's ``done`` frame and the CLI's summaries both come from
    here.  Completed items are the one denominator: interrupted items are
    neither hits nor misses, so ``cache_hits + cache_misses`` equals the
    completed count and ``hit_rate`` is hits over completed.
    """
    count = len(outcomes)
    timeouts = sum(1 for outcome in outcomes if outcome.outcome == OUTCOME_TIMEOUT)
    cancelled = sum(1 for outcome in outcomes if outcome.outcome == OUTCOME_CANCELLED)
    completed = count - timeouts - cancelled
    hits = sum(1 for outcome in outcomes if outcome.ok and outcome.from_cache)
    return {
        "count": count,
        "cache_hits": hits,
        "cache_misses": completed - hits,
        "hit_rate": hits / completed if completed else 0.0,
        "timeouts": timeouts,
        "cancelled": cancelled,
    }


def tally_outcomes(outcomes: Sequence[Outcome]) -> Dict[str, int]:
    """Census tally: complexity class per completed item, outcome otherwise."""
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        value = outcome.complexity if outcome.ok else outcome.outcome
        counts[value] = counts.get(value, 0) + 1
    return counts


__all__ = [
    "OUTCOMES",
    "OUTCOME_CANCELLED",
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "Outcome",
    "summarize_outcomes",
    "tally_outcomes",
]
