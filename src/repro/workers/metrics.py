"""Search-time metrics: the data operators pick deadlines from.

The scheduler records the wall-clock duration of every *completed*
certificate search into a :class:`SearchTimeStats` — a fixed-bucket
histogram (log-spaced milliseconds, Prometheus-style ``le`` upper bounds)
plus exact min/mean/max and a bounded leaderboard of the slowest canonical
keys.  The whole thing serializes into the ``search_times`` section of the
scheduler's stats payload, which the service ``stats`` frame and
``ClassificationSession.stats()`` surface verbatim.

Why a histogram and not raw samples: the stats frame is shipped on every
``stats`` request and must stay O(1) in the number of searches ever run.
Quantiles (:meth:`SearchTimeStats.quantile_ms`) are therefore *bucket upper
bounds* — a conservative over-estimate, which is exactly the right bias for
choosing a deadline ("99% of searches finished within this budget").

Interrupted searches are deliberately **not** recorded: a search killed at
its deadline says nothing about how long it would have taken, and folding
censored observations into the histogram would drag every quantile toward
whatever deadlines clients happened to use.  The scheduler's ``timeouts``/
``cancelled`` counters carry that signal instead.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

BUCKET_BOUNDS_MS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    30_000.0,
    60_000.0,
    float("inf"),
)
"""Histogram bucket upper bounds in milliseconds (cumulative ``le`` style)."""

DEFAULT_SLOWEST_KEPT = 10
"""How many of the slowest canonical keys the leaderboard retains."""


class SearchTimeStats:
    """Thread-safe histogram + leaderboard of completed search durations."""

    def __init__(self, slowest_kept: int = DEFAULT_SLOWEST_KEPT) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * len(BUCKET_BOUNDS_MS)
        self._count = 0
        self._total_ms = 0.0
        self._min_ms: Optional[float] = None
        self._max_ms = 0.0
        self._slowest_kept = slowest_kept
        # Ascending by duration; the head is the cheapest entry to displace.
        self._slowest: List[Tuple[float, str]] = []

    def record(self, key: str, elapsed_seconds: float) -> None:
        """Record one completed search of ``key`` taking ``elapsed_seconds``."""
        ms = max(0.0, float(elapsed_seconds) * 1000.0)
        with self._lock:
            self._count += 1
            self._total_ms += ms
            self._min_ms = ms if self._min_ms is None else min(self._min_ms, ms)
            self._max_ms = max(self._max_ms, ms)
            for index, bound in enumerate(BUCKET_BOUNDS_MS):
                if ms <= bound:
                    self._counts[index] += 1
                    break
            if self._slowest_kept:
                if len(self._slowest) < self._slowest_kept:
                    self._slowest.append((ms, key))
                    self._slowest.sort()
                elif ms > self._slowest[0][0]:
                    self._slowest[0] = (ms, key)
                    self._slowest.sort()

    def quantile_ms(self, q: float) -> Optional[float]:
        """The bucket upper bound covering the ``q`` quantile (None when empty).

        Conservative by construction: at least a ``q`` fraction of recorded
        searches finished within the returned number of milliseconds, so it
        can be used directly as a data-driven deadline.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        with self._lock:
            if not self._count:
                return None
            threshold = q * self._count
            cumulative = 0
            for index, bound in enumerate(BUCKET_BOUNDS_MS):
                cumulative += self._counts[index]
                if cumulative >= threshold:
                    # The open-ended bucket has no finite bound to promise;
                    # the observed maximum is the honest answer there.
                    return self._max_ms if bound == float("inf") else bound
            return self._max_ms  # pragma: no cover - cumulative covers count

    def as_dict(self) -> Dict[str, Any]:
        """The ``search_times`` stats section (JSON-friendly, O(buckets))."""
        with self._lock:
            count = self._count
            payload: Dict[str, Any] = {
                "count": count,
                "total_ms": self._total_ms,
                "mean_ms": (self._total_ms / count) if count else 0.0,
                "min_ms": self._min_ms if self._min_ms is not None else 0.0,
                "max_ms": self._max_ms,
                "buckets": [
                    {
                        "le_ms": None if bound == float("inf") else bound,
                        "count": bucket_count,
                    }
                    for bound, bucket_count in zip(BUCKET_BOUNDS_MS, self._counts)
                    if bucket_count
                ],
                "slowest": [
                    {"key": key, "ms": ms}
                    for ms, key in sorted(self._slowest, reverse=True)
                ],
            }
        for name, q in (("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)):
            payload[name] = self.quantile_ms(q) if count else None
        return payload


__all__ = ["BUCKET_BOUNDS_MS", "DEFAULT_SLOWEST_KEPT", "SearchTimeStats"]
