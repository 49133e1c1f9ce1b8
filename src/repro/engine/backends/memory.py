"""In-memory cache backend: the LRU mapping *is* the store.

Selected by the ``memory:`` cache URL.  Nothing is persisted — ``load``
returns no rows, snapshots and flushes write nothing — but the cache front
end (LRU budget, statistics) behaves identically to the durable backends,
which is what lets the crash-recovery and backend-matrix test suites
parametrize over all three.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .base import CacheBackend, CacheRow


class MemoryBackend(CacheBackend):
    """No-op durable tier for purely in-process caches."""

    name = "memory"
    persistent = False
    partial_flush = False

    def __init__(self) -> None:
        super().__init__(location=None)

    def exists(self) -> bool:
        return False

    def load(self) -> List[CacheRow]:
        return []

    def write_snapshot(
        self, rows: Sequence[CacheRow], deletes: Sequence[str] = ()
    ) -> int:
        return 0

    def flush(
        self,
        upserts: Sequence[CacheRow],
        deletes: Sequence[str],
        snapshot: Callable[[], Sequence[CacheRow]],
    ) -> int:
        return 0
