"""Storage-backend protocol behind :class:`repro.engine.cache.ClassificationCache`.

The cache front end (LRU bookkeeping, statistics, write-behind) is
backend-agnostic; everything that touches durable storage goes through the
:class:`CacheBackend` interface defined here.  Three implementations ship:

``memory``
    No durable storage at all — the in-memory LRU mapping is the cache.
``json``
    The PR-1 single-file JSON format (schema 2, schema-1 files still load).
    Every flush rewrites the whole snapshot atomically.
``sqlite``
    A WAL-mode SQLite database with one row per entry.  Flushes upsert only
    the dirty rows, so per-store persistence cost is independent of cache
    size, and WAL mode makes concurrent writers from multiple processes on
    one host safe.

Cache URLs
----------
Backends are selected by URL wherever a cache location is accepted
(``SessionConfig``, the ``--cache`` CLI flags, ``repro serve`` endpoints)::

    results.json            bare path  -> json backend (compatible default)
    json:results.json       explicit json backend
    sqlite:results.db       sqlite-WAL backend
    memory:                 in-memory only (no persistence)

The default backend for bare paths can be overridden with the
``REPRO_CACHE_BACKEND`` environment variable (``json`` or ``sqlite``) — the
hook CI uses to force the whole cache-flow test surface through sqlite.

Corruption handling
-------------------
Backends raise :class:`CacheCorruptionError` (a ``ValueError``) when the
underlying storage is unreadable *as a container* — truncated JSON, a file
that is not a SQLite database.  Structurally invalid but well-formed files
(unknown schema version, malformed entry shapes) raise plain ``ValueError``:
those may be future-version files and are never quarantined.
"""

from __future__ import annotations

import abc
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One persisted cache row: (canonical key, serialized result, stored-at time).
CacheRow = Tuple[str, Dict[str, Any], Optional[float]]

#: Environment variable selecting the backend for bare (scheme-less) paths.
BACKEND_ENV_VAR = "REPRO_CACHE_BACKEND"

#: URL schemes accepted by :func:`parse_cache_url`.
CACHE_SCHEMES = ("memory", "json", "sqlite")


class CacheCorruptionError(ValueError):
    """The backing store exists but cannot be read as a cache container."""


class CacheBackend(abc.ABC):
    """Durable-storage strategy for one :class:`ClassificationCache`.

    Backends are *not* thread-safe on their own; the owning cache serializes
    every call through its I/O lock.  ``location`` is the filesystem path of
    the store (``None`` for the memory backend).
    """

    #: Short backend identifier (``memory`` / ``json`` / ``sqlite``).
    name: str = "abstract"
    #: Whether the backend durably persists entries across processes.
    persistent: bool = False
    #: Whether :meth:`flush` writes only the dirty rows (sqlite) rather than
    #: rewriting the full snapshot (json).
    partial_flush: bool = False

    def __init__(self, location: Optional[str] = None) -> None:
        self.location = location

    # -- durable I/O ---------------------------------------------------
    def exists(self) -> bool:
        """Whether the backing store already exists on disk."""
        return bool(self.location) and os.path.exists(self.location)

    @abc.abstractmethod
    def load(self) -> List[CacheRow]:
        """Read every persisted row, least recently used first.

        Raises :class:`CacheCorruptionError` for unreadable containers and
        plain :class:`ValueError` for structural problems (see module
        docstring).
        """

    @abc.abstractmethod
    def write_snapshot(
        self, rows: Sequence[CacheRow], deletes: Sequence[str] = ()
    ) -> int:
        """Persist the full snapshot ``rows``; return rows written.

        ``deletes`` are keys known evicted or cleared since the last write.
        Whole-file backends ignore it (rewriting drops them anyway); the
        sqlite backend deletes exactly those rows, because it must never
        clear rows it does not own (other processes may share the store).
        """

    @abc.abstractmethod
    def flush(
        self,
        upserts: Sequence[CacheRow],
        deletes: Sequence[str],
        snapshot: Callable[[], Sequence[CacheRow]],
        ) -> int:
        """Persist a write-behind increment; return entries written.

        ``upserts`` are dirty rows in store-time order (oldest first) and
        ``deletes`` are keys evicted or cleared since the last flush.
        Backends that cannot update entries individually call ``snapshot()``
        for the full current state and rewrite it; partial backends touch
        only the given rows, which is what keeps per-store persistence cost
        sublinear in cache size.
        """

    def compact(self, rows: Sequence[CacheRow]) -> None:
        """Rewrite the store from ``rows`` alone and reclaim dead space."""
        self.write_snapshot(rows)

    def file_size(self) -> int:
        """Size in bytes of the main backing file (0 when absent)."""
        if self.location and os.path.exists(self.location):
            return os.path.getsize(self.location)
        return 0

    def quarantine(self) -> Optional[str]:
        """Move a corrupt store out of the way; return its new path.

        The store is renamed to ``{location}.corrupt-<timestamp>`` (data is
        preserved for post-mortems, never deleted).  Returns ``None`` for
        location-less backends.
        """
        if not self.location or not os.path.exists(self.location):
            return None
        self.close()
        stamp = time.strftime("%Y%m%dT%H%M%S")
        target = f"{self.location}.corrupt-{stamp}"
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = f"{self.location}.corrupt-{stamp}.{suffix}"
        os.replace(self.location, target)
        for sidecar in self._sidecar_paths():
            if os.path.exists(sidecar):
                os.replace(sidecar, f"{target}{sidecar[len(self.location):]}")
        return target

    def _sidecar_paths(self) -> Tuple[str, ...]:
        """Auxiliary files that must move together with the main store."""
        return ()

    def close(self) -> None:
        """Release any held resources (idempotent)."""


def parse_cache_url(url: str) -> Tuple[str, Optional[str]]:
    """Split a cache URL into ``(backend_name, location)``.

    Bare paths select the backend named by ``REPRO_CACHE_BACKEND`` (default
    ``json``, today's format).  Unknown schemes and empty locations are
    rejected with :class:`ValueError` so typos cannot silently select the
    wrong store.
    """
    if not url:
        raise ValueError("cache URL must be non-empty")
    for scheme in CACHE_SCHEMES:
        prefix = f"{scheme}:"
        if url == scheme or url.startswith(prefix):
            location = url[len(prefix):] if url.startswith(prefix) else ""
            if location.startswith("//"):
                location = location[2:]
            if scheme == "memory":
                if location:
                    raise ValueError(
                        f"memory cache takes no path, got {url!r}"
                    )
                return "memory", None
            if not location:
                raise ValueError(f"cache URL {url!r} is missing a path")
            return scheme, location
    head = url.split(":", 1)[0]
    if ":" in url and head.isalpha() and len(head) > 1:
        raise ValueError(
            f"unknown cache backend {head!r} in {url!r}"
            f" (expected one of {CACHE_SCHEMES} or a bare path)"
        )
    default = os.environ.get(BACKEND_ENV_VAR, "json").strip().lower()
    if default not in ("json", "sqlite"):
        raise ValueError(
            f"invalid {BACKEND_ENV_VAR}={default!r} (expected json or sqlite)"
        )
    return default, url


def create_backend(url: str) -> CacheBackend:
    """Instantiate the :class:`CacheBackend` selected by ``url``."""
    from .json_file import JsonFileBackend
    from .memory import MemoryBackend
    from .sqlite_wal import SqliteWalBackend

    name, location = parse_cache_url(url)
    if name == "memory":
        return MemoryBackend()
    if name == "sqlite":
        return SqliteWalBackend(location)
    return JsonFileBackend(location)
