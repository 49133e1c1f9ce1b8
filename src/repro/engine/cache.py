"""Classification cache keyed by canonical form, with LRU eviction and stats.

The cache stores *serialized* classification results (see
:mod:`repro.engine.serialization`) indexed by the canonical-form key of
:mod:`repro.engine.canonical`.  Stored results are expressed in the canonical
alphabet; translating them back into a caller's original alphabet is the
responsibility of :class:`repro.engine.batch.PendingClassification`, which
holds the submitted problem's label bijection.

Storage tiers
-------------
The in-memory tier is an always-on mapping with least-recently-used (LRU)
eviction under an optional ``max_entries`` budget.  The durable tier behind
it is pluggable (:mod:`repro.engine.backends`), selected by the ``path``
cache URL:

* ``results.json`` / ``json:results.json`` — the PR-1 single-file JSON
  format (schema 2; legacy schema-1 files still load).  Every persist
  rewrites the whole snapshot atomically.
* ``sqlite:results.db`` — a WAL-mode SQLite database with one row per
  entry.  Persists upsert only changed rows and tolerate concurrent writer
  processes on one host.
* ``memory:`` (or ``path=None``) — no durable tier at all.

The cache is **thread-safe**: every operation (lookup, store, save, load,
flush, compact) holds an internal reentrant lock for memory state, and a
dedicated I/O lock serializes writers of the durable tier within this
process.  Worker threads of :mod:`repro.workers` and concurrent service
connection handlers can share one instance without external serialization.

Write-behind persistence
------------------------
With ``flush_interval`` and/or ``flush_max_dirty`` set (and a persistent
backend), stores mark keys *dirty* instead of persisting synchronously; a
background flusher thread persists the dirty set once the count threshold is
reached or the interval has elapsed — and :meth:`save` / :meth:`close` always
persist everything outstanding.  Evicted and expired keys are tracked as
*dead* so partial-flush backends delete exactly those rows.  A crash loses
at most the not-yet-flushed increment; the on-disk store stays consistent
because every backend writes atomically (temp-file rename or a SQLite
transaction).  Flush activity is counted in :attr:`CacheStats.flushes` /
:attr:`CacheStats.flushed_entries` and surfaces in ``repro metrics``.

Expiry (TTL)
------------
With ``ttl_seconds`` set, entries older than the TTL count as misses: a
:meth:`lookup` of an expired entry drops it (recording an *expiration*) and
returns ``None``.  The sqlite backend persists store timestamps, so TTL
survives restarts; the json format (kept byte-compatible with PR 1) does
not, so loaded entries restart their TTL clock at load time.

Corruption handling
-------------------
A cache file that cannot be read *as a container* (truncated JSON, not a
SQLite database) raises :class:`CacheCorruptionError`.  During construction
the default is to **quarantine**: the bad file is renamed to
``{path}.corrupt-<timestamp>``, a warning is logged, and the cache starts
empty — a durability incident must not hard-crash ``repro serve`` at
startup.  Pass ``quarantine=False`` (the CLI inspection commands do) to get
the error instead.  Structurally invalid files (unknown schema version,
malformed entries) always raise :class:`ValueError`: they may be
future-version files and are never quarantined.

On-disk format — schema 2 upgrade note
--------------------------------------
Schema 2 (current) is a single JSON object::

    {"schema": 2, "entries": [[key, result_dict], ...]}

where ``entries`` is a *list of pairs* in LRU order, least recently used
first, so that recency survives a save/load round trip.  Schema 1 (PR 1)
stored ``{"schema": 1, "entries": {key: result_dict}}`` — an unordered,
unbounded object.  :meth:`load` accepts **both** schemas; :meth:`save`
always writes schema 2.  Schema 2 is also the ``repro cache export`` /
``import`` interchange format across all backends.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from .backends import (
    CACHE_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    CacheBackend,
    CacheCorruptionError,
    CacheRow,
    MemoryBackend,
    create_backend,
    dump_snapshot_text,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "CacheCorruptionError",
    "CacheStats",
    "ClassificationCache",
]

logger = logging.getLogger(__name__)

#: How long :meth:`ClassificationCache.close` waits for the flusher thread.
_FLUSHER_JOIN_TIMEOUT = 5.0


@dataclass
class CacheStats:
    """Hit/miss/eviction/expiry/flush counters of a :class:`ClassificationCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    flushes: int = 0
    flushed_entries: int = 0

    @property
    def total(self) -> int:
        """Number of lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when empty)."""
        if not self.total:
            return 0.0
        return self.hits / self.total

    def as_dict(self) -> Dict[str, Any]:
        """The statistics as a JSON-friendly dictionary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "total": self.total,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "flushes": self.flushes,
            "flushed_entries": self.flushed_entries,
        }


@dataclass
class ClassificationCache:
    """LRU-bounded in-memory tier over a pluggable durable backend.

    Parameters
    ----------
    path:
        Optional cache URL (``results.json``, ``json:...``, ``sqlite:...``,
        ``memory:`` — see :mod:`repro.engine.backends`).  When the durable
        store exists, its entries are loaded on construction.
    autosave:
        When ``True`` (and the backend is persistent) every :meth:`store`
        immediately persists a full snapshot.  Defaults to ``False``; call
        :meth:`save`, or configure write-behind.
    max_entries:
        Optional LRU budget.  ``None`` (the default) means unbounded.  The
        in-memory mapping never exceeds this many entries, and because
        :meth:`save` snapshots that mapping, neither does the backing store.
    ttl_seconds:
        Optional time-to-live; entries older than this count as misses and
        are dropped on lookup (see the module docstring).
    flush_interval / flush_max_dirty:
        Write-behind thresholds (seconds since last flush / pending dirty
        keys).  Setting either enables the background flusher on persistent
        backends; leaving both ``None`` keeps PR-1 semantics (persist only
        on explicit :meth:`save`, autosave, or :meth:`close`).
    quarantine:
        Whether construction quarantines a corrupt store and starts empty
        (the default) or propagates :class:`CacheCorruptionError`.
    """

    path: Optional[str] = None
    autosave: bool = False
    max_entries: Optional[int] = None
    ttl_seconds: Optional[float] = None
    flush_interval: Optional[float] = None
    flush_max_dirty: Optional[int] = None
    quarantine: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[str, Dict[str, Any]]" = field(default_factory=OrderedDict)
    # Guards the LRU mapping, the stats counters, and the dirty/dead/TTL
    # bookkeeping: worker threads of the scheduler (repro.workers) store
    # results concurrently with lookups from service connection handlers
    # and with the write-behind flusher.  Reentrant because save() calls
    # into locked helpers (compact -> save, store -> autosave).  Held only
    # for dictionary operations — never across disk I/O, so a save() in
    # progress cannot stall lookups/stores.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    # Serializes writers of the durable tier within this process (the
    # backend objects are not thread-safe on their own).  Cross-process
    # safety is the backend's job: unique temp names + atomic rename for
    # json, WAL transactions for sqlite.
    _io_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {self.ttl_seconds}")
        if self.flush_interval is not None and self.flush_interval <= 0:
            raise ValueError(
                f"flush_interval must be > 0, got {self.flush_interval}"
            )
        if self.flush_max_dirty is not None and self.flush_max_dirty < 1:
            raise ValueError(
                f"flush_max_dirty must be >= 1, got {self.flush_max_dirty}"
            )
        self._backend: CacheBackend = (
            create_backend(self.path) if self.path else MemoryBackend()
        )
        self._stored_at: Dict[str, float] = {}
        self._dirty: set = set()
        self._dead: set = set()
        # Keys taken by the backend write in progress: they stay pending
        # until the write returns and is counted (or fails and re-marks).
        self._writing = 0
        self._flush_cv = threading.Condition(threading.Lock())
        self._flusher: Optional[threading.Thread] = None
        self._closed = False
        self._backend_closed = False
        self._last_flush = time.monotonic()
        if self._backend.persistent and self._backend.exists():
            self._load_initial()

    # ------------------------------------------------------------------
    # Backend introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> CacheBackend:
        """The durable-storage backend behind this cache."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Short backend identifier (``memory`` / ``json`` / ``sqlite``)."""
        return self._backend.name

    @property
    def persistent(self) -> bool:
        """Whether the cache has a durable tier."""
        return self._backend.persistent

    @property
    def write_behind(self) -> bool:
        """Whether background write-behind flushing is configured."""
        return (
            self._backend.persistent
            and not self.autosave
            and (self.flush_interval is not None or self.flush_max_dirty is not None)
        )

    @property
    def pending_dirty(self) -> int:
        """Keys awaiting a write-behind flush (dirty upserts + deletions)."""
        with self._lock:
            return len(self._dirty) + len(self._dead) + self._writing

    def info(self) -> Dict[str, Any]:
        """One JSON-friendly dict describing state + statistics.

        This is the ``cache`` section of session/service stats payloads, so
        local and remote endpoints expose identical fields by construction.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "path": self.path,
                "backend": self._backend.name,
                "persistent": self._backend.persistent,
                "dirty": self.pending_dirty,
                "ttl_seconds": self.ttl_seconds,
                "flush_interval": self.flush_interval,
                "flush_max_dirty": self.flush_max_dirty,
                **self.stats.as_dict(),
            }

    def enable_write_behind(
        self,
        flush_interval: Optional[float] = None,
        flush_max_dirty: Optional[int] = None,
    ) -> None:
        """Fill in *unset* write-behind thresholds (explicit config wins).

        The service calls this with its defaults so persistent caches get
        write-behind out of the box while user-provided ``cache_flush_*``
        settings are never overridden.
        """
        if self.flush_interval is None and flush_interval is not None:
            if flush_interval <= 0:
                raise ValueError(f"flush_interval must be > 0, got {flush_interval}")
            self.flush_interval = flush_interval
        if self.flush_max_dirty is None and flush_max_dirty is not None:
            if flush_max_dirty < 1:
                raise ValueError(
                    f"flush_max_dirty must be >= 1, got {flush_max_dirty}"
                )
            self.flush_max_dirty = flush_max_dirty

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def _expired(self, key: str, now: Optional[float] = None) -> bool:
        """Whether ``key``'s entry is past its TTL (lock must be held)."""
        if self.ttl_seconds is None:
            return False
        stored_at = self._stored_at.get(key)
        if stored_at is None:
            return False
        if now is None:
            now = time.time()
        return (now - stored_at) > self.ttl_seconds

    def _drop_entry(self, key: str) -> None:
        """Remove ``key`` from memory, marking it dead (lock must be held)."""
        self._entries.pop(key, None)
        self._stored_at.pop(key, None)
        self._dirty.discard(key)
        if self._backend.persistent:
            self._dead.add(key)

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored result dict for ``key`` (counting a hit or miss).

        A hit refreshes the entry's LRU recency.  An entry past its TTL is
        dropped, counted as an expiration, and reported as a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(key):
                self._drop_entry(key)
                self.stats.expirations += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`lookup` but touching neither statistics nor recency.

        Expired entries read as absent but are left for :meth:`lookup` (or
        eviction) to reap — peeking stays strictly read-only.
        """
        with self._lock:
            if self._expired(key):
                return None
            return self._entries.get(key)

    def store(self, key: str, result_payload: Mapping[str, Any]) -> None:
        """Store a serialized result under ``key`` (overwriting any old entry).

        The entry becomes the most recently used; when the ``max_entries``
        budget is exceeded, least recently used entries are evicted.  On
        persistent backends the key is marked dirty for the next flush (or
        persisted immediately under ``autosave``).
        """
        with self._lock:
            self._entries[key] = dict(result_payload)
            self._entries.move_to_end(key)
            self._stored_at[key] = time.time()
            if self._backend.persistent:
                self._dirty.add(key)
                self._dead.discard(key)
            self._evict_over_budget()
        # Autosave outside the in-memory lock: save() acquires the I/O lock
        # first, so saving from under `_lock` would invert the lock order.
        if self.autosave and self.path:
            self.save()
        elif self.write_behind:
            self._kick_flusher()

    def _evict_over_budget(self) -> int:
        """Drop least recently used entries until within budget; return count."""
        if self.max_entries is None:
            return 0
        evicted = 0
        while len(self._entries) > self.max_entries:
            key, _ = self._entries.popitem(last=False)
            self._stored_at.pop(key, None)
            self._dirty.discard(key)
            if self._backend.persistent:
                self._dead.add(key)
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries and not self._expired(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> Iterator[str]:
        """Iterate over the stored canonical keys, least recently used first.

        Returns a snapshot, so iteration is safe against concurrent stores.
        """
        with self._lock:
            return iter(list(self._entries))

    def clear(self) -> None:
        """Drop every entry (statistics are kept; use ``reset_stats`` too).

        On persistent backends the dropped keys are marked dead, so the next
        flush or save removes them from the durable tier as well.
        """
        with self._lock:
            for key in list(self._entries):
                self._drop_entry(key)

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/expiry/flush counters."""
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Durable persistence
    # ------------------------------------------------------------------
    def _load_initial(self) -> None:
        """Constructor-time load with quarantine-on-corruption semantics."""
        try:
            self.load()
        except CacheCorruptionError as error:
            if not self.quarantine:
                raise
            quarantined = self._backend.quarantine()
            logger.warning(
                "quarantined corrupt cache %s -> %s (%s); starting empty",
                self.path,
                quarantined,
                error,
            )

    def load(self) -> int:
        """(Re)load entries from the durable tier, merging over in-memory ones.

        The json backend accepts schema 1 (PR-1 ``{key: entry}`` object) and
        schema 2 (LRU ordered ``[[key, entry], ...]`` list); see the module
        docstring.  Loaded entries count as more recently used than existing
        in-memory ones, and the ``max_entries`` budget is enforced afterwards.

        Returns the number of loaded entries that *survive* in memory —
        duplicate keys and immediate over-budget eviction mean this can be
        less than the number of rows read.  Unknown schema versions and
        malformed entries are rejected with :class:`ValueError`; unreadable
        containers raise :class:`CacheCorruptionError`.
        """
        if not self.path:
            raise ValueError("cache has no backing path")
        rows = self._backend.load()
        now = time.time()
        with self._lock:
            loaded = set()
            for key, entry, stored_at in rows:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                self._stored_at[key] = stored_at if stored_at is not None else now
                self._dead.discard(key)
                loaded.add(key)
            self._evict_over_budget()
            return sum(1 for key in loaded if key in self._entries)

    def export_text(self) -> str:
        """The cache content as the canonical schema-2 interchange document.

        This is the ``repro cache export`` payload: identical bytes for
        identical content regardless of backend (stable key order, compact
        separators, LRU entry order), so snapshots round-trip byte-for-byte
        through ``export`` → ``import`` → ``export`` across backends.
        """
        with self._lock:
            pairs = list(self._entries.items())
        return dump_snapshot_text(pairs)

    def _snapshot_rows(self) -> List[CacheRow]:
        """Full LRU-ordered row snapshot (lock must be held)."""
        return [
            (key, entry, self._stored_at.get(key))
            for key, entry in self._entries.items()
        ]

    def _begin_write(self) -> List[str]:
        """Hand the pending keys to a backend write (lock must be held).

        Returns the dead keys.  The taken keys keep counting as pending
        until :meth:`_count_flush` (or :meth:`_remark_pending`) settles the
        write, so ``pending_dirty`` never reads 0 for rows not yet durable.
        """
        deletes = list(self._dead)
        self._writing = len(self._dirty) + len(deletes)
        self._dirty.clear()
        self._dead.clear()
        return deletes

    def _remark_pending(self, upserts, deletes) -> None:
        """Re-mark keys after a failed backend write so nothing is lost."""
        with self._lock:
            self._writing = 0
            for key, _, _ in upserts:
                if key in self._entries:
                    self._dirty.add(key)
            for key in deletes:
                if key not in self._entries:
                    self._dead.add(key)

    def _count_flush(self, written: int) -> None:
        with self._lock:
            self._writing = 0
            self.stats.flushes += 1
            self.stats.flushed_entries += written
        self._last_flush = time.monotonic()

    def save(self) -> None:
        """Persist every entry as one full snapshot (schema 2 for json).

        Writes are atomic per backend (unique temp file + ``os.replace``,
        or one SQLite transaction) and serialized against other writers in
        this process by a dedicated I/O lock; the in-memory lock is held
        only while snapshotting the entries, so concurrent lookups and
        stores never wait on the disk.  Because the in-memory mapping is
        LRU-bounded, the durable tier never receives more than
        ``max_entries`` entries from us.  Clears the write-behind backlog.
        """
        if not self.path:
            raise ValueError("cache has no backing path")
        with self._io_lock:
            with self._lock:
                rows = self._snapshot_rows()
                deletes = self._begin_write()
            try:
                written = self._backend.write_snapshot(rows, deletes)
            except BaseException:
                self._remark_pending(rows, deletes)
                raise
            if self._backend.persistent:
                self._count_flush(written)

    def flush(self) -> int:
        """Persist the pending write-behind increment now; return rows written.

        No-op (returning 0) when nothing is dirty or the backend is not
        persistent.  Partial-flush backends (sqlite) write only the dirty
        rows; whole-file backends rewrite the snapshot.
        """
        if not self._backend.persistent:
            return 0
        with self._io_lock:
            with self._lock:
                # O(dirty), not O(entries): partial-flush backends make the
                # per-store persistence cost independent of cache size, so
                # assembling the increment must not reintroduce a full scan.
                # Store-time order stands in for LRU order within the batch.
                dirty = sorted(
                    (key for key in self._dirty if key in self._entries),
                    key=lambda key: self._stored_at.get(key, 0.0),
                )
                upserts = [
                    (key, self._entries[key], self._stored_at.get(key))
                    for key in dirty
                ]
                if not upserts and not self._dead:
                    return 0
                deletes = self._begin_write()

            def snapshot():
                # Lazy: only whole-file backends pay for the full snapshot,
                # and they build it under the lock at write time.
                with self._lock:
                    return self._snapshot_rows()

            try:
                written = self._backend.flush(upserts, deletes, snapshot)
            except BaseException:
                self._remark_pending(upserts, deletes)
                raise
            self._count_flush(written)
        return written

    def compact(self) -> Dict[str, Any]:
        """Rewrite the durable tier from the (bounded) in-memory state.

        This is the maintenance pass for on-disk caches: opening an
        unbounded schema-1 file with a ``max_entries`` budget trims it in
        memory, and ``compact()`` then shrinks the store itself — a full
        snapshot rewrite plus space reclamation (``VACUUM`` for sqlite).  It
        is also the only operation that clears rows other processes wrote
        to a shared sqlite store, so run it from a single writer.  Returns a
        report with the entry count and store size before/after
        (``bytes_before`` is 0 when the store did not exist yet); the report
        is snapshotted under the cache locks, so its numbers are mutually
        consistent even with concurrent stores.
        """
        if not self.path:
            raise ValueError("cache has no backing path")
        with self._io_lock:
            bytes_before = self._backend.file_size()
            with self._lock:
                rows = self._snapshot_rows()
                entry_count = len(rows)
                deletes = self._begin_write()
            try:
                self._backend.compact(rows)
            except BaseException:
                self._remark_pending(rows, deletes)
                raise
            if self._backend.persistent:
                self._count_flush(entry_count)
            return {
                "entries": entry_count,
                "bytes_before": bytes_before,
                "bytes_after": self._backend.file_size(),
                "backend": self._backend.name,
            }

    # ------------------------------------------------------------------
    # Write-behind flusher
    # ------------------------------------------------------------------
    def _kick_flusher(self) -> None:
        """Start (lazily) and wake the background flusher thread."""
        with self._flush_cv:
            if self._closed:
                return
            if self._flusher is None:
                self._flusher = threading.Thread(
                    target=self._flusher_loop,
                    name="repro-cache-flusher",
                    daemon=True,
                )
                self._flusher.start()
            self._flush_cv.notify_all()

    def _flush_due(self) -> bool:
        """Whether the pending backlog has hit a write-behind threshold."""
        pending = self.pending_dirty
        if not pending:
            return False
        if self.flush_max_dirty is not None and pending >= self.flush_max_dirty:
            return True
        if self.flush_interval is not None:
            return (time.monotonic() - self._last_flush) >= self.flush_interval
        return False

    def _flusher_loop(self) -> None:
        while True:
            with self._flush_cv:
                if self._closed:
                    return
                if not self._flush_due():
                    self._flush_cv.wait(timeout=self.flush_interval)
                if self._closed:
                    return
                if not self._flush_due():
                    continue
            try:
                self.flush()
            except Exception:
                logger.warning(
                    "write-behind flush of %s failed; will retry",
                    self.path,
                    exc_info=True,
                )
                with self._flush_cv:
                    if self._closed:
                        return
                    self._flush_cv.wait(timeout=self.flush_interval or 1.0)

    def close(self, save: bool = True) -> None:
        """Stop the flusher, persist outstanding state, release the backend.

        Idempotent.  With ``save=False`` (read-only CLI flows) the durable
        tier is left untouched and only resources are released.
        """
        with self._flush_cv:
            already_closed = self._closed
            self._closed = True
            flusher = self._flusher
            self._flusher = None
            self._flush_cv.notify_all()
        if flusher is not None:
            flusher.join(timeout=_FLUSHER_JOIN_TIMEOUT)
        if self._backend_closed or already_closed:
            return
        try:
            if save and self.path:
                self.save()
        finally:
            self._backend.close()
            self._backend_closed = True
