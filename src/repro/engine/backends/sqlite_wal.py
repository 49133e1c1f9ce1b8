"""SQLite (WAL-mode) cache backend: one row per entry, partial flushes.

Selected by ``sqlite:results.db`` cache URLs.  This is the tier that removes
the JSON backend's two scaling ceilings named in ROADMAP.md:

* **Full-file rewrites** — each write-behind flush upserts only the dirty
  rows inside one ``BEGIN IMMEDIATE`` transaction, so per-store persistence
  cost is independent of cache size (``partial_flush = True``).
* **One writer** — WAL journal mode plus a busy timeout make concurrent
  writers from multiple processes on one host safe: writers queue on the
  database lock instead of clobbering each other, and readers never block.

Layout::

    cache_entries(key TEXT PRIMARY KEY, payload TEXT, recency INTEGER,
                  stored_at REAL)
    cache_meta(key TEXT PRIMARY KEY, value TEXT)   -- 'schema' = '2'

``payload`` holds the serialized result dict as compact JSON; ``recency`` is
a monotonically increasing counter (re-seeded from ``MAX(recency)`` inside
each write transaction, so interleaved processes stay roughly globally
ordered); ``stored_at`` is the store time, which orders a write-behind
flush.  LRU order is recovered on load by ``ORDER BY recency``.

Multi-process semantics: incremental flushes and snapshot saves only ever
upsert their own rows and delete keys *they* evicted — they never clear the
table — so two services sharing one database merge their entries instead of
overwriting each other.  ``compact()`` is the explicit single-writer full
rewrite (clears the table, re-inserts, ``VACUUM`` + WAL checkpoint).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Callable, List, Optional, Sequence

from .base import CacheBackend, CacheCorruptionError, CacheRow
from .json_file import CACHE_SCHEMA_VERSION, SUPPORTED_SCHEMA_VERSIONS

#: Seconds a writer waits on the database lock before giving up.
BUSY_TIMEOUT_SECONDS = 10.0


class SqliteWalBackend(CacheBackend):
    """Per-entry durable storage in a WAL-mode SQLite database."""

    name = "sqlite"
    persistent = True
    partial_flush = True

    def __init__(self, location: str) -> None:
        super().__init__(location=location)
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection management -----------------------------------------
    def _connection(self) -> sqlite3.Connection:
        if self._conn is not None:
            return self._conn
        directory = os.path.dirname(os.path.abspath(self.location))
        os.makedirs(directory, exist_ok=True)
        # isolation_level=None -> autocommit; transactions are explicit
        # (BEGIN IMMEDIATE) so VACUUM can run outside any transaction.
        # check_same_thread=False: the owning cache serializes access via
        # its I/O lock, but calls may come from the write-behind flusher
        # thread as well as request threads.
        conn = sqlite3.connect(
            self.location,
            timeout=BUSY_TIMEOUT_SECONDS,
            check_same_thread=False,
            isolation_level=None,
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS cache_entries ("
                " key TEXT PRIMARY KEY,"
                " payload TEXT NOT NULL,"
                " recency INTEGER NOT NULL,"
                " stored_at REAL NOT NULL)"
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS cache_entries_recency"
                " ON cache_entries (recency)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS cache_meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = conn.execute(
                "SELECT value FROM cache_meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR REPLACE INTO cache_meta (key, value)"
                    " VALUES ('schema', ?)",
                    (str(CACHE_SCHEMA_VERSION),),
                )
            elif row[0] not in {str(v) for v in SUPPORTED_SCHEMA_VERSIONS}:
                conn.close()
                raise ValueError(
                    f"unsupported cache schema {row[0]!r} in {self.location}"
                    f" (expected one of {SUPPORTED_SCHEMA_VERSIONS})"
                )
        except sqlite3.DatabaseError as error:
            conn.close()
            raise self._translate(error) from error
        self._conn = conn
        return conn

    def _translate(self, error: sqlite3.DatabaseError) -> Exception:
        message = str(error)
        if isinstance(error, sqlite3.OperationalError) and (
            "locked" in message or "busy" in message
        ):
            return OSError(f"cache database {self.location} is busy: {message}")
        return CacheCorruptionError(
            f"corrupt cache database {self.location}: {message}"
        )

    def _sidecar_paths(self) -> tuple:
        return (f"{self.location}-wal", f"{self.location}-shm")

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    # -- durable I/O ---------------------------------------------------
    def load(self) -> List[CacheRow]:
        try:
            conn = self._connection()
            raw = conn.execute(
                "SELECT key, payload, stored_at FROM cache_entries"
                " ORDER BY recency ASC, rowid ASC"
            ).fetchall()
        except sqlite3.DatabaseError as error:
            raise self._translate(error) from error
        rows: List[CacheRow] = []
        for key, text, stored_at in raw:
            try:
                entry = json.loads(text)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"malformed cache entry {key!r} in {self.location}: {error}"
                ) from error
            if not isinstance(entry, dict) or "complexity" not in entry:
                raise ValueError(
                    f"malformed cache entry {key!r} in {self.location}"
                )
            rows.append((key, entry, stored_at))
        return rows

    def _next_recency(self, conn: sqlite3.Connection) -> int:
        row = conn.execute(
            "SELECT COALESCE(MAX(recency), 0) FROM cache_entries"
        ).fetchone()
        return int(row[0]) + 1

    def _upsert_rows(
        self, conn: sqlite3.Connection, rows: Sequence[CacheRow]
    ) -> None:
        base = self._next_recency(conn)
        now = time.time()
        conn.executemany(
            "INSERT INTO cache_entries (key, payload, recency, stored_at)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET payload = excluded.payload,"
            " recency = excluded.recency, stored_at = excluded.stored_at",
            [
                (
                    key,
                    json.dumps(entry, indent=None, sort_keys=True),
                    base + offset,
                    stored_at if stored_at is not None else now,
                )
                for offset, (key, entry, stored_at) in enumerate(rows)
            ],
        )

    def write_snapshot(
        self, rows: Sequence[CacheRow], deletes: Sequence[str] = ()
    ) -> int:
        conn = self._connection()
        try:
            conn.execute("BEGIN IMMEDIATE")
            self._upsert_rows(conn, rows)
            if deletes:
                conn.executemany(
                    "DELETE FROM cache_entries WHERE key = ?",
                    [(key,) for key in deletes],
                )
            conn.execute("COMMIT")
        except sqlite3.DatabaseError as error:
            conn.execute("ROLLBACK")
            raise self._translate(error) from error
        return len(rows)

    def flush(
        self,
        upserts: Sequence[CacheRow],
        deletes: Sequence[str],
        snapshot: Callable[[], Sequence[CacheRow]],
    ) -> int:
        # Partial write: only the dirty rows and tracked deletions — never
        # the full snapshot.  This is the sublinear-per-store property the
        # perf-smoke gate asserts.
        return self.write_snapshot(upserts, deletes)

    def compact(self, rows: Sequence[CacheRow]) -> None:
        conn = self._connection()
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute("DELETE FROM cache_entries")
            self._upsert_rows(conn, rows)
            conn.execute("COMMIT")
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.DatabaseError as error:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.DatabaseError:
                pass
            raise self._translate(error) from error
