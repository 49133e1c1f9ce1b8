"""Cache-backend matrix: URL parsing, durability, write-behind, recovery.

The PR-9 surface in one place:

* ``parse_cache_url`` / ``create_backend`` selection rules,
* behavior parity across the ``memory`` / ``json`` / ``sqlite`` backends,
* write-behind flushing (partial for sqlite, whole-file for json),
* corruption quarantine at construction,
* export/import byte-identity across backends,
* the two-process json temp-file corruption regression (fixed ``{path}.tmp``),
* SIGKILL crash recovery: the survivor store always parses and keeps every
  acknowledged flush.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.engine.backends import (
    BACKEND_ENV_VAR,
    CacheCorruptionError,
    JsonFileBackend,
    MemoryBackend,
    SqliteWalBackend,
    create_backend,
    dump_snapshot_text,
    parse_cache_url,
    parse_snapshot_text,
)
from repro.engine import cache as cache_module
from repro.engine.cache import FLUSH_MAX_DIRTY, ClassificationCache

DURABLE = ("json", "sqlite")
ALL_BACKENDS = ("memory",) + DURABLE


def _entry(tag):
    return {"complexity": "CONSTANT", "tag": str(tag)}


def _url(backend, tmp_path):
    if backend == "memory":
        return "memory:"
    suffix = "json" if backend == "json" else "db"
    return f"{backend}:{tmp_path / f'cache.{suffix}'}"


def _store_path(url):
    return url.split(":", 1)[1]


def _subprocess_env():
    env = os.environ.copy()
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ----------------------------------------------------------------------
# URL parsing / backend selection
# ----------------------------------------------------------------------
class TestCacheUrls:
    def test_bare_path_defaults_to_json(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert parse_cache_url("results.json") == ("json", "results.json")
        assert parse_cache_url("/var/lib/repro/c.json")[0] == "json"

    def test_explicit_schemes(self):
        assert parse_cache_url("json:c.json") == ("json", "c.json")
        assert parse_cache_url("sqlite:c.db") == ("sqlite", "c.db")
        assert parse_cache_url("sqlite://c.db") == ("sqlite", "c.db")
        assert parse_cache_url("memory:") == ("memory", None)
        assert parse_cache_url("memory") == ("memory", None)

    def test_env_var_retargets_bare_paths(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        assert parse_cache_url("results.json") == ("sqlite", "results.json")
        # Explicit schemes always win over the environment.
        assert parse_cache_url("json:results.json")[0] == "json"

    def test_invalid_env_var_is_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "redis")
        with pytest.raises(ValueError):
            parse_cache_url("results.json")

    def test_unknown_scheme_is_rejected(self):
        with pytest.raises(ValueError):
            parse_cache_url("redis:results")

    def test_memory_with_path_is_rejected(self):
        with pytest.raises(ValueError):
            parse_cache_url("memory:somewhere.json")

    def test_missing_location_is_rejected(self):
        for url in ("", "json:", "sqlite:"):
            with pytest.raises(ValueError):
                parse_cache_url(url)

    def test_single_letter_head_stays_a_bare_path(self, monkeypatch):
        # Windows-style drive prefixes must not read as URL schemes.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert parse_cache_url("C:/caches/c.json") == ("json", "C:/caches/c.json")

    def test_create_backend_types(self, tmp_path):
        assert isinstance(create_backend("memory:"), MemoryBackend)
        assert isinstance(create_backend(f"json:{tmp_path}/c.json"), JsonFileBackend)
        backend = create_backend(f"sqlite:{tmp_path}/c.db")
        assert isinstance(backend, SqliteWalBackend)
        backend.close()


# ----------------------------------------------------------------------
# Behavior parity across every backend
# ----------------------------------------------------------------------
class TestBackendMatrix:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_store_lookup_round_trip(self, backend, tmp_path):
        cache = ClassificationCache(path=_url(backend, tmp_path))
        try:
            assert cache.backend_name == backend
            assert cache.persistent == (backend != "memory")
            cache.store("k", _entry("v"))
            assert cache.lookup("k") == _entry("v")
            assert cache.stats.hits == 1
        finally:
            cache.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_info_reports_the_backend(self, backend, tmp_path):
        cache = ClassificationCache(path=_url(backend, tmp_path))
        try:
            info = cache.info()
            assert info["backend"] == backend
            assert info["persistent"] == (backend != "memory")
            assert info["dirty"] == 0
            assert info["flushes"] == 0
        finally:
            cache.close()

    def test_memory_backend_persists_nothing(self, tmp_path):
        cache = ClassificationCache(path="memory:")
        cache.store("k", _entry("v"))
        cache.save()  # a no-op, not an error
        assert cache.stats.flushes == 0
        cache.close()
        reopened = ClassificationCache(path="memory:")
        assert len(reopened) == 0

    @pytest.mark.parametrize("backend", DURABLE)
    def test_save_and_reopen_keeps_entries_and_lru_order(self, backend, tmp_path):
        url = _url(backend, tmp_path)
        cache = ClassificationCache(path=url)
        for key in ("a", "b", "c"):
            cache.store(key, _entry(key))
        cache.lookup("a")  # LRU order becomes b, c, a
        cache.close()  # close() saves

        reopened = ClassificationCache(path=url, max_entries=3)
        try:
            assert list(reopened.keys()) == ["b", "c", "a"]
            reopened.store("d", _entry("d"))  # "b" is still the LRU entry
            assert "b" not in reopened
        finally:
            reopened.close(save=False)

    @pytest.mark.parametrize("backend", DURABLE)
    def test_load_returns_surviving_entry_count(self, backend, tmp_path):
        url = _url(backend, tmp_path)
        writer = ClassificationCache(path=url)
        for index in range(5):
            writer.store(f"k{index}", _entry(index))
        writer.close()

        bounded = ClassificationCache(path=url, max_entries=2)
        try:
            assert len(bounded) == 2
            # An explicit reload reads 5 rows but only 2 survive the budget.
            assert bounded.load() == 2
        finally:
            bounded.close(save=False)

    @pytest.mark.parametrize("backend", DURABLE)
    def test_compact_report_and_shrink(self, backend, tmp_path):
        url = _url(backend, tmp_path)
        cache = ClassificationCache(path=url)
        for index in range(200):
            cache.store(f"k{index}", _entry("x" * 200))
        # First compact materializes everything in the main store file (for
        # sqlite a plain save lands in the WAL sidecar until a checkpoint).
        grown = cache.compact()["bytes_after"]
        cache.clear()
        for index in range(3):
            cache.store(f"fresh{index}", _entry(index))
        report = cache.compact()
        try:
            assert report["backend"] == backend
            assert report["entries"] == 3
            assert report["bytes_before"] == grown
            assert report["bytes_after"] < grown
            reopened = ClassificationCache(path=url)
            assert set(reopened.keys()) == {"fresh0", "fresh1", "fresh2"}
            reopened.close(save=False)
        finally:
            cache.close(save=False)


# ----------------------------------------------------------------------
# Write-behind flushing
# ----------------------------------------------------------------------
class TestWriteBehind:
    @pytest.mark.parametrize("backend", DURABLE)
    def test_flush_is_partial_for_sqlite_full_for_json(self, backend, tmp_path):
        url = _url(backend, tmp_path)
        cache = ClassificationCache(path=url)
        try:
            for key in ("a", "b", "c"):
                cache.store(key, _entry(key))
            cache.save()
            baseline = cache.stats.flushed_entries
            cache.store("d", _entry("d"))
            assert cache.pending_dirty == 1
            written = cache.flush()
            assert cache.pending_dirty == 0
            # sqlite upserts just the dirty row; json rewrites the snapshot.
            expected = 1 if cache.backend.partial_flush else 4
            assert written == expected
            assert cache.stats.flushed_entries == baseline + expected
            assert cache.flush() == 0  # nothing dirty -> no-op
        finally:
            cache.close(save=False)
        reopened = ClassificationCache(path=url)
        assert set(reopened.keys()) == {"a", "b", "c", "d"}
        reopened.close(save=False)

    @pytest.mark.parametrize("backend", DURABLE)
    def test_count_threshold_triggers_background_flush(
        self, backend, tmp_path, monkeypatch
    ):
        # Only the count can trigger a flush within this test.
        monkeypatch.setattr(cache_module, "FLUSH_INTERVAL_SECONDS", 60.0)
        url = _url(backend, tmp_path)
        keys = [f"k{index}" for index in range(FLUSH_MAX_DIRTY)]
        cache = ClassificationCache(path=url)
        cache.enable_write_behind()
        try:
            for key in keys[:-1]:
                cache.store(key, _entry(key))
            time.sleep(0.05)
            assert cache.stats.flushes == 0  # one key short of the threshold
            cache.store(keys[-1], _entry(keys[-1]))
            deadline = time.monotonic() + 10
            while cache.pending_dirty and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cache.pending_dirty == 0
            assert cache.stats.flushes >= 1
        finally:
            cache.close(save=False)
        reopened = ClassificationCache(path=url)
        assert set(reopened.keys()) == set(keys)
        reopened.close(save=False)

    @pytest.mark.parametrize("backend", DURABLE)
    def test_interval_threshold_triggers_background_flush(
        self, backend, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "FLUSH_INTERVAL_SECONDS", 0.05)
        url = _url(backend, tmp_path)
        cache = ClassificationCache(path=url)
        cache.enable_write_behind()
        try:
            cache.store("k", _entry("v"))
            deadline = time.monotonic() + 10
            while cache.pending_dirty and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cache.pending_dirty == 0
        finally:
            cache.close(save=False)
        reopened = ClassificationCache(path=url)
        assert "k" in reopened
        reopened.close(save=False)

    @pytest.mark.parametrize("backend", DURABLE)
    def test_flush_deletes_evicted_entries_from_the_store(self, backend, tmp_path):
        url = _url(backend, tmp_path)
        cache = ClassificationCache(path=url, max_entries=2)
        try:
            cache.store("a", _entry("a"))
            cache.store("b", _entry("b"))
            cache.save()
            cache.store("c", _entry("c"))  # evicts "a"
            assert cache.stats.evictions == 1
            cache.flush()
        finally:
            cache.close(save=False)
        reopened = ClassificationCache(path=url)
        assert set(reopened.keys()) == {"b", "c"}
        reopened.close(save=False)

    @pytest.mark.parametrize("backend", DURABLE)
    def test_clear_propagates_to_the_store_on_save(self, backend, tmp_path):
        url = _url(backend, tmp_path)
        cache = ClassificationCache(path=url)
        cache.store("a", _entry("a"))
        cache.store("b", _entry("b"))
        cache.save()
        cache.clear()
        cache.close()  # final save persists the deletions
        reopened = ClassificationCache(path=url)
        assert len(reopened) == 0
        reopened.close(save=False)


# ----------------------------------------------------------------------
# Corruption quarantine (satellite 2)
# ----------------------------------------------------------------------
class TestCorruptionQuarantine:
    def _corrupt_store(self, backend, tmp_path):
        url = _url(backend, tmp_path)
        path = _store_path(url)
        if backend == "json":
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"schema": 2, "entries": [["k", {"complex')
        else:
            with open(path, "wb") as handle:
                handle.write(b"this is definitely not a sqlite database\n")
        return url, path

    @pytest.mark.parametrize("backend", DURABLE)
    def test_corrupt_store_is_quarantined_by_default(self, backend, tmp_path, caplog):
        url, path = self._corrupt_store(backend, tmp_path)
        original = open(path, "rb").read()
        with caplog.at_level("WARNING", logger="repro.engine.cache"):
            cache = ClassificationCache(path=url)
        try:
            assert len(cache) == 0
            assert any("quarantined corrupt cache" in r.message for r in caplog.records)
            corpses = [
                name
                for name in os.listdir(tmp_path)
                if ".corrupt-" in name and not name.endswith(("-wal", "-shm"))
            ]
            assert len(corpses) == 1
            # The bad bytes are preserved for post-mortems, never deleted.
            with open(tmp_path / corpses[0], "rb") as handle:
                assert handle.read() == original
            # The cache is usable and persists to the now-clean path.
            cache.store("k", _entry("v"))
            cache.save()
        finally:
            cache.close(save=False)
        reopened = ClassificationCache(path=url)
        assert "k" in reopened
        reopened.close(save=False)

    @pytest.mark.parametrize("backend", DURABLE)
    def test_quarantine_false_raises_corruption_error(self, backend, tmp_path):
        url, _path = self._corrupt_store(backend, tmp_path)
        with pytest.raises(CacheCorruptionError):
            ClassificationCache(path=url, quarantine=False)

    def test_structural_errors_are_never_quarantined(self, tmp_path):
        """Unknown schemas may be future files: error out, leave them alone."""
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        with pytest.raises(ValueError) as excinfo:
            ClassificationCache(path=f"json:{path}")
        assert not isinstance(excinfo.value, CacheCorruptionError)
        assert path.exists()
        assert not any(".corrupt-" in name for name in os.listdir(tmp_path))


# ----------------------------------------------------------------------
# Export / import interchange
# ----------------------------------------------------------------------
class TestExportImport:
    @pytest.mark.parametrize("source", DURABLE + ("memory",))
    @pytest.mark.parametrize("target", DURABLE)
    def test_snapshots_round_trip_byte_identically(self, source, target, tmp_path):
        origin = ClassificationCache(path=_url(source, tmp_path / "src"))
        for key in ("b", "a", "c"):  # deliberate non-sorted LRU order
            origin.store(key, _entry(key))
        origin.lookup("b")
        exported = origin.export_text()
        origin.close(save=False)

        imported = ClassificationCache(path=_url(target, tmp_path / "dst"))
        for key, entry in parse_snapshot_text(exported, "test"):
            imported.store(key, entry)
        assert imported.export_text() == exported
        imported.close()  # persist, then prove the store reloads identically

        reopened = ClassificationCache(path=_url(target, tmp_path / "dst"))
        assert reopened.export_text() == exported
        reopened.close(save=False)

    def test_export_is_the_canonical_schema_2_document(self, tmp_path):
        cache = ClassificationCache(path=_url("json", tmp_path))
        cache.store("k", _entry("v"))
        exported = cache.export_text()
        cache.close(save=False)
        payload = json.loads(exported)
        assert payload["schema"] == 2
        assert payload["entries"] == [["k", _entry("v")]]
        assert exported == dump_snapshot_text([("k", _entry("v"))])


# ----------------------------------------------------------------------
# sqlite multi-process semantics
# ----------------------------------------------------------------------
class TestSqliteSharedStore:
    def test_two_writers_merge_disjoint_keys(self, tmp_path):
        url = _url("sqlite", tmp_path)
        first = ClassificationCache(path=url)
        second = ClassificationCache(path=url)  # opened before first persists
        first.store("a", _entry("a"))
        first.flush()
        second.store("b", _entry("b"))
        # A full save from `second` must not clear `first`'s rows: snapshots
        # only upsert owned rows and delete tracked-dead keys.
        second.save()
        first.close(save=False)
        second.close(save=False)

        merged = ClassificationCache(path=url)
        try:
            assert set(merged.keys()) == {"a", "b"}
        finally:
            merged.close(save=False)

    def test_compact_is_the_single_writer_rewrite(self, tmp_path):
        url = _url("sqlite", tmp_path)
        other = ClassificationCache(path=url)
        other.store("foreign", _entry("f"))
        other.flush()
        other.close(save=False)

        owner = ClassificationCache(path=url)  # loads "foreign" too
        owner.clear()
        owner.store("mine", _entry("m"))
        owner.compact()
        owner.close(save=False)

        reopened = ClassificationCache(path=url)
        try:
            assert set(reopened.keys()) == {"mine"}
        finally:
            reopened.close(save=False)


# ----------------------------------------------------------------------
# Cross-process durability (satellites 1 and 4)
# ----------------------------------------------------------------------
_HAMMER_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.engine.cache import ClassificationCache

    url, iterations, tag = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    for index in range(iterations):
        # quarantine=False: any corruption crashes this writer loudly.
        cache = ClassificationCache(path=url, quarantine=False)
        cache.store(f"{tag}-{index}", {"complexity": "CONSTANT", "tag": tag})
        cache.save()
        cache.close(save=False)
    """
)

_CRASH_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.engine.cache import ClassificationCache

    cache = ClassificationCache(path=sys.argv[1])
    index = 0
    while True:
        key = f"k{index}"
        cache.store(key, {"complexity": "CONSTANT", "i": index})
        cache.flush()
        print(key, flush=True)  # ack: this key is durable
        index += 1
    """
)


class TestCrossProcessDurability:
    def test_concurrent_json_savers_never_corrupt_the_file(self, tmp_path):
        """Regression for the fixed ``{path}.tmp`` temp name (satellite 1).

        Two processes hammering ``save()`` on one json path used to share a
        single temp file and interleave writes into it; with per-writer
        ``mkstemp`` names the last atomic rename simply wins.  The file must
        parse at every instant and both writers must survive.
        """
        path = tmp_path / "shared.json"
        url = f"json:{path}"
        seeder = ClassificationCache(path=url)
        seeder.store("seed", _entry("seed"))
        seeder.close()

        env = _subprocess_env()
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _HAMMER_SCRIPT, url, "40", tag],
                env=env,
                stderr=subprocess.PIPE,
            )
            for tag in ("alpha", "beta")
        ]
        observed_parses = 0
        while any(writer.poll() is None for writer in writers):
            payload = json.loads(path.read_text())  # atomic rename: never torn
            assert payload["schema"] == 2
            observed_parses += 1
            time.sleep(0.005)
        for writer in writers:
            _, stderr = writer.communicate(timeout=60)
            assert writer.returncode == 0, stderr.decode()
        assert observed_parses > 0
        final = json.loads(path.read_text())
        assert final["schema"] == 2
        # No temp-file litter: every mkstemp file was renamed or unlinked.
        assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]

    @pytest.mark.parametrize("backend", DURABLE)
    def test_sigkill_mid_write_loses_at_most_the_in_flight_flush(
        self, backend, tmp_path
    ):
        """Crash-recovery acceptance (satellite 4).

        A writer stores, flushes, and acknowledges keys until it is killed
        with SIGKILL.  The survivor store must (a) still parse — no
        quarantine, no corruption error — and (b) contain every acknowledged
        key: an ack is only printed after the flush returned.
        """
        url = _url(backend, tmp_path)
        writer = subprocess.Popen(
            [sys.executable, "-c", _CRASH_SCRIPT, url],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        acked = []
        try:
            while len(acked) < 5:
                line = writer.stdout.readline()
                if not line:
                    break
                acked.append(line.strip())
        finally:
            os.kill(writer.pid, signal.SIGKILL)
            writer.wait(timeout=60)
            writer.stdout.close()
        assert len(acked) >= 5

        survivor = ClassificationCache(path=url, quarantine=False)
        try:
            for key in acked:
                assert key in survivor, f"acknowledged {key} lost after SIGKILL"
        finally:
            survivor.close(save=False)
