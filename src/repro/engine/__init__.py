"""Batch classification engine: canonical forms, caching, and batching.

This package amortizes the cost of the paper's decision procedure across
fleets of problems:

* :mod:`repro.engine.canonical` — canonical relabeling of an
  :class:`~repro.core.problem.LCLProblem`, invariant under label renaming,
  with a stable cache key,
* :mod:`repro.engine.cache` — in-memory result cache keyed by canonical
  form over a pluggable durable tier (:mod:`repro.engine.backends`: json
  file, sqlite-WAL, or memory-only), with hit/miss/eviction/flush
  statistics, write-behind persistence, and an optional LRU
  ``max_entries`` budget enforced in memory and on disk,
* :mod:`repro.engine.batch` — :func:`~repro.engine.batch.submit`, which
  canonicalizes one problem within its deadline, hands the form to the
  single-flight scheduler of :mod:`repro.workers` (inline, thread-pool, or
  process-pool execution), and translates the cached canonical result back
  through the problem's label bijection,
* :mod:`repro.engine.serialization` — dict/JSON round-tripping of problems
  and classification results, so results survive process boundaries and the
  on-disk cache.
"""

from .backends import (
    CacheBackend,
    CacheCorruptionError,
    JsonFileBackend,
    MemoryBackend,
    SqliteWalBackend,
    create_backend,
    parse_cache_url,
)
from .batch import BatchItem, BatchStats
from .cache import CacheStats, ClassificationCache
from .canonical import CanonicalForm, canonical_form, canonical_key
from .serialization import (
    problem_from_dict,
    problem_to_dict,
    relabel_result,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "BatchItem",
    "BatchStats",
    "CacheBackend",
    "CacheCorruptionError",
    "CacheStats",
    "CanonicalForm",
    "ClassificationCache",
    "JsonFileBackend",
    "MemoryBackend",
    "SqliteWalBackend",
    "canonical_form",
    "canonical_key",
    "create_backend",
    "parse_cache_url",
    "problem_from_dict",
    "problem_to_dict",
    "relabel_result",
    "result_from_dict",
    "result_to_dict",
]
