"""Tests for the batch classification engine (canonical forms, cache, batching).

Batching is exercised through ``local://`` sessions, whose driver submits
every problem through :func:`repro.engine.batch.submit`.
"""

import json
import random

import pytest

from repro.api import connect
from repro.core import ComplexityClass, classify, classify_with_certificates
from repro.engine import (
    ClassificationCache,
    canonical_form,
    canonical_key,
    problem_from_dict,
    problem_to_dict,
    relabel_result,
    result_from_dict,
    result_to_dict,
)
from repro.problems import catalog
from repro.problems.random_problems import random_problem


def _random_relabeling(problem, rng):
    labels = problem.sorted_labels()
    targets = [f"x{index}" for index in range(len(labels))]
    rng.shuffle(targets)
    return dict(zip(labels, targets))


# ----------------------------------------------------------------------
# Canonical forms
# ----------------------------------------------------------------------
class TestCanonicalForm:
    def test_invariant_under_random_permutations(self):
        """Property: relabeling never changes the canonical key."""
        rng = random.Random(7)
        for trial in range(60):
            problem = random_problem(3, density=0.4, seed=trial)
            relabeled = problem.relabel(_random_relabeling(problem, rng))
            assert canonical_key(problem) == canonical_key(relabeled), (
                f"trial {trial}: canonical key not renaming-invariant"
            )

    def test_invariant_on_catalog_problems(self):
        rng = random.Random(11)
        for name, (problem, _expected) in catalog().items():
            relabeled = problem.relabel(_random_relabeling(problem, rng))
            assert canonical_key(problem) == canonical_key(relabeled), name

    def test_different_problems_get_different_keys(self):
        two_coloring = catalog()["2-coloring"][0]
        three_coloring = catalog()["3-coloring"][0]
        assert canonical_key(two_coloring) != canonical_key(three_coloring)

    def test_mappings_are_inverse_bijections(self):
        problem = catalog()["3-coloring"][0]
        form = canonical_form(problem)
        assert set(form.forward) == set(problem.labels)
        for label, canonical in form.forward.items():
            assert form.inverse[canonical] == label
        # Round-tripping the canonical problem through the inverse mapping
        # reproduces the original configurations.
        assert form.canonical_problem.relabel(dict(form.inverse)).configurations == (
            problem.configurations
        )

    def test_canonical_problem_is_classified_identically(self):
        for name, (problem, expected) in catalog().items():
            form = canonical_form(problem)
            assert classify(form.canonical_problem).complexity == expected, name

    def test_alphabet_size_is_part_of_the_key(self):
        base = random_problem(2, density=1.0, seed=0)
        padded = base.create(
            delta=base.delta,
            configurations=[(c.parent, c.children) for c in base.configurations],
            labels=list(base.labels) + ["unused"],
        )
        assert canonical_key(base) != canonical_key(padded)

    def test_digest_is_stable(self):
        problem = catalog()["mis"][0]
        assert canonical_form(problem).digest == canonical_form(problem).digest


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestSerialization:
    def test_problem_round_trip(self):
        for name, (problem, _expected) in catalog().items():
            payload = json.loads(json.dumps(problem_to_dict(problem)))
            assert problem_from_dict(payload) == problem, name

    def test_result_round_trip(self):
        for name, (problem, _expected) in catalog().items():
            result = classify(problem)
            payload = json.loads(json.dumps(result_to_dict(result)))
            assert result_from_dict(payload) == result, name

    def test_relabel_result_round_trip(self):
        problem = catalog()["mis"][0]
        result = classify(problem)
        mapping = {label: f"y{label}" for label in problem.labels}
        inverse = {value: key for key, value in mapping.items()}
        assert relabel_result(relabel_result(result, mapping), inverse) == result

    def test_relabel_result_translates_certificate_labels(self):
        problem = catalog()["mis"][0]
        result = classify(problem)
        assert result.constant_certificate_labels is not None
        mapping = {label: f"z{label}" for label in problem.labels}
        translated = relabel_result(result, mapping)
        assert translated.constant_certificate_labels == frozenset(
            mapping[label] for label in result.constant_certificate_labels
        )
        assert translated.complexity == result.complexity


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestClassificationCache:
    def test_hit_miss_statistics(self):
        cache = ClassificationCache()
        assert cache.lookup("k") is None
        cache.store("k", {"complexity": "CONSTANT"})
        assert cache.lookup("k") == {"complexity": "CONSTANT"}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_does_not_touch_stats(self):
        cache = ClassificationCache()
        cache.store("k", {"complexity": "CONSTANT"})
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        assert cache.stats.total == 0

    def test_on_disk_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ClassificationCache(path=str(path))
        cache.store("k1", {"complexity": "CONSTANT"})
        cache.store("k2", {"complexity": "LOG"})
        cache.save()

        reloaded = ClassificationCache(path=str(path))
        assert len(reloaded) == 2
        assert reloaded.peek("k1") == {"complexity": "CONSTANT"}
        assert set(reloaded.keys()) == {"k1", "k2"}

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"schema": 999, "entries": {}}))
        with pytest.raises(ValueError):
            ClassificationCache(path="json:" + str(path))

    def test_save_without_path_fails(self):
        with pytest.raises(ValueError):
            ClassificationCache().save()


# ----------------------------------------------------------------------
# Cache eviction (LRU, max_entries budget, compaction)
# ----------------------------------------------------------------------
class TestCacheEviction:
    @staticmethod
    def _entry(tag):
        return {"complexity": "CONSTANT", "tag": tag}

    def test_budget_is_never_exceeded_in_memory(self):
        cache = ClassificationCache(max_entries=3)
        for index in range(10):
            cache.store(f"k{index}", self._entry(index))
            assert len(cache) <= 3
        assert cache.stats.evictions == 7
        assert list(cache.keys()) == ["k7", "k8", "k9"]

    def test_lookup_refreshes_lru_order(self):
        cache = ClassificationCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.store(key, self._entry(key))
        assert cache.lookup("a") is not None  # refresh: "b" is now oldest
        cache.store("d", self._entry("d"))
        assert "b" not in cache
        assert set(cache.keys()) == {"a", "c", "d"}

    def test_peek_does_not_refresh_lru_order(self):
        cache = ClassificationCache(max_entries=2)
        cache.store("a", self._entry("a"))
        cache.store("b", self._entry("b"))
        assert cache.peek("a") is not None  # no refresh: "a" stays oldest
        cache.store("c", self._entry("c"))
        assert "a" not in cache
        assert set(cache.keys()) == {"b", "c"}

    def test_restore_refreshes_recency(self):
        cache = ClassificationCache(max_entries=2)
        cache.store("a", self._entry("a"))
        cache.store("b", self._entry("b"))
        cache.store("a", self._entry("a2"))  # overwrite refreshes recency
        cache.store("c", self._entry("c"))
        assert "b" not in cache
        assert cache.peek("a") == self._entry("a2")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ClassificationCache(max_entries=0)

    def test_max_entries_holds_on_disk_too(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ClassificationCache(path="json:" + str(path), max_entries=3)
        for index in range(10):
            cache.store(f"k{index}", self._entry(index))
        cache.save()
        payload = json.loads(path.read_text())
        assert payload["schema"] == 2
        assert len(payload["entries"]) == 3

    def test_lru_order_survives_save_load_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ClassificationCache(path=str(path), max_entries=3)
        for key in ("a", "b", "c"):
            cache.store(key, self._entry(key))
        cache.lookup("a")  # order on disk becomes b, c, a
        cache.save()

        reloaded = ClassificationCache(path=str(path), max_entries=3)
        assert list(reloaded.keys()) == ["b", "c", "a"]
        reloaded.store("d", self._entry("d"))  # "b" is still the LRU entry
        assert "b" not in reloaded

    def test_loads_legacy_schema_1_files(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "entries": {f"k{i}": self._entry(i) for i in range(5)}}
            )
        )
        unbounded = ClassificationCache(path="json:" + str(path))
        assert len(unbounded) == 5

        bounded = ClassificationCache(path="json:" + str(path), max_entries=2)
        assert len(bounded) == 2
        assert bounded.stats.evictions == 3

    def test_compaction_round_trip_shrinks_legacy_files(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps(
                {"schema": 1, "entries": {f"k{i}": self._entry(i) for i in range(50)}}
            )
        )
        bytes_before = path.stat().st_size

        cache = ClassificationCache(path="json:" + str(path), max_entries=5)
        report = cache.compact()
        assert report["entries"] == 5
        assert report["bytes_before"] == bytes_before
        assert report["bytes_after"] < bytes_before

        reloaded = ClassificationCache(path="json:" + str(path))
        assert len(reloaded) == 5
        assert json.loads(path.read_text())["schema"] == 2

    def test_rejects_malformed_schema_2_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"schema": 2, "entries": [["k", {}, "extra"]]}))
        with pytest.raises(ValueError):
            ClassificationCache(path="json:" + str(path))

    def test_stats_report_includes_evictions(self):
        cache = ClassificationCache(max_entries=1)
        cache.store("a", self._entry("a"))
        cache.store("b", self._entry("b"))
        assert cache.stats.as_dict()["evictions"] == 1

    def test_bounded_cache_still_answers_whole_batch(self):
        """A budget smaller than the batch's distinct orbits loses no answers."""
        problems = [random_problem(2, density=0.5, seed=seed) for seed in range(40)]
        with connect("local://inline?cache_max_entries=2") as bounded:
            outcomes = list(bounded.classify_many(problems))
            assert bounded.stats()["cache"]["entries"] <= 2
        assert [outcome.result.complexity for outcome in outcomes] == [
            classify(problem).complexity for problem in problems
        ]


# ----------------------------------------------------------------------
# Batching through a local session
# ----------------------------------------------------------------------
class TestBatchClassifier:
    def test_cache_hit_equals_fresh_classification(self):
        """A hit on the identical problem reproduces the fresh result exactly."""
        for name, (problem, _expected) in catalog().items():
            # One session per entry: some catalog entries are isomorphic to
            # each other (pi-1 is a renaming of 2-coloring) and would otherwise
            # already be cached.
            with connect("local://inline") as session:
                fresh = session.classify(problem)
                hit = session.classify(problem)
            assert not fresh.from_cache
            assert hit.from_cache
            assert hit.result == fresh.result, name
            assert hit.result == classify_with_certificates(problem).result, name

    def test_isomorphic_hit_is_valid(self):
        """A hit on an isomorphic problem yields a correct, well-formed result."""
        rng = random.Random(3)
        with connect("local://inline") as session:
            for name, (problem, expected) in catalog().items():
                session.classify(problem)
                relabeled = problem.relabel(_random_relabeling(problem, rng))
                outcome = session.classify(relabeled)
                assert outcome.from_cache, name
                assert outcome.result.complexity == expected, name
                for labels in (
                    outcome.result.log_certificate_labels,
                    outcome.result.logstar_certificate_labels,
                    outcome.result.constant_certificate_labels,
                ):
                    if labels is not None:
                        assert labels <= relabeled.labels, name

    def test_batch_matches_naive_classification(self):
        problems = [random_problem(2, density=0.5, seed=seed) for seed in range(80)]
        with connect("local://inline") as session:
            outcomes = list(session.classify_many(problems))
        assert [outcome.result.complexity for outcome in outcomes] == [
            classify(problem).complexity for problem in problems
        ]

    def test_duplicate_heavy_census_amortization(self):
        """Acceptance: >=5x fewer full searches on a 200-draw census."""
        problems = [random_problem(2, density=0.5, seed=seed) for seed in range(200)]
        with connect("local://inline") as session:
            list(session.classify_many(problems))
            stats = session.stats()
        batch = stats["batch"]
        assert batch["submitted"] == 200
        assert batch["full_searches"] * 5 <= batch["submitted"], batch
        assert stats["cache"]["hit_rate"] >= 0.8

    def test_batch_results_in_submission_order(self):
        problems = [
            catalog()["mis"][0],
            catalog()["2-coloring"][0],
            catalog()["mis"][0],
        ]
        with connect("local://inline") as session:
            outcomes = list(session.classify_many(problems))
        assert outcomes[0].result.complexity is ComplexityClass.CONSTANT
        assert outcomes[1].result.complexity is ComplexityClass.POLYNOMIAL
        assert outcomes[2].result.complexity is ComplexityClass.CONSTANT
        assert not outcomes[0].from_cache
        assert outcomes[2].from_cache

    def test_multiprocessing_agrees_with_serial(self):
        problems = [random_problem(3, density=0.25, seed=seed) for seed in range(12)]
        with connect("local://inline") as serial:
            serial_outcomes = list(serial.classify_many(problems))
        with connect("local://processes?workers=2") as parallel:
            parallel_outcomes = list(parallel.classify_many(problems))
        assert [outcome.result for outcome in serial_outcomes] == [
            outcome.result for outcome in parallel_outcomes
        ]

    def test_persistent_cache_spans_classifier_instances(self, tmp_path):
        path = tmp_path / "results.json"
        problems = [random_problem(2, density=0.5, seed=seed) for seed in range(30)]

        with connect("local://inline", cache_path=str(path)) as first:
            first_outcomes = list(first.classify_many(problems))
            assert first.stats()["batch"]["full_searches"] > 0

        with connect("local://inline", cache_path=str(path)) as second:
            second_outcomes = list(second.classify_many(problems))
            assert second.stats()["batch"]["full_searches"] == 0
        assert [outcome.result.complexity for outcome in first_outcomes] == [
            outcome.result.complexity for outcome in second_outcomes
        ]

    def test_stats_report_shape(self):
        with connect("local://inline") as session:
            session.classify(catalog()["mis"][0])
            report = session.stats()
        assert report["batch"]["submitted"] == 1
        assert report["batch"]["full_searches"] == 1
        assert report["cache"]["misses"] == 1
