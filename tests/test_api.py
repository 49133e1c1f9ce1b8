"""Tests for the unified session facade (`repro.api`).

The heart of this suite is *endpoint parity*: the same problem set, pushed
through `local://inline`, `local://threads`, and `tcp://` sessions, must
yield identical Outcome fields, identical error types/codes/messages, and
consistent stats invariants.  The problem pools are shared with the
scheduler fuzz harness (tests/problem_pools.py).
"""

import json

import pytest

from problem_pools import distinct_forms, seeded_problems
from repro.api import (
    ClassificationCancelled,
    ClassificationSession,
    ClassificationTimeout,
    EndpointError,
    Outcome,
    ProblemFormatError,
    RequestError,
    SessionConfig,
    UnsupportedOperationError,
    connect,
    parse_endpoint,
)
from repro.engine import batch
from repro.problems import hard_problem
from repro.service.server import ThreadedService
from repro.workers import ClassificationScheduler, SearchTimeStats, create_backend
from repro.workers.metrics import BUCKET_BOUNDS_MS


TWO_COLORING = "1 : 2 2\n2 : 1 1"


# ----------------------------------------------------------------------
# Endpoint / config parsing
# ----------------------------------------------------------------------
class TestEndpointParsing:
    def test_local_endpoint_with_query(self):
        config = parse_endpoint(
            "local://threads?workers=4&cache=/tmp/c.json"
            "&cache_max_entries=100&priority=batch&deadline=2.5"
        )
        assert config.mode == "local"
        assert config.backend == "threads"
        assert config.workers == 4
        assert config.cache_path == "/tmp/c.json"
        assert config.cache_max_entries == 100
        assert config.default_priority == "batch"
        assert config.default_deadline == 2.5

    def test_tcp_endpoint(self):
        config = parse_endpoint("tcp://example.com:9000?retries=3")
        assert (config.mode, config.host, config.port) == ("tcp", "example.com", 9000)
        assert config.retries == 3

    def test_tcp_default_port(self):
        assert parse_endpoint("tcp://localhost").port == 8765

    def test_stdio_endpoint_spellings(self):
        for spelling in ("stdio:", "stdio://", "stdio:?cache_max_entries=5"):
            config = parse_endpoint(spelling)
            assert config.mode == "stdio"

    def test_endpoint_round_trips_through_url(self):
        config = parse_endpoint("local://processes?workers=2&priority=warm")
        assert parse_endpoint(config.endpoint()) == config

    @pytest.mark.parametrize(
        "endpoint",
        [
            "gpu://fast",  # unknown scheme
            "local://quantum",  # unknown backend
            "local://threads?wrokers=4",  # typo'd parameter
            "local://threads?workers=lots",  # non-integer
            "tcp://",  # no host
            "local://",  # no backend
            "",  # empty
            "local://inline?priority=urgent",  # unknown priority
            "local://inline?deadline=-1",  # non-positive deadline
        ],
    )
    def test_bad_endpoints_raise(self, endpoint):
        with pytest.raises(EndpointError):
            parse_endpoint(endpoint)

    def test_overrides_win_over_url(self):
        config = SessionConfig.from_endpoint("local://inline", backend="threads")
        assert config.backend == "threads"

    def test_config_validates_directly(self):
        with pytest.raises(EndpointError):
            SessionConfig(mode="tcp")  # host required
        with pytest.raises(EndpointError):
            SessionConfig(mode="local", backend="gpu")


# ----------------------------------------------------------------------
# Outcome shape: the facade and the wire must never drift apart
# ----------------------------------------------------------------------
class TestOutcomeShape:
    def test_payload_round_trip(self):
        with ClassificationScheduler() as scheduler:
            item = batch.submit(scheduler, seeded_problems(1, labels=2)[0]).result()
        outcome = Outcome.from_batch_item(item)
        rebuilt = Outcome.from_payload(outcome.as_dict())
        assert rebuilt.as_dict() == outcome.as_dict()

    def test_require_returns_ok_outcome(self):
        with connect() as session:
            outcome = session.classify(TWO_COLORING)
        assert outcome.require() is outcome


# ----------------------------------------------------------------------
# Local sessions
# ----------------------------------------------------------------------
class TestLocalSession:
    def test_classify_accepts_text_problem_and_dict(self):
        from repro.core.parser import parse_problem
        from repro.engine.serialization import problem_to_dict

        problem = parse_problem(TWO_COLORING, name="2col")
        with connect("local://inline") as session:
            by_text = session.classify(TWO_COLORING)
            by_problem = session.classify(problem)
            by_dict = session.classify(problem_to_dict(problem))
        assert (
            by_text.complexity
            == by_problem.complexity
            == by_dict.complexity
            == "n^Theta(1)"
        )
        assert by_text.canonical_key == by_problem.canonical_key

    def test_submit_resolves_to_outcome(self):
        with connect("local://threads?workers=2") as session:
            pending = session.submit(TWO_COLORING)
            outcome = pending.result()
        assert pending.done
        assert outcome.ok and outcome.complexity == "n^Theta(1)"

    def test_classify_many_preserves_order_and_amortizes(self):
        problems = seeded_problems(12, labels=2)
        with connect("local://inline") as session:
            outcomes = list(session.classify_many(problems))
            stats = session.stats()
        assert [o.name for o in outcomes] == [p.name for p in problems]
        assert all(o.ok for o in outcomes)
        assert stats["batch"]["submitted"] == 12
        assert stats["batch"]["full_searches"] < 12  # canonical dedup works

    def test_census_matches_classify_many_of_same_seeds(self):
        with connect("local://inline") as session:
            census = [o.complexity for o in session.census(labels=2, count=10, seed=3)]
        with connect("local://inline") as session:
            manual = [
                o.complexity
                for o in session.classify_many(
                    seeded_problems(10, labels=2, seed=3)
                )
            ]
        assert census == manual

    def test_cache_persists_on_close(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        with connect(f"local://inline?cache={cache_file}") as session:
            session.classify(TWO_COLORING)
        assert cache_file.exists()
        with connect(f"local://inline?cache={cache_file}") as session:
            session.classify(TWO_COLORING)
            stats = session.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["batch"]["full_searches"] == 0

    def test_session_default_scheduling_from_endpoint(self):
        with connect("local://inline?priority=warm") as session:
            # An invalid per-call priority still fails fast...
            with pytest.raises(RequestError):
                session.classify(TWO_COLORING, priority="urgent")
            # ...and the endpoint's default is applied otherwise.
            outcome = session.classify(TWO_COLORING)
            assert outcome.ok

    def test_bad_deadline_rejected_before_dispatch(self):
        with connect("local://inline") as session:
            with pytest.raises(RequestError):
                session.classify(TWO_COLORING, deadline=-2)

    def test_local_cancel_and_shutdown_are_unsupported(self):
        with connect("local://inline") as session:
            with pytest.raises(UnsupportedOperationError):
                session.cancel(7)
            with pytest.raises(UnsupportedOperationError):
                session.shutdown()

    def test_warm_requires_a_workload(self):
        with connect("local://inline") as session:
            with pytest.raises(RequestError):
                session.warm()

    def test_stats_shape_is_uniform(self):
        with connect("local://inline") as session:
            session.classify(TWO_COLORING)
            stats = session.stats()
        assert set(stats) >= {"cache", "batch", "workers", "endpoint"}
        assert stats["endpoint"] == "local://inline"
        assert "search_times" in stats["workers"]


# ----------------------------------------------------------------------
# Endpoint parity — the acceptance criterion of the facade
# ----------------------------------------------------------------------
def _parity_fields(outcome):
    """The Outcome fields that must be identical on every endpoint.

    ``from_cache`` and ``elapsed_ms`` legitimately differ (separate caches,
    separate clocks); everything else must match exactly.
    """
    payload = outcome.as_dict()
    return {
        key: payload[key]
        for key in ("name", "outcome", "complexity", "details", "canonical_key", "result")
    }


class TestEndpointParity:
    @pytest.fixture(scope="class")
    def problem_set(self):
        # Duplicate-heavy two-label draws plus a few three-label orbits from
        # the fuzz harness's pool: broad class coverage, bounded runtime.
        problems = seeded_problems(14, labels=2)
        problems += [form.problem for form in distinct_forms(4)]
        return problems

    def test_same_outcomes_on_every_endpoint(self, problem_set):
        results = {}
        stats = {}
        with connect("local://inline") as session:
            results["inline"] = [
                _parity_fields(o) for o in session.classify_many(problem_set)
            ]
            stats["inline"] = session.stats()
        with connect("local://threads?workers=2") as session:
            results["threads"] = [
                _parity_fields(o) for o in session.classify_many(problem_set)
            ]
            stats["threads"] = session.stats()
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                results["tcp"] = [
                    _parity_fields(o) for o in session.classify_many(problem_set)
                ]
                stats["tcp"] = session.stats()
        assert results["inline"] == results["threads"] == results["tcp"]
        # Stats invariants hold on every endpoint: every submission is
        # accounted for, and every search reached exactly one terminal state.
        for endpoint, payload in stats.items():
            batch = payload["batch"]
            workers = payload["workers"]
            assert batch["submitted"] == len(problem_set), endpoint
            assert workers["flights"] == (
                workers["completed"]
                + workers["failed"]
                + workers["cancelled"]
                + workers["timeouts"]
            ), endpoint
            assert workers["failed"] == 0, endpoint
            assert workers["search_times"]["count"] == workers["completed"], endpoint

    def test_single_classify_parity(self, problem_set):
        problem = problem_set[0]
        with connect("local://inline") as session:
            local = _parity_fields(session.classify(problem))
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                remote = _parity_fields(session.classify(problem))
        assert local == remote

    def test_census_parity_local_vs_remote(self):
        params = dict(labels=2, count=10, seed=5)
        with connect("local://inline") as session:
            local = [_parity_fields(o) for o in session.census(**params)]
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                remote = [_parity_fields(o) for o in session.census(**params)]
        assert local == remote

    def test_warm_summary_parity(self):
        census = {"labels": 2, "count": 8, "seed": 2}
        keys = ("count", "unique_keys", "already_cached", "scheduled", "waited")
        with connect("local://inline") as session:
            local = session.warm(census=census, wait=True)
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                remote = session.warm(census=census, wait=True)
        assert {k: local[k] for k in keys} == {k: remote[k] for k in keys}


# ----------------------------------------------------------------------
# Error-surface parity
# ----------------------------------------------------------------------
class TestErrorParity:
    def _collect(self, fn, exc_type):
        with pytest.raises(exc_type) as info:
            fn()
        return (type(info.value), info.value.code, str(info.value))

    def test_bad_problem_parity(self):
        bad = "1 : 2 2 ; 2 : 1"  # mismatched arity: rejected by the grammar
        with connect("local://inline") as session:
            local = self._collect(lambda: session.classify(bad), ProblemFormatError)
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                remote = self._collect(
                    lambda: session.classify(bad), ProblemFormatError
                )
        assert local == remote
        assert local[1] == "bad-problem"

    def test_bad_priority_parity(self):
        with connect("local://inline") as session:
            local = self._collect(
                lambda: session.classify(TWO_COLORING, priority="urgent"),
                RequestError,
            )
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                remote = self._collect(
                    lambda: session.classify(TWO_COLORING, priority="urgent"),
                    RequestError,
                )
        assert local == remote

    def test_timeout_outcome_and_error_parity(self):
        problem = hard_problem(12)  # minutes of search; deadline far below
        with connect("local://inline") as session:
            local = session.classify(problem, deadline=0.2)
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                remote = session.classify(problem, deadline=0.2)
        assert local.outcome == remote.outcome == "timeout"
        assert local.canonical_key == remote.canonical_key
        local_err = self._collect(local.require, ClassificationTimeout)
        remote_err = self._collect(remote.require, ClassificationTimeout)
        assert local_err == remote_err
        assert local_err[1] == "timeout"

    def test_cancelled_outcome_raises_cancelled(self):
        outcome = Outcome(name="x", outcome="cancelled", canonical_key="k")
        with pytest.raises(ClassificationCancelled) as info:
            outcome.require()
        assert info.value.code == "cancelled"


# ----------------------------------------------------------------------
# Search-time histograms (deadlines from data)
# ----------------------------------------------------------------------
class TestSearchTimeStats:
    def test_histogram_counts_and_quantiles(self):
        stats = SearchTimeStats()
        for ms in (0.5, 3.0, 3.5, 40.0, 400.0):
            stats.record(f"key-{ms}", ms / 1000.0)
        payload = stats.as_dict()
        assert payload["count"] == 5
        assert payload["min_ms"] == 0.5
        assert payload["max_ms"] == 400.0
        assert sum(bucket["count"] for bucket in payload["buckets"]) == 5
        # Conservative bucket-bound quantiles: p50 covers the 3.5 ms sample.
        assert payload["p50_ms"] == 5.0
        assert payload["p99_ms"] == 500.0
        assert stats.quantile_ms(0.2) == 1.0

    def test_slowest_leaderboard_is_bounded_and_sorted(self):
        stats = SearchTimeStats(slowest_kept=3)
        for index in range(10):
            stats.record(f"key-{index}", index / 1000.0)
        slowest = stats.as_dict()["slowest"]
        assert [entry["key"] for entry in slowest] == ["key-9", "key-8", "key-7"]

    def test_quantile_of_empty_histogram_is_none(self):
        stats = SearchTimeStats()
        assert stats.quantile_ms(0.99) is None
        assert stats.as_dict()["p99_ms"] is None

    def test_open_ended_bucket_reports_observed_max(self):
        stats = SearchTimeStats()
        stats.record("huge", 120.0)  # 120 s > the largest finite bound
        assert stats.quantile_ms(0.99) == 120_000.0

    def test_bucket_bounds_are_increasing(self):
        finite = [b for b in BUCKET_BOUNDS_MS if b != float("inf")]
        assert finite == sorted(finite)

    def test_scheduler_records_only_completed_searches(self):
        scheduler = ClassificationScheduler(backend=create_backend("inline", None))
        with scheduler:
            for form in distinct_forms(3):
                scheduler.submit(form).result()
            payload = scheduler.stats_payload()
        assert payload["search_times"]["count"] == 3
        assert payload["search_times"]["count"] == payload["completed"]
        assert len(payload["search_times"]["slowest"]) == 3

    def test_service_stats_frame_carries_search_times(self):
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                session.classify(TWO_COLORING)
                stats = session.stats()
        search_times = stats["workers"]["search_times"]
        assert search_times["count"] == 1
        assert search_times["slowest"][0]["ms"] >= 0
        assert json.dumps(search_times)  # JSON-serializable end to end


# ----------------------------------------------------------------------
# Deadline-aware warm (wall-clock budgets)
# ----------------------------------------------------------------------
class TestWarmBudget:
    def test_budget_cancels_unfinished_sweep(self):
        easy = seeded_problems(4, labels=2)
        with connect("local://threads?workers=2") as session:
            summary = session.warm(
                problems=easy + [hard_problem(12)], budget=0.8
            )
        assert summary["waited"] is True
        assert summary["budget_seconds"] == 0.8
        assert summary["budget_exhausted"] is True
        assert summary["interrupted"] >= 1
        assert summary["within_budget"] >= 1  # the easy keys made it
        assert (
            summary["within_budget"] + summary["interrupted"] + summary["failed"]
            == summary["unique_keys"]
        )

    def test_budget_bounds_a_synchronous_backend(self):
        """On ``local://inline`` each search runs inside the submission, so
        the budget must bound the searches themselves, not just the wait."""
        census = {"labels": 4, "delta": 3, "count": 60}
        with connect("local://inline") as session:
            summary = session.warm(census=census, budget=0.05)
        assert summary["budget_exhausted"] is True
        assert summary["interrupted"] >= 1
        assert summary["within_budget"] < summary["unique_keys"]
        assert (
            summary["within_budget"] + summary["interrupted"] + summary["failed"]
            == summary["unique_keys"]
        )

    def test_sufficient_budget_completes_everything(self):
        with connect("local://threads?workers=2") as session:
            summary = session.warm(census={"labels": 2, "count": 10}, budget=60)
            stats = session.stats()
        assert summary["budget_exhausted"] is False
        assert summary["interrupted"] == 0
        assert summary["within_budget"] == summary["unique_keys"]
        assert stats["workers"]["cancelled"] == 0

    def test_budget_over_the_wire(self):
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                summary = session.warm(
                    problems=[hard_problem(12)], budget=0.5
                )
                follow_up = session.warm(
                    census={"labels": 2, "count": 6}, budget=30
                )
        assert summary["budget_exhausted"] is True
        assert summary["interrupted"] == 1
        assert follow_up["within_budget"] == follow_up["unique_keys"]

    def test_interrupted_warm_does_not_poison_the_cache(self):
        with connect("local://threads?workers=2") as session:
            session.warm(problems=[hard_problem(12)], budget=0.3)
            stats = session.stats()
        assert stats["cache"]["entries"] == 0
        assert stats["workers"]["cancelled"] + stats["workers"]["timeouts"] >= 1


# ----------------------------------------------------------------------
# stdio endpoint (spawned subprocess service)
# ----------------------------------------------------------------------
class TestStdioEndpoint:
    @pytest.mark.slow
    def test_stdio_session_round_trip(self, tmp_path):
        cache_file = tmp_path / "stdio-cache.json"
        with connect(f"stdio:?cache={cache_file}") as session:
            outcome = session.classify(TWO_COLORING)
            assert outcome.ok and outcome.complexity == "n^Theta(1)"
            session.shutdown()
        assert cache_file.exists()


# ----------------------------------------------------------------------
# Remote submit + odds and ends
# ----------------------------------------------------------------------
class TestRemoteSubmit:
    def test_remote_submit_resolves_in_background(self):
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                pendings = [session.submit(TWO_COLORING) for _ in range(3)]
                outcomes = [pending.result(timeout=60) for pending in pendings]
        assert all(o.ok for o in outcomes)
        assert len({o.canonical_key for o in outcomes}) == 1
        # Remote submissions cannot be detached through the session handle.
        assert pendings[0].cancel() is False

    def test_local_pending_cancel_detaches(self):
        with connect("local://threads?workers=1") as session:
            # Occupy the single worker so the second submission queues...
            blocker = session.submit(hard_problem(12), deadline=30)
            victim = session.submit(hard_problem(12))
            # ...then detach both; queued flights never dispatch.
            assert victim.cancel() is True
            assert blocker.cancel() in (True, False)

    def test_session_repr_shows_endpoint_and_state(self):
        session = connect("local://inline")
        assert "local://inline" in repr(session) and "open" in repr(session)
        session.close()
        assert "closed" in repr(session)
        session.close()  # idempotent

    def test_connection_refused_maps_to_transport_error(self):
        from repro.api import TransportError

        with pytest.raises(TransportError) as info:
            connect("tcp://127.0.0.1:1")  # nothing listens on port 1
        assert info.value.code == "connection-closed"

    def test_error_mapping_helpers(self):
        from repro.api.errors import from_interruption, from_service_error
        from repro.core.cancellation import SearchCancelled, SearchTimeout
        from repro.service.client import ServiceError

        timeout = from_interruption(SearchTimeout(key="k"))
        assert isinstance(timeout, ClassificationTimeout)
        assert str(timeout) == "timeout: search for k exceeded its deadline"
        cancelled = from_interruption(SearchCancelled(key=None))
        assert isinstance(cancelled, ClassificationCancelled)

        mapped = from_service_error(ServiceError("bad-request", "nope"))
        assert isinstance(mapped, RequestError)
        assert str(mapped) == "bad-request: nope"
        unknown = from_service_error(ServiceError("weird-code", "huh"))
        assert unknown.code == "weird-code"

    def test_bad_census_parameters_fail_identically(self):
        with connect("local://inline") as session:
            with pytest.raises(RequestError) as info:
                session.warm(census={"count": 0})
        assert "count >= 1" in str(info.value)
        with connect("local://inline") as session:
            with pytest.raises(RequestError):
                list(session.census(count=-1))


# ----------------------------------------------------------------------
# Review regressions: stream re-entrancy and wait-timeout semantics
# ----------------------------------------------------------------------
class TestStreamGuards:
    def test_nested_call_during_remote_stream_raises_not_hangs(self):
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                stream = session.classify_many(seeded_problems(4, labels=2))
                first = next(stream)
                assert first.ok
                with pytest.raises(RequestError) as info:
                    session.stats()
                assert "streaming request" in str(info.value)
                # Exhausting the stream releases the connection again.
                rest = list(stream)
                assert len(rest) == 3
                assert session.stats()["batch"]["submitted"] == 4

    def test_wait_timeout_is_plain_timeouterror_on_both_endpoints(self):
        raised = {}
        with connect("local://threads?workers=2") as session:
            pending = session.submit(hard_problem(12), deadline=30)
            try:
                pending.result(timeout=0.05)
            except TimeoutError:
                raised["local"] = True
            finally:
                pending.cancel()
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                pending = session.submit(hard_problem(12), deadline=2)
                try:
                    pending.result(timeout=0.05)
                except TimeoutError:
                    raised["remote"] = True
                pending.result(timeout=60)  # drains before shutdown
        assert raised == {"local": True, "remote": True}
