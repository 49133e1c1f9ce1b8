"""Tests for the observability layer: metrics registry, Prometheus text
exposition, request tracing (span completeness on every backend and outcome),
local-vs-remote metrics parity, remote cancel over the wire, and the atomic
scheduler stats snapshot."""

import json
import re
import threading

import pytest

from repro.api import connect
from repro.api.config import parse_endpoint
from repro.api.errors import EndpointError, UnsupportedOperationError
from repro.engine import batch
from repro.obs import (
    MetricsRegistry,
    metric_names_and_types,
    render_prometheus,
)
from repro.obs.metrics import escape_label_value
from repro.obs.trace import (
    ROOT_SPAN,
    STAGES,
    Tracer,
    new_request_id,
)
from repro.problems import hard_problem
from repro.service import ServiceClient, ThreadedService
from repro.workers import ClassificationScheduler, InlineBackend, ThreadBackend
from repro.workers.metrics import SearchTimeStats

EASY = "1 : 2 2\n2 : 1 1"

# ----------------------------------------------------------------------
# Exposition-format lint
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)


def lint_exposition(text):
    """Parse a Prometheus text exposition; assert its structural rules.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``.
    """
    families = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert _NAME.match(name), name
            assert help_text.strip(), f"family {name} has an empty HELP"
            assert name not in families, f"family {name} declared twice"
            families[name] = {"type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name == current, "TYPE must follow its own HELP"
            assert kind in ("counter", "gauge", "histogram"), kind
            families[name]["type"] = kind
        else:
            assert line and not line.startswith("#"), f"unexpected line {line!r}"
            match = _SAMPLE.match(line)
            assert match, f"unparseable sample line {line!r}"
            sample_name = match.group("name")
            assert current and sample_name.startswith(current), (
                f"sample {sample_name} outside its family block ({current})"
            )
            families[current]["samples"].append(
                (sample_name, match.group("labels"), match.group("value"))
            )
    for name, family in families.items():
        assert family["type"] is not None, f"family {name} has no TYPE"
        assert family["samples"], f"family {name} exposes no samples"
        if family["type"] == "counter":
            assert name.endswith("_total"), f"counter {name} must end in _total"
    return families


def _series(snapshot):
    """Flatten a repro.metrics/1 snapshot into {(family, labels_key): value}."""
    series = {}
    for family in snapshot["families"]:
        for sample in family["samples"]:
            key = tuple(sorted((sample.get("labels") or {}).items()))
            if family["type"] == "histogram":
                series[(family["name"], key, "count")] = sample["count"]
                series[(family["name"], key, "sum")] = sample["sum"]
            else:
                series[(family["name"], key, "value")] = sample["value"]
    return series


class TestPrometheusExposition:
    def test_workload_exposition_passes_lint(self):
        with connect("local://inline") as session:
            session.classify(EASY)
            session.classify(EASY)
            families = lint_exposition(session.metrics_text())
        assert "repro_service_requests_total" in families
        assert "repro_search_duration_ms" in families
        histogram = families["repro_search_duration_ms"]
        assert histogram["type"] == "histogram"
        bucket_values = [
            float(value)
            for name, _labels, value in histogram["samples"]
            if name.endswith("_bucket")
        ]
        # Buckets are cumulative and the +Inf bucket equals the count.
        assert bucket_values == sorted(bucket_values)
        count = [
            float(value)
            for name, _labels, value in histogram["samples"]
            if name.endswith("_count")
        ]
        assert count and bucket_values[-1] == count[0]

    def test_counters_are_monotone_across_workload(self):
        with connect("local://inline") as session:
            session.classify(EASY)
            first = session.metrics()
            session.classify(EASY)
            session.classify("1 : 1 1")
            second = session.metrics()
        counters = {
            family["name"]
            for family in first["families"]
            if family["type"] == "counter"
        }
        before, after = _series(first), _series(second)
        assert counters, "registry exposes no counters?"
        for key, value in before.items():
            if key[0] in counters and key in after:
                assert after[key] >= value, f"counter {key} decreased"

    def test_counter_names_must_end_in_total(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.register(
                "repro_bogus", "counter", "a counter without the suffix",
                lambda: [],
            )

    def test_duplicate_family_rejected(self):
        registry = MetricsRegistry()
        registry.register("repro_x_total", "counter", "x", lambda: [])
        with pytest.raises(ValueError):
            registry.register("repro_x_total", "counter", "x again", lambda: [])

    def test_label_values_are_escaped(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        registry = MetricsRegistry()
        registry.register(
            "repro_escape_test",
            "gauge",
            "label escaping probe",
            lambda: [
                {"labels": {"path": 'we"ird\\name\nwith everything'}, "value": 1}
            ],
        )
        text = render_prometheus(registry.snapshot())
        line = [l for l in text.splitlines() if l.startswith("repro_escape_test{")]
        assert line == [
            'repro_escape_test{path="we\\"ird\\\\name\\nwith everything"} 1'
        ]
        # And the escaped line still lints.
        lint_exposition(text)


# ----------------------------------------------------------------------
# Parity: one registry builder, every endpoint
# ----------------------------------------------------------------------
class TestMetricsParity:
    def test_local_and_remote_expose_identical_families(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "mem")
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                client.classify(EASY)
                remote = client.metrics()
        with connect("local://inline") as session:
            session.classify(EASY)
            local = session.metrics()
        assert metric_names_and_types(remote["snapshot"]) == metric_names_and_types(
            local
        )
        # The rendered text agrees with its own snapshot on family names.
        assert set(lint_exposition(remote["text"])) == {
            family["name"] for family in remote["snapshot"]["families"]
        }

    def test_remote_session_metrics_round_trip(self):
        with ThreadedService() as address:
            host, port = address
            with connect(f"tcp://{host}:{port}") as session:
                session.classify(EASY)
                snapshot = session.metrics()
                assert snapshot["schema"] == "repro.metrics/1"
                text = session.metrics_text()
        lint_exposition(text)

    def test_obs_flag_parses_and_round_trips(self):
        config = parse_endpoint("local://inline?obs=0")
        assert config.obs is False
        assert "obs=0" in config.endpoint()
        assert parse_endpoint("local://inline").obs is True
        with pytest.raises(EndpointError):
            parse_endpoint("local://inline?obs=maybe")

    def test_obs_off_disables_the_surface(self):
        with connect("local://inline?obs=0") as session:
            outcome = session.classify(EASY)
            assert outcome.ok
            assert outcome.request_id is None
            assert "trace" not in session.stats()
            with pytest.raises(UnsupportedOperationError):
                session.metrics()
            with pytest.raises(UnsupportedOperationError):
                session.trace("req-nope")


# ----------------------------------------------------------------------
# Trace span completeness
# ----------------------------------------------------------------------
def assert_closed_tree(document, outcome):
    """Every span closed, every parent valid, root carries the outcome."""
    assert document["schema"] == "repro.trace/1"
    assert document["outcome"] == outcome
    spans = document["spans"]
    names = {span["name"] for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    assert [root["name"] for root in roots] == [ROOT_SPAN]
    assert roots[0]["status"] == outcome
    for span in spans:
        assert span["end_ms"] is not None, f"span {span['name']} never closed"
        assert span["status"] is not None, f"span {span['name']} has no status"
        assert span["stage"] in STAGES
        if span["parent"] is not None:
            assert span["parent"] in names, f"dangling parent {span['parent']}"


def _traced_session(endpoint, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "mem")
    return connect(endpoint)


BACKENDS = ("inline", "threads", "processes")


class TestTraceCompleteness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ok_trace_closes_on_every_backend(self, backend, monkeypatch):
        with _traced_session(f"local://{backend}?workers=2", monkeypatch) as session:
            outcome = session.classify(EASY)
            assert outcome.ok and outcome.request_id is not None
            document = session.trace(outcome.request_id)
            assert document["found"]
            assert_closed_tree(document["trace"], "ok")
            stages = {span["stage"] for span in document["trace"]["spans"]}
            assert {"session", "scheduler", "backend", "kernel"} <= stages

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timeout_trace_closes_on_every_backend(self, backend, monkeypatch):
        with _traced_session(f"local://{backend}?workers=2", monkeypatch) as session:
            outcome = session.classify(hard_problem(12), deadline=0.05)
            assert outcome.outcome == "timeout"
            document = session.trace(outcome.request_id)
            assert document["found"]
            assert_closed_tree(document["trace"], "timeout")

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_cancelled_trace_closes(self, backend, monkeypatch):
        with _traced_session(f"local://{backend}?workers=2", monkeypatch) as session:
            pending = session.submit(hard_problem(12), deadline=60)
            assert pending.request_id is not None
            assert pending.cancel() is True
            document = session.trace(pending.request_id)
            assert document["found"]
            assert_closed_tree(document["trace"], "cancelled")

    def test_error_finish_closes_every_open_span(self):
        tracer = Tracer(enabled=True)
        trace = tracer.start("classify")
        trace.begin("queued", "scheduler")
        trace.begin("search", "backend")
        trace.finish("error")
        document = tracer.get(trace.request_id)
        assert_closed_tree(document, "error")
        assert tracer.outcome_counts() == {"error": 1}

    def test_finish_is_idempotent(self):
        tracer = Tracer(enabled=True)
        trace = tracer.start("classify")
        trace.finish("ok")
        trace.finish("cancelled")  # a zombie settling late: discarded
        assert tracer.get(trace.request_id)["outcome"] == "ok"
        assert tracer.finished == 1

    def test_request_ids_are_unique(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100

    def test_shared_flight_waiters_get_their_own_traces(self, monkeypatch):
        with _traced_session("local://threads?workers=2", monkeypatch) as session:
            pendings = [session.submit(EASY) for _ in range(4)]
            ids = [pending.request_id for pending in pendings]
            assert len(set(ids)) == 4
            for pending in pendings:
                assert pending.result(timeout=30).ok
            for request_id in ids:
                document = session.trace(request_id)
                assert document["found"]
                assert_closed_tree(document["trace"], "ok")


# ----------------------------------------------------------------------
# Tracer retention: ring, slow exemplars, JSONL log
# ----------------------------------------------------------------------
class TestTracerRetention:
    def test_ring_evicts_oldest(self):
        tracer = Tracer(enabled=True, ring_size=2)
        traces = [tracer.start("classify") for _ in range(3)]
        for trace in traces:
            trace.finish("ok")
        assert tracer.get(traces[0].request_id) is None
        assert tracer.get(traces[1].request_id) is not None
        assert tracer.get(traces[2].request_id) is not None
        assert tracer.as_dict()["retained"] == 2
        assert tracer.finished == 3

    def test_slow_exemplars_keep_top_k(self):
        tracer = Tracer(enabled=True, slow_threshold_ms=0.0, slow_kept=2)
        for _ in range(5):
            tracer.start("classify").finish("ok")
        section = tracer.as_dict()
        assert len(section["slow"]) == 2
        durations = [t["duration_ms"] for t in section["slow"]]
        assert durations == sorted(durations, reverse=True)

    def test_jsonl_log_parses_and_spans_close(self, tmp_path, monkeypatch):
        log = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(log))
        with connect("local://inline") as session:
            session.classify(EASY)
            session.classify(hard_problem(12), deadline=0.05)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        documents = [json.loads(line) for line in lines]
        outcomes = {doc["outcome"] for doc in documents}
        assert outcomes == {"ok", "timeout"}
        for document in documents:
            assert_closed_tree(document, document["outcome"])

    def test_stats_carry_the_trace_section(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "mem")
        with connect("local://inline") as session:
            session.classify(EASY)
            section = session.stats()["trace"]
        assert section["enabled"] is True
        assert section["finished"] == 1
        assert section["outcomes"] == {"ok": 1}


# ----------------------------------------------------------------------
# Remote tracing + cancel over the wire
# ----------------------------------------------------------------------
class TestRemoteObservability:
    def test_tcp_classify_span_tree_retrievable_by_request_id(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "mem")
        with ThreadedService() as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                outcome = session.classify(EASY)
                assert outcome.ok and outcome.request_id is not None
                document = session.trace(outcome.request_id)
        assert document["found"]
        assert_closed_tree(document["trace"], "ok")
        stages = {span["stage"] for span in document["trace"]["spans"]}
        assert {"session", "scheduler", "backend", "kernel"} <= stages

    def test_remote_pending_cancel_over_the_wire(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "mem")
        with ThreadedService(backend="threads", workers=2) as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                pending = session.submit(hard_problem(12), deadline=60)
                assert pending.request_id is not None
                deadline_event = threading.Event()
                # Poll until the request is actually in flight server-side:
                # cancellation is racy by design, so retry briefly.
                cancelled = False
                for _ in range(100):
                    if pending.cancel():
                        cancelled = True
                        break
                    if pending.done:
                        break
                    deadline_event.wait(0.05)
                assert cancelled, "cancel never landed while in flight"
                outcome = pending.result(timeout=30)
                assert outcome.outcome == "cancelled"
                document = session.trace(pending.request_id)
                assert document["found"]
                assert_closed_tree(document["trace"], "cancelled")

    def test_batch_items_traceable_by_sub_id(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "mem")
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client._send_request(
                    "classify_batch", {"problems": [EASY, "1 : 1 1"]}
                )
                frames = list(client.frames(request_id))
                assert [f["type"] for f in frames] == ["item", "item", "done"]
                for seq in range(2):
                    payload = client.trace(f"{request_id}.{seq}")
                    assert payload["found"], f"item {seq} has no trace"
                    assert_closed_tree(payload["trace"], "ok")


# ----------------------------------------------------------------------
# Scheduler stats snapshot atomicity
# ----------------------------------------------------------------------
class TestAtomicStats:
    def test_conservation_holds_in_every_concurrent_snapshot(self):
        scheduler = ClassificationScheduler(backend=ThreadBackend(workers=4))
        try:
            violations = []
            stop = threading.Event()

            def observer():
                while not stop.is_set():
                    payload = scheduler.stats_payload()
                    # Both conservation identities hold in *every* snapshot
                    # because counters and gauges are read under one lock:
                    # a torn read could otherwise see `flights` bumped but
                    # not `submitted`'s other addends, or a terminal outcome
                    # counted twice mid-transition.
                    if payload["submitted"] != (
                        payload["flights"]
                        + payload["deduped"]
                        + payload["cache_hits"]
                    ):
                        violations.append(("submitted", dict(payload)))
                    finished = (
                        payload["completed"]
                        + payload["failed"]
                        + payload["cancelled"]
                        + payload["timeouts"]
                    )
                    if finished > payload["flights"]:
                        violations.append(("finished>flights", dict(payload)))

            threads = [threading.Thread(target=observer) for _ in range(2)]
            for thread in threads:
                thread.start()
            from repro.problems.random_problems import random_problem

            pendings = [
                batch.submit(scheduler, random_problem(2, seed=seed))
                for seed in range(30)
            ]
            for pending in pendings:
                pending.result()
            stop.set()
            for thread in threads:
                thread.join()
            assert not violations, f"torn snapshots observed: {violations[:3]}"
        finally:
            scheduler.close()

    def test_gauges_come_from_one_lock_acquisition(self):
        with ClassificationScheduler(backend=InlineBackend()) as scheduler:
            gauges = scheduler.gauges()
            assert set(gauges) >= {"in_flight", "queued", "slots_in_use"}


# ----------------------------------------------------------------------
# SearchTimeStats raw export
# ----------------------------------------------------------------------
class TestSearchTimeExport:
    def test_export_shape_and_totals(self):
        stats = SearchTimeStats()
        stats.record("key-a", 0.005)
        stats.record("key-b", 0.050)
        exported = stats.export()
        assert exported["count"] == 2
        assert exported["sum_ms"] == pytest.approx(55.0)
        les = [le for le, _count in exported["buckets"]]
        assert les[-1] is None, "last bucket must be open-ended"
        assert sum(count for _le, count in exported["buckets"]) == 2
