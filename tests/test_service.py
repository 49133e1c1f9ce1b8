"""Tests for the classification service: protocol, server, client, streaming,
concurrent clients (single-flight), and cache warming."""

import contextlib
import gc
import json
import threading
import time

import pytest

from test_api import CIRCULANT_17
from repro.core import classify
from repro.core.parser import format_problem
from repro.engine import ClassificationCache, batch, canonical_key, problem_to_dict
from repro.problems import catalog, coloring, hard_problem
from repro.problems.random_problems import random_problem
from repro.service import ServiceClient, ServiceError, ThreadedService
from repro.service.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_PARSE,
    ERROR_UNKNOWN_OP,
    ProtocolError,
    decode_request,
    done_frame,
    encode_frame,
    error_frame,
    hello_frame,
    is_terminal_frame,
    item_frame,
    result_frame,
)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_round_trip(self):
        line = encode_frame(
            {"id": 7, "op": "classify", "params": {"problem": "1 : 1 1"}}
        )
        request = decode_request(line)
        assert request.id == 7
        assert request.op == "classify"
        assert request.params == {"problem": "1 : 1 1"}

    def test_frames_are_single_lines(self):
        frames = [
            hello_frame(),
            item_frame(1, 0, {"complexity": "O(1)"}),
            done_frame(1, {"count": 1}),
            result_frame(2, {"ok": True}),
            error_frame(3, ProtocolError(ERROR_BAD_REQUEST, "nope")),
        ]
        for frame in frames:
            wire = encode_frame(frame)
            assert wire.endswith("\n") and "\n" not in wire[:-1]
            assert json.loads(wire) == frame

    def test_decode_request_rejects_garbage(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request("not json at all\n")
        assert excinfo.value.code == ERROR_PARSE

    def test_decode_request_rejects_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"id": 1, "op": "fly"}')
        assert excinfo.value.code == ERROR_UNKNOWN_OP

    def test_decode_request_rejects_bad_fields(self):
        for line in (
            '{"id": 1}',  # missing op
            '{"op": 42}',  # non-string op
            '{"op": "stats", "params": []}',  # non-object params
            '{"op": "stats", "id": [1]}',  # non-scalar id
        ):
            with pytest.raises(ProtocolError):
                decode_request(line)

    def test_terminal_frames(self):
        assert is_terminal_frame(done_frame(1, {}))
        assert is_terminal_frame(result_frame(1, {}))
        assert is_terminal_frame(error_frame(1, ProtocolError("x", "y")))
        assert not is_terminal_frame(hello_frame())
        assert not is_terminal_frame(item_frame(1, 0, {}))


# ----------------------------------------------------------------------
# TCP end-to-end
# ----------------------------------------------------------------------
def _batch_specs(count=24, labels=2, density=0.5):
    problems = [
        random_problem(labels, density=density, seed=seed) for seed in range(count)
    ]
    return problems, [problem_to_dict(problem) for problem in problems]


def _streamed(client, op, params):
    """One streaming request's ``done`` summary, its items under ``"items"``.

    The items are collected from ``client.stream``; the summary is that
    generator's return value.
    """
    items = []
    stream = client.stream(op, params)
    while True:
        try:
            items.append(next(stream))
        except StopIteration as stop:
            return {**stop.value, "items": items}


class TestServiceOverTcp:
    def test_classify_round_trip(self):
        problem, expected = catalog()["mis"]
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                payload = client.request(
                    "classify", {"problem": problem_to_dict(problem)}
                )
        assert payload["complexity"] == expected.value
        assert payload["from_cache"] is False
        assert payload["result"]["complexity"] == expected.name

    def test_text_problem_specs_are_parsed_server_side(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                payload = client.request("classify", {"problem": "1 : 2 2\n2 : 1 1"})
        assert payload["complexity"] == "n^Theta(1)"

    def test_batch_streams_items_in_order_before_done(self):
        problems, specs = _batch_specs(count=10)
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client.send("classify_batch", {"problems": specs})
                frames = list(client.frames(request_id))
        kinds = [frame["type"] for frame in frames]
        assert kinds == ["item"] * 10 + ["done"]
        assert [frame["seq"] for frame in frames[:-1]] == list(range(10))
        # Streamed results agree with direct classification.
        assert [frame["data"]["complexity"] for frame in frames[:-1]] == [
            classify(problem).complexity.value for problem in problems
        ]

    def test_sequential_clients_share_the_persistent_cache(self, tmp_path):
        """Acceptance: the second client's batch reports a hit rate > 0.9."""
        path = tmp_path / "service-cache.json"
        _problems, specs = _batch_specs(count=24)
        cache = ClassificationCache(path="json:" + str(path))
        with ThreadedService(cache=cache) as address:
            with ServiceClient.connect_tcp(*address) as first:
                cold = _streamed(first, "classify_batch", {"problems": specs})
            with ServiceClient.connect_tcp(*address) as second:
                warm = _streamed(second, "classify_batch", {"problems": specs})
        assert cold["count"] == warm["count"] == 24
        assert cold["cache_misses"] > 0
        assert warm["hit_rate"] > 0.9
        assert [item["complexity"] for item in cold["items"]] == [
            item["complexity"] for item in warm["items"]
        ]
        # The shared cache survived on disk as a schema-2 document.
        assert json.loads(path.read_text())["schema"] == 2

    def test_bounded_service_cache_never_exceeds_budget(self, tmp_path):
        """Acceptance: max_entries=N holds in memory and on disk."""
        budget = 4
        path = tmp_path / "bounded.json"
        _problems, specs = _batch_specs(count=30, labels=3, density=0.25)
        cache = ClassificationCache(path="json:" + str(path), max_entries=budget)
        service = ThreadedService(cache=cache)
        with service as address:
            with ServiceClient.connect_tcp(*address) as client:
                client.request("classify_batch", {"problems": specs})
                stats = client.request("stats")
                client.request("shutdown")
        assert stats["cache"]["entries"] <= budget
        assert stats["cache"]["max_entries"] == budget
        assert len(cache) <= budget
        assert len(json.loads(path.read_text())["entries"]) <= budget

    def test_census_summary_tallies_every_item(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                summary = _streamed(
                    client, "census", {"labels": 2, "count": 15, "seed": 3}
                )
                streamed = summary["items"]
        assert summary["count"] == 15
        assert sum(summary["counts"].values()) == 15
        assert len(streamed) == 15
        assert summary["params"]["labels"] == 2

    def test_stats_and_request_accounting(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                client.request("classify", {"problem": "1 : 1 1"})
                payload = client.request("stats")
        assert payload["service"]["requests_served"] == 1  # stats counts nothing
        assert payload["batch"]["submitted"] == 1
        assert payload["cache"]["entries"] == 1
        # The workers section reports the pool configuration and live counters.
        workers = payload["workers"]
        assert workers["backend"] == "threads"  # the service default
        assert workers["workers"] >= 1
        assert workers["scheduled"] == 1
        assert workers["in_flight"] == 0

    def test_done_frame_stats_match_the_stats_op(self):
        """A batch's ``done`` stats have the sections of a ``stats`` request."""
        _problems, specs = _batch_specs(count=4)
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client.send("classify_batch", {"problems": specs})
                done = list(client.frames(request_id))[-1]["data"]["stats"]
                stats = client.request("stats")
        assert set(done) == set(stats)
        assert set(done["cache"]) == set(stats["cache"])

    def test_error_frames_for_bad_requests(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                with pytest.raises(ServiceError) as bad_problem:
                    client.request(
                        "classify", {"problem": "this is : not a problem : at all :::"}
                    )
                assert bad_problem.value.code == "bad-problem"
                with pytest.raises(ServiceError) as bad_request:
                    client.request("classify_batch", {"problems": []})
                assert bad_request.value.code == "bad-request"
                # The connection survives errors and keeps serving.
                assert client.request("classify", {"problem": "1 : 1 1"})["complexity"] == "O(1)"

    def test_malformed_line_gets_structured_error(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                client._write.write("this is not json\n")
                client._write.flush()
                frame = client._read_frame()
        assert frame["type"] == "error"
        assert frame["error"]["code"] == ERROR_PARSE

    def test_shutdown_stops_the_service(self, tmp_path):
        path = tmp_path / "cache.json"
        service = ThreadedService(cache=ClassificationCache(path=str(path)))
        address = service.start()
        with ServiceClient.connect_tcp(*address) as client:
            client.request("classify", {"problem": "1 : 1 1"})
            payload = client.request("shutdown")
        assert payload == {"ok": True, "cache_saved": True}
        service._thread.join(timeout=30)
        assert not service._thread.is_alive()
        assert path.exists()
        service.stop()


# ----------------------------------------------------------------------
# Concurrent clients: single-flight across connections
# ----------------------------------------------------------------------
class TestConcurrentClients:
    CENSUS = {"labels": 2, "delta": 2, "density": 0.5, "count": 20, "seed": 11}
    CLIENTS = 4

    def _expected_problems(self):
        return [
            random_problem(
                self.CENSUS["labels"],
                delta=self.CENSUS["delta"],
                density=self.CENSUS["density"],
                seed=self.CENSUS["seed"] + index,
            )
            for index in range(self.CENSUS["count"])
        ]

    def test_hammering_clients_cost_one_search_per_canonical_key(self):
        """Acceptance: N clients x same census == one engine search per orbit.

        Every client must receive a complete, in-order item stream (no
        dropped or duplicated frames), and the scheduler stats must show
        exactly ``len(unique canonical keys)`` searches — the rest answered
        by the cache or by single-flight sharing, with no global lock.
        """
        expected = self._expected_problems()
        unique_keys = {canonical_key(problem) for problem in expected}
        frames_by_client = [None] * self.CLIENTS
        errors = []

        with ThreadedService(backend="threads", workers=4) as address:

            def hammer(slot):
                try:
                    with ServiceClient.connect_tcp(*address) as client:
                        request_id = client.send("census", self.CENSUS)
                        frames_by_client[slot] = list(client.frames(request_id))
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors

            with ServiceClient.connect_tcp(*address) as client:
                stats = client.request("stats")

        count = self.CENSUS["count"]
        for frames in frames_by_client:
            # Complete in-order stream: no dropped or duplicated item frames.
            assert [frame["type"] for frame in frames] == ["item"] * count + ["done"]
            assert [frame["seq"] for frame in frames[:-1]] == list(range(count))
        streams = [
            [frame["data"]["complexity"] for frame in frames[:-1]]
            for frames in frames_by_client
        ]
        assert all(stream == streams[0] for stream in streams)
        assert streams[0] == [
            classify(problem).complexity.value for problem in expected
        ]
        # Single flight: searches run == unique canonical keys, exactly.
        workers = stats["workers"]
        assert workers["scheduled"] == len(unique_keys), workers
        assert workers["submitted"] == self.CLIENTS * count
        assert workers["deduped"] + workers["cache_hits"] == (
            self.CLIENTS * count - len(unique_keys)
        )
        assert stats["batch"]["full_searches"] == len(unique_keys)

    def test_concurrent_distinct_problems_all_answer(self):
        """Clients with disjoint workloads proceed concurrently and correctly."""
        specs_by_slot = [
            [problem_to_dict(random_problem(3, density=0.3, seed=100 * slot + i))
             for i in range(6)]
            for slot in range(3)
        ]
        summaries = [None] * 3
        with ThreadedService(backend="threads", workers=4) as address:

            def run(slot):
                with ServiceClient.connect_tcp(*address) as client:
                    summaries[slot] = _streamed(
                        client, "classify_batch", {"problems": specs_by_slot[slot]}
                    )

            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        for slot, summary in enumerate(summaries):
            assert summary is not None
            assert summary["count"] == 6
            assert [item["complexity"] for item in summary["items"]] == [
                classify(
                    random_problem(3, density=0.3, seed=100 * slot + i)
                ).complexity.value
                for i in range(6)
            ]


# ----------------------------------------------------------------------
# Cache warming
# ----------------------------------------------------------------------
class TestWarm:
    CENSUS = {"labels": 2, "delta": 2, "density": 0.5, "count": 15, "seed": 3}

    def test_warm_census_then_census_is_answered_from_cache(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                warm = client.request("warm", {"census": self.CENSUS, "wait": True})
                assert warm["count"] == 15
                assert warm["waited"] is True
                assert warm["scheduled"] == warm["unique_keys"] > 0
                assert warm["already_cached"] == 0
                summary = client.request("census", self.CENSUS)
                assert summary["hit_rate"] == 1.0
                # Warming again is a no-op: everything is already cached.
                rewarm = client.request("warm", {"census": self.CENSUS, "wait": True})
                assert rewarm["scheduled"] == 0
                assert rewarm["already_cached"] == rewarm["unique_keys"]

    def test_warm_problem_list_then_batch_is_all_hits(self):
        problems = [random_problem(2, density=0.5, seed=seed) for seed in range(8)]
        specs = [problem_to_dict(problem) for problem in problems]
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                warm = client.request("warm", {"problems": specs, "wait": True})
                assert warm["count"] == 8
                summary = _streamed(client, "classify_batch", {"problems": specs})
        assert summary["hit_rate"] == 1.0
        assert [item["complexity"] for item in summary["items"]] == [
            classify(problem).complexity.value for problem in problems
        ]

    def test_background_warm_fills_the_cache(self, tmp_path):
        path = tmp_path / "warm-cache.json"
        with ThreadedService(cache=ClassificationCache(path=str(path))) as address:
            with ServiceClient.connect_tcp(*address) as client:
                warm = client.request("warm", {"census": self.CENSUS, "wait": False})
                assert warm["waited"] is False
                # Poll the live stats until the background searches drain.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if client.request("stats")["workers"]["in_flight"] == 0:
                        break
                    time.sleep(0.02)
                summary = client.request("census", self.CENSUS)
                assert summary["hit_rate"] == 1.0
        # The background completion also persisted the cache file.
        assert path.exists()

    def test_background_warm_survives_immediate_shutdown(self, tmp_path):
        """Warmed results reach the cache file even when shutdown races them."""
        path = tmp_path / "race-cache.json"
        service = ThreadedService(cache=ClassificationCache(path="json:" + str(path)))
        address = service.start()
        with ServiceClient.connect_tcp(*address) as client:
            warm = client.request("warm", {"census": self.CENSUS, "wait": False})
            assert warm["scheduled"] > 0
            client.request("shutdown")
        service.stop()
        # Shutdown drains the worker pool and re-saves, losing no entries.
        entries = json.loads(path.read_text())["entries"]
        assert len(entries) >= warm["unique_keys"]

    def test_inline_backend_service_still_serves_and_streams(self):
        """--worker-backend inline keeps the v1 classify-then-stream behavior."""
        _problems, specs = _batch_specs(count=6)
        with ThreadedService(backend="inline") as address:
            with ServiceClient.connect_tcp(*address) as client:
                summary = _streamed(client, "classify_batch", {"problems": specs})
                streamed = summary["items"]
                stats = client.request("stats")
        assert summary["count"] == 6
        assert len(streamed) == 6
        assert stats["workers"]["backend"] == "inline"

    def test_warm_requires_a_workload(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.request("warm", {})
                assert excinfo.value.code == ERROR_BAD_REQUEST
                with pytest.raises(ServiceError):
                    client.request("warm", {"problems": []})
                with pytest.raises(ServiceError):
                    client.request("warm", {"census": "not an object"})
                # The connection survives and still serves.
                assert client.request("classify", {"problem": "1 : 1 1"})["complexity"] == "O(1)"


# ----------------------------------------------------------------------
# Liveness: slow requests never hold up the other connections
# ----------------------------------------------------------------------
EASY = "1 : 2 2\n2 : 1 1"
LOOP_HIT = "1 : 2 3\n2 : 3 1\n3 : 1 2"


def _slow_outcome(frame):
    """An item's or result's outcome; a warm reads ``timeout`` when its one
    key was interrupted."""
    data = frame["data"]
    if "interrupted" in data:
        return "timeout" if data["interrupted"] == 1 else "ok"
    return data["outcome"]


class TestLiveness:
    # More than the default executor's min(32, cpus + 4) threads on any host.
    SLOW_REQUESTS = 33

    @pytest.mark.parametrize("op", ["classify", "classify_batch", "warm"])
    def test_cache_hit_answers_while_slow_requests_wait(self, op, caplog):
        """A warm hit answers at once while more slow requests wait on one
        search than the service has executor threads."""
        hard = problem_to_dict(hard_problem(12))
        params = {"deadline_ms": 4000}
        if op == "classify":
            params["problem"] = hard
        elif op == "classify_batch":
            params["problems"] = [hard]
        else:
            params.update(problems=[hard], wait=True)
        with ThreadedService(backend="threads", workers=1) as address:
            with contextlib.ExitStack() as connections:
                client, *slow = [
                    connections.enter_context(ServiceClient.connect_tcp(*address))
                    for _ in range(1 + self.SLOW_REQUESTS)
                ]
                client.request("warm", {"problems": [EASY], "wait": True})
                before = client.request("stats")["batch"]["submitted"]
                request_ids = [each.send(op, params) for each in slow]
                give_up = time.monotonic() + 30
                while (
                    client.request("stats")["batch"]["submitted"]
                    < before + self.SLOW_REQUESTS
                ):
                    assert time.monotonic() < give_up
                    time.sleep(0.02)
                start = time.monotonic()
                hit = client.request("classify", {"problem": EASY})
                elapsed = time.monotonic() - start
                outcomes = [
                    _slow_outcome(frame)
                    for each, request_id in zip(slow, request_ids)
                    for frame in each.frames(request_id)
                    if frame["type"] in ("item", "result")
                ]
        assert hit["from_cache"] is True
        assert elapsed < 2.0, f"cache hit took {elapsed:.3f}s"
        assert outcomes == ["timeout"] * self.SLOW_REQUESTS
        gc.collect()
        assert "Future exception was never retrieved" not in caplog.text

    def test_stop_cancels_requests_in_flight(self, caplog):
        """Shutdown cancels a request still waiting on its search instead
        of waiting for it, and loop teardown logs no traceback."""
        hard = problem_to_dict(hard_problem(12))
        service = ThreadedService(backend="threads", workers=1)
        address = service.start()
        with ServiceClient.connect_tcp(*address) as client:
            client.send("classify", {"problem": hard, "deadline_ms": 7000})
            time.sleep(0.5)
            start = time.monotonic()
            service.stop()
            elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"stop took {elapsed:.3f}s"
        assert "Exception in callback" not in caplog.text

    def test_inline_stop_keeps_the_search_deadline(self, caplog):
        """On `inline` the search runs inside the request's submission, and
        shutdown's cancel reaches it there: it stops well before its
        deadline, and the loop thread then exits cleanly."""
        hard = problem_to_dict(hard_problem(12))
        service = ThreadedService(backend="inline")
        address = service.start()
        loop_thread = service._thread
        with ServiceClient.connect_tcp(*address) as client:
            # Past the 0.5 s wait plus the 5 s grace for connection handlers.
            client.send("classify", {"problem": hard, "deadline_ms": 6000})
            time.sleep(0.5)
            start = time.monotonic()
            service.stop()
            elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"stop took {elapsed:.3f}s"
        assert not loop_thread.is_alive()
        assert "Exception in callback" not in caplog.text

    @staticmethod
    def _stop_mid_search(backend, send):
        """Seconds ``stop()`` takes 0.5 s into a deadline-less search.

        ``send(client, params)`` asks for ``hard_problem(12)``, which runs
        for minutes.
        """
        service = ThreadedService(backend=backend, workers=1)
        address = service.start()
        with ServiceClient.connect_tcp(*address) as client:
            send(client, {"problem": problem_to_dict(hard_problem(12))})
            time.sleep(0.5)
            start = time.monotonic()
            service.stop()
            return time.monotonic() - start

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_stop_cancels_a_request_without_an_id(self, backend):
        """A request line may omit `id`, so no `cancel` can address it;
        shutdown still cancels it instead of waiting its search out."""

        def send(client, params):
            client._write.write(encode_frame({"op": "classify", "params": params}))
            client._write.flush()

        elapsed = self._stop_mid_search(backend, send)
        assert elapsed < 2.0, f"stop took {elapsed:.3f}s"

    def test_inline_stop_cancels_a_search_without_deadline(self):
        """On `inline` shutdown cancels the search running inside the
        request's submission; nothing else would ever stop it."""
        elapsed = self._stop_mid_search(
            "inline", lambda client, params: client.send("classify", params)
        )
        assert elapsed < 2.0, f"stop took {elapsed:.3f}s"

    # A's request size: 3-label hits, canonicalized on the event loop, so
    # neither an executor hop nor a pending search suspends A's handler.
    LOOP_HITS = 3000

    @staticmethod
    def _hits_while(address, start):
        """B's hit latencies while A's request runs, and A's running time.

        ``start(client)`` sends A's request on A's connection and returns a
        function that reads A's answers to the end.
        """
        with contextlib.ExitStack() as connections:
            a, b = (
                connections.enter_context(ServiceClient.connect_tcp(*address))
                for _ in range(2)
            )
            b.request("warm", {"problems": [LOOP_HIT], "wait": True})
            began = time.monotonic()
            finish = start(a)
            ended = []
            reader = threading.Thread(
                target=lambda: (finish(), ended.append(time.monotonic()))
            )
            reader.start()
            latencies = []
            while reader.is_alive():
                sent = time.monotonic()
                assert b.request("classify", {"problem": LOOP_HIT})["from_cache"]
                latencies.append(time.monotonic() - sent)
            reader.join()
        return latencies, ended[0] - began

    def test_hits_answer_while_a_batch_of_hits_streams(self):
        """A long all-hit batch yields the loop per item: another
        connection's hits keep answering while it streams."""

        def start(a):
            request_id = a.send(
                "classify_batch", {"problems": [LOOP_HIT] * self.LOOP_HITS}
            )
            return lambda: list(a.frames(request_id))

        with ThreadedService(backend="threads", workers=1) as address:
            latencies, streamed = self._hits_while(address, start)
        assert len(latencies) >= 10, (len(latencies), streamed)
        assert max(latencies) < streamed / 4, (max(latencies), streamed)

    def test_hits_answer_while_another_client_pipelines(self):
        """A client that sends many requests before reading any answer gets
        one request per turn of the loop, like every other connection."""

        def start(a):
            # One write, so the service finds every line already buffered.
            request_ids = range(self.LOOP_HITS)
            params = {"problem": LOOP_HIT}
            a._write.write(
                "".join(
                    encode_frame({"id": request_id, "op": "classify", "params": params})
                    for request_id in request_ids
                )
            )
            a._write.flush()
            return lambda: [list(a.frames(request_id)) for request_id in request_ids]

        with ThreadedService(backend="threads", workers=1) as address:
            latencies, pipelined = self._hits_while(address, start)
        assert len(latencies) >= 10, (len(latencies), pipelined)
        assert max(latencies) < pipelined / 4, (max(latencies), pipelined)

    def test_only_cheap_problems_canonicalize_on_the_loop(self, monkeypatch):
        """On a pooled backend a problem within the on-loop bounds (4
        labels, 256 label occurrences) is canonicalized on the event loop;
        anything larger, and anything on `inline`, on another thread."""
        def two_labels(delta):
            # 2 configurations of delta + 1 label occurrences each.
            return f"1 : {' '.join('2' * delta)}\n2 : {' '.join('1' * delta)}"

        cases = {
            "3 labels": (LOOP_HIT, True),
            "4 labels": (format_problem(coloring(4)), True),
            "256 occurrences": (two_labels(127), True),
            "258 occurrences": (two_labels(128), False),
            "5 labels": (format_problem(coloring(5)), False),
            "hard_problem(12)": (problem_to_dict(hard_problem(12)), False),
            "CIRCULANT_17": (CIRCULANT_17, False),
        }
        threads = []
        canonical_form = batch.canonical_form

        def recording(problem):
            threads.append(threading.current_thread())
            return canonical_form(problem)

        monkeypatch.setattr(batch, "canonical_form", recording)
        on_loop = {}
        for backend in ("threads", "inline"):
            service = ThreadedService(backend=backend, workers=1)
            with service as address:
                with ServiceClient.connect_tcp(*address) as client:
                    for name, (spec, _expected) in cases.items():
                        # The deadline only ends the slow searches early.
                        client.request(
                            "classify", {"problem": spec, "deadline_ms": 100}
                        )
                        on_loop[backend, name] = threads[-1] is service._thread
        assert on_loop == {
            **{("threads", name): expected for name, (_, expected) in cases.items()},
            **{("inline", name): False for name in cases},
        }


class TestInlineBackend:
    """On a synchronous backend each search runs inside its submission."""

    def test_batch_streams_an_item_before_the_next_search_ends(self):
        hard = problem_to_dict(hard_problem(12))
        with ThreadedService(backend="inline") as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client.send(
                    "classify_batch", {"problems": [EASY, hard], "deadline_ms": 1500}
                )
                arrivals = [
                    (frame, time.monotonic()) for frame in client.frames(request_id)
                ]
        (easy, easy_at), (slow, slow_at), _done = arrivals
        assert easy["data"]["outcome"] == "ok"
        assert slow["data"]["outcome"] == "timeout"
        # The easy item was written long before the hard one's deadline.
        assert slow_at - easy_at > 0.5

    def test_cancel_streams_every_later_item_as_cancelled(self):
        hard = problem_to_dict(hard_problem(12))
        problems = [hard, EASY, "1 : 1 1"]
        with ThreadedService(backend="inline") as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client.send(
                    "classify_batch", {"problems": problems, "deadline_ms": 1500}
                )
                # The leading search cannot be interrupted mid-item, so it
                # runs to its deadline while this cancel lands.
                with ServiceClient.connect_tcp(*address) as canceller:
                    give_up = time.monotonic() + 10
                    while not canceller.request(
                        "cancel", {"request_id": request_id}
                    )["found"]:
                        assert time.monotonic() < give_up
                        time.sleep(0.02)
                frames = list(client.frames(request_id))
        outcomes = [frame["data"]["outcome"] for frame in frames[:-1]]
        assert outcomes == ["timeout", "cancelled", "cancelled"]
        summary = frames[-1]["data"]
        assert summary["count"] == 3
        assert summary["timeouts"] == 1 and summary["cancelled"] == 2


# ----------------------------------------------------------------------
# Stdio end-to-end
# ----------------------------------------------------------------------
class TestServiceOverStdio:
    def test_spawned_stdio_service_round_trip(self, tmp_path):
        path = tmp_path / "stdio-cache.json"
        with ServiceClient.spawn_stdio(f"stdio:?cache={path}") as client:
            assert client.server_info["protocol"] == 3
            assert "warm" in client.server_info["ops"]
            assert "cancel" in client.server_info["ops"]
            fresh = client.request("classify", {"problem": "1 : 2 2\n2 : 1 1"})
            cached = client.request("classify", {"problem": "1 : 2 2\n2 : 1 1"})
            summary = client.request(
                "classify_batch", {"problems": ["1 : 1 1", "1 : 2 2\n2 : 1 1"]}
            )
            assert client.request("shutdown")["ok"] is True
        assert fresh["from_cache"] is False
        assert cached["from_cache"] is True
        assert summary["cache_hits"] == 1  # second block hits the cache
        assert path.exists()

    def test_stdio_cache_persists_across_spawns(self, tmp_path):
        """Two stdio service processes share one persistent cache file."""
        path = tmp_path / "stdio-cache.json"
        with ServiceClient.spawn_stdio(f"stdio:?cache={path}") as first:
            cold = first.request("classify", {"problem": "1 : 2 2\n2 : 1 1"})
            first.request("shutdown")
        with ServiceClient.spawn_stdio(f"stdio:?cache={path}") as second:
            warm = second.request("classify", {"problem": "1 : 2 2\n2 : 1 1"})
            second.request("shutdown")
        assert cold["from_cache"] is False
        assert warm["from_cache"] is True
        assert warm["complexity"] == cold["complexity"]
