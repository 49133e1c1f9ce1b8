"""One execution path: the service answers like the local driver it hosts.

The service resolves problems, generates censuses, validates priorities,
builds its cache and reports its uptime through the same code as a
``local://`` session.  These tests pin the places where separate copies of
that code once disagreed: the raw wire's error frames, empty inputs, the
uptime gauge, and the cache settings of ``repro serve`` and ``stdio:``
sessions.  They also pin the one remote request path: a ``tcp://`` session
sends exactly one wire request per call, its params built by the session's
remote driver.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.api import (
    RequestError,
    SessionConfig,
    SessionError,
    connect,
    parse_endpoint,
)
from repro.core.parser import parse_problem
from repro.engine.serialization import problem_to_dict
from repro.service import ServiceClient, ServiceError, ThreadedService

TWO_COLORING = "1 : 2 2\n2 : 1 1"


def _without_delta():
    spec = problem_to_dict(parse_problem(TWO_COLORING))
    del spec["delta"]
    return spec


# (name, raw wire request, the same input through a local session)
ERROR_CASES = [
    (
        "malformed text",
        ("classify", {"problem": "1 : 2 2 ; 2 : 1"}),
        lambda session: session.classify("1 : 2 2 ; 2 : 1"),
    ),
    (
        "empty text",
        ("classify", {"problem": ""}),
        lambda session: session.classify(""),
    ),
    (
        "dict without delta",
        ("classify", {"problem": _without_delta()}),
        lambda session: session.classify(_without_delta()),
    ),
    (
        "non-text non-object spec",
        ("classify", {"problem": 42}),
        lambda session: session.classify(42),
    ),
    (
        "unknown priority",
        ("classify", {"problem": TWO_COLORING, "priority": "urgent"}),
        lambda session: session.classify(TWO_COLORING, priority="urgent"),
    ),
    (
        "census count 0",
        ("census", {"count": 0}),
        lambda session: session.census(count=0),
    ),
    (
        "census density 2",
        ("census", {"count": 3, "density": 2.0}),
        lambda session: session.census(count=3, density=2.0),
    ),
    (
        "warm census delta 0",
        ("warm", {"census": {"count": 3, "delta": 0}}),
        lambda session: session.warm(census={"count": 3, "delta": 0}),
    ),
]


class TestWireErrorParity:
    def test_raw_wire_errors_equal_local_session_errors(self):
        local = {}
        with connect("local://inline") as session:
            for name, _wire, call in ERROR_CASES:
                with pytest.raises(SessionError) as info:
                    call(session)
                local[name] = (info.value.code, info.value.message)
        remote = {}
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                for name, (op, params), _call in ERROR_CASES:
                    with pytest.raises(ServiceError) as info:
                        client.request(op, params)
                    remote[name] = (info.value.code, info.value.message)
        assert remote == local
        assert local["non-text non-object spec"][0] == "bad-problem"
        assert local["unknown priority"][0] == "bad-request"
        assert local["census count 0"] == ("bad-request", "census requires count >= 1")
        assert local["census density 2"][0] == "bad-request"


@pytest.fixture(params=["local://inline", "tcp", "stdio:"])
def any_session(request):
    """A session on each endpoint kind; ``tcp`` gets a fresh service."""
    if request.param == "tcp":
        with ThreadedService() as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                yield session
    else:
        with connect(request.param) as session:
            yield session


class TestEmptyInputParity:
    def test_empty_input_answers_alike_on_every_endpoint(self, any_session):
        assert list(any_session.classify_many([])) == []
        with pytest.raises(RequestError) as info:
            any_session.warm(problems=[])
        assert info.value.message == "warm requires problems and/or census parameters"
        # Nothing went wrong on the way: the session still serves.
        assert any_session.classify(TWO_COLORING).ok


class TestRemoteRequestPath:
    def test_tcp_session_sends_one_request_per_call(self, monkeypatch):
        sent = []
        send = ServiceClient.send

        def capture(client, op, params=None, request_id=None):
            sent.append((op, params))
            return send(client, op, params, request_id)

        monkeypatch.setattr(ServiceClient, "send", capture)
        census = {"labels": 2, "delta": 2, "density": 0.5, "count": 3, "seed": 4}
        with ThreadedService() as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                session.classify(TWO_COLORING, deadline=0.25)
                session.warm(census=census, budget=0.5)
                list(session.census(**census))
        classify, warm, census_request = sent
        assert classify[0] == "classify"
        assert set(classify[1]) == {"problem", "priority", "deadline_ms"}
        assert classify[1]["priority"] == "interactive"
        assert classify[1]["deadline_ms"] == 250.0
        assert warm == (
            "warm",
            {"wait": False, "census": census, "priority": "warm", "budget_ms": 500.0},
        )
        assert census_request == ("census", {**census, "priority": "warm"})


def _uptime(session):
    for family in session.metrics()["families"]:
        if family["name"] == "repro_service_uptime_seconds":
            return family["samples"][0]["value"]
    raise AssertionError("no repro_service_uptime_seconds family")


class TestUptime:
    def test_local_session_uptime_is_seconds_since_open(self):
        with connect("local://inline") as session:
            assert 0 <= _uptime(session) < 60
            assert 0 <= session.stats()["service"]["uptime_seconds"] < 60

    def test_tcp_session_uptime_is_seconds_since_start(self):
        with ThreadedService() as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                assert 0 <= _uptime(session) < 60
                assert 0 <= session.stats()["service"]["uptime_seconds"] < 60


def _package_env():
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=root if not existing else f"{root}{os.pathsep}{existing}",
    )


@pytest.mark.parametrize(
    "serve_args",
    [
        ["--host", "127.0.0.1", "--port", "0", "--cache-max-entries", "1"],
        ["tcp://127.0.0.1:0?cache_max_entries=1"],
    ],
    ids=["flag", "endpoint"],
)
def test_serve_applies_cache_max_entries_without_other_cache_settings(serve_args):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *serve_args],
        stderr=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        text=True,
        env=_package_env(),
    )
    try:
        port = None
        for line in process.stderr:
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, "repro serve did not start"
        with connect(f"tcp://127.0.0.1:{port}") as session:
            assert session.stats()["cache"]["max_entries"] == 1
            assert session.classify(TWO_COLORING).from_cache is False
            assert session.classify("1 : 1 1").from_cache is False
            # The one-entry budget evicted the first answer: a fresh search.
            assert session.classify(TWO_COLORING).from_cache is False
            assert session.stats()["cache"]["evictions"] == 2
            session.shutdown()
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stderr.close()


def test_stdio_endpoint_carries_any_cache_path():
    # A stdio: session hands its endpoint URL to `repro serve`.
    path = "/tmp/odd dir/a+b&c#d%e.json"
    config = SessionConfig(mode="stdio", cache_path=path, cache_max_entries=5)
    assert parse_endpoint(config.endpoint()) == config


def test_stdio_session_passes_every_cache_setting(tmp_path):
    cache_url = f"sqlite:{tmp_path / 'stdio.db'}"
    config = SessionConfig(mode="stdio", cache_path=cache_url, cache_max_entries=7)
    with connect(config) as session:
        cache = session.stats()["cache"]
        session.shutdown()
    assert (cache["path"], cache["backend"], cache["max_entries"]) == (
        cache_url, "sqlite", 7
    )
