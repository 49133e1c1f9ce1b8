"""One execution path: the service answers like the local driver it hosts.

The service resolves problems, generates censuses, validates priorities,
builds its cache and reports its uptime through the same code as a
``local://`` session.  These tests pin the places where separate copies of
that code once disagreed: the raw wire's error frames, the uptime gauge,
and the cache settings of ``repro serve`` and ``stdio:`` sessions.
"""

import os
import subprocess
import sys
import time

import pytest

import repro
from repro.api import SessionConfig, SessionError, connect, parse_endpoint
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
        ["--host", "127.0.0.1", "--port", "0", "--cache-ttl", "0.2"],
        ["tcp://127.0.0.1:0?cache_ttl=0.2"],
    ],
    ids=["flag", "endpoint"],
)
def test_serve_applies_cache_ttl_without_other_cache_settings(serve_args):
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
            assert session.stats()["cache"]["ttl_seconds"] == 0.2
            assert session.classify(TWO_COLORING).from_cache is False
            time.sleep(0.4)
            # The entry outlived its TTL: a miss and a fresh search.
            assert session.classify(TWO_COLORING).from_cache is False
            assert session.stats()["cache"]["expirations"] == 1
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
    config = SessionConfig(mode="stdio", cache_path=path, cache_ttl=0.5)
    assert parse_endpoint(config.endpoint()) == config


def test_stdio_session_passes_every_cache_setting():
    endpoint = "stdio:?cache_ttl=0.3&cache_flush_interval=5&cache_flush_count=7"
    with connect(endpoint) as session:
        cache = session.stats()["cache"]
        session.shutdown()
    assert cache["ttl_seconds"] == 0.3
    assert cache["flush_interval"] == 5.0
    assert cache["flush_max_dirty"] == 7
