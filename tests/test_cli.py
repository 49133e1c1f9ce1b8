"""Tests for the command-line interface."""

import json

import pytest

from repro.api import Outcome
from repro.api.outcome import summarize_outcomes
from repro.cli import _session_config, build_parser, main


def test_classify_file(tmp_path, capsys):
    problem_file = tmp_path / "two_coloring.txt"
    problem_file.write_text("# proper 2-coloring\n1 : 2 2\n2 : 1 1\n")
    assert main(["classify", str(problem_file)]) == 0
    output = capsys.readouterr().out
    assert "n^Theta(1)" in output
    assert "Theta(n)" in output


def test_classify_catalog(capsys):
    assert main(["classify", "--catalog"]) == 0
    output = capsys.readouterr().out
    assert "UNEXPECTED" not in output
    assert "mis" in output


def test_classify_without_argument_fails(capsys):
    assert main(["classify"]) == 2
    assert "error" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_classify_json_matches_plain_report(tmp_path, capsys):
    problem_file = tmp_path / "two_coloring.txt"
    problem_file.write_text("1 : 2 2\n2 : 1 1\n")

    assert main(["classify", str(problem_file)]) == 0
    plain = capsys.readouterr().out
    assert main(["classify", "--json", str(problem_file)]) == 0
    payload = json.loads(capsys.readouterr().out)

    assert payload["complexity"] == "n^Theta(1)"
    assert f"complexity: {payload['complexity']}" in plain
    assert payload["result"]["complexity"] == "POLYNOMIAL"
    assert payload["problem"]["labels"] == ["1", "2"]


def test_classify_catalog_json(capsys):
    assert main(["classify", "--catalog", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["ok"] for entry in payload)
    assert {entry["name"] for entry in payload} >= {"mis", "3-coloring"}


def test_classify_batch_file(tmp_path, capsys):
    batch_file = tmp_path / "many.txt"
    batch_file.write_text(
        "# name: two-coloring\n1 : 2 2\n2 : 1 1\n"
        "---\n"
        "# name: trivial\n1 : 1 1\n"
        "---\n"
        "1 : 2 2\n2 : 1 1\n"
    )
    assert main(["classify-batch", str(batch_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)

    names = [item["name"] for item in payload["items"]]
    assert names == ["two-coloring", "trivial", "many.txt#3"]
    assert payload["items"][0]["complexity"] == "n^Theta(1)"
    assert payload["items"][1]["complexity"] == "O(1)"
    # The third problem is identical to the first: answered from the cache.
    assert payload["items"][2]["from_cache"] is True
    assert payload["stats"]["batch"]["submitted"] == 3
    assert payload["stats"]["batch"]["full_searches"] == 2


def test_classify_batch_directory(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("1 : 2 2\n2 : 1 1\n")
    (tmp_path / "b.txt").write_text("1 : 1 1\n")
    assert main(["classify-batch", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["items"]) == 2
    assert payload["items"][0]["name"].startswith("a.txt")


def test_classify_batch_persistent_cache(tmp_path, capsys):
    batch_file = tmp_path / "many.txt"
    batch_file.write_text("1 : 2 2\n2 : 1 1\n---\n1 : 1 1\n")
    cache_file = tmp_path / "cache.json"

    assert main(["classify-batch", str(batch_file), "--json", "--cache", str(cache_file)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["stats"]["batch"]["full_searches"] == 2
    assert cache_file.exists()

    assert main(["classify-batch", str(batch_file), "--json", "--cache", str(cache_file)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["stats"]["batch"]["full_searches"] == 0
    assert [item["complexity"] for item in first["items"]] == [
        item["complexity"] for item in second["items"]
    ]


def test_census_json_round_trips(capsys):
    assert main(["census", "--labels", "2", "--count", "40", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["counts"].values()) == 40
    assert payload["params"]["labels"] == 2
    assert payload["stats"]["batch"]["submitted"] == 40
    # Duplicate-heavy two-label space: canonical dedup must amortize work.
    assert payload["stats"]["batch"]["full_searches"] < 40


def test_census_plain_output(capsys):
    assert main(["census", "--labels", "2", "--count", "20"]) == 0
    output = capsys.readouterr().out
    assert "Random census" in output
    assert "full search(es)" in output


@pytest.mark.parametrize("endpoint", [[], ["--endpoint", "stdio:"]])
def test_out_of_range_census_is_a_bad_request(capsys, endpoint):
    assert main(["census", "--density", "2", "--count", "3", *endpoint]) == 1
    assert capsys.readouterr().err == (
        "error: bad-request: census requires density in [0, 1]\n"
    )


def test_cache_max_entries_bounds_the_cache_file(tmp_path, capsys):
    cache_file = tmp_path / "cache.json"
    assert (
        main(
            [
                "census",
                "--labels",
                "3",
                "--density",
                "0.25",
                "--count",
                "30",
                "--json",
                "--cache",
                "json:" + str(cache_file),
                "--cache-max-entries",
                "3",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["cache"]["evictions"] > 0
    on_disk = json.loads(cache_file.read_text())
    assert on_disk["schema"] == 2
    assert len(on_disk["entries"]) <= 3


def test_cache_stats_and_compact_subcommands(tmp_path, capsys):
    """`cache stats` / `cache compact` maintain a file without classifying."""
    batch_file = tmp_path / "many.txt"
    batch_file.write_text("1 : 2 2\n2 : 1 1\n---\n1 : 1 1\n---\n2 : 2 2\n")
    cache_file = tmp_path / "cache.json"
    # Pinned to json: the shrink assertion below is whole-file specific
    # (sqlite stores are page-granular and do not shrink monotonically).
    cache_url = "json:" + str(cache_file)
    assert main(["classify-batch", str(batch_file), "--cache", cache_url]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache", cache_url, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    # "2 : 2 2" is a renaming of "1 : 1 1": two canonical orbits, not three.
    assert stats["entries"] == 2
    assert stats["file_bytes"] > 0
    bytes_before = stats["file_bytes"]

    assert (
        main(
            [
                "cache",
                "compact",
                "--cache",
                cache_url,
                "--cache-max-entries",
                "1",
                "--json",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["entries"] == 1
    assert report["bytes_before"] == bytes_before
    assert report["bytes_after"] < bytes_before

    assert main(["cache", "stats", "--cache", cache_url]) == 0
    plain = capsys.readouterr().out
    assert "entries:  1" in plain


def test_cache_stats_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["cache", "stats", "--cache", str(tmp_path / "nope.json")]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_worker_backend_flags_agree_with_serial(capsys):
    """A threads-backend census tallies identically to the serial one."""
    base = ["census", "--labels", "2", "--count", "25", "--json"]
    assert main(base) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(base + ["--worker-backend", "threads", "--workers", "2"]) == 0
    threaded = json.loads(capsys.readouterr().out)
    assert threaded["counts"] == serial["counts"]
    assert threaded["stats"]["workers"]["backend"] == "threads"
    assert threaded["stats"]["workers"]["workers"] == 2
    assert serial["stats"]["workers"]["backend"] == "inline"


def test_serve_and_client_parser_wiring():
    parser = build_parser()
    serve_args = parser.parse_args(
        ["serve", "stdio:", "--cache", "c.json", "--cache-max-entries", "10"]
    )
    assert _session_config(serve_args, serving=True).mode == "stdio"
    assert serve_args.cache_max_entries == 10
    assert serve_args.worker_backend is None
    assert serve_args.workers is None

    serve_args = parser.parse_args(
        ["serve", "--worker-backend", "processes", "--workers", "3"]
    )
    assert serve_args.worker_backend == "processes"
    assert serve_args.workers == 3

    batch_args = parser.parse_args(
        ["classify-batch", "problems/", "--worker-backend", "threads", "--workers", "2"]
    )
    assert batch_args.worker_backend == "threads"
    assert batch_args.workers == 2

    warm_args = parser.parse_args(
        [
            "warm",
            "--endpoint",
            "tcp://localhost:8765",
            "--census",
            "--count",
            "50",
            "--wait",
        ]
    )
    assert warm_args.census is True
    assert warm_args.wait is True
    assert warm_args.count == 50

    with pytest.raises(SystemExit):
        parser.parse_args(["census", "--worker-backend", "gpu"])

    client_args = parser.parse_args(
        ["census", "--endpoint", "tcp://localhost:8765", "--count", "5"]
    )
    assert client_args.endpoint == "tcp://localhost:8765"
    assert client_args.count == 5

    with pytest.raises(SystemExit):
        parser.parse_args(["stats"])  # the endpoint is required
    with pytest.raises(SystemExit) as exited:
        parser.parse_args(["client", "census"])  # one verb per operation
    assert exited.value.code == 2


def test_serve_and_client_over_tcp(tmp_path, capsys):
    """Full CLI round trip: an embedded service, driven via `--endpoint tcp://`."""
    from repro.engine.cache import ClassificationCache
    from repro.service.server import ThreadedService

    cache_file = tmp_path / "cache.json"
    service = ThreadedService(cache=ClassificationCache(path=str(cache_file)))
    host, port = service.start()
    try:
        problem_file = tmp_path / "problem.txt"
        problem_file.write_text("1 : 2 2\n2 : 1 1\n")
        endpoint = f"tcp://{host}:{port}"

        assert main(["classify", str(problem_file), "--endpoint", endpoint]) == 0
        first = capsys.readouterr().out
        assert "n^Theta(1)" in first and "cached:     no" in first

        assert (
            main(["classify", "--json", str(problem_file), "--endpoint", endpoint])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["from_cache"] is True

        assert main(["stats", endpoint]) == 0
        plain_stats = capsys.readouterr().out
        assert "1 entries" in plain_stats and "engine:" in plain_stats

        assert main(["stats", endpoint, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache"]["entries"] == 1
        assert stats["workers"]["backend"] == "threads"

        assert (
            main(
                [
                    "warm",
                    "--endpoint",
                    endpoint,
                    "--census",
                    "--count",
                    "10",
                    "--wait",
                    "--json",
                ]
            )
            == 0
        )
        warm = json.loads(capsys.readouterr().out)
        assert warm["count"] == 10
        assert warm["waited"] is True

        assert (
            main(["census", "--count", "10", "--json", "--endpoint", endpoint])
            == 0
        )
        census = json.loads(capsys.readouterr().out)
        assert census["hit_rate"] == 1.0  # fully warmed above

        assert main(["warm", "--endpoint", endpoint]) == 2
        assert "provide a batch source" in capsys.readouterr().err

        assert main(["shutdown", endpoint]) == 0
        assert "service shut down" in capsys.readouterr().out
    finally:
        service.stop()
    assert cache_file.exists()


# ----------------------------------------------------------------------
# Deadline / priority / cancel (PR 4)
# ----------------------------------------------------------------------
def _write_hard_problem(tmp_path):
    from repro.core.parser import format_problem
    from repro.problems import hard_problem

    path = tmp_path / "hard.txt"
    path.write_text(format_problem(hard_problem(12)) + "\n")
    return path


def test_scheduling_flags_parser_wiring():
    parser = build_parser()
    args = parser.parse_args(
        ["classify", "p.txt", "--deadline", "2.5", "--priority", "interactive"]
    )
    assert args.deadline == 2.5
    assert args.priority == "interactive"
    args = parser.parse_args(["census", "--deadline", "1", "--priority", "warm"])
    assert args.deadline == 1.0 and args.priority == "warm"
    args = parser.parse_args(
        ["classify-batch", "dir/", "--deadline", "0.5", "--priority", "batch"]
    )
    assert args.deadline == 0.5 and args.priority == "batch"
    args = parser.parse_args(
        ["classify", "p.txt", "--endpoint", "tcp://h:1", "--deadline", "3"]
    )
    assert args.deadline == 3.0
    args = parser.parse_args(["cancel", "tcp://h:1", "42"])
    assert args.request_id == "42"
    with pytest.raises(SystemExit):
        parser.parse_args(["census", "--priority", "urgent"])


def test_classify_deadline_times_out_with_exit_124(tmp_path, capsys):
    path = _write_hard_problem(tmp_path)
    assert main(["classify", str(path), "--deadline", "0.2"]) == 124
    out = capsys.readouterr().out
    assert "timeout" in out


def test_classify_deadline_json_reports_outcome(tmp_path, capsys):
    path = _write_hard_problem(tmp_path)
    assert main(["classify", str(path), "--deadline", "0.2", "--json"]) == 124
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "timeout"
    assert payload["complexity"] is None


def test_classify_with_priority_but_no_deadline_still_classifies(tmp_path, capsys):
    problem_file = tmp_path / "p.txt"
    problem_file.write_text("1 : 2 2\n2 : 1 1\n")
    assert main(["classify", str(problem_file), "--priority", "interactive", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "ok"
    assert payload["complexity"] == "n^Theta(1)"


def test_classify_batch_deadline_marks_items(tmp_path, capsys):
    batch_file = tmp_path / "batch.txt"
    # One fast block plus the adversarial one: only the hard block times out.
    from repro.core.parser import format_problem
    from repro.problems import hard_problem

    batch_file.write_text(
        "# name: easy\n1 : 2 2\n2 : 1 1\n---\n# name: hard\n"
        + format_problem(hard_problem(12))
        + "\n"
    )
    assert main(["classify-batch", str(batch_file), "--deadline", "1.0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    outcomes = {item["name"]: item["outcome"] for item in payload["items"]}
    assert outcomes["easy"] == "ok"
    assert outcomes["hard"] == "timeout"
    assert payload["stats"]["workers"]["timeouts"] == 1


def test_census_deadline_tallies_timeouts(capsys):
    # An already-expired budget: every solvable draw reports `timeout`.
    assert main(
        ["census", "--labels", "2", "--count", "12", "--deadline", "0.000001", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    counts = payload["counts"]
    assert sum(counts.values()) == 12
    assert counts.get("timeout", 0) > 0


def test_client_cancel_round_trip(capsys):
    """`cancel` against a live service: unknown ids report not-found."""
    from repro.service.server import ThreadedService

    service = ThreadedService()
    host, port = service.start()
    try:
        endpoint = f"tcp://{host}:{port}"
        assert main(["cancel", endpoint, "123"]) == 1
        assert "not in flight" in capsys.readouterr().out
        assert main(["cancel", endpoint, "123", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"request_id": 123, "found": False, "cancelled": 0}
        assert main(["shutdown", endpoint]) == 0
        capsys.readouterr()
    finally:
        service.stop()


def test_client_classify_deadline_over_tcp(tmp_path, capsys):
    from repro.service.server import ThreadedService

    path = _write_hard_problem(tmp_path)
    service = ThreadedService(backend="threads", workers=2)
    host, port = service.start()
    try:
        endpoint = f"tcp://{host}:{port}"
        assert (
            main(
                ["classify", str(path), "--endpoint", endpoint,
                 "--deadline", "0.25", "--json"]
            )
            == 124
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "timeout"
        assert main(["shutdown", endpoint]) == 0
        capsys.readouterr()
    finally:
        service.stop()


def test_classify_catalog_honours_scheduling_flags(capsys):
    """`--catalog` runs through the session, so the session flags apply."""
    assert main(["classify", "--catalog", "--deadline", "60", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload and all(entry["ok"] for entry in payload)
    assert (
        main(
            [
                "classify",
                "--catalog",
                "--priority",
                "batch",
                "--endpoint",
                "local://threads?workers=2",
            ]
        )
        == 0
    )
    assert "UNEXPECTED" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Session facade wiring (PR 5): warm subcommand, serve endpoints
# ----------------------------------------------------------------------
def test_warm_parser_wiring():
    parser = build_parser()
    args = parser.parse_args(
        ["warm", "--census", "--count", "30", "--budget", "5", "--cache", "c.json"]
    )
    assert args.census is True and args.count == 30
    assert args.budget == 5.0
    assert args.cache == "c.json"
    args = parser.parse_args(["serve", "tcp://0.0.0.0:9000"])
    assert args.endpoint == "tcp://0.0.0.0:9000"
    args = parser.parse_args(["serve"])
    assert args.endpoint is None
    args = parser.parse_args(
        ["warm", "--endpoint", "tcp://h:1", "--census", "--budget", "2.5"]
    )
    assert args.budget == 2.5


def test_warm_subcommand_fills_cache_within_budget(tmp_path, capsys):
    cache_file = tmp_path / "warm.json"
    assert (
        main(
            [
                "warm",
                "--census",
                "--count",
                "20",
                "--budget",
                "60",
                "--cache",
                str(cache_file),
                "--worker-backend",
                "threads",
                "--workers",
                "2",
                "--json",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["waited"] is True
    assert summary["budget_exhausted"] is False
    assert summary["within_budget"] == summary["unique_keys"]
    assert cache_file.exists()

    # A follow-up census against the warmed cache is answered from it.
    assert (
        main(["census", "--count", "20", "--cache", str(cache_file), "--json"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["batch"]["full_searches"] == 0


def test_warm_subcommand_plain_output(tmp_path, capsys):
    batch_file = tmp_path / "many.txt"
    batch_file.write_text("1 : 2 2\n2 : 1 1\n---\n1 : 1 1\n")
    assert main(["warm", str(batch_file), "--wait"]) == 0
    out = capsys.readouterr().out
    assert "warm: 2 problem(s)" in out and "waited for" in out


def test_warm_subcommand_requires_workload(capsys):
    assert main(["warm"]) == 2
    assert "provide a batch source" in capsys.readouterr().err


def test_serve_endpoint_folds_into_settings():
    parser = build_parser()
    config = _session_config(
        parser.parse_args(["serve", "tcp://0.0.0.0:9111?cache=/tmp/x.json"]),
        serving=True,
    )
    assert config.host == "0.0.0.0" and config.port == 9111
    assert config.cache_path == "/tmp/x.json"
    config = _session_config(parser.parse_args(["serve", "stdio:"]), serving=True)
    assert config.mode == "stdio"
    # Without an endpoint, serve listens on --host/--port; flags fill in
    # what the URL leaves unset and worker flags are the service's own.
    config = _session_config(
        parser.parse_args(
            ["serve", "--port", "0", "--cache", "c.json", "--workers", "3"]
        ),
        serving=True,
    )
    assert (config.mode, config.host, config.port) == ("tcp", "127.0.0.1", 0)
    assert config.cache_path == "c.json"


def test_endpoint_flags_fill_in_or_exit_2(tmp_path, capsys):
    """Flags fill in the URL's unset fields; any other flag is a usage error."""
    batch_file = tmp_path / "b.txt"
    batch_file.write_text("1 : 1 1\n")
    parser = build_parser()
    config = _session_config(
        parser.parse_args(
            ["census", "--worker-backend", "threads", "--workers", "2",
             "--cache", "c.json"]
        )
    )
    assert config.endpoint() == "local://threads?workers=2&cache=c.json"
    config = _session_config(
        parser.parse_args(
            ["census", "--endpoint", "local://threads?workers=2",
             "--cache-max-entries", "5"]
        )
    )
    assert (config.backend, config.workers, config.cache_max_entries) == (
        "threads", 2, 5
    )
    config = _session_config(
        parser.parse_args(["warm", "--endpoint", "stdio:", "--cache", "c.json"])
    )
    assert config.cache_path == "c.json"

    for argv in (
        # worker flags on endpoints whose engine runs in a service
        ["census", "--endpoint", "tcp://127.0.0.1:9", "--workers", "2"],
        ["census", "--endpoint", "stdio:", "--worker-backend", "threads"],
        # cache flags on a connecting tcp:// session
        ["classify-batch", str(batch_file), "--endpoint", "tcp://127.0.0.1:9",
         "--cache", "c.json"],
        # flags that contradict the URL
        ["census", "--endpoint", "local://inline", "--worker-backend", "threads"],
        ["warm", "--census", "--endpoint", "local://threads?workers=2",
         "--workers", "4"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: --"), argv


def test_serve_rejects_local_endpoint(capsys):
    assert main(["serve", "local://inline"]) == 1
    assert "tcp:// or stdio:" in capsys.readouterr().err


def test_client_warm_budget_over_tcp(capsys):
    from repro.service.server import ThreadedService

    service = ThreadedService(backend="threads", workers=2)
    host, port = service.start()
    try:
        endpoint = f"tcp://{host}:{port}"
        assert (
            main(
                [
                    "warm",
                    "--endpoint",
                    endpoint,
                    "--census",
                    "--count",
                    "15",
                    "--budget",
                    "30",
                    "--json",
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["waited"] is True
        assert summary["within_budget"] == summary["unique_keys"]
        assert main(["shutdown", endpoint]) == 0
        capsys.readouterr()
    finally:
        service.stop()


def test_client_stats_reports_search_times(tmp_path, capsys):
    from repro.service.server import ThreadedService

    service = ThreadedService(backend="threads", workers=2)
    host, port = service.start()
    try:
        endpoint = f"tcp://{host}:{port}"
        problem_file = tmp_path / "problem.txt"
        problem_file.write_text("1 : 2 2\n2 : 1 1\n")
        assert main(["classify", str(problem_file), "--endpoint", endpoint]) == 0
        capsys.readouterr()
        assert main(["stats", endpoint]) == 0
        out = capsys.readouterr().out
        assert "searches: 1 completed" in out
        assert main(["shutdown", endpoint]) == 0
        capsys.readouterr()
    finally:
        service.stop()


# ----------------------------------------------------------------------
# One verb per operation: the same JSON shape on every endpoint
# ----------------------------------------------------------------------
def _key_shape(value):
    """The nested key sets of a JSON document (lists by their first element)."""
    if isinstance(value, dict):
        return {key: _key_shape(item) for key, item in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [_key_shape(value[0])]
    return None


def _triples(items):
    return [(item["name"], item["outcome"], item["complexity"]) for item in items]


def test_endpoint_shape_parity(tmp_path, capsys):
    """`local://inline` and a `tcp://` service print identically shaped JSON."""
    from repro.service.server import ThreadedService

    problem_file = tmp_path / "problem.txt"
    problem_file.write_text("1 : 2 2\n2 : 1 1\n")
    batch_file = tmp_path / "many.txt"
    batch_file.write_text(
        "# name: two-coloring\n1 : 2 2\n2 : 1 1\n---\n1 : 1 1\n---\n2 : 1 1\n1 : 2 2\n"
    )
    verbs = {
        "classify": ["classify", str(problem_file), "--json"],
        "classify-batch": ["classify-batch", str(batch_file), "--json"],
        "census": ["census", "--count", "12", "--json"],
        "warm": [
            "warm", str(batch_file), "--census", "--count", "12", "--wait", "--json"
        ],
    }
    service = ThreadedService()
    host, port = service.start()
    tcp = f"tcp://{host}:{port}"
    payloads = {}
    try:
        for endpoint in ("local://inline", tcp):
            for verb, argv in verbs.items():
                assert main(argv + ["--endpoint", endpoint]) == 0, (verb, endpoint)
                payloads[verb, endpoint] = json.loads(capsys.readouterr().out)
        assert main(["shutdown", tcp]) == 0
        capsys.readouterr()
    finally:
        service.stop()

    for verb in verbs:
        local, remote = payloads[verb, "local://inline"], payloads[verb, tcp]
        assert _key_shape(local) == _key_shape(remote), verb
        if verb == "classify":
            assert _triples([local]) == _triples([remote])
            assert set(local) == {"problem", *Outcome.from_payload(local).as_dict()}
        elif verb == "classify-batch":
            assert _triples(local["items"]) == _triples(remote["items"])
            assert set(local) == {"items", *summarize_outcomes([]), "stats"}
        elif verb == "census":
            assert local["counts"] == remote["counts"]
            assert local["params"] == remote["params"]
            assert set(local) == {*summarize_outcomes([]), "counts", "params", "stats"}
        else:
            assert (local["count"], local["unique_keys"]) == (
                remote["count"],
                remote["unique_keys"],
            )
