"""Command-line interface: classify LCL problems from the terminal.

Usage::

    python -m repro classify path/to/problem.txt        # classify a problem file
    python -m repro classify --json path/to/problem.txt # machine-readable output
    python -m repro classify --catalog                  # classify the paper's samples
    echo "1 : 2 2 ; 2 : 1 1" | python -m repro classify -
    python -m repro classify-batch problems/            # every *.txt in a directory
    python -m repro classify-batch many.txt             # '---'-separated problem blocks
    python -m repro census --labels 2 --count 200       # random-problem sweep
    python -m repro census --count 200 --worker-backend processes --workers 4
    python -m repro warm --census --count 200 --cache results.json --budget 10
    python -m repro loadgen local://threads --workload zipf --duration 10 --seed 7
    python -m repro loadgen tcp://127.0.0.1:8765 --slo slo.json --connections 4
    python -m repro cache stats --cache results.json    # on-disk cache maintenance
    python -m repro cache compact --cache results.json --cache-max-entries 500
    python -m repro serve tcp://127.0.0.1:8765          # long-running service (TCP)
    python -m repro serve stdio:                        # service over stdin/stdout
    python -m repro client --connect localhost:8765 classify problem.txt
    python -m repro client --connect localhost:8765 warm --census --count 200 --wait
    python -m repro metrics tcp://127.0.0.1:8765        # Prometheus text exposition
    python -m repro client --connect localhost:8765 trace 17   # span tree by id

Every subcommand is a thin user of :mod:`repro.api`: it opens a
:class:`~repro.api.ClassificationSession` on an endpoint —
``local://inline`` by default, ``local://threads``/``local://processes``
under the worker flags, ``tcp://host:port`` for the ``client`` subcommands —
and renders the uniform :class:`~repro.api.Outcome` objects the session
returns.  The classify/batch/census output is therefore *identical* in
shape whether the searches ran in this process or on a remote service.

A problem file contains one configuration per line in the paper's notation
(``parent : child child ...``); blank lines and ``#`` comments are ignored
(see :mod:`repro.core.parser` for the full grammar).  A *batch* file holds
several such problems separated by lines containing only ``---``; a comment
of the form ``# name: some-name`` inside a block names that problem.

Batch work is deduplicated by a renaming-invariant canonical form and can
persist across runs with ``--cache FILE`` (bounded with
``--cache-max-entries N``).  Uncached representatives execute on a worker
backend selected with ``--worker-backend {inline,threads,processes}`` and
sized with ``--workers N`` (``--processes N`` remains as the legacy
spelling).  Because the certificate searches are exponential in the worst
case, every classification command accepts ``--deadline SECONDS`` (per-
problem budget covering canonicalization and search; blown budgets report
outcome ``timeout`` — exit code 124 for single classifies) and ``--priority
{interactive,batch,warm}``.  ``warm`` additionally accepts ``--budget
SECONDS``, a wall-clock budget spread best-effort across the whole sweep.

``loadgen`` replays a seeded synthetic workload (Zipf-skewed duplicate-heavy
keys, Poisson/burst arrivals, mixed priorities — see :mod:`repro.loadgen`)
against any endpoint and emits an SLO report (latency percentiles per
priority class, throughput, dedup ratio); with ``--slo spec.json`` a
violated objective exits nonzero, making latency guarantees CI-assertable.

``serve`` runs the long-running classification service of
:mod:`repro.service` on a ``tcp://`` or ``stdio:`` endpoint (spec:
``docs/service_protocol.md``); ``client`` is its command-line counterpart,
exposing the same classify/batch/census surface plus ``warm``, ``cancel``,
``stats`` and ``shutdown`` through a ``tcp://`` session.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import json
import os
import sys
from typing import Any, Dict, List, Optional

from .api import (
    ClassificationSession,
    Outcome,
    SessionConfig,
    SessionError,
    parse_endpoint,
)
from .api.config import MODE_STDIO, MODE_TCP
from .api.outcome import summarize_outcomes, tally_outcomes
from .api.session import open_cache
from .core.classifier import classify_with_certificates
from .core.parser import parse_problem
from .core.problem import LCLError, LCLProblem
from .engine.backends import parse_cache_url, parse_snapshot_text
from .engine.cache import ClassificationCache
from .engine.serialization import problem_to_dict
from .loadgen.driver import DEFAULT_MAX_IN_FLIGHT
from .loadgen.driver import MODES as LOADGEN_MODES
from .loadgen.workload import WORKLOADS
from .problems.catalog import catalog
from .service.server import ClassificationService
from .workers.backends import BACKEND_NAMES
from .workers.scheduler import PRIORITIES

BATCH_SEPARATOR = "---"
"""Line separating problem blocks inside a multi-problem batch file."""

TIMEOUT_EXIT_CODE = 124
"""Exit status when a requested classification blew its ``--deadline``
(matching the convention of GNU ``timeout``)."""


def _read_problem(source: str) -> LCLProblem:
    """Read a problem description from a file path or ``-`` for standard input."""
    if source == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
        name = source
    return parse_problem(text, name=name)


def _parse_batch_text(text: str, default_name: str) -> List[LCLProblem]:
    """Split a multi-problem file into blocks and parse each one.

    Blocks are separated by lines consisting solely of ``---``.  Inside a
    block a comment of the form ``# name: foo`` names the problem; otherwise
    blocks are named ``<default_name>#<index>``.
    """
    blocks: List[List[str]] = [[]]
    for line in text.splitlines():
        if line.strip() == BATCH_SEPARATOR:
            blocks.append([])
        else:
            blocks[-1].append(line)
    problems: List[LCLProblem] = []
    index = 0
    for block in blocks:
        body = "\n".join(block)
        if not any(
            line.strip() and not line.strip().startswith("#") for line in block
        ):
            continue  # empty or comment-only block
        index += 1
        name = f"{default_name}#{index}"
        for line in block:
            stripped = line.strip()
            if stripped.lower().startswith("# name:"):
                name = stripped.split(":", 1)[1].strip()
                break
        problems.append(parse_problem(body, name=name))
    return problems


def _read_batch(source: str) -> List[LCLProblem]:
    """Read problems from a directory of ``*.txt`` files or one batch file."""
    if os.path.isdir(source):
        paths = sorted(glob.glob(os.path.join(source, "*.txt")))
        if not paths:
            raise LCLError(f"directory {source!r} contains no *.txt problem files")
        problems = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                problems.extend(
                    _parse_batch_text(handle.read(), os.path.basename(path))
                )
        return problems
    if source == "-":
        return _parse_batch_text(sys.stdin.read(), "<stdin>")
    with open(source, "r", encoding="utf-8") as handle:
        return _parse_batch_text(handle.read(), os.path.basename(source))


# ----------------------------------------------------------------------
# The session factory — the only place the CLI decides *where* work runs
# ----------------------------------------------------------------------
def _local_config(args: argparse.Namespace) -> SessionConfig:
    """The engine/worker/cache flags as a local session configuration."""
    backend = getattr(args, "worker_backend", None)
    workers = getattr(args, "workers", None)
    processes = getattr(args, "processes", None)
    if backend is None and processes is not None and processes > 1:
        backend, workers = "processes", workers or processes
    return SessionConfig(
        mode="local",
        backend=backend or "inline",
        workers=workers,
        cache_path=getattr(args, "cache", None),
        cache_max_entries=getattr(args, "cache_max_entries", None),
        cache_ttl=getattr(args, "cache_ttl", None),
        cache_flush_interval=getattr(args, "cache_flush_interval", None),
        cache_flush_count=getattr(args, "cache_flush_count", None),
    )


def _open_local_session(args: argparse.Namespace) -> ClassificationSession:
    return ClassificationSession.open(_local_config(args))


def _open_client_session(args: argparse.Namespace) -> ClassificationSession:
    host, port = _parse_connect(args.connect)
    return ClassificationSession.open(
        SessionConfig(mode="tcp", host=host, port=port, retries=args.retries)
    )


# ----------------------------------------------------------------------
# Shared rendering of outcomes and summaries
# ----------------------------------------------------------------------
def _print_item_line(item: Dict[str, Any]) -> None:
    if item.get("outcome", "ok") != "ok":
        print(
            f"[{item['outcome']}] {item['name']:28s} ({item['outcome']})", flush=True
        )
        return
    origin = "cached" if item["from_cache"] else "search"
    print(f"[{origin}] {item['name']:28s} {item['complexity']:16s}", flush=True)


def _print_stream_summary(summary: Dict[str, Any]) -> None:
    interrupted = summary.get("timeouts", 0) + summary.get("cancelled", 0)
    suffix = f", {interrupted} timed out/cancelled" if interrupted else ""
    print(
        f"\n{summary['count']} problem(s): {summary['cache_hits']} cache hit(s), "
        f"{summary['cache_misses']} miss(es) (hit rate {summary['hit_rate']:.0%})"
        f"{suffix}"
    )


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------
def _report_outcome(outcome: Outcome) -> str:
    name = outcome.problem.summary() if outcome.problem else outcome.name
    lines = [
        f"problem:    {name}",
        f"complexity: {outcome.complexity}",
        f"details:    {outcome.details}",
        f"time:       {outcome.elapsed_ms:.2f} ms",
    ]
    return "\n".join(lines)


def _run_classify(args: argparse.Namespace) -> int:
    if args.catalog and (args.deadline is not None or args.priority is not None):
        # The catalog path classifies directly (no scheduler), so silently
        # ignoring the flags would fake a safety net that is not there.
        print(
            "error: --deadline/--priority cannot be combined with --catalog",
            file=sys.stderr,
        )
        return 2
    if args.catalog:
        rows = []
        for name, (problem, expected) in catalog().items():
            artifacts = classify_with_certificates(problem)
            rows.append((name, artifacts, expected))
        if args.json:
            payload = [
                {
                    "name": name,
                    "complexity": artifacts.result.complexity.value,
                    "expected": expected.value,
                    "ok": artifacts.result.complexity == expected,
                    "elapsed_ms": artifacts.elapsed_seconds * 1000.0,
                }
                for name, artifacts, expected in rows
            ]
            print(json.dumps(payload, indent=2))
            return 0
        for name, artifacts, expected in rows:
            marker = "ok" if artifacts.result.complexity == expected else "UNEXPECTED"
            print(
                f"[{marker}] {name:22s} {artifacts.result.complexity.value:16s} "
                f"({artifacts.elapsed_seconds * 1000:.1f} ms)"
            )
        return 0
    if not args.problem:
        print("error: provide a problem file, '-' for stdin, or --catalog", file=sys.stderr)
        return 2
    problem = _read_problem(args.problem)
    with ClassificationSession.open("local://inline") as session:
        outcome = session.classify(
            problem, priority=args.priority or "interactive", deadline=args.deadline
        )
    if args.json:
        payload: Dict[str, Any] = {
            "problem": problem_to_dict(problem),
            **outcome.as_dict(),
        }
        print(json.dumps(payload, indent=2))
    elif outcome.ok:
        print(_report_outcome(outcome))
    else:
        print(f"problem:    {problem.summary()}")
        print(f"outcome:    {outcome.outcome} (deadline {args.deadline}s)")
    return 0 if outcome.ok else TIMEOUT_EXIT_CODE


# ----------------------------------------------------------------------
# classify-batch
# ----------------------------------------------------------------------
def _print_batch_report(outcomes: List[Outcome], stats: Dict[str, Any]) -> None:
    for outcome in outcomes:
        _print_item_line(outcome.as_dict())
    batch, cache = stats["batch"], stats["cache"]
    interrupted = sum(1 for outcome in outcomes if not outcome.ok)
    suffix = f"; {interrupted} timed out/cancelled" if interrupted else ""
    print(
        f"\n{batch['submitted']} problem(s), {batch['full_searches']} full search(es), "
        f"{batch['amortized']} amortized ({batch['speedup']:.1f}x); "
        f"cache hit rate {cache['hit_rate']:.0%}{suffix}"
    )


def _run_classify_batch(args: argparse.Namespace) -> int:
    problems = _read_batch(args.source)
    with _open_local_session(args) as session:
        outcomes = list(
            session.classify_many(
                problems, priority=args.priority or "batch", deadline=args.deadline
            )
        )
        stats = session.stats()
    if args.json:
        payload = {
            "items": [outcome.as_dict() for outcome in outcomes],
            "stats": stats,
        }
        print(json.dumps(payload, indent=2))
        return 0
    _print_batch_report(outcomes, stats)
    return 0


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------
def _census_params(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "labels": args.labels,
        "delta": args.delta,
        "density": args.density,
        "count": args.count,
        "seed": args.seed,
    }


def _run_census(args: argparse.Namespace) -> int:
    params = _census_params(args)
    with _open_local_session(args) as session:
        # A census is bulk work: schedule it at the lowest class by default
        # so an interactive classify sharing the scheduler overtakes it.
        outcomes = list(
            session.census(
                **params, priority=args.priority or "warm", deadline=args.deadline
            )
        )
        stats = session.stats()
    counts = tally_outcomes(outcomes)
    if args.json:
        payload = {"params": params, "counts": counts, "stats": stats}
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"Random census: {args.count} problems, {args.labels} labels, "
        f"delta={args.delta}, density={args.density}"
    )
    for value, count in sorted(counts.items(), key=lambda pair: -pair[1]):
        print(f"  {value:16s} {count:5d}")
    batch = stats["batch"]
    print(
        f"\n{batch['full_searches']} full search(es) for {batch['submitted']} "
        f"problem(s) ({batch['speedup']:.1f}x amortization)"
    )
    return 0


# ----------------------------------------------------------------------
# warm (local cache warming, incl. wall-clock budgets)
# ----------------------------------------------------------------------
def _warm_workload(args: argparse.Namespace):
    problems = None
    if args.source is not None:
        problems = _read_batch(args.source)
    census = _census_params(args) if args.census else None
    return problems, census


def _print_warm_summary(summary: Dict[str, Any]) -> None:
    mode = "waited for" if summary.get("waited") else "scheduled in background:"
    print(
        f"warm: {summary['count']} problem(s), {summary['unique_keys']} unique "
        f"orbit(s); {summary['already_cached']} already cached, "
        f"{mode} {summary['scheduled']} search(es)"
    )
    if "within_budget" in summary:
        state = "exhausted" if summary.get("budget_exhausted") else "sufficient"
        print(
            f"budget: {summary['budget_seconds']}s ({state}); "
            f"{summary['within_budget']} completed within it, "
            f"{summary.get('interrupted', 0)} interrupted"
        )


def _run_warm(args: argparse.Namespace) -> int:
    problems, census = _warm_workload(args)
    if problems is None and census is None:
        print(
            "error: provide a batch source and/or --census parameters to warm",
            file=sys.stderr,
        )
        return 2
    with _open_local_session(args) as session:
        summary = session.warm(
            problems=problems,
            census=census,
            wait=args.wait,
            priority=args.priority,
            deadline=args.deadline,
            budget=args.budget,
        )
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    _print_warm_summary(summary)
    return 0


# ----------------------------------------------------------------------
# loadgen (synthetic traffic + SLO verdict)
# ----------------------------------------------------------------------
SLO_EXIT_CODE = 3
"""Exit status when a load run violated its ``--slo`` spec (the run itself
succeeded — the *guarantee* failed)."""


def _run_loadgen(args: argparse.Namespace) -> int:
    from .loadgen import (
        LoadDriver,
        SLOSpec,
        build_report,
        build_workload,
        summarize_report,
    )

    spec = build_workload(
        args.workload,
        seed=args.seed,
        duration=args.duration,
        rate=args.rate,
        pool_size=args.pool_size,
        zipf_s=args.zipf_s,
        adversarial_rate=args.adversarial_rate,
    )
    slo = SLOSpec.from_file(args.slo) if args.slo else None
    plan = spec.plan()
    sessions = [
        ClassificationSession.open(args.endpoint) for _ in range(args.connections)
    ]
    try:
        driver = LoadDriver(
            sessions,
            mode=args.mode,
            concurrency=args.concurrency,
            max_in_flight=args.max_in_flight,
        )
        result = driver.run(plan)
    finally:
        for session in sessions:
            session.close()
    report = build_report(args.endpoint, spec, plan, result, slo)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(summarize_report(report))
    verdict = report.get("slo")
    if verdict is not None and not verdict["passed"]:
        for violation in verdict["violations"]:
            print(f"slo violation: {violation}", file=sys.stderr)
        return SLO_EXIT_CODE
    return 0


# ----------------------------------------------------------------------
# metrics (Prometheus text exposition of any endpoint)
# ----------------------------------------------------------------------
def _print_metrics(session: ClassificationSession, as_json: bool) -> int:
    if as_json:
        print(json.dumps(session.metrics(), indent=2, sort_keys=True))
        return 0
    text = session.metrics_text()
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    with ClassificationSession.open(args.endpoint) as session:
        return _print_metrics(session, args.json)


# ----------------------------------------------------------------------
# cache maintenance
# ----------------------------------------------------------------------
def _open_cache(
    args: argparse.Namespace, require_exists: bool = True
) -> ClassificationCache:
    """Open ``--cache`` for maintenance: no quarantine, clear errors.

    ``--cache`` is a cache URL (bare path, ``json:FILE``, ``sqlite:FILE``).
    A corrupt store surfaces as a one-line ``error:`` via
    :class:`~repro.engine.backends.CacheCorruptionError` (a ``ValueError``)
    instead of being quarantined — inspection commands must never move the
    file they were pointed at.
    """
    _, location = parse_cache_url(args.cache)
    if location is None:
        raise LCLError(
            f"cache URL {args.cache!r} has no durable store to operate on"
        )
    if require_exists and not os.path.exists(location):
        raise LCLError(f"cache file {location!r} does not exist")
    return ClassificationCache(
        path=args.cache, max_entries=args.cache_max_entries, quarantine=False
    )


def _run_cache_stats(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    payload = {
        "path": cache.path,
        "backend": cache.backend_name,
        "entries": len(cache),
        "max_entries": cache.max_entries,
        "file_bytes": cache.backend.file_size(),
        "evicted_on_load": cache.stats.evictions,
    }
    cache.close(save=False)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    budget = "unbounded" if cache.max_entries is None else str(cache.max_entries)
    print(f"cache:    {cache.path}")
    print(f"backend:  {payload['backend']}")
    print(f"entries:  {payload['entries']} (budget {budget})")
    print(f"size:     {payload['file_bytes']} bytes on disk")
    if payload["evicted_on_load"]:
        print(
            f"note:     {payload['evicted_on_load']} entr(ies) over budget were "
            f"evicted on load; run 'cache compact' to shrink the file"
        )
    return 0


def _run_cache_compact(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    report = cache.compact()
    cache.close(save=False)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    reclaimed = report["bytes_before"] - report["bytes_after"]
    print(
        f"compacted {args.cache}: {report['entries']} entr(ies), "
        f"{report['bytes_before']} -> {report['bytes_after']} bytes "
        f"({reclaimed} reclaimed)"
    )
    return 0


def _run_cache_export(args: argparse.Namespace) -> int:
    """Write a cache's content as a schema-2 JSON snapshot (any backend)."""
    cache = _open_cache(args)
    text = cache.export_text() + "\n"
    entries = len(cache)
    cache.close(save=False)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"exported {entries} entr(ies) from {args.cache} to {args.output}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def _run_cache_import(args: argparse.Namespace) -> int:
    """Load a schema-1/2 JSON snapshot into a cache (any backend)."""
    if args.snapshot == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        if not os.path.exists(args.snapshot):
            raise LCLError(f"snapshot file {args.snapshot!r} does not exist")
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            text = handle.read()
        source = args.snapshot
    pairs = parse_snapshot_text(text, source)
    cache = _open_cache(args, require_exists=False)
    if args.replace:
        cache.clear()
    for key, entry in pairs:
        cache.store(key, entry)
    cache.save()
    imported = len(pairs)
    total = len(cache)
    cache.close(save=False)
    print(
        f"imported {imported} entr(ies) into {args.cache} "
        f"({total} total after load)"
    )
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _serve_settings(args: argparse.Namespace) -> argparse.Namespace:
    """Fold an optional ``serve ENDPOINT`` positional into the legacy flags."""
    if not args.endpoint:
        return args
    config = parse_endpoint(args.endpoint)
    if config.mode == MODE_TCP:
        args.host = config.host
        args.port = config.port
    elif config.mode == MODE_STDIO:
        args.stdio = True
    else:
        raise LCLError(
            f"serve expects a tcp:// or stdio: endpoint, got {args.endpoint!r} "
            "(local:// endpoints need no server — open a session on them directly)"
        )
    if config.cache_path:
        args.cache = config.cache_path
    if config.cache_max_entries is not None:
        args.cache_max_entries = config.cache_max_entries
    if config.cache_ttl is not None:
        args.cache_ttl = config.cache_ttl
    if config.cache_flush_interval is not None:
        args.cache_flush_interval = config.cache_flush_interval
    if config.cache_flush_count is not None:
        args.cache_flush_count = config.cache_flush_count
    return args


def _run_serve(args: argparse.Namespace) -> int:
    args = _serve_settings(args)
    service = ClassificationService(
        cache=open_cache(_local_config(args)),
        backend=args.worker_backend,
        workers=args.workers,
    )

    def ready(address) -> None:
        print(
            f"repro service listening on {address[0]}:{address[1]}",
            file=sys.stderr,
            flush=True,
        )

    try:
        if args.stdio:
            asyncio.run(service.serve_stdio())
        else:
            asyncio.run(service.serve_tcp(args.host, args.port, ready))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    return 0


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
def _parse_connect(value: str) -> tuple:
    host, separator, port_text = value.rpartition(":")
    if not separator or not host or not port_text.isdigit():
        raise LCLError(f"--connect expects HOST:PORT, got {value!r}")
    return host, int(port_text)


def _client_classify(args: argparse.Namespace, session: ClassificationSession) -> int:
    problem = _read_problem(args.problem)
    outcome = session.classify(
        problem, priority=args.priority, deadline=args.deadline
    )
    payload = outcome.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0 if outcome.ok else TIMEOUT_EXIT_CODE
    if not outcome.ok:
        print(f"problem:    {payload['name']}")
        print(f"outcome:    {payload['outcome']}")
        return TIMEOUT_EXIT_CODE
    print(f"problem:    {payload['name']}")
    print(f"complexity: {payload['complexity']}")
    print(f"details:    {payload['details']}")
    print(f"cached:     {'yes' if payload['from_cache'] else 'no'}")
    return 0


def _client_batch(args: argparse.Namespace, session: ClassificationSession) -> int:
    problems = _read_batch(args.source)
    stream = session.classify_many(
        problems, priority=args.priority, deadline=args.deadline
    )
    outcomes: List[Outcome] = []
    if args.json:
        outcomes = list(stream)
    else:
        for outcome in stream:
            _print_item_line(outcome.as_dict())
            outcomes.append(outcome)
    summary = summarize_outcomes(outcomes)
    summary["stats"] = session.stats()
    if args.json:
        items = [outcome.as_dict() for outcome in outcomes]
        print(json.dumps({"items": items, "summary": summary}, indent=2))
        return 0
    _print_stream_summary(summary)
    return 0


def _client_census(args: argparse.Namespace, session: ClassificationSession) -> int:
    stream = session.census(
        **_census_params(args), priority=args.priority, deadline=args.deadline
    )
    outcomes: List[Outcome] = []
    for outcome in stream:
        if not args.json:
            _print_item_line(outcome.as_dict())
        outcomes.append(outcome)
    summary = summarize_outcomes(outcomes)
    summary["counts"] = tally_outcomes(outcomes)
    summary["params"] = _census_params(args)
    summary["stats"] = session.stats()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print("\nCensus tally:")
    for value, count in sorted(summary["counts"].items(), key=lambda pair: -pair[1]):
        print(f"  {value:16s} {count:5d}")
    _print_stream_summary(summary)
    return 0


def _client_cancel(args: argparse.Namespace, session: ClassificationSession) -> int:
    request_id = int(args.request_id) if args.request_id.isdigit() else args.request_id
    payload = session.cancel(request_id)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    if payload["found"]:
        print(
            f"cancelled request {payload['request_id']}: "
            f"{payload['cancelled']} search(es) detached"
        )
        return 0
    print(f"request {payload['request_id']} is not in flight (already done?)")
    return 1


def _client_warm(args: argparse.Namespace, session: ClassificationSession) -> int:
    problems, census = _warm_workload(args)
    if problems is None and census is None:
        print(
            "error: provide a batch source and/or --census parameters to warm",
            file=sys.stderr,
        )
        return 2
    summary = session.warm(
        problems=problems, census=census, wait=args.wait, budget=args.budget
    )
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    _print_warm_summary(summary)
    return 0


def _client_stats(args: argparse.Namespace, session: ClassificationSession) -> int:
    payload = session.stats()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    service, cache, batch = payload["service"], payload["cache"], payload["batch"]
    print(
        f"service:  {service['requests_served']} request(s) served, "
        f"up {service['uptime_seconds']:.0f}s"
    )
    budget = "unbounded" if cache["max_entries"] is None else str(cache["max_entries"])
    print(
        f"cache:    {cache['entries']} entries (budget {budget}), "
        f"hit rate {cache['hit_rate']:.0%}, {cache['evictions']} eviction(s)"
    )
    print(
        f"engine:   {batch['submitted']} submitted, {batch['full_searches']} full "
        f"search(es) ({batch['speedup']:.1f}x amortization)"
    )
    workers = payload.get("workers")
    if workers:
        print(
            f"workers:  {workers['backend']} x{workers['workers']}, "
            f"{workers['scheduled']} scheduled, {workers['deduped']} deduped, "
            f"{workers['in_flight']} in flight"
        )
        search_times = workers.get("search_times") or {}
        if search_times.get("count"):
            print(
                f"searches: {search_times['count']} completed, "
                f"p50 {search_times['p50_ms']:.1f} ms, "
                f"p99 {search_times['p99_ms']:.1f} ms, "
                f"max {search_times['max_ms']:.1f} ms"
            )
    return 0


def _client_metrics(args: argparse.Namespace, session: ClassificationSession) -> int:
    return _print_metrics(session, args.json)


def _client_trace(args: argparse.Namespace, session: ClassificationSession) -> int:
    request_id = int(args.request_id) if args.request_id.isdigit() else args.request_id
    payload = session.trace(request_id)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0 if payload["found"] else 1
    if not payload["found"]:
        print(
            f"no finished trace for request {payload['request_id']} "
            "(tracing off, still running, or evicted from the ring)"
        )
        return 1
    trace = payload["trace"]
    print(
        f"request {trace['request_id']} ({trace['op']}): "
        f"outcome {trace['outcome']}, {trace['duration_ms']:.1f} ms"
    )
    for span in trace["spans"]:
        duration = span["duration_ms"]
        length = "-" if duration is None else f"{duration:.1f} ms"
        print(
            f"  {span['name']:12s} [{span['stage']:9s}] "
            f"{span['start_ms']:8.1f} ms  {length:>10s}  {span['status']}"
        )
    return 0


def _client_shutdown(args: argparse.Namespace, session: ClassificationSession) -> int:
    payload = session.shutdown()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    saved = "cache saved" if payload.get("cache_saved") else "no cache file"
    print(f"service shut down ({saved})")
    return 0


def _run_client(args: argparse.Namespace) -> int:
    try:
        with _open_client_session(args) as session:
            return args.client_handler(args, session)
    except SessionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# argument parser
# ----------------------------------------------------------------------
def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="legacy alias for --worker-backend processes --workers N",
    )
    _add_worker_flags(parser)
    _add_scheduling_flags(parser)
    _add_cache_flags(parser)


def _add_scheduling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--priority",
        choices=PRIORITIES,
        default=None,
        help=(
            "scheduling class for the searches (interactive > batch > warm; "
            "default: interactive for classify, batch for batches, warm for censuses)"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-problem budget covering canonicalization and search; a problem "
            "that exceeds it reports outcome 'timeout' instead of blocking "
            "everything behind it"
        ),
    )


def _add_worker_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--worker-backend",
        choices=BACKEND_NAMES,
        default=None,
        help=(
            "where uncached certificate searches run: inline (serial), "
            "threads (concurrent in-process), or processes (CPU-parallel)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker pool size for threads/processes backends (default: CPU count)",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default=None,
        metavar="URL",
        help=(
            "persist classification results to a cache: a file path or "
            "json:FILE (single JSON file), sqlite:FILE (WAL-mode SQLite, "
            "safe for concurrent processes), or memory: (none)"
        ),
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the cache to N entries, evicting least recently used results",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="drop cached results older than SECONDS (expired entries miss)",
    )
    parser.add_argument(
        "--cache-flush-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "write-behind: persist dirty entries in the background every "
            "SECONDS instead of on demand"
        ),
    )
    parser.add_argument(
        "--cache-flush-count",
        type=int,
        default=None,
        metavar="N",
        help="write-behind: persist once N dirty entries are pending",
    )


def _add_census_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--labels", type=int, default=2, help="alphabet size (default: 2)"
    )
    parser.add_argument(
        "--delta", type=int, default=2, help="children per internal node (default: 2)"
    )
    parser.add_argument(
        "--density",
        type=float,
        default=0.5,
        help="probability of keeping each configuration (default: 0.5)",
    )
    parser.add_argument(
        "--count", type=int, default=100, help="number of random draws (default: 100)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base random seed (default: 0)"
    )


def _add_warm_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "source",
        nargs="?",
        default=None,
        help="optional batch source (directory, '---'-separated file, or '-')",
    )
    parser.add_argument(
        "--census",
        action="store_true",
        help="warm the canonical keys of a random census instead of (or besides) a batch",
    )
    _add_census_params(parser)
    parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the scheduled searches finish (default: background)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget spread best-effort across the whole sweep; "
            "unfinished searches are cancelled when it expires (implies waiting)"
        ),
    )
    parser.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Classifier for locally checkable problems in rooted regular trees (PODC 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser(
        "classify", help="classify a problem given as a configuration list"
    )
    classify_parser.add_argument(
        "problem", nargs="?", help="path to a problem file, or '-' to read standard input"
    )
    classify_parser.add_argument(
        "--catalog", action="store_true", help="classify the paper's sample problems instead"
    )
    classify_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    _add_scheduling_flags(classify_parser)
    classify_parser.set_defaults(handler=_run_classify)

    batch_parser = subparsers.add_parser(
        "classify-batch",
        help="classify many problems at once, deduplicating by canonical form",
    )
    batch_parser.add_argument(
        "source",
        help="directory of *.txt problem files, a '---'-separated batch file, or '-'",
    )
    _add_engine_flags(batch_parser)
    batch_parser.set_defaults(handler=_run_classify_batch)

    census_parser = subparsers.add_parser(
        "census", help="classify a sweep of random problems and tally the classes"
    )
    _add_census_params(census_parser)
    _add_engine_flags(census_parser)
    census_parser.set_defaults(handler=_run_census)

    warm_parser = subparsers.add_parser(
        "warm",
        help="pre-populate a local classification cache, optionally on a time budget",
    )
    _add_warm_arguments(warm_parser)
    warm_parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="legacy alias for --worker-backend processes --workers N",
    )
    _add_worker_flags(warm_parser)
    _add_scheduling_flags(warm_parser)
    _add_cache_flags(warm_parser)
    warm_parser.set_defaults(handler=_run_warm)

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="drive synthetic traffic at an endpoint and assert SLOs",
    )
    loadgen_parser.add_argument(
        "endpoint",
        help=(
            "session endpoint to load (local://inline|threads|processes, "
            "tcp://HOST:PORT, stdio:)"
        ),
    )
    loadgen_parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="zipf",
        help="traffic model (default: zipf — skewed keys, Poisson arrivals)",
    )
    loadgen_parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds of traffic the stream covers (default: 10)",
    )
    loadgen_parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default: 0)"
    )
    loadgen_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="RPS",
        help="arrival rate in requests/second (default: the workload's own)",
    )
    loadgen_parser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        metavar="N",
        help="distinct canonical keys in the problem pool (default: the workload's own)",
    )
    loadgen_parser.add_argument(
        "--zipf-s",
        type=float,
        default=None,
        metavar="S",
        help="Zipf skew exponent over the pool, 0 = uniform (default: the workload's own)",
    )
    loadgen_parser.add_argument(
        "--adversarial-rate",
        type=float,
        default=None,
        metavar="P",
        help="probability a request carries the adversarial poison-pill problem",
    )
    loadgen_parser.add_argument(
        "--mode",
        choices=LOADGEN_MODES,
        default="open",
        help=(
            "open: issue at planned arrival offsets (latency includes queueing); "
            "closed: --concurrency workers issue as fast as completions allow"
        ),
    )
    loadgen_parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="closed-loop worker count (default: 8)",
    )
    loadgen_parser.add_argument(
        "--connections",
        type=int,
        default=1,
        metavar="N",
        help="sessions to spread requests across, round-robin (default: 1)",
    )
    loadgen_parser.add_argument(
        "--max-in-flight",
        type=int,
        default=DEFAULT_MAX_IN_FLIGHT,
        metavar="N",
        help="open-loop backpressure cap on outstanding requests (default: 256)",
    )
    loadgen_parser.add_argument(
        "--slo",
        default=None,
        metavar="FILE",
        help=(
            "JSON SLO spec to assert (e.g. p99_interactive_ms, max_timeout_rate); "
            f"violations exit {SLO_EXIT_CODE}"
        ),
    )
    loadgen_parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (the BENCH_loadgen.json format)",
    )
    loadgen_parser.add_argument(
        "--json", action="store_true", help="print the full JSON report to stdout"
    )
    loadgen_parser.set_defaults(handler=_run_loadgen)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="print an endpoint's metrics in the Prometheus text format",
    )
    metrics_parser.add_argument(
        "endpoint",
        help=(
            "session endpoint to scrape (tcp://HOST:PORT for a running "
            "service; local:// endpoints report a fresh engine)"
        ),
    )
    metrics_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the repro.metrics/1 snapshot instead of the text format",
    )
    metrics_parser.set_defaults(handler=_run_metrics)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect and maintain an on-disk classification cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)

    def _cache_command(name: str, handler, help_text: str):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        cache_cmd.add_argument(
            "--cache",
            required=True,
            metavar="URL",
            help=(
                "cache to operate on: a file path, json:FILE, or sqlite:FILE"
            ),
        )
        cache_cmd.add_argument(
            "--cache-max-entries",
            type=int,
            default=None,
            metavar="N",
            help="apply an LRU budget of N entries while loading",
        )
        cache_cmd.set_defaults(handler=handler)
        return cache_cmd

    for name, handler, help_text in (
        ("stats", _run_cache_stats, "report entry count and file size of a cache"),
        (
            "compact",
            _run_cache_compact,
            "rewrite a cache file from its (optionally re-bounded) entries",
        ),
    ):
        cache_cmd = _cache_command(name, handler, help_text)
        cache_cmd.add_argument("--json", action="store_true")

    cache_export = _cache_command(
        "export",
        _run_cache_export,
        "write a cache's content as a schema-2 JSON snapshot (any backend)",
    )
    cache_export.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="FILE",
        help="write the snapshot to FILE instead of stdout ('-' for stdout)",
    )

    cache_import = _cache_command(
        "import",
        _run_cache_import,
        "load a schema-1/2 JSON snapshot into a cache (any backend) for warm-starts",
    )
    cache_import.add_argument(
        "snapshot",
        help="snapshot file from 'cache export' (or a cache file), '-' for stdin",
    )
    cache_import.add_argument(
        "--replace",
        action="store_true",
        help="drop existing entries first instead of merging over them",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-running classification service (JSON-lines protocol)",
    )
    serve_parser.add_argument(
        "endpoint",
        nargs="?",
        default=None,
        help=(
            "service endpoint: tcp://HOST:PORT or stdio: "
            "(overrides --host/--port/--stdio; query parameters may set "
            "cache=URL (json:/sqlite:/memory:), cache_max_entries=N, "
            "cache_ttl, cache_flush_interval, and cache_flush_count)"
        ),
    )
    serve_parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve one connection on stdin/stdout instead of TCP",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port; 0 binds an ephemeral port (default: 8765)",
    )
    _add_worker_flags(serve_parser)
    _add_cache_flags(serve_parser)
    serve_parser.set_defaults(handler=_run_serve)

    client_parser = subparsers.add_parser(
        "client", help="talk to a running classification service"
    )
    client_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a 'repro serve' TCP service",
    )
    client_parser.add_argument(
        "--retries",
        type=int,
        default=20,
        metavar="N",
        help="connection attempts before giving up (default: 20, 0.25s apart)",
    )
    client_sub = client_parser.add_subparsers(dest="client_command", required=True)

    client_classify = client_sub.add_parser(
        "classify", help="classify one problem file ('-' for stdin) via the service"
    )
    client_classify.add_argument(
        "problem", help="path to a problem file, or '-' to read standard input"
    )
    client_classify.add_argument("--json", action="store_true")
    _add_scheduling_flags(client_classify)
    client_classify.set_defaults(client_handler=_client_classify)

    client_batch = client_sub.add_parser(
        "batch", help="stream a batch through the service, printing items as they finish"
    )
    client_batch.add_argument(
        "source",
        help="directory of *.txt problem files, a '---'-separated batch file, or '-'",
    )
    client_batch.add_argument("--json", action="store_true")
    _add_scheduling_flags(client_batch)
    client_batch.set_defaults(client_handler=_client_batch)

    client_census = client_sub.add_parser(
        "census", help="run a server-side random census, streaming results"
    )
    _add_census_params(client_census)
    client_census.add_argument("--json", action="store_true")
    _add_scheduling_flags(client_census)
    client_census.set_defaults(client_handler=_client_census)

    client_cancel = client_sub.add_parser(
        "cancel",
        help="cancel an in-flight request by its id (use a second connection)",
    )
    client_cancel.add_argument(
        "request_id",
        help="id of the in-flight request (numeric ids are matched as integers)",
    )
    client_cancel.add_argument("--json", action="store_true")
    client_cancel.set_defaults(client_handler=_client_cancel)

    client_warm = client_sub.add_parser(
        "warm",
        help="pre-populate the service cache ahead of a batch or census",
    )
    _add_warm_arguments(client_warm)
    client_warm.set_defaults(client_handler=_client_warm)

    client_stats = client_sub.add_parser(
        "stats", help="print the service's cache, engine, and worker statistics"
    )
    client_stats.add_argument("--json", action="store_true")
    client_stats.set_defaults(client_handler=_client_stats)

    client_metrics = client_sub.add_parser(
        "metrics", help="print the service's metrics in the Prometheus text format"
    )
    client_metrics.add_argument(
        "--json",
        action="store_true",
        help="emit the repro.metrics/1 snapshot instead of the text format",
    )
    client_metrics.set_defaults(client_handler=_client_metrics)

    client_trace = client_sub.add_parser(
        "trace",
        help="fetch a finished request's span tree by its wire request id",
    )
    client_trace.add_argument(
        "request_id",
        help="id of the finished request (numeric ids are matched as integers)",
    )
    client_trace.add_argument("--json", action="store_true")
    client_trace.set_defaults(client_handler=_client_trace)

    client_shutdown = client_sub.add_parser(
        "shutdown", help="persist the service cache and stop the service"
    )
    client_shutdown.add_argument("--json", action="store_true")
    client_shutdown.set_defaults(client_handler=_client_shutdown)

    client_parser.set_defaults(handler=_run_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, SessionError) as error:
        # LCLError (malformed problems), JSONDecodeError (corrupt caches),
        # file-system errors, and session/endpoint errors all surface as
        # one-line CLI errors, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
