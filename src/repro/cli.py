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
    python -m repro classify problem.txt --endpoint tcp://localhost:8765
    python -m repro warm --census --count 200 --wait --endpoint tcp://localhost:8765
    python -m repro stats tcp://localhost:8765          # cache/engine/worker statistics
    python -m repro metrics tcp://127.0.0.1:8765        # Prometheus text exposition
    python -m repro trace tcp://localhost:8765 17       # span tree by request id
    python -m repro shutdown tcp://localhost:8765

Every verb is one operation on one :class:`~repro.api.ClassificationSession`
endpoint.  ``classify``, ``classify-batch``, ``census`` and ``warm`` take
``--endpoint URL``; without it they run on the ``local://`` endpoint their
worker and cache flags describe (``local://inline`` when none is given).
``stats``, ``metrics``, ``trace``, ``cancel``, ``shutdown`` and ``loadgen``
take the endpoint as their first argument.  Flags fill in what the URL leaves
unset.  A flag the endpoint cannot honour — worker flags on ``tcp://`` or
``stdio:``, cache flags on a connecting ``tcp://`` — or one that contradicts
the URL is a usage error (exit status 2), never silently dropped.  Each verb
has one renderer over the uniform :class:`~repro.api.Outcome` objects, so its
output, plain and ``--json``, has the *same shape* on every endpoint; every
batch/census summary line comes from
:func:`~repro.api.outcome.summarize_outcomes` over the request's own
outcomes, so it stays correct on a shared server.

A problem file contains one configuration per line in the paper's notation
(``parent : child child ...``); blank lines and ``#`` comments are ignored
(see :mod:`repro.core.parser` for the full grammar).  A *batch* file holds
several such problems separated by lines containing only ``---``; a comment
of the form ``# name: some-name`` inside a block names that problem.

Batch work is deduplicated by a renaming-invariant canonical form and can
persist across runs with ``--cache URL`` (bounded with
``--cache-max-entries N``).  Uncached representatives execute on a worker
backend selected with ``--worker-backend {inline,threads,processes}`` and
sized with ``--workers N``.  Because the certificate searches are
exponential in the worst case, every classification command accepts
``--deadline SECONDS`` (per-problem budget covering canonicalization and
search; blown budgets report outcome ``timeout`` — exit code 124 for
``classify``) and ``--priority {interactive,batch,warm}``.  ``warm``
additionally accepts ``--budget SECONDS``, a wall-clock budget for the whole
sweep, applied as each problem's deadline.

``loadgen`` replays a seeded synthetic workload (Zipf-skewed duplicate-heavy
keys, Poisson/burst arrivals, mixed priorities — see :mod:`repro.loadgen`)
against any endpoint and emits an SLO report (latency percentiles per
priority class, throughput, dedup ratio); with ``--slo spec.json`` a
violated objective exits nonzero, making latency guarantees CI-assertable.

``serve`` runs the long-running classification service of
:mod:`repro.service` on a ``tcp://`` or ``stdio:`` endpoint (spec:
``docs/service_protocol.md``); every verb above reaches it through that
endpoint.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import json
import os
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional

from .api import (
    ClassificationSession,
    Outcome,
    SessionConfig,
    SessionError,
    parse_endpoint,
)
from .api.config import MODE_LOCAL, MODE_STDIO, MODE_TCP
from .api.outcome import summarize_outcomes, tally_outcomes
from .api.session import open_cache
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

USAGE_EXIT_CODE = 2
"""Exit status of a :class:`UsageError`, as for argparse's own errors."""


class UsageError(Exception):
    """A missing argument or a flag the chosen endpoint cannot honour."""


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
_WORKER_FLAGS = (("backend", "--worker-backend"), ("workers", "--workers"))
_CACHE_FLAGS = (
    ("cache_path", "--cache"),
    ("cache_max_entries", "--cache-max-entries"),
)


def _session_config(args: argparse.Namespace, serving: bool = False) -> SessionConfig:
    """The session configuration a verb's endpoint and engine flags describe.

    The endpoint is ``args.endpoint``.  Without one, a problem verb runs on
    ``local://`` with its ``--worker-backend`` (``inline`` by default) and
    ``serve`` listens on ``tcp://`` at ``--host``/``--port``.  Flags fill in
    what the URL leaves unset.  A ``local://`` endpoint honours every engine
    flag, a ``stdio:`` one only the cache flags (they travel to the service
    it spawns), and a connecting ``tcp://`` one none: the service runs the
    engine and owns the cache.  ``serving`` marks the endpoint ``repro
    serve`` listens on: the cache flags configure it, and the service takes
    the worker flags itself.  Any other flag, or one that contradicts the
    URL, raises :class:`UsageError`.
    """
    if args.endpoint is not None:
        config = parse_endpoint(args.endpoint)
    elif serving:
        config = SessionConfig(mode=MODE_TCP, host=args.host, port=args.port)
    else:
        backend = getattr(args, "worker_backend", None)
        config = SessionConfig(backend=backend or "inline")
    flags = _CACHE_FLAGS if serving else _WORKER_FLAGS + _CACHE_FLAGS
    if serving or config.mode == MODE_LOCAL:
        honoured = flags
    elif config.mode == MODE_STDIO:
        honoured = _CACHE_FLAGS
    else:
        honoured = ()
    updates: Dict[str, Any] = {}
    for field, flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        if (field, flag) not in honoured:
            raise UsageError(
                f"{flag} does not apply to {config.endpoint()}: the service "
                "at the other end owns the engine and its cache"
            )
        current = getattr(config, field)
        if current is None:
            updates[field] = value
        elif current != value:
            raise UsageError(
                f"{flag} {value} contradicts the endpoint's {current!r}"
            )
    return replace(config, **updates)


def _open_session(args: argparse.Namespace) -> ClassificationSession:
    return ClassificationSession.open(_session_config(args))


def _request_id(text: str) -> Any:
    """A request id as typed: numeric ids are matched as integers."""
    return int(text) if text.isdigit() else text


# ----------------------------------------------------------------------
# Shared rendering of outcomes and summaries
# ----------------------------------------------------------------------
def _print_item_line(outcome: Outcome) -> None:
    if not outcome.ok:
        print(f"[{outcome.outcome}] {outcome.name:28s} ({outcome.outcome})", flush=True)
        return
    origin = "cached" if outcome.from_cache else "search"
    print(f"[{origin}] {outcome.name:28s} {outcome.complexity:16s}", flush=True)


def _print_summary(summary: Dict[str, Any]) -> None:
    """The one summary line of a batch or census (from ``summarize_outcomes``)."""
    interrupted = summary["timeouts"] + summary["cancelled"]
    suffix = f", {interrupted} timed out/cancelled" if interrupted else ""
    print(
        f"\n{summary['count']} problem(s): {summary['cache_misses']} full "
        f"search(es), {summary['cache_hits']} cache hit(s) "
        f"(hit rate {summary['hit_rate']:.0%}){suffix}"
    )


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------
def _run_classify(args: argparse.Namespace) -> int:
    if args.catalog:
        return _run_catalog(args)
    if not args.problem:
        raise UsageError("provide a problem file, '-' for stdin, or --catalog")
    problem = _read_problem(args.problem)
    with _open_session(args) as session:
        outcome = session.classify(
            problem, priority=args.priority, deadline=args.deadline
        )
    if args.json:
        payload = {"problem": problem_to_dict(problem), **outcome.as_dict()}
        print(json.dumps(payload, indent=2))
    else:
        print(f"problem:    {problem.summary()}")
        if outcome.ok:
            print(f"complexity: {outcome.complexity}")
            print(f"details:    {outcome.details}")
            print(f"cached:     {'yes' if outcome.from_cache else 'no'}")
            print(f"time:       {outcome.elapsed_ms:.2f} ms")
        else:
            print(f"outcome:    {outcome.outcome}")
    return 0 if outcome.ok else TIMEOUT_EXIT_CODE


def _run_catalog(args: argparse.Namespace) -> int:
    """Classify the paper's sample problems and check the expected classes."""
    entries = list(catalog().items())
    with _open_session(args) as session:
        outcomes = list(
            session.classify_many(
                [problem for _, (problem, _) in entries],
                priority=args.priority,
                deadline=args.deadline,
            )
        )
    rows = [
        {
            "name": name,
            "complexity": outcome.complexity,
            "expected": expected.value,
            "ok": outcome.complexity == expected.value,
            "elapsed_ms": outcome.elapsed_ms,
        }
        for (name, (_, expected)), outcome in zip(entries, outcomes)
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row, outcome in zip(rows, outcomes):
            marker = "ok" if row["ok"] else "UNEXPECTED"
            if not outcome.ok:
                marker = outcome.outcome
            print(
                f"[{marker}] {row['name']:22s} {outcome.complexity or '-':16s} "
                f"({row['elapsed_ms']:.1f} ms)"
            )
    return 0 if all(outcome.ok for outcome in outcomes) else TIMEOUT_EXIT_CODE


# ----------------------------------------------------------------------
# classify-batch
# ----------------------------------------------------------------------
def _run_classify_batch(args: argparse.Namespace) -> int:
    problems = _read_batch(args.source)
    outcomes: List[Outcome] = []
    with _open_session(args) as session:
        for outcome in session.classify_many(
            problems, priority=args.priority, deadline=args.deadline
        ):
            if not args.json:
                _print_item_line(outcome)
            outcomes.append(outcome)
        stats = session.stats()
    summary = summarize_outcomes(outcomes)
    if args.json:
        items = [outcome.as_dict() for outcome in outcomes]
        print(json.dumps({"items": items, **summary, "stats": stats}, indent=2))
    else:
        _print_summary(summary)
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
    with _open_session(args) as session:
        outcomes = list(
            session.census(**params, priority=args.priority, deadline=args.deadline)
        )
        stats = session.stats()
    summary = summarize_outcomes(outcomes)
    counts = tally_outcomes(outcomes)
    if args.json:
        payload = {**summary, "counts": counts, "params": params, "stats": stats}
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"Random census: {args.count} problems, {args.labels} labels, "
        f"delta={args.delta}, density={args.density}"
    )
    for value, count in sorted(counts.items(), key=lambda pair: -pair[1]):
        print(f"  {value:16s} {count:5d}")
    _print_summary(summary)
    return 0


# ----------------------------------------------------------------------
# warm (cache warming, incl. wall-clock budgets)
# ----------------------------------------------------------------------
def _run_warm(args: argparse.Namespace) -> int:
    problems = _read_batch(args.source) if args.source is not None else None
    census = _census_params(args) if args.census else None
    if problems is None and census is None:
        raise UsageError("provide a batch source and/or --census parameters to warm")
    with _open_session(args) as session:
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
# stats / metrics / trace / cancel / shutdown (one endpoint each)
# ----------------------------------------------------------------------
def _run_stats(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
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


def _run_metrics(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        if args.json:
            print(json.dumps(session.metrics(), indent=2, sort_keys=True))
            return 0
        text = session.metrics_text()
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        payload = session.trace(_request_id(args.request_id))
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


def _run_cancel(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        payload = session.cancel(_request_id(args.request_id))
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


def _run_shutdown(args: argparse.Namespace) -> int:
    with _open_session(args) as session:
        payload = session.shutdown()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    saved = "cache saved" if payload.get("cache_saved") else "no cache file"
    print(f"service shut down ({saved})")
    return 0


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
def _run_serve(args: argparse.Namespace) -> int:
    config = _session_config(args, serving=True)
    if config.mode == MODE_LOCAL:
        raise LCLError(
            f"serve expects a tcp:// or stdio: endpoint, got {args.endpoint!r} "
            "(local:// endpoints need no server — open a session on them directly)"
        )
    service = ClassificationService(
        cache=open_cache(config),
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
        if config.mode == MODE_STDIO:
            asyncio.run(service.serve_stdio())
        else:
            asyncio.run(service.serve_tcp(config.host, config.port, ready))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    return 0


# ----------------------------------------------------------------------
# argument parser
# ----------------------------------------------------------------------
def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """``--json``, ``--endpoint`` and the scheduling flags of a problem verb."""
    _add_json_flag(parser)
    parser.add_argument(
        "--endpoint",
        default=None,
        metavar="URL",
        help=(
            "session endpoint to run on: local://inline|threads|processes, "
            "tcp://HOST:PORT (a running 'repro serve'), or stdio: (a private "
            "one); default: the local:// endpoint the worker and cache flags "
            "describe"
        ),
    )
    parser.add_argument(
        "--priority",
        choices=PRIORITIES,
        default=None,
        help=(
            "scheduling class for the searches (interactive > batch > warm; "
            "default: interactive for classify, batch for batches, warm for "
            "censuses and warming)"
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


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The session flags plus the worker and cache flags of a problem verb."""
    _add_session_flags(parser)
    _add_worker_flags(parser)
    _add_cache_flags(parser)


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
    _add_session_flags(classify_parser)
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
        help="pre-populate an endpoint's cache, optionally on a time budget",
    )
    warm_parser.add_argument(
        "source",
        nargs="?",
        default=None,
        help="optional batch source (directory, '---'-separated file, or '-')",
    )
    warm_parser.add_argument(
        "--census",
        action="store_true",
        help="warm the canonical keys of a random census instead of (or besides) a batch",
    )
    _add_census_params(warm_parser)
    warm_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the scheduled searches finish (default: background)",
    )
    warm_parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget for the whole sweep, applied as each problem's "
            "deadline: unfinished keys time out when it expires (implies waiting)"
        ),
    )
    _add_engine_flags(warm_parser)
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

    for name, handler, takes_id, help_text in (
        ("stats", _run_stats, False, "print an endpoint's cache/engine/worker stats"),
        (
            "metrics",
            _run_metrics,
            False,
            "print an endpoint's metrics in the Prometheus text format "
            "(--json: the repro.metrics/1 snapshot)",
        ),
        ("trace", _run_trace, True, "fetch a finished request's span tree by its id"),
        ("cancel", _run_cancel, True, "cancel a service's in-flight request by its id"),
        ("shutdown", _run_shutdown, False, "persist a service's cache and stop it"),
    ):
        op_parser = subparsers.add_parser(name, help=help_text)
        op_parser.add_argument(
            "endpoint",
            help=(
                "session endpoint: tcp://HOST:PORT for a running service, "
                "stdio:, or local:// (a fresh in-process engine)"
            ),
        )
        if takes_id:
            op_parser.add_argument(
                "request_id",
                help="the request's id (numeric ids are matched as integers)",
            )
        _add_json_flag(op_parser)
        op_parser.set_defaults(handler=handler)

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
            "service endpoint: tcp://HOST:PORT or stdio: (overrides "
            "--host/--port; query parameters may set cache=URL "
            "(json:/sqlite:/memory:) and cache_max_entries=N, and the cache "
            "flags fill in the ones it leaves unset)"
        ),
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

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return USAGE_EXIT_CODE
    except (ValueError, OSError, SessionError) as error:
        # LCLError (malformed problems), JSONDecodeError (corrupt caches),
        # file-system errors, and session/endpoint errors all surface as
        # one-line CLI errors, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
