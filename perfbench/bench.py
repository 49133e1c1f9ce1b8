"""Set-up, timed loops, answer checks and metrics of one benchmark run.

Every workload's untraced run drives ``ClassificationSession.classify`` in a
closed loop with one client (``local://inline``, or one ``tcp://`` connection
to a ``python -m repro serve`` subprocess for tcp_mixed).  Traced tcp_mixed
runs drive two ``tcp://`` sessions, one thread each, with a seeded open-loop
Poisson schedule that steps up :data:`plans.TCP_LADDER`; every such request
is timed from its due time, not from when it was sent.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import hostspeed
import layers
import plans
from repro.api import ClassificationSession
from repro.core.classifier import classify as classify_problem
from repro.core.kernel import kernel_override, problem_encoding
from repro.core.parser import parse_problem

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ANSWERS = HERE / "answers.json"
# Metric names and units: BENCHMARK.json is their one source.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMITTED_SEED = 1
DIGEST_REQUESTS = plans.MIN_REQUESTS
SETUP_REPEATS = 5
# The knee's p99 limit.  A new key's search holds the interpreter lock while
# warm hits wait behind it, which already puts p99 near 10 ms at the LOW
# step; a 5 ms limit would be crossed below the ladder.
TCP_P99_LIMIT_MS = 25.0
CHECKED_COUNTERS = (
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_flushes_total",
    "repro_scheduler_flights_total",
    "repro_batch_full_searches_total",
)


@dataclass
class Pass:
    """What one timed phase observed, one array slot per request in order.

    Kept in flat arrays: on local workloads this process is the one whose
    peak memory is reported, so per-request objects would inflate it.
    """

    latency: array = field(default_factory=lambda: array("d"))  # seconds
    classes: List[Optional[str]] = field(default_factory=list)  # None: failed
    bases: array = field(default_factory=lambda: array("i"))  # -1: a new key
    # Canonical keys seen per base, and (text, class, latency) of new keys.
    keys: Dict[int, set] = field(default_factory=dict)
    fresh: List[Tuple[str, Optional[str], float]] = field(default_factory=list)
    step: array = field(default_factory=lambda: array("i"))  # ladder step
    late: array = field(default_factory=lambda: array("d"))  # seconds
    # Closed loops, one slot per slice: the request count at its end, its
    # seconds of requests, and the seconds of the host-speed burst after it.
    slice_end: array = field(default_factory=lambda: array("i"))
    slice_busy: array = field(default_factory=lambda: array("d"))
    slice_burst: array = field(default_factory=lambda: array("d"))
    # Between the two counter snapshots: what the traced events are cut to.
    window: Tuple[float, float] = (0.0, 0.0)
    # How far each cross-checked ``repro metrics`` counter moved.
    counters: Dict[str, float] = field(default_factory=dict)

    def record(self, request: plans.Request, outcome: Any, latency: float) -> None:
        ok = outcome is not None and outcome.ok
        complexity = outcome.complexity if ok else None
        self.latency.append(latency)
        self.classes.append(complexity)
        if request.base is None:
            self.bases.append(-1)
            self.fresh.append((request.text, complexity, latency))
        else:
            self.bases.append(request.base)
            if ok:
                self.keys.setdefault(request.base, set()).add(outcome.canonical_key)

    def __len__(self) -> int:
        return len(self.classes)

    def end_slice(self, busy: float) -> None:
        """Close the slice of requests since the last one; time a burst."""
        self.slice_end.append(len(self))
        self.slice_busy.append(busy)
        self.slice_burst.append(hostspeed.burst())

    def moved(self, before: Dict[str, float], after: Dict[str, float]) -> None:
        for name, value in after.items():
            self.counters[name] = self.counters.get(name, 0) + value - before[name]

    def extend(self, other: "Pass") -> None:
        """Append a later phase: its requests follow this one's in order."""
        self.window = (self.window[0] if len(self) else other.window[0], other.window[1])
        self.slice_end.extend(len(self) + end for end in other.slice_end)
        for name in ("latency", "classes", "bases", "fresh", "step", "late"):
            getattr(self, name).extend(getattr(other, name))
        for name in ("slice_busy", "slice_burst"):
            getattr(self, name).extend(getattr(other, name))
        for base, seen in other.keys.items():
            self.keys.setdefault(base, set()).update(seen)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


# ----------------------------------------------------------------------
# Environments: a warmed session (or two, and a server) ready for timing
# ----------------------------------------------------------------------
class LocalEnv:
    """A warmed ``local://inline`` session."""

    def __init__(self, plan: plans.Plan) -> None:
        self.plan = plan
        self._open()

    def _open(self) -> None:
        self.session = ClassificationSession.open("local://inline")
        self.learned = warm(self.session, self.plan)

    def reset(self) -> None:
        """A fresh session, and no kernel memo left from earlier searches."""
        self.session.close()
        problem_encoding.cache_clear()
        self._open()

    def sessions(self) -> List[ClassificationSession]:
        return [self.session]

    def counters(self) -> Dict[str, float]:
        return counter_values(self.session.metrics())

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> List[Sequence[Any]]:
        self.session.close()
        return []


class TcpEnv:
    """A fresh server with an empty sqlite cache, two connections, warmed."""

    def __init__(self, plan: plans.Plan, workdir: Path, traced: bool) -> None:
        self.dir = workdir
        self.dir.mkdir(parents=True)
        self.spans = self.dir / "spans.json"
        log_path = self.dir / "serve.log"
        serve = [
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--worker-backend",
            "threads",
            "--workers",
            "1",
            "--cache",
            f"sqlite:{self.dir / 'cache.db'}",
        ]
        if traced:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(self.spans), *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self._sessions: List[ClassificationSession] = []
        try:
            port = self._wait_for_port(log_path)
            self._sessions = [
                ClassificationSession.open(f"tcp://127.0.0.1:{port}") for _ in range(2)
            ]
            self.learned = warm(self._sessions[0], plan)
            self.quiesce()
        except BaseException:
            self.close()
            raise

    def _wait_for_port(self, log_path: Path) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r"listening on [^\s:]+:(\d+)", log_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early: {log_path.read_text()}")
            time.sleep(0.01)
        raise RuntimeError("server did not start within 60 s")

    def sessions(self) -> List[ClassificationSession]:
        return self._sessions

    def counters(self) -> Dict[str, float]:
        return counter_values(self._sessions[0].metrics())

    def quiesce(self) -> None:
        """Wait until write-behind flushing has settled (nothing dirty)."""
        previous = None
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            snapshot = self._sessions[0].metrics()
            state = (family_sum(snapshot, "repro_cache_dirty_entries"), counter_values(snapshot))
            if state[0] == 0 and state == previous:
                return
            previous = state
            time.sleep(0.05)
        raise RuntimeError("server cache did not settle")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def close(self) -> List[Sequence[Any]]:
        """Shut the server down; return the span events it wrote (traced)."""
        try:
            self._sessions[0].shutdown()
        except Exception:  # noqa: BLE001 - no session or no server: terminate
            self.process.terminate()
        for session in self._sessions:
            session.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        self._log.close()
        events = json.loads(self.spans.read_text()) if self.spans.exists() else []
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.dir.parent.rmdir()
        return events


def warm(session: ClassificationSession, plan: plans.Plan) -> Dict[int, str]:
    """Fill the cache with the plan's warm set; return each base's class."""
    learned: Dict[int, str] = {}
    for base, text in enumerate(plan.bases):
        outcome = session.classify(text)
        if not outcome.ok:
            raise RuntimeError(f"warm-up request failed: {outcome.outcome}")
        learned[base] = outcome.complexity
    return learned


def family_sum(snapshot: Dict[str, Any], name: str, field_name: str = "value") -> float:
    for family in snapshot["families"]:
        if family["name"] == name:
            return sum(sample[field_name] for sample in family["samples"])
    raise KeyError(name)


def counter_values(snapshot: Dict[str, Any]) -> Dict[str, float]:
    values = {name: family_sum(snapshot, name) for name in CHECKED_COUNTERS}
    values["repro_search_duration_ms_count"] = family_sum(
        snapshot, "repro_search_duration_ms", "count"
    )
    return values


# ----------------------------------------------------------------------
# Timed loops
# ----------------------------------------------------------------------
def _classify(session: ClassificationSession, text: str) -> Any:
    try:
        return session.classify(text)
    except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
        return None


def closed_loop(env: Any, requests: Iterable[plans.Request], seconds: float) -> Pass:
    """One client, next request when the last one answered.

    Every :data:`hostspeed.SLICE_SECONDS` of requests is followed by a
    host-speed burst, outside the requests' time.
    """
    session = env.sessions()[0]
    result = Pass()
    before = env.counters()
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    slice_started = done = started
    for request in requests:
        sent = clock()
        outcome = _classify(session, request.text)
        done = clock()
        result.record(request, outcome, done - sent)
        finished = done >= deadline and len(result) >= DIGEST_REQUESTS
        if finished or done - slice_started >= hostspeed.SLICE_SECONDS:
            result.end_slice(done - slice_started)
            slice_started = clock()
        if finished:
            break
    if not result.slice_end or result.slice_end[-1] < len(result):
        result.end_slice(done - slice_started)
    result.window = (started, clock())
    result.moved(before, env.counters())
    return result


def open_loop(env: Any, schedule: Sequence[Tuple[float, int, plans.Request]]) -> Pass:
    """Two connection threads serving a fixed arrival schedule.

    Latency runs from each request's due time.  ``late`` is how long after
    it could have been sent (due, or its thread freeing up) it was sent: the
    generator's own stall, which must stay flat for the latency to count.
    """
    result = Pass()
    before = env.counters()
    claim = itertools.count()
    clock = time.perf_counter
    origin = clock() + 0.05
    records: List[Tuple[int, Any, float, float]] = []

    def drive(session: ClassificationSession) -> None:
        free_at = clock()
        while True:
            index = next(claim)
            if index >= len(schedule):
                return
            due = origin + schedule[index][0]
            now = clock()
            if now < due:
                time.sleep(due - now)
            sent = clock()
            outcome = _classify(session, schedule[index][2].text)
            done = clock()
            records.append((index, outcome, done - due, sent - max(due, free_at)))
            free_at = done

    threads = [threading.Thread(target=drive, args=(s,)) for s in env.sessions()]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, outcome, latency, late in sorted(records, key=lambda r: r[0]):
        result.record(schedule[index][2], outcome, latency)
        result.step.append(schedule[index][1])
        result.late.append(late)
    env.quiesce()
    result.window = (started, clock())
    result.moved(before, env.counters())
    return result


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def answer_digest(run: Pass) -> str:
    """SHA-256 of the (request index, complexity class) pairs of the first answers."""
    hasher = hashlib.sha256()
    for index, complexity in enumerate(run.classes[:DIGEST_REQUESTS]):
        hasher.update(f"{index}:{complexity}\n".encode())
    return hasher.hexdigest()


def pinned_digests() -> Dict[str, str]:
    """The answer digest of each workload at :data:`COMMITTED_SEED`."""
    if not ANSWERS.exists():
        return {}
    pinned = json.loads(ANSWERS.read_text())
    if pinned["seed"] != COMMITTED_SEED or pinned["requests"] != DIGEST_REQUESTS:
        raise ValueError(f"{ANSWERS} was pinned for another seed or length")
    return pinned["digests"]


def check_answers(
    plan: plans.Plan, learned: Dict[int, str], run: Pass, pinned: bool
) -> Tuple[int, List[str]]:
    """Failed operations of ``run`` plus the digest and oracle checks.

    A request fails when it raised, its outcome is not ``ok``, or its class
    differs from its base's (every renaming of a base must get the base's
    class).  ``pinned``: the run uses the committed seed, so its first
    answers must match the digest pinned in ``answers.json``.
    """
    problems: List[str] = []
    expected = {base: plan.expected.get(base, learned.get(base)) for base in learned}
    failed = sum(
        1
        for base, complexity in zip(run.bases, run.classes)
        if complexity is None or (base >= 0 and complexity != expected.get(base))
    )
    if failed:
        problems.append(f"{failed} requests failed or answered a wrong class")
    if len(run) < DIGEST_REQUESTS:
        failed += 1
        problems.append(f"only {len(run)} answers, the digest needs {DIGEST_REQUESTS}")
    elif pinned and pinned_digests().get(plan.workload) not in (None, answer_digest(run)):
        failed += 1
        problems.append("answer digest differs from the pinned one")
    # An independent oracle: the reference (frozenset) kernel re-classifies a
    # seeded sample, so a wrong class is caught on every seed.
    rng = random.Random(f"{plan.workload}:oracle:{plan.seed}")
    checks: List[Tuple[str, Optional[str]]] = []
    bases = [base for base in sorted(learned) if base not in plan.expected]
    for base in rng.sample(bases, min(8, len(bases))):
        checks.append((plan.bases[base], learned[base]))
    answered = [entry for entry in run.fresh if entry[1] is not None]
    sample = rng.sample(answered, min(32, len(answered)))
    # The reference kernel is ~20x slower; check the cheapest of the sample.
    for text, complexity, _latency in sorted(sample, key=lambda entry: entry[2])[:6]:
        checks.append((text, complexity))
    with kernel_override("reference"):
        for text, claimed in checks:
            truth = classify_problem(parse_problem(text)).complexity.value
            if truth != claimed:
                failed += 1
                problems.append(f"oracle disagrees: {claimed} vs {truth}")
    return failed, problems


def split_orbits(*runs: Pass) -> int:
    """Bases whose renamings were answered under more than one canonical key."""
    keys: Dict[int, set] = {}
    for run in runs:
        for base, seen in run.keys.items():
            keys.setdefault(base, set()).update(seen)
    return sum(1 for seen in keys.values() if len(seen) > 1)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _latencies_ms(run: Pass, start: int = 0, stop: Optional[int] = None) -> List[float]:
    """Latencies of requests ``start:stop``; a failed one misses any limit."""
    return [
        latency * 1e3 if complexity is not None else float("inf")
        for latency, complexity in zip(run.latency[start:stop], run.classes[start:stop])
    ]


def ladder_figures(run: Pass) -> Dict[str, Any]:
    """Per-step p50/p99/lateness of an open-loop run, and the capacity knee.

    The knee is the offered rate where p99 crosses :data:`TCP_P99_LIMIT_MS`,
    interpolated linearly between the last step under it and the first over.
    """
    steps = []
    for step, rate in enumerate(plans.TCP_LADDER):
        latencies = [
            latency * 1e3 if complexity is not None else float("inf")
            for latency, complexity, at in zip(run.latency, run.classes, run.step)
            if at == step
        ]
        late = [value * 1e3 for value, at in zip(run.late, run.step) if at == step]
        steps.append(
            {
                "rate": rate,
                "p50": percentile(latencies, 0.5) if latencies else float("inf"),
                "p99": percentile(latencies, 0.99) if latencies else float("inf"),
                "late_p99": percentile(late, 0.99) if late else 0.0,
                "samples": len(latencies),
            }
        )
    knee = float(plans.TCP_LADDER[-1])
    previous_rate, previous_p99 = 0.0, 0.0
    for step in steps:
        if step["p99"] > TCP_P99_LIMIT_MS:
            if step["p99"] == float("inf"):
                knee = previous_rate
            else:
                share = (TCP_P99_LIMIT_MS - previous_p99) / (step["p99"] - previous_p99)
                knee = previous_rate + share * (step["rate"] - previous_rate)
            break
        previous_rate, previous_p99 = step["rate"], step["p99"]
    low = steps[plans.TCP_LADDER.index(plans.TCP_LOW)]
    high = steps[plans.TCP_LADDER.index(plans.TCP_HIGH)]
    return {
        "knee_rps": knee,
        "p50_ms_low": low["p50"],
        "p99_ms_low": low["p99"],
        "p50_ms_high": high["p50"],
        "p99_ms_high": high["p99"],
        "late_ms_p99": max(step["late_p99"] for step in steps),
        "steps": steps,
    }


def end_to_end(run: Pass) -> Dict[str, float]:
    """throughput_rps, latency_p50_ms and latency_p99_ms of a closed loop.

    Every slice's times are scaled to the reference host by the slowdown of
    the host-speed bursts before and after it (:mod:`hostspeed`), so the
    host's swings in speed during the run, or between runs, cancel out.
    """
    starts = [0, *run.slice_end]
    latencies: List[float] = []
    busy = 0.0
    slowdowns = []
    for index in range(len(run.slice_end)):
        slowdown = hostspeed.slowdown(run.slice_burst[max(0, index - 1) : index + 1])
        scaled = _latencies_ms(run, starts[index], starts[index + 1])
        latencies.extend(latency / slowdown for latency in scaled)
        busy += run.slice_busy[index] / slowdown
        slowdowns.append(slowdown)
    answered = sum(1 for complexity in run.classes if complexity is not None)
    return {
        "throughput_rps": answered / busy,
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p99_ms": percentile(latencies, 0.99),
        "slowdown": statistics.median(slowdowns),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def open_env(plan: plans.Plan, traced: bool, tag: str) -> Any:
    if plan.workload == "tcp_mixed":
        workdir = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{tag}"
        return TcpEnv(plan, workdir, traced)
    return LocalEnv(plan)


def timed(
    env: Any,
    plan: plans.Plan,
    seconds: float,
    ladder: bool = False,
    rounds: int = 1,
) -> Pass:
    """The timed phase: the open-loop ladder, or a closed loop.

    cold_search is work-bounded: ``rounds`` passes over its fixed universe,
    each on a fresh session.  The other closed loops run for ``seconds``.
    """
    if ladder:
        return open_loop(env, plan.ladder(seconds))
    if plan.workload != "cold_search":
        return closed_loop(env, plan.stream(), seconds)
    run = Pass()
    for index in range(rounds):
        if index:
            env.reset()
        run.extend(closed_loop(env, plan.fixed, float("inf")))
    return run


def run_untraced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    # Each set-up is scaled by the slowdown of the bursts before and after it.
    setup_times, bursts = [], [hostspeed.burst()]
    env = None
    for repeat in range(SETUP_REPEATS):
        if env is not None:
            env.close()
        started = time.perf_counter()
        plan = plans.build_plan(workload, seed, seconds)
        env = open_env(plan, traced=False, tag=f"setup{repeat}")
        setup_times.append(time.perf_counter() - started)
        bursts.append(hostspeed.burst())
    setup_scaled = [
        setup / hostspeed.slowdown(bursts[index : index + 2])
        for index, setup in enumerate(setup_times)
    ]
    cold = workload == "cold_search"
    try:
        run = timed(env, plan, seconds, rounds=plans.COLD_ROUNDS if cold else 1)
        rss = env.peak_rss_mb()
    finally:
        env.close()
    failed, problems = check_answers(plan, env.learned, run, pinned=seed == COMMITTED_SEED)
    lookups = run.counters["repro_cache_hits_total"] + run.counters["repro_cache_misses_total"]
    if lookups != len(run):
        problems.append(f"cache lookups moved by {lookups}, requests were {len(run)}")
    figures = end_to_end(run)
    figures["setup_s"] = statistics.median(setup_scaled)
    figures["peak_rss_mb"] = rss
    report = {
        "samples": len(run),
        "slowdown": figures["slowdown"],
        "digest": answer_digest(run),
        "setup_times": setup_times,
        "problems": problems,
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(run),
        "failed": failed,
        "metrics": with_units("end_to_end", figures),
        "report": report,
    }


def run_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """An untraced and a traced half; per-layer metrics from the traced one.

    On tcp_mixed both halves run the open-loop ladder (two connections), so
    the per-layer figures include queueing; the ladder figures themselves
    come from the untraced half.
    """
    plan = plans.build_plan(workload, seed, seconds)
    ladder = workload == "tcp_mixed"
    # Both halves classify the same inputs (cold_search: one round of its
    # universe each), and the kernel's encoding memo is emptied between them
    # so the second half searches as cold as the first.
    env = open_env(plan, traced=False, tag="plain")
    try:
        plain = timed(env, plan, seconds / 2, ladder=ladder)
    finally:
        env.close()
    problem_encoding.cache_clear()

    recorder = layers.Recorder()
    layers.install(recorder)
    try:
        env = open_env(plan, traced=True, tag="traced")
        try:
            traced = timed(env, plan, seconds / 2, ladder=ladder)
        finally:
            server_events = env.close()
    finally:
        recorder.uninstall()
    local_events = layers.window(recorder.events, *traced.window)
    server_events = layers.window(server_events, *traced.window)

    problems: List[str] = []
    failed = 0
    for run, pinned in ((plain, seed == COMMITTED_SEED), (traced, False)):
        run_failed, run_problems = check_answers(plan, env.learned, run, pinned)
        failed += run_failed
        problems.extend(run_problems)
    expected = layers.counter_counts(list(local_events) + list(server_events))
    for name, count in expected.items():
        moved = traced.counters[name]
        if moved != count:
            problems.append(f"{name} moved by {moved}, the wrappers counted {count}")

    metrics = layers.layer_metrics(local_events, server_events)
    metrics["engine.canonical.split_orbits"] = split_orbits(plain, traced)
    report: Dict[str, Any] = {"problems": problems}
    if ladder:
        figures = ladder_figures(plain)
        for name in ("knee_rps", "p50_ms_low", "p99_ms_low", "p50_ms_high", "p99_ms_high"):
            metrics["bench.tcp." + name] = figures[name]
        metrics["bench.generator.late_ms_p99"] = figures["late_ms_p99"]
        overhead = ladder_figures(traced)["p50_ms_low"] / figures["p50_ms_low"] - 1.0
        report["ladder"] = figures["steps"]
    else:
        for name in ("knee_rps", "p50_ms_low", "p99_ms_low", "p50_ms_high", "p99_ms_high"):
            metrics["bench.tcp." + name] = 0.0
        metrics["bench.generator.late_ms_p99"] = 0.0
        overhead = (
            end_to_end(plain)["throughput_rps"] / end_to_end(traced)["throughput_rps"] - 1.0
        )
    metrics["bench.trace_overhead_pct"] = 100.0 * overhead
    attempted = len(plain) + len(traced)
    metrics["bench.error_rate"] = failed / attempted
    metrics["bench.samples"] = len(plain)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units("per_layer", metrics),
        "report": report,
    }


def with_units(kind: str, values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """``values`` of every ``kind`` metric BENCHMARK.json names, with its unit."""
    return {metric["name"]: (values[metric["name"]], metric["unit"]) for metric in SPEC[kind]}
