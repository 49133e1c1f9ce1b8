"""Tests for the parallel execution subsystem: backends + single-flight
scheduler, priority ordering, deadlines, cancellation, and slot accounting."""

import json
import logging
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.api import connect
from repro.api.outcome import summarize_outcomes
from repro.core import SearchCancelled, SearchTimeout, checkpoint, classify
from repro.engine import ClassificationCache, canonical_form
from repro.problems import catalog
from repro.problems.pools import distinct_forms
from repro.problems.random_problems import random_problem
from repro.workers import (
    BACKEND_NAMES,
    JOB_CACHE_HIT,
    JOB_SCHEDULED,
    JOB_SHARED,
    PRIORITIES,
    ClassificationScheduler,
    InlineBackend,
    ProcessBackend,
    ThreadBackend,
    create_backend,
)


def _square(value):
    """Module-level so the process backend can pickle it."""
    return value * value


def _boom(_value):
    raise RuntimeError("boom")


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class TestBackends:
    def test_inline_resolves_synchronously(self):
        backend = InlineBackend()
        future = backend.submit_task(_square, 7)
        assert future.done()
        assert future.result() == 49

    def test_inline_captures_exceptions_in_the_future(self):
        future = InlineBackend().submit_task(_boom, 0)
        assert future.done()
        with pytest.raises(RuntimeError, match="boom"):
            future.result()

    def test_thread_backend_runs_tasks_concurrently(self):
        """Two mutually-waiting tasks only finish if they truly overlap."""
        first_running = threading.Event()
        second_running = threading.Event()

        def task_a():
            first_running.set()
            assert second_running.wait(timeout=10)
            return "a"

        def task_b():
            second_running.set()
            assert first_running.wait(timeout=10)
            return "b"

        with ThreadBackend(workers=2) as backend:
            futures = [backend.submit_task(task_a), backend.submit_task(task_b)]
            assert [future.result(timeout=10) for future in futures] == ["a", "b"]

    def test_process_backend_round_trip(self):
        with ProcessBackend(workers=2) as backend:
            futures = [backend.submit_task(_square, value) for value in range(5)]
            assert [future.result(timeout=60) for future in futures] == [
                0, 1, 4, 9, 16,
            ]

    def test_process_backend_propagates_task_errors(self):
        with ProcessBackend(workers=1) as backend:
            with pytest.raises(RuntimeError, match="boom"):
                backend.submit_task(_boom, 0).result(timeout=60)

    def test_create_backend_spellings(self):
        assert create_backend(None).name == "inline"
        assert create_backend(None, workers=1).name == "inline"
        # Asking for parallelism without naming a backend implies threads.
        implied = create_backend(None, workers=3)
        assert implied.name == "threads" and implied.workers == 3
        implied.close()
        for name in BACKEND_NAMES:
            backend = create_backend(name, workers=2)
            assert backend.name == name
            backend.close()

    def test_create_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown worker backend"):
            create_backend("gpu")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadBackend(workers=0)

    def test_probe_spawns_the_pool_eagerly(self):
        before = set(multiprocessing.active_children())
        backend = ProcessBackend(workers=2)
        assert set(multiprocessing.active_children()) == before  # lazy
        backend.probe()
        started = set(multiprocessing.active_children()) - before
        assert len(started) == 2 or backend.degraded
        backend.close()
        assert not started & set(multiprocessing.active_children())
        InlineBackend().probe()  # a no-op everywhere else
        thread_backend = ThreadBackend(workers=1)
        thread_backend.probe()
        thread_backend.close()

    def test_process_backend_rejects_submits_after_close(self):
        backend = ProcessBackend(workers=1)
        assert backend.submit_task(_square, 2).result(timeout=60) == 4
        backend.close()
        with pytest.raises(RuntimeError, match="after shutdown"):
            backend.submit_task(_square, 2)

    def test_describe_reports_configuration(self):
        backend = ThreadBackend(workers=2)
        assert backend.describe() == {"backend": "threads", "workers": 2}
        backend.close()
        process_backend = ProcessBackend(workers=2)
        assert process_backend.describe()["degraded"] is False
        process_backend.close()


# ----------------------------------------------------------------------
# Single-flight scheduler (controlled fake search task)
# ----------------------------------------------------------------------
def _form(seed=0, labels=2):
    return canonical_form(random_problem(labels, density=0.5, seed=seed))


def _distinct_forms(count, labels=2, start=0):
    """The shared seeded pool, at this suite's historical 2-label density."""
    return distinct_forms(count, labels=labels, density=0.5, start=start)


class TestSingleFlight:
    def test_concurrent_submissions_share_one_search(self):
        """The heart of the subsystem: N waiters, exactly one execution."""
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow_task(task):
            calls.append(task[0])
            started.set()
            assert release.wait(timeout=10)
            return task[0], {"complexity": "CONSTANT"}

        with ThreadBackend(workers=2) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=slow_task)
            form = _form()
            first = scheduler.submit(form)
            assert first.kind == JOB_SCHEDULED
            assert started.wait(timeout=10)
            sharers = [scheduler.submit(form) for _ in range(5)]
            assert all(job.kind == JOB_SHARED for job in sharers)
            assert scheduler.in_flight == 1
            release.set()
            payloads = [job.result(timeout=10) for job in [first, *sharers]]

        assert calls == [form.key]  # exactly one search ran
        assert all(payload["complexity"] == "CONSTANT" for payload in payloads)
        assert scheduler.stats.scheduled == 1
        assert scheduler.stats.deduped == 5
        assert scheduler.stats.completed == 1
        # The result landed in the cache: the next submission is a plain hit.
        assert scheduler.submit(form).kind == JOB_CACHE_HIT
        assert scheduler.stats.cache_hits == 1

    def test_distinct_keys_run_concurrently(self):
        """No global lock: two different keys proceed in parallel."""
        both_running = threading.Barrier(2, timeout=10)

        def lockstep_task(task):
            both_running.wait()  # deadlocks (and times out) if serialized
            return task[0], {"complexity": "CONSTANT"}

        with ThreadBackend(workers=2) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=lockstep_task)
            jobs = [scheduler.submit(_form(seed=1)), scheduler.submit(_form(seed=3))]
            assert jobs[0].key != jobs[1].key
            for job in jobs:
                job.result(timeout=10)
        assert scheduler.stats.scheduled == 2

    def test_failure_propagates_to_every_sharer_and_clears_the_key(self):
        started = threading.Event()
        release = threading.Event()

        def failing_task(task):
            started.set()
            assert release.wait(timeout=10)
            raise RuntimeError("search exploded")

        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=failing_task)
            form = _form()
            first = scheduler.submit(form)
            assert started.wait(timeout=10)
            sharer = scheduler.submit(form)
            release.set()
            for job in (first, sharer):
                with pytest.raises(RuntimeError, match="search exploded"):
                    job.result(timeout=10)
            assert scheduler.stats.failed == 1
            assert scheduler.in_flight == 0
            # A failed key is not poisoned: the next submission retries.
            started.clear()
            retry = scheduler.submit(form)
            assert retry.kind == JOB_SCHEDULED
            with pytest.raises(RuntimeError):
                retry.result(timeout=10)

    def test_cache_hit_short_circuits_the_backend(self):
        def never_called(task):  # pragma: no cover - the point of the test
            raise AssertionError("backend should not run for cached keys")

        form = _form()
        cache = ClassificationCache()
        cache.store(form.key, {"complexity": "CONSTANT"})
        scheduler = ClassificationScheduler(cache=cache, task=never_called)
        job = scheduler.submit(form)
        assert job.kind == JOB_CACHE_HIT
        assert job.done
        assert job.result()["complexity"] == "CONSTANT"

    def test_warm_schedules_only_missing_orbits(self):
        # One duplicate; the inline backend runs real searches.
        problems = [random_problem(2, density=0.5, seed=seed) for seed in (1, 3, 3)]
        with connect("local://inline") as session:
            first = session.warm(problems=problems[:1], wait=True)
            assert first == {
                "unique_keys": 1,
                "already_cached": 0,
                "shared": 0,
                "scheduled": 1,
                "waited": True,
                "failed": 0,
                "interrupted": 0,
                "count": 1,
            }
            second = session.warm(problems=problems, wait=True)
            keys = {canonical_form(problem).key for problem in problems}
            assert second["unique_keys"] == len(keys)
            assert second["already_cached"] == 1
            assert second["scheduled"] == second["unique_keys"] - 1
            # Everything is cached now: a third warm is a pure no-op.
            third = session.warm(problems=problems, wait=True)
            assert third["scheduled"] == 0
            assert third["already_cached"] == third["unique_keys"]

    def test_wait_idle(self):
        release = threading.Event()

        def slow_task(task):
            assert release.wait(timeout=10)
            return task[0], {"complexity": "CONSTANT"}

        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=slow_task)
            assert scheduler.wait_idle(timeout=0.1)  # idle before any work
            job = scheduler.submit(_form())
            assert not scheduler.wait_idle(timeout=0.2)  # still running
            release.set()
            assert scheduler.wait_idle(timeout=10)
            assert job.done

    def test_stats_payload_shape(self):
        scheduler = ClassificationScheduler()
        scheduler.submit(_form())
        payload = scheduler.stats_payload()
        assert payload["backend"] == "inline"
        assert payload["workers"] == 1
        assert payload["scheduled"] == 1
        assert payload["submitted"] == 1
        assert payload["in_flight"] == 0
        assert 0.0 <= payload["utilization"] <= 1.0


# ----------------------------------------------------------------------
# Priority scheduling
# ----------------------------------------------------------------------
def _quick_task_recording(order, lock):
    """A task that records its key and returns immediately."""

    def task(payload):
        with lock:
            order.append(payload[0])
        return payload[0], {"complexity": "CONSTANT"}

    return task


class TestPriorityScheduling:
    def test_priorities_are_validated(self):
        scheduler = ClassificationScheduler()
        with pytest.raises(ValueError, match="unknown priority"):
            scheduler.submit(_form(), priority="urgent")
        assert PRIORITIES == ("interactive", "batch", "warm")

    def test_queued_work_dispatches_in_priority_order(self):
        """With one slot busy, later interactive work overtakes earlier warm."""
        order = []
        lock = threading.Lock()
        started = threading.Event()
        release = threading.Event()

        distinct = _distinct_forms(4, start=101)
        forms = {
            "blocker": distinct[0],
            "warm": distinct[1],
            "batch": distinct[2],
            "interactive": distinct[3],
        }
        keys = {name: form.key for name, form in forms.items()}
        name_of = {key: name for name, key in keys.items()}

        def task(payload):
            with lock:
                order.append(payload[0])
            if payload[0] == keys["blocker"]:
                started.set()
                assert release.wait(timeout=10)
            return payload[0], {"complexity": "CONSTANT"}

        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=task)
            blocker = scheduler.submit(forms["blocker"], priority="interactive")
            assert started.wait(timeout=10)
            # The only slot is busy: these three queue in the priority heap.
            jobs = [
                scheduler.submit(forms["warm"], priority="warm"),
                scheduler.submit(forms["batch"], priority="batch"),
                scheduler.submit(forms["interactive"], priority="interactive"),
            ]
            release.set()
            for job in [blocker, *jobs]:
                job.result(timeout=10)

        dispatched = [name_of[key] for key in order]
        assert dispatched == ["blocker", "interactive", "batch", "warm"]

    def test_duplicate_submission_escalates_a_queued_flight(self):
        """An interactive duplicate pulls a queued warm search forward."""
        order = []
        lock = threading.Lock()
        started = threading.Event()
        release = threading.Event()
        record = _quick_task_recording(order, lock)

        def task(payload):
            if not started.is_set():
                started.set()
                assert release.wait(timeout=10)
            return record(payload)

        blocker_form, warm_form, batch_form = _distinct_forms(3, start=111)
        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=task)
            blocker = scheduler.submit(blocker_form, priority="interactive")
            assert started.wait(timeout=10)
            warm = scheduler.submit(warm_form, priority="warm")
            batch = scheduler.submit(batch_form, priority="batch")
            # Escalation: a second client needs the warm key interactively.
            escalated = scheduler.submit(warm_form, priority="interactive")
            assert escalated.kind == JOB_SHARED
            release.set()
            for job in (blocker, warm, batch, escalated):
                job.result(timeout=10)
        assert order.index(warm_form.key) < order.index(batch_form.key)
        assert scheduler.stats.deduped == 1

    def test_classifier_passes_priority_and_deadline_through(self):
        with connect("local://threads?workers=2") as session:
            outcome = session.classify(
                catalog()["mis"][0], priority="interactive", deadline=30.0
            )
        assert outcome.ok
        assert outcome.result is not None


# ----------------------------------------------------------------------
# Deadlines and cancellation
# ----------------------------------------------------------------------
def _blocked_task_factory(block_event):
    """A stub search that blocks on an event *without ever checkpointing* —
    the worst case: a hung search the scheduler can only abandon."""

    def task(payload):
        assert block_event.wait(timeout=60)
        return payload[0], {"complexity": "CONSTANT"}

    return task


def _cooperative_slow_task(payload):
    """Sleeps ~30s in small checkpointed slices; unwinds fast on cancel."""
    for _ in range(3000):
        checkpoint()
        time.sleep(0.01)
    return payload[0], {"complexity": "CONSTANT"}


# Submits a minutes-long search with a 1 s deadline and closes the session at
# once: close() cancels it.  Then warms the same search in the background with
# a 1 s deadline and closes: close() drains the warm, and must still time it
# out instead of waiting it out.
_CLOSE_DURING_SEARCH = """
import json, time
from repro.api import connect
from repro.problems import hard_problem

session = connect("local://threads?workers=2")
pending = session.submit(hard_problem(12), deadline=1.0)
start = time.monotonic()
session.close()
closed_after = time.monotonic() - start
warmed = connect("local://threads?workers=2")
warmed.warm([hard_problem(12)], deadline=1.0)
start = time.monotonic()
warmed.close()
print(json.dumps({
    "closed_after": closed_after,
    "outcome": pending.result(5).outcome,
    "drained_after": time.monotonic() - start,
    "warm_timeouts": warmed.stats()["workers"]["timeouts"],
}))
"""

# Submits a minutes-long search with no deadline to the endpoint named on the
# command line and closes the session 0.5 s in.
_CLOSE_MID_SEARCH = """
import json, sys, time
from repro.api import connect
from repro.problems import hard_problem

session = connect(sys.argv[1])
pending = session.submit(hard_problem(12))
time.sleep(0.5)
start = time.monotonic()
session.close()
closed_after = time.monotonic() - start
print(json.dumps({"closed_after": closed_after, "outcome": pending.result(5).outcome}))
"""


def _child_report(script, *argv):
    """Run ``script`` in a child process; return the JSON it prints.

    A child, so that a close() which waits a search out (for minutes) fails
    at the timeout instead of hanging the suite.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("close() waited a minutes-long search out for over 20 s")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class _RecordingBackend(ThreadBackend):
    """A thread pool recording the key of each task it is handed."""

    def __init__(self, workers):
        super().__init__(workers=workers)
        self.keys = []

    def submit_task(self, fn, *args, token=None):
        self.keys.append(args[0][0])
        return super().submit_task(fn, *args, token=token)


class _RefusingBackend(ThreadBackend):
    """A one-worker thread pool that refuses the second task it is handed."""

    def __init__(self):
        super().__init__(workers=1)
        self.submits = 0

    def submit_task(self, fn, *args, token=None):
        self.submits += 1
        if self.submits == 2:
            raise RuntimeError("refused")
        return super().submit_task(fn, *args, token=token)


class TestDeadlinesAndCancellation:
    def test_a_refused_dispatch_does_not_strand_the_queue(self):
        """A flight the backend refuses fails alone: the flight queued
        behind it dispatches to the slot the refusal left free."""
        release = threading.Event()
        running_form, refused_form, queued_form = _distinct_forms(3, start=80)
        scheduler = ClassificationScheduler(
            backend=_RefusingBackend(), task=_blocked_task_factory(release)
        )
        try:
            running = scheduler.submit(running_form)
            refused = scheduler.submit(refused_form)
            queued = scheduler.submit(queued_form)
            release.set()
            assert running.result(timeout=10)["complexity"] == "CONSTANT"
            with pytest.raises(RuntimeError, match="refused"):
                refused.result(timeout=10)
            assert queued.result(timeout=10)["complexity"] == "CONSTANT"
            assert scheduler.wait_idle(timeout=10)
            assert scheduler.in_flight == 0
            assert scheduler.slots_in_use == 0
            stats = scheduler.stats
            assert (stats.scheduled, stats.completed, stats.failed) == (2, 2, 1)
        finally:
            release.set()
            scheduler.close()

    def test_close_keeps_enforcing_deadlines_while_it_drains(self):
        """close() cancels a search still waited on, and times out a
        background warm's deadlined search instead of waiting it out."""
        report = _child_report(_CLOSE_DURING_SEARCH)
        assert report["outcome"] == "cancelled"
        assert report["closed_after"] < 2.0, report
        assert report["warm_timeouts"] == 1, report
        assert report["drained_after"] < 10.0, report

    @pytest.mark.parametrize(
        "endpoint", ["local://threads?workers=1", "local://processes?workers=1"]
    )
    def test_close_cancels_a_search_still_waited_on(self, endpoint):
        """close() 0.5 s into a deadline-less search returns at once, and
        the abandoned pending resolves `cancelled`."""
        report = _child_report(_CLOSE_MID_SEARCH, endpoint)
        assert report["outcome"] == "cancelled"
        assert report["closed_after"] < 2.0, report

    def test_a_submission_made_while_closing_is_cancelled_before_dispatch(self):
        """An attended submission made after close() began resolves
        SearchCancelled and never reaches the backend."""
        block = threading.Event()
        blocker_form, late_form = _distinct_forms(2, start=60)
        backend = _RecordingBackend(workers=2)
        scheduler = ClassificationScheduler(
            backend=backend, task=_blocked_task_factory(block)
        )
        blocker = scheduler.submit(blocker_form)
        closer = threading.Thread(target=scheduler.close, daemon=True)
        try:
            closer.start()
            # close() marks itself closing, then cancels the blocker, and
            # now waits for the blocker's thread.
            with pytest.raises(SearchCancelled):
                blocker.result(timeout=10)
            late = scheduler.submit(late_form)
            with pytest.raises(SearchCancelled):
                late.result(timeout=10)
        finally:
            block.set()
            closer.join(timeout=10)
        assert not closer.is_alive()
        assert backend.keys == [blocker.key]
        assert scheduler.stats.cancelled == 2

    def test_close_drains_background_flights_queued_behind_a_search(self):
        """Background submissions queued behind a running one still run
        before the backend shuts down: close() returns, and every one of
        them reaches the cache."""

        def task(payload):
            time.sleep(0.2)
            return payload[0], {"complexity": "CONSTANT"}

        forms = _distinct_forms(3, start=70)
        scheduler = ClassificationScheduler(
            backend=ThreadBackend(workers=1), task=task
        )
        jobs = [scheduler.submit(form, background=True) for form in forms]
        closer = threading.Thread(target=scheduler.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() never returned"
        assert [job.result(timeout=0)["complexity"] for job in jobs] == [
            "CONSTANT"
        ] * 3
        assert all(scheduler.cache.peek(form.key) is not None for form in forms)
        assert scheduler.stats.completed == 3

    def test_deadline_times_out_a_hung_search_and_frees_the_slot(self):
        """A never-checkpointing search times out; new work still dispatches."""
        block = threading.Event()
        with ThreadBackend(workers=2) as backend:
            scheduler = ClassificationScheduler(
                backend=backend, task=_blocked_task_factory(block)
            )
            hung = scheduler.submit(_form(seed=1), deadline=0.2)
            with pytest.raises(SearchTimeout):
                hung.result(timeout=10)
            assert scheduler.stats.timeouts == 1
            # The hung key left the in-flight table: a retry is possible.
            assert scheduler.in_flight == 0
            retry = scheduler.submit(_form(seed=1))
            assert retry.kind == JOB_SCHEDULED
            block.set()
            retry.result(timeout=10)
            assert scheduler.wait_idle(timeout=10)
            assert scheduler.slots_in_use == 0

    def test_cooperative_timeout_reports_timeout_not_failure(self):
        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(
                backend=backend, task=_cooperative_slow_task
            )
            job = scheduler.submit(_form(seed=2), deadline=0.15)
            start = time.monotonic()
            with pytest.raises(SearchTimeout):
                job.result(timeout=10)
            assert scheduler.wait_idle(timeout=10)
            assert time.monotonic() - start < 5.0
        assert scheduler.stats.timeouts == 1
        assert scheduler.stats.failed == 0
        assert scheduler.stats.completed == 0

    def test_timeout_does_not_poison_the_cache(self):
        form = _form(seed=3)
        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(
                backend=backend, task=_cooperative_slow_task
            )
            job = scheduler.submit(form, deadline=0.1)
            with pytest.raises(SearchTimeout):
                job.result(timeout=10)
            scheduler.wait_idle(timeout=10)
            assert scheduler.cache.peek(form.key) is None
            # And the key is immediately retryable as a fresh search.
            assert scheduler.submit(form, deadline=0.1).kind == JOB_SCHEDULED
            scheduler.wait_idle(timeout=10)

    def test_cancelling_one_sharer_spares_the_search(self):
        started = threading.Event()
        release = threading.Event()

        def task(payload):
            started.set()
            assert release.wait(timeout=10)
            return payload[0], {"complexity": "CONSTANT"}

        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=task)
            form = _form(seed=4)
            first = scheduler.submit(form)
            assert started.wait(timeout=10)
            second = scheduler.submit(form)
            assert second.kind == JOB_SHARED
            assert first.cancel() is True
            assert first.cancel() is False  # already detached
            with pytest.raises(SearchCancelled):
                first.result(timeout=10)
            release.set()
            # The surviving sharer still gets the result; nothing cancelled.
            assert second.result(timeout=10)["complexity"] == "CONSTANT"
        assert scheduler.stats.cancelled == 0
        assert scheduler.stats.completed == 1

    def test_cancelling_the_last_waiter_cancels_the_search(self):
        started = threading.Event()
        release = threading.Event()

        def task(payload):
            started.set()
            checkpoint()
            assert release.wait(timeout=60)
            checkpoint()  # observes the cancel after the event releases
            return payload[0], {"complexity": "CONSTANT"}

        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=task)
            form = _form(seed=5)
            job = scheduler.submit(form)
            assert started.wait(timeout=10)
            assert job.cancel() is True
            with pytest.raises(SearchCancelled):
                job.result(timeout=10)
            assert scheduler.stats.cancelled == 1
            assert scheduler.in_flight == 0  # key freed immediately
            release.set()
            assert scheduler.wait_idle(timeout=10)  # zombie drains
            assert scheduler.slots_in_use == 0
            assert scheduler.cache.peek(form.key) is None

    def test_scheduler_cancel_by_key_resolves_every_waiter(self):
        block = threading.Event()
        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(
                backend=backend, task=_blocked_task_factory(block)
            )
            form = _form(seed=6)
            jobs = [scheduler.submit(form) for _ in range(3)]
            assert scheduler.cancel(form.key) is True
            assert scheduler.cancel(form.key) is False  # nothing live anymore
            for job in jobs:
                with pytest.raises(SearchCancelled):
                    job.result(timeout=10)
            block.set()
            assert scheduler.wait_idle(timeout=10)
        assert scheduler.stats.cancelled == 1

    def test_cancelling_a_queued_flight_never_dispatches_it(self):
        started = threading.Event()
        release = threading.Event()
        executed = []

        def task(payload):
            executed.append(payload[0])
            started.set()
            assert release.wait(timeout=10)
            return payload[0], {"complexity": "CONSTANT"}

        blocker_form, queued_form = _distinct_forms(2, start=7)
        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=task)
            blocker = scheduler.submit(blocker_form)
            assert started.wait(timeout=10)
            queued = scheduler.submit(queued_form)
            assert queued.cancel() is True
            release.set()
            blocker.result(timeout=10)
            assert scheduler.wait_idle(timeout=10)
        assert executed == [blocker.key]
        assert scheduler.stats.scheduled == 1  # the queued one never started
        assert scheduler.stats.flights == 2
        assert scheduler.stats.cancelled == 1

    def test_cache_hit_jobs_cannot_be_cancelled(self):
        form = _form(seed=9)
        cache = ClassificationCache()
        cache.store(form.key, {"complexity": "CONSTANT"})
        scheduler = ClassificationScheduler(cache=cache)
        job = scheduler.submit(form)
        assert job.kind == JOB_CACHE_HIT
        assert job.cancel() is False

    def test_sharer_without_deadline_survives_creators_timeout(self):
        """Deadlines are per waiter: one client's budget must never time out
        another client sharing the same search (code-review regression)."""
        started = threading.Event()
        release = threading.Event()

        def task(payload):
            started.set()
            checkpoint()
            assert release.wait(timeout=30)
            checkpoint()
            return payload[0], {"complexity": "CONSTANT"}

        with ThreadBackend(workers=1) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=task)
            form = _form(seed=40)
            creator = scheduler.submit(form, deadline=0.2)
            assert started.wait(timeout=10)
            sharer = scheduler.submit(form)  # no deadline: wants the answer
            assert sharer.kind == JOB_SHARED
            with pytest.raises(SearchTimeout):
                creator.result(timeout=10)
            # The flight is still live for the sharer — not cancelled.
            assert scheduler.in_flight == 1
            release.set()
            assert sharer.result(timeout=10)["complexity"] == "CONSTANT"
        assert scheduler.stats.completed == 1
        assert scheduler.stats.timeouts == 0  # no *flight* timed out
        assert scheduler.cache.peek(form.key) is not None

    def test_cancel_frees_the_process_worker_of_a_search_without_deadline(
        self, caplog
    ):
        """Cancelling a running search that has no deadline and never
        checkpoints terminates its worker: the next key does not wait the
        search out, and no late result trips over the cancelled future."""
        backend = ProcessBackend(workers=1)
        backend.probe()
        if backend.degraded:  # pragma: no cover - sandboxed environments
            backend.close()
            pytest.skip("process pool unavailable in this environment")
        try:
            with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
                scheduler = ClassificationScheduler(
                    backend=backend, task=_stubborn_on_three_labels
                )
                stubborn = scheduler.submit(_form(seed=11, labels=3))
                time.sleep(0.3)  # the sleeper is running on the only worker
                assert scheduler.slots_in_use == 1
                assert stubborn.cancel() is True
                start = time.monotonic()
                after = scheduler.submit(_form(seed=11))
                assert after.result(timeout=2)["complexity"] == "CONSTANT"
                assert time.monotonic() - start < 2.0
                assert scheduler.wait_idle(timeout=2)
                assert scheduler.slots_in_use == 0
        finally:
            backend.close()
        assert scheduler.stats.cancelled == 1
        assert not [
            record
            for record in caplog.records
            if record.name == "concurrent.futures" and record.levelno >= logging.ERROR
        ]

    def test_classify_many_does_not_count_timed_out_duplicates_as_hits(self):
        """A duplicate of an orbit whose search timed out produced no answer
        and must not inflate the cache hit rate (code-review regression)."""
        from repro.problems import hard_problem

        hard = hard_problem(12)
        with connect("local://threads?workers=2") as session:
            outcomes = list(session.classify_many([hard, hard], deadline=0.2))
            timed_out = summarize_outcomes(outcomes)
            # Positive control: duplicates of a *completed* orbit are hits.
            easy = catalog()["mis"][0]
            control = summarize_outcomes(list(session.classify_many([easy, easy])))
        assert [outcome.outcome for outcome in outcomes] == ["timeout", "timeout"]
        assert timed_out["cache_hits"] == 0
        assert control["cache_hits"] == 1  # the easy duplicate only

    def test_process_backend_hard_kills_a_deadlined_search(self):
        """The process backend terminates a search that never checkpoints."""
        backend = ProcessBackend(workers=2)
        backend.probe()
        if backend.degraded:  # pragma: no cover - sandboxed environments
            backend.close()
            pytest.skip("process pool unavailable in this environment")
        try:
            scheduler = ClassificationScheduler(
                backend=backend, task=_stubborn_sleeper
            )
            start = time.monotonic()
            job = scheduler.submit(_form(seed=10), deadline=0.3)
            with pytest.raises(SearchTimeout):
                job.result(timeout=30)
            # wait_idle confirms the killed child's future settled: the
            # worker slot is truly reclaimed, not leaked.
            assert scheduler.wait_idle(timeout=30)
            assert time.monotonic() - start < 20.0
            assert scheduler.stats.timeouts == 1
            assert scheduler.slots_in_use == 0
        finally:
            backend.close()

    def test_starvation_regression_hung_search_does_not_delay_interactive(self):
        """One hung search + N interactive classifies: only the hung key
        times out, everything else completes within its deadline."""
        block = threading.Event()
        forms = _distinct_forms(7, start=20)
        hung_form, interactive_forms = forms[0], forms[1:]

        def task(payload):
            if payload[0] == hung_form.key:
                assert block.wait(timeout=60)  # event-blocked stub: hangs
            return payload[0], {"complexity": "CONSTANT"}
        with ThreadBackend(workers=2) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=task)
            hung = scheduler.submit(hung_form, priority="batch", deadline=0.5)
            jobs = [
                scheduler.submit(form, priority="interactive", deadline=10.0)
                for form in interactive_forms
            ]
            start = time.monotonic()
            payloads = [job.result(timeout=15) for job in jobs]
            elapsed = time.monotonic() - start
            with pytest.raises(SearchTimeout):
                hung.result(timeout=10)
            block.set()
            assert scheduler.wait_idle(timeout=10)
        assert all(payload["complexity"] == "CONSTANT" for payload in payloads)
        assert elapsed < 10.0  # nobody waited behind the hung search
        assert scheduler.stats.timeouts == 1
        assert scheduler.stats.completed == len(interactive_forms)
        assert scheduler.slots_in_use == 0

    def test_failed_flight_retires_its_key_under_contention(self):
        """Regression (PR 4): hammer a failing key from many threads while
        flipping it to success — the key must never stick in the in-flight
        table, every waiter must resolve, and the final retry must succeed."""
        mode = {"fail": True}

        def flaky(payload):
            if mode["fail"]:
                raise RuntimeError("flaky search")
            return payload[0], {"complexity": "CONSTANT"}

        form = _form(seed=30)
        stop = threading.Event()
        unexpected = []
        outcomes = {"failed": 0, "succeeded": 0}
        counter_lock = threading.Lock()

        def hammer():
            while not stop.is_set():
                job = scheduler.submit(form)
                try:
                    job.result(timeout=10)
                    with counter_lock:
                        outcomes["succeeded"] += 1
                    return  # cache is hot from here on
                except RuntimeError:
                    with counter_lock:
                        outcomes["failed"] += 1
                except Exception as error:  # noqa: BLE001 - surfaced below
                    unexpected.append(error)
                    return

        with ThreadBackend(workers=4) as backend:
            scheduler = ClassificationScheduler(backend=backend, task=flaky)
            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)  # let the failure/retry race churn
            mode["fail"] = False
            for thread in threads:
                thread.join(timeout=30)
            stop.set()
            assert not any(thread.is_alive() for thread in threads)
            assert scheduler.wait_idle(timeout=10)

        assert not unexpected, unexpected
        assert outcomes["succeeded"] == 6  # every thread eventually succeeded
        assert scheduler.in_flight == 0
        assert scheduler.slots_in_use == 0
        # Conservation: every flight ended in exactly one terminal outcome.
        stats = scheduler.stats
        assert stats.flights == stats.completed + stats.failed
        assert stats.completed >= 1
        assert scheduler.cache.peek(form.key) is not None


def _stubborn_sleeper(payload):
    """Module-level (picklable) search that sleeps without checkpointing."""
    time.sleep(30)
    return payload[0], {"complexity": "CONSTANT"}


def _stubborn_on_three_labels(payload):
    """Sleeps like :func:`_stubborn_sleeper` on a 3-label problem; answers
    any other at once."""
    if len(payload[1]["labels"]) == 3:
        return _stubborn_sleeper(payload)
    return payload[0], {"complexity": "CONSTANT"}


# ----------------------------------------------------------------------
# Local sessions on top of the scheduler
# ----------------------------------------------------------------------
class TestClassifierBackends:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_every_backend_agrees_with_direct_classification(self, backend):
        problems = [random_problem(3, density=0.25, seed=seed) for seed in range(10)]
        with connect(f"local://{backend}?workers=2") as session:
            outcomes = list(session.classify_many(problems))
        assert [outcome.result.complexity for outcome in outcomes] == [
            classify(problem).complexity for problem in problems
        ]

    def test_processes_backend_builds_a_process_pool(self):
        with connect("local://processes?workers=2") as session:
            workers = session.stats()["workers"]
            assert workers["backend"] == "processes"
            assert workers["workers"] == 2
        with connect("local://inline?workers=1") as serial:
            assert serial.stats()["workers"]["backend"] == "inline"

    def test_submit_item_resolves_to_the_same_result(self):
        problem, expected = catalog()["mis"]
        with connect("local://threads?workers=2") as session:
            pending = session.submit(problem)
            outcome = pending.result(timeout=60)
        assert outcome.result.complexity == expected
        assert not outcome.from_cache
        assert pending.done

    def test_concurrent_classify_item_calls_single_flight(self):
        """Threads hammering one session trigger one search per orbit."""
        problems = [random_problem(2, density=0.5, seed=seed) for seed in range(12)]
        unique_keys = {canonical_form(problem).key for problem in problems}
        with connect("local://threads?workers=4") as session:
            results = [None] * 4
            def hammer(slot):
                results[slot] = [
                    session.classify(problem).result.complexity
                    for problem in problems
                ]
            threads = [
                threading.Thread(target=hammer, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert all(not thread.is_alive() for thread in threads)
            stats = session.stats()["workers"]
        assert all(result == results[0] for result in results)
        assert results[0] == [classify(problem).complexity for problem in problems]
        # Single flight: one search per distinct canonical key, ever.
        assert stats["scheduled"] == len(unique_keys)
        assert stats["submitted"] == 4 * len(problems)

    def test_stats_report_includes_workers_section(self):
        with connect("local://threads?workers=2") as session:
            session.classify(catalog()["mis"][0])
            report = session.stats()
        assert report["workers"]["backend"] == "threads"
        assert report["workers"]["scheduled"] == 1
        assert report["batch"]["full_searches"] == 1
