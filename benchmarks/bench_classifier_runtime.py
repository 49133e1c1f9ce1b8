"""Classifier practicality (Section 1.5): "it classifies the sample problems in a matter of milliseconds".

This benchmark measures the end-to-end classification time of every sample
problem of the paper's introduction plus the ``Π_k`` family of Section 8, and
additionally reports the classifier's throughput on random problems.  Absolute
times differ from the authors' Rust/Python tool, but the qualitative claim —
milliseconds per problem on a laptop-scale machine — is what is checked.
"""

from __future__ import annotations

import time

import pytest

from repro.api import connect
from repro.core import classify
from repro.engine import batch
from repro.workers import ClassificationScheduler, create_backend
from repro.problems import (
    branch_two_coloring,
    figure2_combined_problem,
    maximal_independent_set,
    pi_k,
    three_coloring,
    two_coloring,
)
from repro.problems.random_problems import random_problem

SAMPLE_PROBLEMS = {
    "3-coloring": three_coloring(),
    "2-coloring": two_coloring(),
    "mis": maximal_independent_set(),
    "branch-2-coloring": branch_two_coloring(),
    "figure-2-combined": figure2_combined_problem(),
    "pi-2": pi_k(2),
    "pi-3": pi_k(3),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_PROBLEMS))
def test_sample_problem_classification_time(benchmark, name):
    """Each sample problem is classified well within interactive time."""
    problem = SAMPLE_PROBLEMS[name]
    result = benchmark(lambda: classify(problem))
    assert result.complexity is not None
    # The paper reports milliseconds per problem; pytest-benchmark's report shows
    # the measured mean, which stays in the millisecond range in pure Python too.


def test_random_problem_throughput(benchmark):
    """Throughput on a batch of random 3-label problems."""
    problems = [random_problem(3, density=0.4, seed=seed) for seed in range(25)]

    def classify_batch():
        return [classify(problem).complexity for problem in problems]

    classes = benchmark(classify_batch)
    assert len(classes) == len(problems)


@pytest.mark.parametrize("backend_name", ["inline", "threads", "processes"])
def test_worker_backend_throughput(benchmark, backend_name):
    """Cold-batch throughput per worker backend (2 workers).

    ``inline`` is the serial baseline; ``threads`` shows the cost/benefit of
    GIL-interleaved concurrency on a pure-Python workload; ``processes``
    shows what real parallelism buys.  The pool is spawned once *outside*
    the measured rounds (each round gets a fresh cache/scheduler on the
    shared backend), so the per-backend means compare search execution, not
    pool lifecycle cost.
    """
    problems = [random_problem(3, density=0.4, seed=seed) for seed in range(25)]
    backend = create_backend(backend_name, workers=2)
    backend.probe()

    def cold_batch():
        # Never closed: closing the scheduler would shut the shared pool.
        scheduler = ClassificationScheduler(backend=backend)
        pendings = [batch.submit(scheduler, problem) for problem in problems]
        return [pending.result() for pending in pendings]

    try:
        items = benchmark(cold_batch)
    finally:
        backend.close()
    assert [item.result.complexity for item in items] == [
        classify(problem).complexity for problem in problems
    ]


def test_warm_cache_latency(benchmark):
    """A fully warmed session answers a batch with zero searches.

    Measures the translate-and-relabel overhead that remains after the
    scheduler has eliminated every certificate search — the latency floor of
    a warmed service.
    """
    problems = [random_problem(3, density=0.4, seed=seed) for seed in range(25)]
    with connect("local://inline") as session:
        cold_start = time.perf_counter()
        list(session.classify_many(problems))
        cold_seconds = time.perf_counter() - cold_start

        durations = []

        def warm_batch():
            round_start = time.perf_counter()
            outcomes = list(session.classify_many(problems))
            durations.append(time.perf_counter() - round_start)
            return outcomes

        warm_outcomes = benchmark(warm_batch)
    assert all(outcome.from_cache for outcome in warm_outcomes)
    warm_seconds = min(durations)
    print(
        f"\nWarm-cache floor: cold {cold_seconds * 1000:.2f} ms, "
        f"warm {warm_seconds * 1000:.2f} ms per 25-problem batch"
    )
