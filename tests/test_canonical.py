"""Tests for the canonical-form search.

* **Differential oracle.**  The pruned search must return exactly the key
  and forward map of the exhaustive enumeration in ``canonical_oracle.py``,
  on seeded pools, the catalog, colorings, ``Pi_k`` and renamings of each.
  ``pi_k(4)`` (11 labels) and ``pi_k(5)`` (14) pin the key text's string
  order of labels ("10" < "2").
* **Orbits merge at any size.**  Every renaming of a wide-alphabet problem
  gets one key, quickly.
* **Cancellation.**  The search polls the active cancel scope, and a
  deadline that expires during canonicalization resolves the request as
  ``timeout`` without touching the cache or the scheduler, identically on
  local and remote endpoints.
"""

import random
import time
from math import factorial

import pytest

from canonical_oracle import reference_form, signature_groups
from repro.api import SessionConfig, connect
from repro.api.session import LocalDriver, census_problems
from repro.core.cancellation import (
    CancelToken,
    SearchCancelled,
    SearchTimeout,
    cancel_scope,
)
from repro.core.problem import LCLProblem
from repro.engine import canonical_form, problem_to_dict
from repro.obs.trace import ROOT_SPAN
from repro.problems import catalog, coloring, hard_problem, pi_k
from repro.problems.random_problems import random_problem
from repro.service import ServiceClient, ThreadedService


def renamings(problem, count, seed):
    """``count`` seeded renamings of ``problem`` onto the names ``r0, r1, ...``."""
    rng = random.Random(seed)
    labels = problem.sorted_labels()
    renamed = []
    for _ in range(count):
        targets = [f"r{index}" for index in range(len(labels))]
        rng.shuffle(targets)
        renamed.append(problem.relabel(dict(zip(labels, targets))))
    return renamed


def three_copies(seed):
    """Three disjoint copies of a 3-label draw.

    Three equal signature groups, each holding one label of every copy, and
    automorphisms that permute the copies: the shape in which a bound read
    from stale state, or an orbit taken under the wrong automorphisms, shows.
    """
    rng = random.Random(seed)
    base = random_problem(3, density=0.3 + 0.5 * rng.random(), seed=seed)
    configurations, labels = [], []
    for copy in range(3):
        name = {label: f"{copy}{label}" for label in base.labels}
        labels.extend(name.values())
        configurations += [
            (name[c.parent], tuple(name[child] for child in c.children))
            for c in base.configurations
        ]
    return LCLProblem.create(delta=2, configurations=configurations, labels=labels)


def padded(seed):
    """A small draw plus two to four labels that no configuration uses."""
    base = random_problem(3, density=0.4, seed=seed)
    unused = [f"u{index}" for index in range(2 + seed % 3)]
    configurations = [(c.parent, c.children) for c in base.configurations]
    return LCLProblem.create(
        delta=2, configurations=configurations, labels=sorted(base.labels) + unused
    )


def _orders(problem):
    """How many orders the oracle enumerates for ``problem``."""
    count = 1
    for group in signature_groups(problem):
        count *= factorial(len(group))
    return count


POOLS = {
    **{
        f"delta2-{labels}labels": [
            problem
            for density in (0.3, 0.6)
            for problem in census_problems(
                {"labels": labels, "density": density, "count": 5, "seed": 40 * labels}
            )[0]
        ]
        for labels in range(2, 7)
    },
    **{
        f"delta3-{labels}labels": [
            random_problem(labels, delta=3, density=density, seed=seed)
            for density in (0.2, 0.5)
            for seed in range(5)
        ]
        for labels in range(2, 5)
    },
    "three-copies": [
        problem
        for problem in (three_copies(seed) for seed in range(28))
        if _orders(problem) <= 1000
    ],
    "unused-labels": [padded(seed) for seed in range(6)],
}

NAMED = {
    **{name: problem for name, (problem, _expected) in catalog().items()},
    **{f"coloring({k})": coloring(k) for k in range(2, 7)},
    **{f"coloring({k}, delta=3)": coloring(k, delta=3) for k in range(2, 6)},
    **{f"pi_k({k})": pi_k(k) for k in range(1, 6)},
}


def _assert_matches_oracle(problem):
    form = canonical_form(problem)
    key, forward = reference_form(problem)
    assert form.key == key
    assert dict(form.forward) == forward


# ----------------------------------------------------------------------
# Differential oracle
# ----------------------------------------------------------------------
class TestAgreesWithEnumeration:
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_seeded_pools_and_renamings(self, pool):
        for index, problem in enumerate(POOLS[pool]):
            assert _orders(problem) <= 1000, "keep the oracle affordable"
            for variant in [problem] + renamings(problem, 3, seed=index):
                _assert_matches_oracle(variant)

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_problems_and_renamings(self, name):
        problem = NAMED[name]
        for variant in [problem] + renamings(problem, 3, seed=len(name)):
            _assert_matches_oracle(variant)


# ----------------------------------------------------------------------
# Orbits merge on wide alphabets, quickly
# ----------------------------------------------------------------------
WIDE = {
    "hard_problem(5)": lambda: hard_problem(5),
    "hard_problem(13)": lambda: hard_problem(13),
    "coloring(8)": lambda: coloring(8),
}


class TestWideAlphabets:
    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_every_renaming_gets_one_key(self, name):
        base = WIDE[name]()
        problems = [base] + renamings(base, 8, seed=5)
        keys = {canonical_form(problem).key for problem in problems}
        assert len(keys) == 1

    @pytest.mark.parametrize(
        "problem",
        [
            coloring(8),
            renamings(hard_problem(13), 1, seed=13)[0],
            LCLProblem.create(
                delta=2,
                configurations=[("a", ("b", "b"))],
                labels=["a", "b"] + [f"u{index}" for index in range(300)],
            ),
        ],
        ids=["coloring(8)", "renamed hard_problem(13)", "300 unused labels"],
    )
    def test_canonicalizes_in_well_under_a_second(self, problem):
        start = time.perf_counter()
        canonical_form(problem)
        assert time.perf_counter() - start < 1.0


# ----------------------------------------------------------------------
# Cancellation and deadlines
# ----------------------------------------------------------------------
ONE_ORDER = LCLProblem.create(delta=2, configurations=[("1", ("2", "2"))])
"""Labels with distinct signatures: a single group-respecting order."""


def _expired_token():
    return CancelToken(deadline=time.monotonic() - 1.0)


class TestCancellation:
    def test_expired_scope_raises_timeout(self):
        with cancel_scope(_expired_token()), pytest.raises(SearchTimeout):
            canonical_form(coloring(6))

    def test_cancelled_scope_raises_cancelled(self):
        token = CancelToken()
        token.cancel()
        with cancel_scope(token), pytest.raises(SearchCancelled):
            canonical_form(coloring(6))

    def test_search_polls_the_scope(self):
        token = CancelToken()
        with cancel_scope(token):
            canonical_form(ONE_ORDER)
        assert token.checkpoints == 1  # one order only: a single node
        token = CancelToken()
        with cancel_scope(token):
            canonical_form(coloring(6))
        assert token.checkpoints > 6  # at least one poll per position

    def test_expired_deadline_skips_cache_and_scheduler(self):
        problem = coloring(4)
        with connect("local://inline") as session:
            assert session.classify(problem).ok  # now cached
            before = session.stats()
            renamed = renamings(problem, 1, seed=1)[0]
            outcome = session.classify(renamed, deadline=1e-9)
            assert outcome.outcome == "timeout"
            assert outcome.canonical_key is None and outcome.result is None
            assert not outcome.from_cache
            after = session.stats()
        assert (after["cache"]["hits"], after["cache"]["misses"]) == (
            before["cache"]["hits"],
            before["cache"]["misses"],
        )
        assert after["workers"]["flights"] == before["workers"]["flights"]
        assert after["batch"]["submitted"] == 2
        assert after["batch"]["full_searches"] == 1

    def test_scheduler_gets_only_the_unspent_budget(self, monkeypatch):
        budgets = []
        driver = LocalDriver(SessionConfig())
        try:
            submit = driver.scheduler.submit

            def recording_submit(form, **kwargs):
                budgets.append(kwargs["deadline"])
                return submit(form, **kwargs)

            monkeypatch.setattr(driver.scheduler, "submit", recording_submit)
            driver.classify(coloring(5), "interactive", 30.0)
            list(driver.iter_outcomes([coloring(4)], "batch", 30.0))
        finally:
            driver.close()
        assert len(budgets) == 2
        assert all(0.0 < budget < 30.0 for budget in budgets)

    def test_classify_many_times_out_during_canonicalization(self):
        problems = renamings(coloring(5), 3, seed=2)
        with connect("local://inline") as session:
            outcomes = list(session.classify_many(problems, deadline=1e-9))
            stats = session.stats()
        assert [outcome.outcome for outcome in outcomes] == ["timeout"] * 3
        assert all(outcome.canonical_key is None for outcome in outcomes)
        assert [outcome.problem for outcome in outcomes] == problems
        assert stats["batch"]["submitted"] == 3
        assert stats["batch"]["full_searches"] == 0
        assert stats["workers"]["flights"] == 0


def _assert_closed_trace(document, outcome):
    assert document["outcome"] == outcome
    roots = [span for span in document["spans"] if span["parent"] is None]
    assert [root["name"] for root in roots] == [ROOT_SPAN]
    for span in document["spans"]:
        assert span["end_ms"] is not None and span["status"] is not None


class TestExpiredDeadlineParity:
    def test_local_and_tcp_time_out_identically(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "mem")
        problem = renamings(coloring(6), 1, seed=6)[0]
        outcomes, traces = {}, {}
        with connect("local://inline") as session:
            outcomes["local"] = session.classify(problem, deadline=1e-6)
            traces["local"] = session.trace(outcomes["local"].request_id)
        with ThreadedService() as (host, port):
            with connect(f"tcp://{host}:{port}") as session:
                outcomes["tcp"] = session.classify(problem, deadline=1e-6)
                traces["tcp"] = session.trace(outcomes["tcp"].request_id)
        assert outcomes["local"].outcome == "timeout"
        assert outcomes["local"].as_dict() == outcomes["tcp"].as_dict()
        for document in traces.values():
            assert document["found"]
            _assert_closed_trace(document["trace"], "timeout")

    def test_batch_denominator_holds(self):
        """hits + misses + interrupted == count when canonicalization times out."""
        specs = [problem_to_dict(p) for p in renamings(coloring(6), 2, seed=7)]
        specs.append("1 : 2 2\n2 : 1 1")
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                payload = client.request("classify", {"problem": specs[-1]})
                assert payload["outcome"] == "ok"  # now cached
                request_id = client.send(
                    "classify_batch", {"problems": specs, "deadline_ms": 0.001}
                )
                frames = list(client.frames(request_id))
                stats = client.request("stats")
        items, summary = frames[:-1], frames[-1]["data"]
        assert [frame["data"]["outcome"] for frame in items] == ["timeout"] * 3
        assert all(frame["data"]["canonical_key"] is None for frame in items)
        assert summary["timeouts"] == summary["count"] == 3
        assert (
            summary["cache_hits"]
            + summary["cache_misses"]
            + summary["timeouts"]
            + summary["cancelled"]
        ) == summary["count"]
        assert stats["workers"]["flights"] == 1  # the warm-up's search only
