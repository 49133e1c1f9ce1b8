"""Seeded workload plans: what each benchmark workload sends, and in what order.

A plan is built from ``(workload, seed, seconds)`` alone, so the same seed
gives the same requests on every machine.  The program under test only ever
sees the generated paper-notation texts.

Problems are sent in the paper's compact notation, which needs one-character
labels, so every base problem is first mapped onto a one-character alphabet;
a *renaming* is then a seeded permutation of that alphabet.  Renamings of one
base share a canonical key (when the canonicalizer merges them) and always
share a complexity class -- the benchmark checks the latter on every seed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.parser import format_problem, parse_problem
from repro.core.problem import LCLProblem
from repro.engine.canonical import canonical_form
from repro.problems import (
    coloring,
    distinct_forms,
    hard_problem,
    maximal_independent_set,
    pi_k,
    random_problem,
)

WORKLOADS = ("warm_hits", "warm_wide", "cold_search", "tcp_mixed")

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# Every run answers at least this many requests; the answer digest covers them.
MIN_REQUESTS = 200
WARM_POOL_KEYS = 256
WARM_RENAMINGS = 4
WARM_ZIPF_S = 1.1
WIDE_RENAMINGS = 8
# cold_search classifies a fixed universe of distinct draws (the seed only
# orders it): its per-request cost is heavy-tailed (p50 under 1 ms, max in
# the hundreds), so a seed-dependent sample would make throughput and p99
# depend on the draw rather than on the code.  The universe is classified
# COLD_ROUNDS times, each on a fresh session, and sized for ~seconds of
# work in all.
COLD_RATE_NOMINAL = 150
COLD_ROUNDS = 3
# tcp_mixed: share of requests that are new 4-label keys (a search, a cache
# store and, eventually, a sqlite flush each); the rest are warm hits.
TCP_NEW_SHARE = 0.1
# Offered rates of the open-loop ladder, requests per second, one equal
# share of the run each.  LOW and HIGH sit at about a quarter and a half of
# the 2-connection capacity (~1150/s on a 2-CPU host); the top step is past
# it, so the p99 limit is always crossed inside the ladder.
TCP_LADDER = (300, 600, 900, 1050, 1200)
TCP_LOW, TCP_HIGH = 300, 600


def one_char(problem: LCLProblem) -> LCLProblem:
    """``problem`` relabeled onto ``a, b, c, ...`` (sorted label order)."""
    labels = sorted(problem.labels)
    return problem.relabel({label: ALPHABET[index] for index, label in enumerate(labels)})


def renamings(problem: LCLProblem, count: int, rng: random.Random) -> List[LCLProblem]:
    """``count`` seeded label permutations of a one-character problem.

    Distinct while the alphabet has enough permutations; the first is the
    identity, whose text is the base problem's own (the one set-up warms).
    """
    labels = sorted(problem.labels)
    orders = [tuple(labels)]
    seen = {tuple(labels)}
    attempts = 0
    while len(orders) < count:
        order = labels[:]
        rng.shuffle(order)
        attempts += 1
        if tuple(order) in seen and attempts < 1000:
            continue
        seen.add(tuple(order))
        orders.append(tuple(order))
    return [problem.relabel(dict(zip(labels, order))) for order in orders]


def text_of(problem: LCLProblem) -> str:
    return format_problem(problem, compact=True)


@dataclass(frozen=True)
class Request:
    """One request of a plan: the text sent, and which base it renames.

    ``base`` is ``None`` for a request whose key is new (no other request
    shares its class).
    """

    text: str
    base: Optional[int]


@dataclass
class Plan:
    """The inputs of one workload run."""

    workload: str
    seed: int
    bases: List[str] = field(default_factory=list)
    # Known class per base, where the theory pins it; else learned at warm-up.
    expected: Dict[int, str] = field(default_factory=dict)
    variants: List[List[str]] = field(default_factory=list)
    # Work-bounded stream (cold_search).
    fixed: List[Request] = field(default_factory=list)

    def stream(self) -> Iterator[Request]:
        """The endless closed-loop request stream (not cold_search)."""
        rng = random.Random(f"{self.workload}:stream:{self.seed}")
        if self.workload == "warm_wide":
            # Uniform over (base, renaming), drawn without replacement per
            # cycle so every run sees the same mix of costs.
            pairs = [
                (base, variant)
                for base in range(len(self.bases))
                for variant in range(len(self.variants[base]))
            ]
            while True:
                rng.shuffle(pairs)
                for base, variant in pairs:
                    yield Request(self.variants[base][variant], base)
        fresh = None
        if self.workload == "tcp_mixed":
            warm_keys = {canonical_form(parse_problem(text)).key for text in self.bases}
            fresh = distinct_draws(4, delta=2, density=0.3, start=1_000_000, exclude=warm_keys)
        sampler = zipf_sampler(len(self.bases), WARM_ZIPF_S, rng)
        while True:
            if fresh is not None and rng.random() < TCP_NEW_SHARE:
                yield Request(next(fresh), None)
                continue
            base = sampler()
            yield Request(self.variants[base][rng.randrange(WARM_RENAMINGS)], base)

    def ladder(self, seconds: float) -> List[Tuple[float, int, Request]]:
        """The open-loop schedule over ``seconds``: (due offset, step, request).

        Seeded Poisson arrivals at each :data:`TCP_LADDER` rate in turn.
        Arrival times and request contents come from separate streams, so
        the i-th request is the same whatever the run length or loop kind.
        """
        timing = random.Random(f"{self.workload}:arrivals:{self.seed}")
        step_seconds = seconds / len(TCP_LADDER)
        arrivals: List[Tuple[float, int]] = []
        for step, rate in enumerate(TCP_LADDER):
            start = step * step_seconds
            at = start + timing.expovariate(rate)
            while at < start + step_seconds:
                arrivals.append((at, step))
                at += timing.expovariate(rate)
        return [(at, step, request) for (at, step), request in zip(arrivals, self.stream())]

    def requests(self, limit: int) -> List[Request]:
        """The first ``limit`` requests, whatever the loop kind."""
        if self.fixed:
            return self.fixed[:limit]
        stream = self.stream()
        return [next(stream) for _ in range(limit)]

    def digest(self, limit: int = 2000) -> str:
        """A fingerprint of the plan's first ``limit`` requests."""
        hasher = hashlib.sha256()
        for request in self.requests(limit):
            hasher.update(f"{request.base}|{request.text}\n".encode())
        return hasher.hexdigest()


def zipf_sampler(size: int, exponent: float, rng: random.Random):
    """Zipf(exponent) over items ``0..size-1``, item 0 the most popular.

    The ranks are fixed, not drawn from the seed: the top key alone takes a
    fifth of the requests, so seed-chosen hot keys made the mean problem
    size per request -- and with it throughput -- vary by ±15% across seeds.
    """
    cdf, total = [], 0.0
    for rank in range(size):
        total += 1.0 / (rank + 1) ** exponent
        cdf.append(total)
    return lambda: min(bisect.bisect_left(cdf, rng.random() * total), size - 1)


def _warm_pool(plan: Plan, rng: random.Random) -> None:
    for form in distinct_forms(WARM_POOL_KEYS, labels=3, density=0.3):
        base = one_char(form.problem)
        plan.bases.append(text_of(base))
        plan.variants.append([text_of(p) for p in renamings(base, WARM_RENAMINGS, rng)])


# (base problem, its class by the paper's theory): symmetric problems with
# wide alphabets, where canonicalization's permutation search dominates.
WIDE_BASES: Sequence[Tuple[Callable[[], LCLProblem], str]] = (
    (lambda: coloring(4), "Theta(log* n)"),
    (lambda: coloring(5), "Theta(log* n)"),
    (lambda: coloring(4, delta=3), "Theta(log* n)"),
    (lambda: maximal_independent_set(3), "O(1)"),
    (lambda: pi_k(3), "n^Theta(1)"),
    (lambda: pi_k(4), "n^Theta(1)"),
    # Over MAX_CANONICAL_PERMUTATIONS: its renamings fall back to keys that
    # do not merge, so each first sight of a renaming is a search.
    (lambda: hard_problem(5), "Theta(log n)"),
)


def distinct_draws(
    labels: int, delta: int, density: float, start: int, exclude=()
) -> Iterator[str]:
    """Texts of random draws with pairwise-distinct canonical keys.

    Keys are taken from the parsed text, which drops labels that no
    configuration uses, so two texts never share a key on the wire.
    """
    seen, seed = set(exclude), start
    while True:
        problem = random_problem(labels, delta=delta, density=density, seed=seed)
        seed += 1
        if not problem.configurations:
            continue
        text = text_of(problem)
        key = canonical_form(parse_problem(text)).key
        if key not in seen:
            seen.add(key)
            yield text


def build_plan(workload: str, seed: int, seconds: float) -> Plan:
    """The seeded inputs of ``workload`` for a run measuring ``seconds``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    plan = Plan(workload=workload, seed=seed)
    rng = random.Random(f"{workload}:plan:{seed}")
    if workload == "warm_hits":
        _warm_pool(plan, rng)
    elif workload == "warm_wide":
        # The renamings are fixed and the seed only orders the stream: how
        # long a renaming takes to canonicalize depends on the renaming (of
        # coloring(4, delta=3): 1.5 or 2.2 ms), and that base sits at the
        # median, so seeded renamings made latency_p50_ms depend on the draw.
        fixed = random.Random(f"{workload}:renamings")
        for index, (make, complexity) in enumerate(WIDE_BASES):
            base = one_char(make())
            plan.bases.append(text_of(base))
            plan.expected[index] = complexity
            plan.variants.append([text_of(p) for p in renamings(base, WIDE_RENAMINGS, fixed)])
    elif workload == "cold_search":
        count = max(MIN_REQUESTS, int(COLD_RATE_NOMINAL * seconds / COLD_ROUNDS))
        draws = distinct_draws(4, delta=3, density=0.15, start=0)
        # Shuffled block by block, so a prefix does not depend on the length.
        while len(plan.fixed) < count:
            block = list(itertools.islice(draws, min(100, count - len(plan.fixed))))
            rng.shuffle(block)
            plan.fixed.extend(Request(text, None) for text in block)
    else:
        _warm_pool(plan, rng)
    return plan
