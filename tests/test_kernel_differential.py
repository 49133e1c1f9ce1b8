"""Differential oracle: the bitmask kernel is pinned to the reference path.

Every test classifies the same problems twice — once with
``REPRO_KERNEL=bitmask`` (the default) and once with the frozenset
reference — and asserts *equality of everything observable*: the complexity
class, the pruning sets and notes, the materialized certificates, and the
byte-level ``entries`` of the certificate builders.  The sweep covers

* **all** small problems exhaustively (every configuration subset over one-
  and two-label alphabets for δ ∈ {1, 2, 3} — including unsolvable, empty,
  and degenerate problems),
* the seeded pools of :mod:`repro.problems.pools` (the same pools the fuzz
  and parity suites use),
* the paper's catalog and the adversarial family, and
* error behavior (timeouts) and every worker backend.

Any divergence is a kernel bug by definition: the reference implementation
is the specification.
"""

from __future__ import annotations

import itertools

import pytest

from repro.api.session import census_problems
from repro.core import classify_with_certificates, kernel_override
from repro.core.constant_certificate import find_constant_certificate_builder
from repro.core.kernel import BITMASK, KERNELS, REFERENCE, active_kernel
from repro.core.log_certificate import find_log_certificate
from repro.core.logstar_certificate import (
    find_certificate_builder,
    find_unrestricted_certificate,
)
from repro.core.problem import LCLProblem
from repro.problems.adversarial import hard_problem
from repro.problems.catalog import catalog
from repro.problems.pools import distinct_forms


def _assert_same_classification(problem: LCLProblem) -> None:
    """Classify under both kernels; everything observable must match."""
    with kernel_override(REFERENCE):
        ref = classify_with_certificates(problem)
    with kernel_override(BITMASK):
        ker = classify_with_certificates(problem)
    context = f"problem={problem!r}"
    assert ker.result == ref.result, context
    assert ker.log_certificate == ref.log_certificate, context
    # Materialized log*/constant certificates compare by their label sets and
    # special configuration (already covered by the result equality above);
    # presence must agree exactly.
    assert (ker.logstar_certificate is None) == (
        ref.logstar_certificate is None
    ), context
    assert (ker.constant_certificate is None) == (
        ref.constant_certificate is None
    ), context


def _assert_same_builders(problem: LCLProblem) -> None:
    """The search functions themselves must return equal objects.

    ``CertificateBuilder`` equality includes the ``entries`` dict (which
    derivation produced each root-set pair), so this pins the kernel's
    enumeration *order*, not only its answers.
    """
    with kernel_override(REFERENCE):
        ref = (
            find_log_certificate(problem),
            find_unrestricted_certificate(problem),
            find_certificate_builder(problem),
            find_constant_certificate_builder(problem),
            [
                find_unrestricted_certificate(problem, special_label=label)
                for label in sorted(problem.labels)
            ],
        )
    with kernel_override(BITMASK):
        ker = (
            find_log_certificate(problem),
            find_unrestricted_certificate(problem),
            find_certificate_builder(problem),
            find_constant_certificate_builder(problem),
            [
                find_unrestricted_certificate(problem, special_label=label)
                for label in sorted(problem.labels)
            ],
        )
    for tag, ref_value, ker_value in zip(
        ("alg2", "alg3", "alg4", "alg5", "alg3-special"), ref, ker
    ):
        assert ker_value == ref_value, f"{tag} diverged for problem={problem!r}"


def _all_small_problems(delta: int, labels: tuple) -> list:
    """Every problem over ``labels`` with the given δ: all config subsets."""
    universe = [
        (parent, children)
        for parent in labels
        for children in itertools.combinations_with_replacement(labels, delta)
    ]
    problems = []
    for bits in range(1 << len(universe)):
        chosen = [universe[i] for i in range(len(universe)) if (bits >> i) & 1]
        problems.append(
            LCLProblem.create(delta=delta, configurations=chosen, labels=labels)
        )
    return problems


class TestExhaustiveSmallProblems:
    """The tractable bound: every problem on ≤2 labels, δ ≤ 3, exhaustively."""

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_every_single_label_problem_agrees(self, delta):
        for problem in _all_small_problems(delta, ("1",)):
            _assert_same_classification(problem)

    @pytest.mark.parametrize("delta", [1, 2])
    def test_every_two_label_problem_agrees(self, delta):
        for problem in _all_small_problems(delta, ("1", "2")):
            _assert_same_classification(problem)

    def test_two_label_delta3_problems_agree_builder_level(self):
        # δ=3 over two labels is 256 problems; check the builders themselves
        # (entries included) on every fourth one and the classification on all.
        problems = _all_small_problems(3, ("1", "2"))
        for index, problem in enumerate(problems):
            _assert_same_classification(problem)
            if index % 4 == 0:
                _assert_same_builders(problem)


class TestSeededPools:
    """The shared pools every harness draws from, at builder-level equality."""

    def test_distinct_form_pool_agrees(self):
        for form in distinct_forms(20, labels=3, density=0.3):
            _assert_same_builders(form.problem)
            _assert_same_classification(form.problem)

    def test_two_label_census_draws_agree(self):
        problems, _echo = census_problems(
            {"labels": 2, "density": 0.5, "count": 40, "seed": 0}
        )
        for problem in problems:
            _assert_same_builders(problem)

    def test_three_label_sparse_draws_agree(self):
        problems, _echo = census_problems(
            {"labels": 3, "density": 0.2, "count": 25, "seed": 500}
        )
        for problem in problems:
            _assert_same_classification(problem)

    def test_four_label_draws_agree(self):
        problems, _echo = census_problems(
            {"labels": 4, "density": 0.25, "count": 10, "seed": 900}
        )
        for problem in problems:
            _assert_same_classification(problem)


class TestNamedFamilies:
    def test_catalog_agrees_and_matches_expected(self):
        for name, (problem, expected) in catalog().items():
            _assert_same_builders(problem)
            with kernel_override(BITMASK):
                assert classify_with_certificates(problem).complexity == expected, name

    @pytest.mark.parametrize("pairs", [0, 1, 2, 3])
    def test_adversarial_family_agrees(self, pairs):
        _assert_same_builders(hard_problem(pairs))


class TestErrorParity:
    """Timeouts and cancellation surface identically from both kernels."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_expired_budget_raises_search_timeout(self, kernel):
        from repro.core import CancelToken, SearchTimeout, cancel_scope, classify

        problem = hard_problem(12)
        with kernel_override(kernel):
            with cancel_scope(CancelToken.with_budget(0.0)):
                with pytest.raises(SearchTimeout):
                    classify(problem)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_invalid_kernel_name_rejected(self, kernel, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        with pytest.raises(ValueError):
            active_kernel()
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        assert active_kernel() == kernel


class TestEveryBackend:
    """The kernels agree end to end through every worker backend.

    The kernel is selected via the environment here (not
    :func:`kernel_override`, which is thread-local) because threads and
    process pools run searches off the submitting thread; the process pool
    inherits the environment at creation time, so the session is opened
    *after* the env var is set.
    """

    POOL = 6

    def _outcomes(self, endpoint: str):
        from repro.api import connect

        problems = [form.problem for form in distinct_forms(self.POOL, labels=3)]
        with connect(endpoint) as session:
            items = list(session.classify_many(problems))
        return [
            (item.outcome, item.result.complexity if item.result else None)
            for item in items
        ]

    @pytest.mark.parametrize(
        "endpoint",
        ["local://inline", "local://threads?workers=2", "local://processes?workers=2"],
    )
    def test_backend_outcomes_match_between_kernels(self, endpoint, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", REFERENCE)
        ref = self._outcomes(endpoint)
        monkeypatch.setenv("REPRO_KERNEL", BITMASK)
        ker = self._outcomes(endpoint)
        assert ker == ref
        assert all(outcome == "ok" for outcome, _ in ker)
