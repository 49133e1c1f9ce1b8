"""Cancellation regressions for the bitmask kernel.

PR 4's guarantee — every exponential loop polls ``checkpoint()`` so
deadlines and cross-thread cancellation interrupt a search within a small
latency bound — must survive the kernel rewrite.  These tests run the same
scenarios the frozenset path is tested for (``tests/test_cancellation.py``)
explicitly against both kernels, plus the memo-scope property the kernel
adds: an interrupted classification caches nothing, so retrying a doomed
search stays doomed (and retrying with headroom still succeeds), and the
poll spacing of Algorithm 3, which polls once per ``POLL_STRIDE`` δ-tuples.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import (
    CancelToken,
    ComplexityClass,
    SearchCancelled,
    SearchTimeout,
    cancel_scope,
    classify,
    kernel,
    kernel_override,
)
from repro.core.kernel import BITMASK, KERNELS, POLL_STRIDE, _scope
from repro.problems.adversarial import hard_problem
from repro.problems.random_problems import random_problem


class TestKernelCheckpointLatency:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_deadline_mid_sweep_raises_search_timeout_quickly(self, kernel):
        """A minutes-long sweep aborts within the reference latency bound."""
        problem = hard_problem(12)
        start = time.monotonic()
        with kernel_override(kernel):
            with cancel_scope(CancelToken.with_budget(0.3)):
                with pytest.raises(SearchTimeout):
                    classify(problem)
        # Same generous CI margin as the frozenset-path test: the sweeps
        # checkpoint every subset and every POLL_STRIDE δ-tuples, so an
        # abort seconds late means the kernel lost its polling hooks.
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cross_thread_cancel_interrupts_kernel_sweep(self, kernel):
        problem = hard_problem(12)
        token = CancelToken()
        outcome = []

        def search():
            try:
                with kernel_override(kernel):
                    with cancel_scope(token):
                        classify(problem)
                outcome.append("completed")
            except SearchCancelled:
                outcome.append("cancelled")

        thread = threading.Thread(target=search)
        thread.start()
        time.sleep(0.2)
        token.cancel()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome == ["cancelled"]


class TestInterruptedSearchesCacheNothing:
    def test_repeated_deadline_classifications_all_time_out(self):
        """If an aborted sweep leaked memo state, the retry would finish
        instantly instead of blowing its budget again."""
        problem = hard_problem(9)  # ~2s kernel sweep: far over every budget
        with kernel_override(BITMASK):
            for _attempt in range(3):
                start = time.monotonic()
                with cancel_scope(CancelToken.with_budget(0.15)):
                    with pytest.raises(SearchTimeout):
                        classify(problem)
                assert time.monotonic() - start < 2.0

    def test_interrupt_then_success_then_interrupt(self):
        """A completed classification in between must not change the memo
        story either: scopes are per-call, dropped on return and unwind."""
        hard = hard_problem(9)
        easy = hard_problem(2)
        with kernel_override(BITMASK):
            with cancel_scope(CancelToken.with_budget(0.15)):
                with pytest.raises(SearchTimeout):
                    classify(hard)
            assert classify(easy).complexity.value == "Theta(log n)"
            with cancel_scope(CancelToken.with_budget(0.15)):
                with pytest.raises(SearchTimeout):
                    classify(hard)

    def test_scope_stack_is_empty_after_unwind(self):
        """The thread-local KernelState stack never leaks past an interrupt."""
        with kernel_override(BITMASK):
            with cancel_scope(CancelToken.with_budget(0.1)):
                with pytest.raises(SearchTimeout):
                    classify(hard_problem(9))
        assert getattr(_scope, "stack", []) == []

    def test_interrupted_search_does_not_poison_answers(self):
        """After an interrupt, an undeadlined classification still answers
        exactly (and correctly for the adversarial family)."""
        problem = hard_problem(4)
        with kernel_override(BITMASK):
            with cancel_scope(CancelToken.with_budget(0.0)):
                with pytest.raises(SearchTimeout):
                    classify(problem)
            assert classify(problem).complexity.value == "Theta(log n)"


class _TupleLog:
    """Polls, and the δ-tuples Algorithm 3 enumerates between them.

    Algorithm 3 enumerates a round's tuples through lockstep enumerations
    (pair codes and set masks), all created before any of them yields.
    So enumerations created with no item in between form one round, and
    the round's ``i``-th tuple is the ``i``-th item of any of them.
    """

    def __init__(self) -> None:
        self.rounds = 0
        self.tuples = 0
        self.worst_gap = 0  # most tuples enumerated between two polls
        self.unpolled_rounds = []  # rounds with no poll before their last tuple
        self._gap = 0
        self._reached = 0  # tuples of the current round so far
        self._polled = True  # a poll since the current round was created
        self._last_tuple_polled = True  # ... as of its latest tuple
        self._creating = False  # the last event created an enumeration

    def poll(self) -> None:
        self._gap = 0
        self._polled = True

    def enumeration(self, items):
        if not self._creating:
            self.finish()
            self.rounds += 1
            self._reached = 0
            self._polled = False
            self._creating = True
        return self._items(items)

    def _items(self, items):
        for index, item in enumerate(items):
            self._creating = False
            if index == self._reached:
                self._reached += 1
                self.tuples += 1
                self._gap += 1
                self.worst_gap = max(self.worst_gap, self._gap)
                self._last_tuple_polled = self._polled
            yield item

    def finish(self) -> None:
        """Close the current round: it must have polled by its last tuple."""
        if self.rounds and not self._last_tuple_polled:
            self.unpolled_rounds.append(self.rounds)


class TestPollSpacing:
    """Algorithm 3 polls once per ``POLL_STRIDE`` enumerated δ-tuples.

    At most ``POLL_STRIDE`` tuples pass between two polls, and every
    derivation round polls before its last tuple.  Every enumerated tuple
    counts, also the ones the ``newly`` filter skips:
    on these draws a sweep skips up to ~970 tuples in a row, so a version
    counting only the evaluated tuples would leave long gaps between polls.
    No timing: the test wraps ``checkpoint`` and the δ-tuple enumeration
    where :mod:`repro.core.kernel` looks them up, and counts.
    """

    # Cold-shape draws that reach Algorithm 5's flagged sweeps and succeed
    # there (O(1)), each with a run of more than 64 skipped tuples.
    SEEDS = (4, 10, 25, 35, 36, 37)

    def test_at_most_poll_stride_tuples_between_polls(self, monkeypatch):
        log = _TupleLog()
        real_checkpoint = kernel.checkpoint
        real_enumeration = kernel.combinations_with_replacement

        def checkpoint():
            log.poll()
            real_checkpoint()

        def combinations_with_replacement(iterable, size):
            return log.enumeration(real_enumeration(iterable, size))

        monkeypatch.setattr(kernel, "checkpoint", checkpoint)
        monkeypatch.setattr(
            kernel, "combinations_with_replacement", combinations_with_replacement
        )
        with kernel_override(BITMASK):
            for seed in self.SEEDS:
                problem = random_problem(4, delta=3, density=0.15, seed=seed)
                assert classify(problem).complexity is ComplexityClass.CONSTANT
        log.finish()

        assert log.rounds > len(self.SEEDS) and log.tuples > 10 * POLL_STRIDE
        assert log.worst_gap <= POLL_STRIDE
        assert log.unpolled_rounds == []
