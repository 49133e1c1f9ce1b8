"""Tests for the cooperative cancellation primitives and their hooks in the
certificate searches (deadlines, cancel scopes, checkpoints)."""

import threading
import time

import pytest

from repro.core import (
    CancelToken,
    SearchCancelled,
    SearchInterrupted,
    SearchTimeout,
    cancel_scope,
    checkpoint,
    classify,
    current_token,
)
from repro.core.cancellation import CANCELLED, TIMEOUT
from repro.problems import catalog, hard_problem


class TestCancelToken:
    def test_fresh_token_passes_checks(self):
        token = CancelToken()
        assert not token.cancelled
        assert not token.expired
        assert token.remaining() is None
        token.check()  # no raise

    def test_cancel_trips_the_flag_and_check_raises(self):
        token = CancelToken()
        token.cancel()
        assert token.cancelled
        with pytest.raises(SearchCancelled) as excinfo:
            token.check(key="some-key")
        assert excinfo.value.outcome == CANCELLED
        assert excinfo.value.key == "some-key"

    def test_cancel_with_timeout_reason_raises_search_timeout(self):
        token = CancelToken()
        token.cancel(reason=TIMEOUT)
        with pytest.raises(SearchTimeout):
            token.check()

    def test_budget_deadline_expires(self):
        token = CancelToken.with_budget(0.01)
        assert token.remaining() is not None
        time.sleep(0.03)
        assert token.expired
        with pytest.raises(SearchTimeout) as excinfo:
            token.check()
        assert excinfo.value.outcome == TIMEOUT
        assert token.remaining() == 0.0

    def test_no_budget_means_no_deadline(self):
        token = CancelToken.with_budget(None)
        assert token.deadline is None
        assert not token.expired

    def test_interrupted_is_a_runtime_error(self):
        # Upper layers catch SearchInterrupted once for both flavors.
        assert issubclass(SearchCancelled, SearchInterrupted)
        assert issubclass(SearchTimeout, SearchInterrupted)
        assert issubclass(SearchInterrupted, RuntimeError)


class TestCancelScope:
    def test_checkpoint_without_scope_is_a_no_op(self):
        assert current_token() is None
        checkpoint()  # no raise

    def test_scope_installs_and_restores_the_token(self):
        token = CancelToken()
        with cancel_scope(token):
            assert current_token() is token
        assert current_token() is None

    def test_scopes_nest_and_none_inherits(self):
        outer, inner = CancelToken(), CancelToken()
        with cancel_scope(outer):
            with cancel_scope(inner):
                assert current_token() is inner
            assert current_token() is outer
            with cancel_scope(None):  # a no-op scope keeps the outer token
                assert current_token() is outer
        assert current_token() is None

    def test_checkpoint_raises_inside_a_cancelled_scope(self):
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(SearchCancelled):
                checkpoint()

    def test_scope_is_thread_local(self):
        token = CancelToken()
        seen = []

        def worker():
            seen.append(current_token())

        with cancel_scope(token):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        assert seen == [None]


class TestSearchCheckpoints:
    """The decision procedure itself honors deadlines and cancellation."""

    def test_hard_problem_times_out_quickly(self):
        """A minutes-long adversarial search aborts within a fraction of a second."""
        problem = hard_problem(12)
        start = time.monotonic()
        with cancel_scope(CancelToken.with_budget(0.3)):
            with pytest.raises(SearchTimeout):
                classify(problem)
        # Generous CI margin: the search checkpoints every subset and every
        # few δ-tuples, so an abort several seconds late would mean the
        # hooks are gone.
        assert time.monotonic() - start < 5.0

    def test_cross_thread_cancel_interrupts_a_running_search(self):
        problem = hard_problem(12)
        token = CancelToken()
        outcome = []

        def search():
            try:
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

    def test_unarmed_scope_changes_nothing(self):
        for name, (problem, expected) in catalog().items():
            with cancel_scope(CancelToken()):
                assert classify(problem).complexity == expected, name

    def test_hard_problem_completes_without_a_deadline(self):
        """The small family member classifies to the documented class."""
        problem = hard_problem(3)  # ~40ms: cheap enough for the default lane
        result = classify(problem)
        assert result.complexity.value == "Theta(log n)"
