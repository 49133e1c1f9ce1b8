"""Cooperative cancellation and deadlines for the certificate searches.

The decision procedures of Sections 6 and 7 are exponential in the worst
case, and a single adversarial problem can otherwise pin a worker (or the
whole process) for minutes.  This module provides the primitive that makes
such searches interruptible without killing anything:

* a :class:`CancelToken` — a cancel flag plus an optional absolute deadline —
  that callers arm before starting a search, and
* a per-thread *cancel scope* installed with :func:`cancel_scope`, polled by
  the search loops through :func:`checkpoint`.

The certificate searches (:mod:`repro.core.log_certificate`,
:mod:`repro.core.logstar_certificate`, :mod:`repro.core.constant_certificate`)
call :func:`checkpoint` once per iteration of their outer loops.  When no
scope is installed the call is a single thread-local attribute read, so the
serial fast path stays unmeasurably cheap; when a scope is installed and its
token is cancelled or past its deadline, the checkpoint raises
:class:`SearchCancelled` or :class:`SearchTimeout` and the search unwinds
immediately, releasing its worker.

This module is deliberately dependency-free (standard library only) so the
core decision procedures can poll it without importing the worker subsystem.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

CANCELLED = "cancelled"
TIMEOUT = "timeout"
OUTCOMES = (CANCELLED, TIMEOUT)
"""The two ways a search can be interrupted (also used as wire outcomes)."""


class SearchInterrupted(RuntimeError):
    """A certificate search was stopped before completing.

    ``outcome`` is ``"cancelled"`` or ``"timeout"`` (the wire spelling used in
    protocol item frames and scheduler statistics); ``key`` names the
    canonical key of the interrupted search when known.
    """

    outcome = CANCELLED

    def __init__(self, message: str = "", key: Optional[str] = None) -> None:
        super().__init__(message or f"search {self.outcome}")
        self.key = key


class SearchCancelled(SearchInterrupted):
    """The search's cancel token was triggered explicitly."""

    outcome = CANCELLED


class SearchTimeout(SearchInterrupted):
    """The search ran past its deadline."""

    outcome = TIMEOUT


class CancelToken:
    """A cancel flag plus an optional deadline, shared by everyone involved.

    Parameters
    ----------
    deadline:
        Absolute :func:`time.monotonic` timestamp after which the token is
        expired.  ``None`` means no time limit.
    """

    __slots__ = ("deadline", "_flag", "reason", "checkpoints")

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.deadline = deadline
        self._flag = threading.Event()
        self.reason: Optional[str] = None
        # Observability piggyback: the searches already poll this token at
        # every checkpoint, so counting polls here gives the tracing layer a
        # progress signal with **zero** new kernel plumbing.  `checkpoints`
        # is bumped by the search thread only (exact per token, no lock).
        self.checkpoints = 0

    @classmethod
    def with_budget(cls, seconds: Optional[float]) -> "CancelToken":
        """A token expiring ``seconds`` from now (no deadline when ``None``)."""
        deadline = time.monotonic() + seconds if seconds is not None else None
        return cls(deadline=deadline)

    def cancel(self, reason: str = CANCELLED) -> None:
        """Trigger the flag; every checkpoint under this token raises next."""
        if self.reason is None:
            self.reason = reason
        self._flag.set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (deadline not considered)."""
        return self._flag.is_set()

    @property
    def expired(self) -> bool:
        """Whether the deadline (if any) has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` without one, floored at 0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def check(self, key: Optional[str] = None) -> None:
        """Raise :class:`SearchCancelled`/:class:`SearchTimeout` when triggered.

        An explicit :meth:`cancel` wins over an expired deadline when both
        hold, except when the cancel itself recorded a timeout reason.
        """
        self.checkpoints += 1
        if self._flag.is_set():
            if self.reason == TIMEOUT:
                raise SearchTimeout(key=key)
            raise SearchCancelled(key=key)
        if self.expired:
            raise SearchTimeout(key=key)


_scope = threading.local()


def current_token() -> Optional[CancelToken]:
    """The innermost token installed on this thread (``None`` outside scopes)."""
    return getattr(_scope, "token", None)


@contextmanager
def cancel_scope(token: Optional[CancelToken]) -> Iterator[Optional[CancelToken]]:
    """Install ``token`` as this thread's active cancel scope.

    Scopes nest: the innermost token wins, and the previous one is restored
    on exit.  ``cancel_scope(None)`` is a no-op scope, which lets callers
    write one ``with`` statement for both the bounded and unbounded cases.
    """
    previous = current_token()
    _scope.token = token if token is not None else previous
    try:
        yield token
    finally:
        _scope.token = previous


def checkpoint(key: Optional[str] = None) -> None:
    """Poll the active cancel scope; raise when cancelled or past deadline.

    This is the single call sprinkled through the certificate search loops.
    Without an installed scope it reduces to one thread-local read.
    """
    token = getattr(_scope, "token", None)
    if token is not None:
        token.check(key)
