"""One error surface for every classification path.

Before this module existed each entry point failed in its own dialect: the
local scheduler raised :class:`~repro.core.cancellation.SearchTimeout` /
:class:`SearchCancelled`, the service client raised
:class:`~repro.service.client.ServiceError` carrying a wire code, and the
parser raised :class:`~repro.core.problem.LCLError` — three unrelated types
with three message styles for the same underlying conditions.  The session
facade (:mod:`repro.api.session`) maps *all* of them onto the hierarchy
below, so callers write one ``except`` clause per condition regardless of
whether the work ran inline, on a worker pool, or across a socket.

Every exception carries a machine-readable :attr:`SessionError.code` using
the service protocol's spelling (``bad-problem``, ``timeout``, ...), and the
``str()`` form is always ``"<code>: <message>"`` — identical for the same
condition on every endpoint, which the parity tests in ``tests/test_api.py``
assert literally.
"""

from __future__ import annotations

from typing import Optional

from ..core.cancellation import CANCELLED, TIMEOUT


class SessionError(Exception):
    """Base of every error raised by :class:`~repro.api.ClassificationSession`.

    ``code`` is the machine-readable condition (the service protocol's error
    spelling); ``message`` the human half.  ``str(error)`` is always
    ``"<code>: <message>"``.
    """

    code = "error"

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        if code is not None:
            self.code = code
        self.message = message
        super().__init__(f"{self.code}: {message}")


class EndpointError(SessionError):
    """A session endpoint URL or :class:`SessionConfig` is malformed."""

    code = "bad-endpoint"


class ProblemFormatError(SessionError):
    """A problem spec (text, dict, or object) failed to parse or validate."""

    code = "bad-problem"


class RequestError(SessionError):
    """A request was structurally invalid (bad priority, bad parameters...)."""

    code = "bad-request"


class TransportError(SessionError):
    """The remote service connection failed, closed, or spoke garbage."""

    code = "connection-closed"


class InternalError(SessionError):
    """The engine or remote service failed internally while classifying."""

    code = "internal"


class UnsupportedOperationError(SessionError):
    """The operation does not exist on this endpoint kind (e.g. local cancel)."""

    code = "unsupported"


class ClassificationTimeout(SessionError):
    """A classification's search exceeded its deadline or budget."""

    code = TIMEOUT


class ClassificationCancelled(SessionError):
    """A classification's search was cancelled before completing."""

    code = CANCELLED


_REMOTE_CODE_MAP = {
    "bad-problem": ProblemFormatError,
    "bad-request": RequestError,
    "parse-error": RequestError,
    "unknown-op": UnsupportedOperationError,
    "internal": InternalError,
    "connection-closed": TransportError,
    "bad-hello": TransportError,
    TIMEOUT: ClassificationTimeout,
    CANCELLED: ClassificationCancelled,
}


def from_service_error(error: Exception) -> SessionError:
    """Map a :class:`~repro.service.client.ServiceError` into this hierarchy.

    The wire code picks the exception type (unknown codes fall back to
    :class:`RemoteServiceError`) and is preserved verbatim on ``.code``, so
    ``str()`` of the mapped error equals ``str()`` of the original.
    """
    code = getattr(error, "code", "internal")
    message = getattr(error, "message", str(error))
    exc_type = _REMOTE_CODE_MAP.get(code, InternalError)
    return exc_type(message, code=code)


def interruption_error(outcome: str, key: Optional[str] = None) -> SessionError:
    """The unified exception for an interrupted search, local or remote.

    Both drivers build the message from the same two ingredients — the
    outcome and the canonical key — so a blown deadline reads identically
    whether the search ran in-process or behind a socket.
    """
    subject = f"search for {key}" if key else "search"
    exc_type = ClassificationTimeout if outcome == TIMEOUT else ClassificationCancelled
    if outcome == TIMEOUT:
        return exc_type(f"{subject} exceeded its deadline")
    return exc_type(f"{subject} was cancelled")


__all__ = [
    "ClassificationCancelled",
    "ClassificationTimeout",
    "EndpointError",
    "InternalError",
    "ProblemFormatError",
    "RequestError",
    "SessionError",
    "TransportError",
    "UnsupportedOperationError",
    "from_service_error",
    "interruption_error",
]
